#!/usr/bin/env python3
"""IQB benchmark runner.

Run from the root of a checkout:

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the program (library, iqbd, iqbctl) and the iqb_perf binary from
source into $CARGO_TARGET_DIR (default .bench_build), generates the
workload's inputs from --seed under .bench_work/, runs the workload and
prints its JSON result as the last stdout line. Traced runs also leave
their per-layer metrics and spans, in Prometheus text, under
.bench_out/. Everything else the run makes is removed when it ends.

Workloads: cycle_csv_2m, cycle_iqbr_276k, serve_scores, campaign.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

WORKLOADS = ("cycle_csv_2m", "cycle_iqbr_276k", "serve_scores", "campaign")
RECORDS = {"cycle_csv_2m": 2_200_000, "cycle_iqbr_276k": 276_000,
           "serve_scores": 35_000}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally; build output to stderr."""
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    build_dir = target / "cmake"
    if not (build_dir / "build.ninja").exists():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                        "-G", "Ninja", "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "--target",
                    "iqb_perf", "iqbd", "iqbctl", "--",
                    f"-j{os.cpu_count() or 1}"],
                   check=True, stdout=sys.stderr)
    tools = build_dir / "iqb" / "tools"
    return build_dir / "iqb_perf", tools / "iqbd", tools / "iqbctl"


def run(argv):
    """Run a step in its own process group, its stderr passed through;
    returns its stdout. Whatever the step started and left behind (an
    iqbd, if the step died) is killed with the group."""
    step = subprocess.Popen([str(a) for a in argv], stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        output, _ = step.communicate()
    finally:
        try:
            os.killpg(step.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        step.wait()
    if step.returncode != 0:
        raise RuntimeError(f"{Path(argv[0]).name} {argv[1]} exited "
                           f"{step.returncode}")
    return output


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log(f"benchmark: no IQB sources next to {BENCH_DIR}; run it from "
            "the root of a checkout")
        return 2

    perf, iqbd, iqbctl = build()
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    trace_args = ["--seconds", args.seconds, "--trace", args.trace]
    if args.trace:
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        trace_args += ["--trace-out",
                       out_dir / f"{args.workload}-seed{args.seed}.prom"]
    try:
        if args.workload == "campaign":
            output = run([perf, "campaign", "--seed", args.seed] + trace_args)
        else:
            csv = work / "records.csv"
            reference = work / "reference.txt"
            run([perf, "gen", "--seed", args.seed, "--records",
                 RECORDS[args.workload], "--out", csv, "--reference",
                 reference])
            if args.workload == "serve_scores":
                output = run([perf, "serve", "--iqbd", iqbd, "--records", csv,
                              "--reference", reference, "--work", work]
                             + trace_args)
            else:
                records = csv
                replicate = args.workload == "cycle_iqbr_276k"
                if replicate:
                    records = work / "records.iqbr"
                    run([iqbctl, "convert", "--records", csv, "--out",
                         records])
                    csv.unlink()
                output = run([perf, "cycle", "--records", records,
                              "--reference", reference, "--work", work,
                              "--iqbd", iqbd, "--replicate", int(replicate)]
                             + trace_args)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = output.strip().splitlines()
    if not lines:
        log("benchmark: the workload printed no result")
        return 1
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, subprocess.CalledProcessError) as error:
        log(f"benchmark: {error}")
        sys.exit(1)
