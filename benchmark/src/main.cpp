// iqb_perf: the benchmark's measuring binary. benchmark/run.py builds it
// and calls one subcommand per step:
//
//   iqb_perf gen --seed N --records N --out FILE.csv --reference FILE
//   iqb_perf cycle --records FILE --reference FILE --work DIR
//                  [--iqbd PATH --replicate 1] --seconds S --trace 0|1
//                  [--trace-out FILE.prom]
//   iqb_perf serve --iqbd PATH --records FILE.csv --reference FILE
//                  --work DIR --seconds S --trace 0|1 [--trace-out FILE]
//   iqb_perf campaign --seed N --seconds S --trace 0|1 [--trace-out FILE]
//
// Measuring subcommands print one JSON result line last on stdout.
// cycle and campaign also run themselves with --role setup, once per
// cold set-up they time.
#include <iostream>
#include <string>
#include <vector>

#include "workloads.hpp"
#include "harness.hpp"
#include "synth.hpp"

namespace iqb_perf {

int gen_main(const std::vector<std::string>& args) {
  const std::string out = option(args, "--out");
  const std::string reference_path = option(args, "--reference");
  if (out.empty() || reference_path.empty()) {
    std::cerr << "gen: --out and --reference are required\n";
    return 2;
  }
  const std::uint64_t seed = std::stoull(option(args, "--seed", "1"));
  const std::size_t records = std::stoull(option(args, "--records", "35000"));
  Reference reference;
  SynthStats stats;
  if (!generate_country(seed, records, out, reference, stats) ||
      !reference.write(reference_path)) {
    std::cerr << "gen: cannot write " << out << " or " << reference_path << "\n";
    return 1;
  }
  std::cerr << "gen: " << stats.records << " records, " << stats.bytes
            << " bytes, " << reference.cells.size() << " cells\n";
  return 0;
}

}  // namespace iqb_perf

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: iqb_perf gen|cycle|serve|campaign [options]\n";
    return 2;
  }
  const std::string command = argv[1];
  const std::vector<std::string> args(argv + 2, argv + argc);
  if (command == "gen") return iqb_perf::gen_main(args);
  if (command == "cycle") return iqb_perf::cycle_main(args);
  if (command == "serve") return iqb_perf::serve_main(args);
  if (command == "campaign") return iqb_perf::campaign_main(args);
  std::cerr << "iqb_perf: unknown subcommand " << command << "\n";
  return 2;
}
