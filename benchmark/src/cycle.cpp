// Cycle workloads (cycle_csv_2m, cycle_iqbr_276k): repeated
// cli::WatchDaemon::run_cycle over one records file, the daemon at its
// defaults (telemetry on, default thread width) with a state dir and,
// optionally, one replication peer.
//
// The measuring process starts the replication peer (an iqbd), then
// times kColdSetups set-ups in fresh processes of its own binary
// (--role setup: spawn to the end of the first cycle) and
// reports their median as setup_s. It then builds its own daemon, runs
// one untimed cycle, and runs cycles back to back for --seconds. The
// traced run skips the cold set-ups and instead runs rounds of one timed
// run_cycle plus one call into each layer's public function over the
// same file, each inside a span, for --seconds.
#include <algorithm>
#include <filesystem>
#include <iostream>
#include <map>
#include <sstream>

#include "workloads.hpp"
#include "harness.hpp"
#include "reference.hpp"

#include "iqb/cli/daemon.hpp"
#include "iqb/core/config.hpp"
#include "iqb/core/pipeline.hpp"
#include "iqb/datasets/aggregate.hpp"
#include "iqb/datasets/fast_csv.hpp"
#include "iqb/datasets/store.hpp"
#include "iqb/fleet/fetcher.hpp"
#include "iqb/fleet/replication.hpp"
#include "iqb/fleet/wire.hpp"
#include "iqb/obs/metrics.hpp"
#include "iqb/report/render.hpp"
#include "iqb/robust/checkpoint.hpp"

namespace iqb_perf {

namespace {

namespace fs = std::filesystem;

/// Cold set-ups per run, each in a fresh process; setup_s is their
/// median.
constexpr int kColdSetups = 3;

/// Rebuild the daemon's /metrics series in a registry of our own, so
/// history sampling sees the same series count the daemon's own
/// per-cycle sampling does (the daemon does not expose its registry).
void mirror_metrics(const std::string& exposition,
                    iqb::obs::MetricsRegistry& registry) {
  std::istringstream lines(exposition);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto space = line.rfind(' ');
    if (space == std::string::npos) continue;
    const std::string series = line.substr(0, space);
    const double value = std::strtod(line.c_str() + space + 1, nullptr);
    iqb::obs::LabelSet labels;
    std::string name = series;
    const auto brace = series.find('{');
    if (brace != std::string::npos) {
      name = series.substr(0, brace);
      std::size_t at = brace + 1;
      while (at < series.size() && series[at] != '}') {
        const auto eq = series.find("=\"", at);
        if (eq == std::string::npos) break;
        const auto close = series.find('"', eq + 2);
        if (close == std::string::npos) break;
        labels[series.substr(at, eq - at)] = series.substr(eq + 2, close - eq - 2);
        at = close + 1;
        if (at < series.size() && series[at] == ',') ++at;
      }
    }
    registry.gauge(name, "mirrored", labels).set(value);
  }
}

/// Newest checkpoint file directly under `dir`, or "".
std::string newest_checkpoint(const std::string& dir) {
  std::string newest;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (entry.is_regular_file() && name.rfind("checkpoint-", 0) == 0 &&
        name.size() > 5 && name.compare(name.size() - 5, 5, ".ckpt") == 0) {
      newest = std::max(newest, entry.path().string());
    }
  }
  return newest;
}

/// The daemon's served snapshot against the reference, and the newest
/// checkpoint on disk against the served scores.
void check_daemon(iqb::cli::WatchDaemon& daemon, const Reference& reference,
                  const std::string& state_dir, RunResult& result) {
  const auto snapshot = daemon.server().latest();
  if (!snapshot) {
    result.fail("daemon published no snapshot");
    return;
  }
  ScoreTable scores;
  CellTable cells;
  if (!parse_scores_json(snapshot->scores_json, scores)) {
    result.fail("published /scores document does not parse");
  }
  if (!parse_aggregate_json(snapshot->aggregate_json, cells)) {
    result.fail("published aggregate document does not parse");
  }
  for (const std::string& problem : check(cells, scores, reference)) {
    result.fail(problem);
  }
  const std::string newest = newest_checkpoint(state_dir);
  if (newest.empty()) {
    result.fail("no checkpoint in " + state_dir);
    return;
  }
  const auto decoded = iqb::robust::Checkpoint::decode(read_file(newest));
  if (!decoded.ok()) {
    result.fail("newest checkpoint does not decode: " +
                decoded.error().to_string());
  } else if (decoded->scores_json != snapshot->scores_json ||
             decoded->cycle != snapshot->cycle) {
    result.fail("newest checkpoint differs from the served scores");
  }
}

/// One traced round: a timed run_cycle, then each layer's public
/// function once, in cycle order.
void traced_round(iqb::cli::WatchDaemon& daemon, const std::string& records,
                  const std::string& trace_state_dir,
                  iqb::fleet::Replicator* replicator, std::uint64_t round_no,
                  Spans& spans, std::map<std::string, double>& counts,
                  RunResult& result) {
  std::ostringstream err;
  const int round = spans.begin("round");
  {
    ScopedSpan span(spans, "cli.cycle_traced", round);
    if (!daemon.run_cycle(err)) result.fail("traced cycle failed: " + err.str());
  }

  iqb::datasets::LoadFileOptions load;
  load.ingest = iqb::robust::IngestPolicy::strict();
  load.retry.max_attempts = 1;
  std::vector<iqb::datasets::MeasurementRecord> loaded;
  for (const std::size_t threads : {0, 1}) {
    // The records are moved out inside the span and freed outside it
    // (at the top of the next pass, or with the store), so no load span
    // pays for freeing them.
    loaded = {};
    load.threads = threads;
    ScopedSpan span(spans, threads == 1 ? "datasets.load_serial" : "datasets.load",
                    round);
    auto outcome = iqb::datasets::load_records_file(records, load);
    if (outcome.ok()) {
      loaded = std::move(outcome).value().records;
    } else {
      result.fail("load_records_file failed at width " + std::to_string(threads));
    }
  }
  iqb::datasets::RecordStore store;
  {
    ScopedSpan span(spans, "datasets.store_build", round);
    store.add_all(std::move(loaded));
  }
  {
    ScopedSpan span(spans, "datasets.index_build", round);
    (void)store.index();
  }
  const iqb::core::IqbConfig config = iqb::core::IqbConfig::paper_defaults();
  iqb::datasets::AggregationPolicy policy = config.aggregation;
  policy.threads = 0;
  iqb::datasets::AggregateTable table;
  {
    ScopedSpan span(spans, "datasets.aggregate", round);
    table = iqb::datasets::aggregate(store, policy);
  }
  policy.threads = 1;
  {
    ScopedSpan span(spans, "datasets.aggregate_serial", round);
    table = iqb::datasets::aggregate(store, policy);
  }
  std::vector<iqb::core::RegionResult> results;
  {
    ScopedSpan span(spans, "core.score", round);
    const iqb::core::Pipeline pipeline(config);
    for (const std::string& region : table.regions()) {
      auto scored = pipeline.score_region(table, region);
      if (scored.ok()) results.push_back(std::move(scored).value());
    }
  }
  std::string scores_json;
  {
    ScopedSpan span(spans, "report.render", round);
    scores_json = iqb::report::to_json(results).dump(2) + "\n";
  }
  iqb::fleet::ShardPayload payload;
  payload.cycle = round_no;
  payload.trace_id = "bench-" + std::to_string(round_no);
  payload.table = table;
  {
    ScopedSpan span(spans, "fleet.wire", round);
    (void)iqb::fleet::serialize_shard_payload(payload);
  }
  iqb::robust::CheckpointStore checkpoints(trace_state_dir, 3);
  (void)checkpoints.prepare();
  iqb::robust::Checkpoint checkpoint;
  checkpoint.cycle = round_no;
  checkpoint.cycles_attempted = round_no;
  checkpoint.trace_id = payload.trace_id;
  checkpoint.scores_json = scores_json;
  {
    ScopedSpan span(spans, "robust.checkpoint", round);
    if (!checkpoints.save(checkpoint).ok()) result.fail("checkpoint save failed");
  }
  if (replicator != nullptr) {
    ScopedSpan span(spans, "fleet.replicate", round);
    for (const auto& outcome : replicator->replicate()) {
      if (!outcome.error.empty()) result.fail("replication: " + outcome.error);
    }
  }
  iqb::obs::MetricsRegistry mirror;
  mirror_metrics(daemon.server().handle({"GET", "/metrics"}).body, mirror);
  if (daemon.history() != nullptr && daemon.slo() != nullptr) {
    ScopedSpan span(spans, "obs.history_slo", round);
    const auto now_ms = static_cast<std::uint64_t>(now_s() * 1000.0);
    daemon.history()->sample_registry(mirror, now_ms);
    daemon.slo()->evaluate(now_ms, daemon.cycles_total(),
                           "bench-" + std::to_string(round_no));
  }
  spans.end(round);

  counts["datasets.records"] = static_cast<double>(store.size());
  counts["datasets.input_bytes"] =
      static_cast<double>(fs::file_size(records));
  counts["datasets.cells"] = static_cast<double>(table.size());
  counts["report.scores_bytes"] = static_cast<double>(scores_json.size());
  const std::string newest = newest_checkpoint(trace_state_dir);
  if (!newest.empty()) {
    counts["robust.checkpoint_bytes"] =
        static_cast<double>(fs::file_size(newest));
  }
}

iqb::cli::DaemonOptions daemon_options(
    const std::string& records, const std::string& state_dir,
    const std::string& node_id,
    const std::vector<iqb::fleet::ShardEndpoint>& peers) {
  iqb::cli::DaemonOptions options;
  options.records_path = records;
  options.port = 0;
  options.watch_files = false;
  options.interval_ms = 24ULL * 3600 * 1000;
  options.state_dir = state_dir;
  options.node_id = node_id;
  if (!peers.empty()) options.replicate_to = peers;
  return options;
}

/// --role setup: one cold set-up; prints the ready line when done.
int cold_setup_main(const std::vector<std::string>& args) {
  std::vector<iqb::fleet::ShardEndpoint> peers;
  if (const std::string peer = option(args, "--peer"); !peer.empty()) {
    auto endpoint = iqb::fleet::parse_shard_endpoint("peer=" + peer, 0);
    if (!endpoint.ok()) return 2;
    peers.push_back(endpoint.value());
  }
  std::ostringstream err;
  iqb::cli::WatchDaemon daemon(daemon_options(
      option(args, "--records"), option(args, "--state-dir"),
      option(args, "--node-id"), peers));
  if (!daemon.recover(err).ok() || !daemon.run_cycle(err)) {
    std::cerr << "cycle: cold set-up failed: " << err.str() << "\n";
    return 1;
  }
  print_ready();
  return 0;
}

}  // namespace

int cycle_main(const std::vector<std::string>& args) {
  if (option(args, "--role") == "setup") return cold_setup_main(args);
  const std::string records = option(args, "--records");
  const std::string reference_path = option(args, "--reference");
  const std::string work = option(args, "--work");
  const std::string iqbd = option(args, "--iqbd");
  const bool replicate = option(args, "--replicate", "0") == "1";
  const double seconds = std::stod(option(args, "--seconds", "10"));
  const bool traced = option(args, "--trace", "0") == "1";
  const std::string trace_out = option(args, "--trace-out");
  if (records.empty() || reference_path.empty() || work.empty() ||
      (replicate && iqbd.empty())) {
    std::cerr << "cycle: --records, --reference, --work (and --iqbd with "
                 "--replicate 1) are required\n";
    return 2;
  }
  const std::string state_dir = work + "/state";

  // The replication peer: an iqbd with a state dir, idle after its
  // first cycle.
  Child peer;
  std::string peer_address;
  std::vector<iqb::fleet::ShardEndpoint> peers;
  if (replicate) {
    peer.start({iqbd, "--records", records, "--port", "0", "--interval-ms",
                "86400000", "--watch", "false", "--state-dir",
                work + "/peer-state", "--node-id", "peer"},
               work + "/peer.log");
    const std::uint16_t port = peer.wait_for_listen_port(60.0);
    if (port == 0) {
      peer.stop();
      std::cerr << "cycle: replication peer did not start:\n"
                << read_file(peer.log_path());
      return 1;
    }
    peer_address = "127.0.0.1:" + std::to_string(port);
    peers.push_back(
        iqb::fleet::parse_shard_endpoint("peer=" + peer_address, 0).value());
  }

  double setup_s = 0.0;
  if (!traced) {
    const auto cold = median_cold_setup(kColdSetups, [&](int i) {
      std::vector<std::string> setup_args = {
          "cycle", "--role", "setup", "--records", records, "--state-dir",
          work + "/setup-state-" + std::to_string(i), "--node-id",
          "bench-setup-" + std::to_string(i)};
      if (!peer_address.empty()) {
        setup_args.insert(setup_args.end(), {"--peer", peer_address});
      }
      return setup_args;
    });
    if (!cold) {
      std::cerr << "cycle: a cold set-up failed\n";
      return 1;
    }
    setup_s = *cold;
  }

  RunResult result;
  std::ostringstream err;
  iqb::cli::WatchDaemon daemon(
      daemon_options(records, state_dir, "bench", peers));
  if (auto recovered = daemon.recover(err); !recovered.ok()) {
    std::cerr << "cycle: recover failed: " << recovered.error().to_string()
              << "\n";
    return 1;
  }
  if (!daemon.run_cycle(err)) {
    std::cerr << "cycle: first cycle failed: " << err.str() << "\n";
    return 1;
  }

  if (!traced) {
    std::vector<double> cycle_s;
    const double deadline = now_s() + seconds;
    do {
      const double t0 = now_s();
      const bool ok = daemon.run_cycle(err);
      const double elapsed = now_s() - t0;
      ++result.attempted;
      if (ok) {
        cycle_s.push_back(elapsed);
      } else {
        ++result.failed;
      }
    } while (now_s() < deadline);
    const double rss_mb = peak_rss_mb();
    double busy_s = 0.0;
    for (double s : cycle_s) busy_s += s;
    result.add("setup_s", setup_s, "s");
    result.add("op_p50_ms", median(cycle_s) * 1e3, "ms");
    result.add("ops_per_s",
               busy_s > 0.0 ? static_cast<double>(cycle_s.size()) / busy_s : 0.0,
               "1/s");
    result.add("peak_rss_mb", rss_mb, "MB");
  } else {
    Spans spans;
    std::map<std::string, double> values;
    const std::string trace_state_dir = state_dir + "-trace";
    std::unique_ptr<iqb::robust::CheckpointStore> trace_store;
    std::unique_ptr<iqb::fleet::Replicator> replicator;
    if (!peers.empty()) {
      trace_store = std::make_unique<iqb::robust::CheckpointStore>(
          trace_state_dir, 3);
      iqb::fleet::Replicator::Options replicator_options;
      replicator_options.node_id = "bench-trace";
      replicator_options.peers = peers;
      replicator = std::make_unique<iqb::fleet::Replicator>(
          std::move(replicator_options), trace_store.get());
    }
    const double deadline = now_s() + seconds;
    std::uint64_t round = 0;
    do {
      traced_round(daemon, records, trace_state_dir, replicator.get(), ++round,
                   spans, values, result);
      ++result.attempted;
    } while (now_s() < deadline);
    for (const char* layer :
         {"datasets.load", "datasets.load_serial", "datasets.store_build",
          "datasets.index_build", "datasets.aggregate",
          "datasets.aggregate_serial", "core.score", "report.render",
          "fleet.wire", "robust.checkpoint", "fleet.replicate",
          "obs.history_slo", "cli.cycle_traced"}) {
      std::vector<double> durations = spans.durations(layer);
      if (!durations.empty()) values[std::string(layer) + "_s"] = median(durations);
    }
    add_per_layer(result, values);
    if (!trace_out.empty()) spans.write_prometheus(trace_out, result.metrics);
  }

  Reference reference;
  if (!Reference::read(reference_path, reference)) {
    result.fail("cannot read reference " + reference_path);
  } else {
    check_daemon(daemon, reference, state_dir, result);
  }
  if (!peers.empty() && daemon.replicator() != nullptr &&
      daemon.replicator()->push_failures_total() > 0) {
    result.fail("replication pushes failed: " + err.str());
  }
  peer.stop();
  result.print();
  return 0;
}

}  // namespace iqb_perf
