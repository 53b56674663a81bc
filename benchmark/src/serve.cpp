// serve_scores: an iqbd process over a small CSV, with a long interval
// and file watching off so no cycle runs while it is measured, driven
// by a closed loop of plain-socket HTTP/1.1 clients. Each client sends
// its next request only after the previous reply, one request per
// connection (the server closes each).
//
// The requests follow the program's own callers of a shard daemon: the
// fleet coordinator gathers /shard/aggregate, a Prometheus scraper reads
// /metrics, and external readers fetch /scores. The repository fixes no
// ratio between them; the benchmark's rounds of ten (six /scores, three
// /shard/aggregate, one /metrics) are a chosen mix, not measured
// traffic.
#include <algorithm>
#include <atomic>
#include <iostream>
#include <map>
#include <thread>

#include "workloads.hpp"
#include "harness.hpp"
#include "reference.hpp"

namespace iqb_perf {

namespace {

enum Endpoint { kScores, kAggregate, kMetrics, kEndpoints };
constexpr const char* kPaths[kEndpoints] = {"/scores", "/shard/aggregate",
                                            "/metrics"};
constexpr const char* kNames[kEndpoints] = {"scores", "aggregate", "metrics"};
constexpr Endpoint kRound[] = {kScores, kAggregate, kScores, kScores,
                               kAggregate, kScores, kScores, kAggregate,
                               kScores, kMetrics};

/// Cold starts of iqbd per run; set-up is their median.
constexpr int kColdStarts = 5;

struct EndpointSamples {
  std::vector<double> latency_s, connect_s, first_byte_s, body_s;
  std::vector<double> bytes;

  void add(const HttpResult& r, double latency) {
    latency_s.push_back(latency);
    connect_s.push_back(r.connect_s);
    first_byte_s.push_back(r.first_byte_s);
    body_s.push_back(r.body_s);
    bytes.push_back(static_cast<double>(r.bytes));
  }
  void merge(EndpointSamples& other) {
    for (auto [into, from] :
         {std::pair{&latency_s, &other.latency_s},
          std::pair{&connect_s, &other.connect_s},
          std::pair{&first_byte_s, &other.first_byte_s},
          std::pair{&body_s, &other.body_s}, std::pair{&bytes, &other.bytes}}) {
      into->insert(into->end(), from->begin(), from->end());
    }
  }
};

struct ClientOutcome {
  EndpointSamples samples[kEndpoints];
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;
};

/// Bodies every /scores and /shard/aggregate reply must repeat.
struct Expected {
  std::string scores, aggregate;
};

void client_loop(std::uint16_t port, const Expected& expected,
                 const std::atomic<bool>& stop, ClientOutcome& out) {
  while (!stop.load(std::memory_order_relaxed)) {
    for (const Endpoint endpoint : kRound) {
      const double t0 = now_s();
      const HttpResult r = http_get(port, kPaths[endpoint]);
      const double latency = now_s() - t0;
      ++out.attempted;
      std::string problem;
      if (!r.ok || r.status != 200) {
        problem = std::string(kPaths[endpoint]) + " answered " +
                  std::to_string(r.status);
      } else if ((endpoint == kScores && r.body != expected.scores) ||
                 (endpoint == kAggregate && r.body != expected.aggregate)) {
        problem = std::string(kPaths[endpoint]) +
                  " body differs from the first one";
      }
      if (!problem.empty()) {
        ++out.failed;
        if (out.problems.size() < 5) out.problems.push_back(problem);
        continue;
      }
      out.samples[endpoint].add(r, latency);
    }
  }
}

/// Spawn iqbd and wait for the first 200 on /readyz. Returns the port
/// and sets `setup_s` (spawn to ready), or 0 if it never got ready.
std::uint16_t start_iqbd(Child& child, const std::vector<std::string>& argv,
                         const std::string& log_path, double& setup_s) {
  const double spawn_s = now_s();
  if (!child.start(argv, log_path)) return 0;
  const std::uint16_t port = child.wait_for_listen_port(60.0);
  while (port != 0 && now_s() - spawn_s < 60.0) {
    const HttpResult r = http_get(port, "/readyz", 5.0);
    if (r.ok && r.status == 200) {
      setup_s = now_s() - spawn_s;
      return port;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  return 0;
}

}  // namespace

int serve_main(const std::vector<std::string>& args) {
  const std::string iqbd = option(args, "--iqbd");
  const std::string records = option(args, "--records");
  const std::string reference_path = option(args, "--reference");
  const std::string work = option(args, "--work", ".");
  const double seconds = std::stod(option(args, "--seconds", "10"));
  const bool traced = option(args, "--trace", "0") == "1";
  const std::string trace_out = option(args, "--trace-out");
  if (iqbd.empty() || records.empty() || reference_path.empty()) {
    std::cerr << "serve: --iqbd, --records and --reference are required\n";
    return 2;
  }

  // Set-up: spawn iqbd, wait for the first 200 on /readyz; the median
  // of kColdStarts such starts, the last one kept for the loop.
  const std::vector<std::string> argv = {iqbd, "--records", records,
                                         "--port", "0", "--interval-ms",
                                         "86400000", "--watch", "false"};
  Child child;
  std::vector<double> setups;
  std::uint16_t port = 0;
  for (int start = 0; start < kColdStarts; ++start) {
    double setup_s = 0.0;
    port = start_iqbd(child, argv, work + "/iqbd.log", setup_s);
    if (port == 0) {
      child.stop();
      std::cerr << "serve: iqbd never became ready:\n"
                << read_file(child.log_path());
      return 1;
    }
    setups.push_back(setup_s);
    if (start + 1 < kColdStarts) child.stop();
  }
  const double setup_s = median(setups);

  RunResult result;
  Reference reference;
  if (!Reference::read(reference_path, reference)) {
    result.fail("cannot read reference " + reference_path);
  }
  const HttpResult first = http_get(port, "/scores");
  const HttpResult aggregate = http_get(port, "/shard/aggregate");
  ScoreTable scores;
  CellTable cells;
  if (!first.ok || first.status != 200 || !parse_scores_json(first.body, scores)) {
    result.fail("first /scores response unusable");
  }
  if (!aggregate.ok || aggregate.status != 200 ||
      !parse_aggregate_json(aggregate.body, cells)) {
    result.fail("first /shard/aggregate response unusable");
  }
  for (const std::string& problem : check(cells, scores, reference)) {
    result.fail(problem);
  }
  const Expected expected{first.body, aggregate.body};

  // The closed loop: at most 4 connections, and never more than cores.
  const unsigned clients = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  std::vector<ClientOutcome> outcomes(clients);
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  Spans spans;
  const int loop_span = spans.begin("obs.closed_loop");
  const double t0 = now_s();
  for (unsigned i = 0; i < clients; ++i) {
    threads.emplace_back(client_loop, port, std::cref(expected),
                         std::cref(stop), std::ref(outcomes[i]));
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true);
  for (std::thread& thread : threads) thread.join();
  const double window_s = now_s() - t0;
  spans.end(loop_span);
  const double server_rss_mb = child.stop();

  ClientOutcome all;
  for (ClientOutcome& outcome : outcomes) {
    for (int e = 0; e < kEndpoints; ++e) all.samples[e].merge(outcome.samples[e]);
    all.attempted += outcome.attempted;
    all.failed += outcome.failed;
    for (const std::string& problem : outcome.problems) result.fail(problem);
  }
  result.attempted = all.attempted;
  result.failed = all.failed;
  std::vector<double> latency;
  for (const EndpointSamples& samples : all.samples) {
    latency.insert(latency.end(), samples.latency_s.begin(),
                   samples.latency_s.end());
  }
  const double completed = static_cast<double>(latency.size());

  if (!traced) {
    result.add("setup_s", setup_s, "s");
    result.add("op_p50_ms", median(latency) * 1e3, "ms");
    result.add("ops_per_s", completed / window_s, "1/s");
    result.add("peak_rss_mb", server_rss_mb, "MB");
  } else {
    std::map<std::string, double> values;
    for (int e = 0; e < kEndpoints; ++e) {
      EndpointSamples* samples = &all.samples[e];
      const std::string prefix = std::string("obs.") + kNames[e];
      values[prefix + "_connect_ms"] = median(samples->connect_s) * 1e3;
      values[prefix + "_first_byte_ms"] = median(samples->first_byte_s) * 1e3;
      values[prefix + "_body_ms"] = median(samples->body_s) * 1e3;
      values[prefix + "_bytes"] = median(samples->bytes);
      values[prefix + "_p50_ms"] = r7_quantile(samples->latency_s, 0.5) * 1e3;
      values[prefix + "_p99_ms"] = r7_quantile(samples->latency_s, 0.99) * 1e3;
    }
    add_per_layer(result, values);
    if (!trace_out.empty()) spans.write_prometheus(trace_out, result.metrics);
  }
  result.print();
  return 0;
}

}  // namespace iqb_perf
