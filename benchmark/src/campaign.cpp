// campaign: measurement::Campaign::run with the NDT, Ookla-style and
// Cloudflare-style clients over example_region_plans populations, on
// one thread. The population is fixed (kPopulationSeed); --seed drives
// the campaign's own random streams (loss, cross traffic, probe
// jitter). Set-up is spawn to the first campaign built
// (population drawn, clients and subscribers added), timed in
// kColdSetups fresh processes of this binary (--role setup) and
// reported as their median; then whole campaigns on successive streams
// of the seed run for --seconds. The traced run wraps each client to
// time run -> done and read Simulator::executed() at done.
#include "campaign.hpp"

#include <functional>
#include <iostream>
#include <map>

#include "workloads.hpp"
#include "harness.hpp"

#include "iqb/datasets/io.hpp"
#include "iqb/measurement/adapters.hpp"
#include "iqb/measurement/cloudflare_style.hpp"
#include "iqb/measurement/ndt.hpp"
#include "iqb/measurement/ookla_style.hpp"
#include "iqb/measurement/population.hpp"
#include "iqb/util/rng.hpp"
#include "iqb/util/timestamp.hpp"

namespace iqb_perf {

namespace m = iqb::measurement;

namespace {

/// Cold set-ups per run, each in a fresh process; setup_s is their
/// median.
constexpr int kColdSetups = 5;

/// Per-tool tallies filled by TimedClient.
struct ToolStats {
  double busy_s = 0.0;
  std::uint64_t events = 0;
};

/// Forwards to a real client, timing run() -> done and reading the
/// session simulator's executed-event count when the tool reports.
class TimedClient final : public m::MeasurementClient {
 public:
  TimedClient(std::shared_ptr<m::MeasurementClient> inner, ToolStats* stats)
      : inner_(std::move(inner)), stats_(stats) {}
  std::string_view name() const noexcept override { return inner_->name(); }
  void run(const m::TestEnvironment& env, m::ObservationFn done) override {
    const double start = now_s();
    iqb::netsim::Simulator* sim = env.sim;
    ToolStats* stats = stats_;
    inner_->run(env, [start, sim, stats, done = std::move(done)](
                         iqb::util::Result<m::TestObservation> result) {
      stats->busy_s += now_s() - start;
      stats->events += sim->executed();
      done(std::move(result));
    });
  }

 private:
  std::shared_ptr<m::MeasurementClient> inner_;
  ToolStats* stats_;
};

bool usable(const std::vector<m::SubscriberSpec>& population) {
  bool satellite = false, shaped = false, cross_traffic = false;
  for (const m::SubscriberSpec& subscriber : population) {
    satellite |= subscriber.subscriber_id.find("satellite") != std::string::npos;
    shaped |= subscriber.access_down.shaper.enabled;
    cross_traffic |= subscriber.background_utilization > 0.0;
  }
  return satellite && shaped && cross_traffic;
}

}  // namespace

std::vector<m::SubscriberSpec> campaign_population(std::uint64_t seed) {
  for (std::uint64_t draw = 0;; ++draw) {
    iqb::util::Rng rng(seed * 0x9E3779B97F4A7C15ULL + draw);
    std::vector<m::SubscriberSpec> population;
    for (const m::RegionPlan& plan : m::example_region_plans(kSubscribersPerRegion)) {
      for (m::SubscriberSpec& subscriber : m::generate_population(plan, rng)) {
        population.push_back(std::move(subscriber));
      }
    }
    if (usable(population)) return population;
  }
}

std::unique_ptr<m::Campaign> make_campaign(
    std::uint64_t seed, const std::vector<m::SubscriberSpec>& population,
    const std::function<std::shared_ptr<m::MeasurementClient>(
        std::shared_ptr<m::MeasurementClient>)>& wrap) {
  m::CampaignConfig config;
  config.seed = seed;
  config.tests_per_tool = kTestsPerTool;
  config.base_time = iqb::util::Timestamp::parse("2025-03-01").value();
  auto campaign = std::make_unique<m::Campaign>(config);
  std::vector<std::shared_ptr<m::MeasurementClient>> clients = {
      std::make_shared<m::NdtClient>(), std::make_shared<m::OoklaStyleClient>(),
      std::make_shared<m::CloudflareStyleClient>()};
  for (auto& client : clients) campaign->add_client(wrap ? wrap(client) : client);
  for (const m::SubscriberSpec& subscriber : population) {
    campaign->add_subscriber(subscriber);
  }
  return campaign;
}

std::string sessions_csv(const std::vector<m::SessionRecord>& sessions) {
  return iqb::datasets::records_to_csv(m::convert_sessions_default(sessions));
}

std::vector<std::string> check_sessions(
    const std::vector<m::SessionRecord>& sessions,
    const std::vector<m::SubscriberSpec>& population) {
  std::vector<std::string> problems;
  const m::CampaignConfig defaults;
  const double core_delay_ms = defaults.core.propagation_delay.value() * 1e3;
  std::map<std::string, const m::SubscriberSpec*> by_id;
  for (const m::SubscriberSpec& subscriber : population) {
    by_id[subscriber.subscriber_id] = &subscriber;
  }
  for (const m::SessionRecord& session : sessions) {
    const auto it = by_id.find(session.subscriber_id);
    const std::string who =
        session.subscriber_id + "/" + session.observation.tool;
    if (it == by_id.end()) {
      problems.push_back(who + ": unknown subscriber");
      continue;
    }
    const m::SubscriberSpec& line = *it->second;
    const m::TestObservation& obs = session.observation;
    if (obs.download && obs.download->value() > line.access_down.rate.value()) {
      problems.push_back(who + ": download " +
                         std::to_string(obs.download->value()) +
                         " Mb/s above the line rate " +
                         std::to_string(line.access_down.rate.value()));
    }
    if (obs.upload && obs.upload->value() > line.access_up.rate.value()) {
      problems.push_back(who + ": upload " + std::to_string(obs.upload->value()) +
                         " Mb/s above the line rate " +
                         std::to_string(line.access_up.rate.value()));
    }
    const double rtt_ms = 2.0 * core_delay_ms +
                          line.access_down.propagation_delay.value() * 1e3 +
                          line.access_up.propagation_delay.value() * 1e3;
    if (obs.idle_latency && obs.idle_latency->value() < rtt_ms) {
      problems.push_back(who + ": idle latency " +
                         std::to_string(obs.idle_latency->value()) +
                         " ms below the propagation RTT " +
                         std::to_string(rtt_ms));
    }
    if (obs.loss && !(obs.loss->fraction() >= 0.0 && obs.loss->fraction() <= 1.0)) {
      problems.push_back(who + ": loss outside [0, 1]");
    }
  }
  return problems;
}

int campaign_main(const std::vector<std::string>& args) {
  const std::uint64_t seed = std::stoull(option(args, "--seed", "1"));
  if (option(args, "--role") == "setup") {
    const auto campaign = make_campaign(seed * 1000,
                                        campaign_population(kPopulationSeed));
    print_ready();
    return campaign ? 0 : 1;
  }
  const double seconds = std::stod(option(args, "--seconds", "10"));
  const bool traced = option(args, "--trace", "0") == "1";
  const std::string trace_out = option(args, "--trace-out");

  double setup_s = 0.0;
  if (!traced) {
    const auto cold = median_cold_setup(kColdSetups, [seed](int) {
      return std::vector<std::string>{"campaign", "--role", "setup", "--seed",
                                      std::to_string(seed)};
    });
    if (!cold) {
      std::cerr << "campaign: a cold set-up failed\n";
      return 1;
    }
    setup_s = *cold;
  }

  RunResult result;
  const auto population = campaign_population(kPopulationSeed);
  std::map<std::string, ToolStats> tools;
  auto wrap = [&tools](std::shared_ptr<m::MeasurementClient> client)
      -> std::shared_ptr<m::MeasurementClient> {
    ToolStats* stats = &tools[std::string(client->name())];
    return std::make_shared<TimedClient>(std::move(client), stats);
  };
  const std::size_t sessions_per_campaign =
      population.size() * 3 * kTestsPerTool;

  // One whole campaign on stream `index` of the run's seed: run, count,
  // check. Returns its wall time.
  auto run_once = [&](std::uint64_t index) {
    auto campaign = traced ? make_campaign(seed * 1000 + index, population, wrap)
                           : make_campaign(seed * 1000 + index, population);
    const double t0 = now_s();
    const auto sessions = campaign->run();
    const double elapsed = now_s() - t0;
    result.attempted += sessions_per_campaign;
    result.failed += campaign->failed_sessions();
    if (campaign->failed_sessions() > 0) {
      result.fail(std::to_string(campaign->failed_sessions()) +
                  " failed sessions on stream " + std::to_string(index));
    }
    for (const std::string& problem : check_sessions(sessions, population)) {
      result.fail(problem);
    }
    return elapsed;
  };

  std::uint64_t index = 0;
  Spans spans;
  std::vector<double> campaign_s;
  std::map<std::string, std::vector<double>> per_tool_busy;
  std::map<std::string, std::vector<double>> per_tool_events;
  std::vector<double> tail_s;
  const double deadline = now_s() + seconds;
  do {
    for (auto& [name, stats] : tools) stats = ToolStats{};
    const int span = spans.begin("measurement.campaign");
    campaign_s.push_back(run_once(index++));
    spans.end(span);
    double busy = 0.0;
    for (const auto& [name, stats] : tools) {
      per_tool_busy[name].push_back(stats.busy_s);
      per_tool_events[name].push_back(static_cast<double>(stats.events));
      busy += stats.busy_s;
    }
    tail_s.push_back(campaign_s.back() - busy);
  } while (now_s() < deadline);

  if (!traced) {
    double total = 0.0;
    for (double s : campaign_s) total += s;
    result.add("setup_s", setup_s, "s");
    result.add("op_p50_ms", median(campaign_s) * 1e3, "ms");
    result.add("ops_per_s", static_cast<double>(campaign_s.size()) / total, "1/s");
    result.add("peak_rss_mb", peak_rss_mb(), "MB");
  } else {
    std::map<std::string, double> values;
    for (auto& [name, busy] : per_tool_busy) {
      const double busy_s = median(busy);
      const double events = median(per_tool_events[name]);
      values["measurement." + name + ".busy_s"] = busy_s;
      values["netsim." + name + ".events"] = events;
      values["netsim." + name + ".events_per_s"] = busy_s > 0.0 ? events / busy_s : 0.0;
    }
    values["measurement.sessions"] = static_cast<double>(sessions_per_campaign);
    values["measurement.campaign_s"] = median(campaign_s);
    values["measurement.tail_s"] = median(tail_s);
    add_per_layer(result, values);
    if (!trace_out.empty()) spans.write_prometheus(trace_out, result.metrics);
  }
  result.print();
  return 0;
}

}  // namespace iqb_perf
