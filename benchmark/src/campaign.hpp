// The campaign workload's population and campaign set-up, shared by
// the workload and the determinism test.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "iqb/measurement/campaign.hpp"

namespace iqb_perf {

/// Subscribers drawn per example_region_plans region.
inline constexpr std::size_t kSubscribersPerRegion = 1;
/// The population is drawn once from this seed: how long a session
/// simulates grows with the line rate, so a population redrawn per run
/// would make the campaign's length mostly a matter of the draw.
inline constexpr std::uint64_t kPopulationSeed = 1701;
/// Sessions per (subscriber, tool).
inline constexpr std::size_t kTestsPerTool = 1;

/// The campaign population for `seed`: example_region_plans drawn with
/// generate_population, redrawn on a derived stream until it holds a
/// satellite line, a shaped (burst-provisioned) line and cross
/// traffic, so every run exercises all three.
std::vector<iqb::measurement::SubscriberSpec> campaign_population(
    std::uint64_t seed);

/// A campaign over `population` with the NDT, Ookla-style and
/// Cloudflare-style clients (each optionally wrapped by `wrap`).
std::unique_ptr<iqb::measurement::Campaign> make_campaign(
    std::uint64_t seed,
    const std::vector<iqb::measurement::SubscriberSpec>& population,
    const std::function<std::shared_ptr<iqb::measurement::MeasurementClient>(
        std::shared_ptr<iqb::measurement::MeasurementClient>)>& wrap = nullptr);

/// The records a campaign's sessions become, as record CSV text.
std::string sessions_csv(
    const std::vector<iqb::measurement::SessionRecord>& sessions);

/// Per-observation bounds: download/upload at or below the access line
/// rate of that direction, idle latency at or above the propagation
/// RTT (2 x core delay + down and up access delays), loss in [0, 1].
/// Returns one line per violation.
std::vector<std::string> check_sessions(
    const std::vector<iqb::measurement::SessionRecord>& sessions,
    const std::vector<iqb::measurement::SubscriberSpec>& population);

}  // namespace iqb_perf
