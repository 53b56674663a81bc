// Two campaigns with the same seed write byte-identical records, fail
// no session and stay within the per-observation bounds.
#include <gtest/gtest.h>

#include "campaign.hpp"

namespace iqb_perf {

TEST(BenchCampaign, SameSeedCampaignsWriteIdenticalRecords) {
  const auto population = campaign_population(1701);
  EXPECT_TRUE(population.size() == 3 * kSubscribersPerRegion);

  auto first = make_campaign(1701, population);
  auto second = make_campaign(1701, population);
  const auto first_sessions = first->run();
  const auto second_sessions = second->run();
  EXPECT_TRUE(first->failed_sessions() == 0);
  EXPECT_TRUE(second->failed_sessions() == 0);
  EXPECT_TRUE(first_sessions.size() == population.size() * 3 * kTestsPerTool);

  const std::string first_csv = sessions_csv(first_sessions);
  EXPECT_TRUE(!first_csv.empty());
  EXPECT_TRUE(first_csv == sessions_csv(second_sessions));
  EXPECT_TRUE(check_sessions(first_sessions, population).empty());
}

TEST(BenchCampaign, PopulationHasSatelliteShapingAndCrossTraffic) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    bool satellite = false, shaped = false, cross = false;
    for (const auto& line : campaign_population(seed)) {
      satellite |= line.subscriber_id.find("satellite") != std::string::npos;
      shaped |= line.access_down.shaper.enabled;
      cross |= line.background_utilization > 0.0;
    }
    EXPECT_TRUE(satellite && shaped && cross);
  }
}

TEST(BenchCampaign, BoundsCatchAnImpossibleObservation) {
  const auto population = campaign_population(1701);
  iqb::measurement::SessionRecord session;
  session.subscriber_id = population.front().subscriber_id;
  session.observation.tool = "ndt";
  session.observation.download =
      iqb::util::Mbps(population.front().access_down.rate.value() * 1.01);
  session.observation.idle_latency = iqb::util::Millis(0.1);
  EXPECT_TRUE(check_sessions({session}, population).size() == 2);
}

}  // namespace iqb_perf
