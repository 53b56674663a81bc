// The independent reference on a case worked by hand, and the check
// rejecting a result whose aggregate was moved across a threshold.
#include <gtest/gtest.h>

#include <cmath>

#include "reference.hpp"

namespace iqb_perf {

namespace {

bool near(double a, double b) { return std::fabs(a - b) <= 1e-12; }

/// One region, three datasets, five tests each.
Reference hand_case() {
  const std::vector<double> download = {50, 100, 150, 200, 250};
  const std::vector<double> ookla_download = {100, 200, 300, 400, 500};
  const std::vector<double> upload = {200, 300, 400, 500, 600};
  const std::vector<double> latency = {5, 6, 7, 8, 10};
  const std::vector<double> ndt_loss = {0, 0, 0.0001, 0.0002, 0.0005};
  const std::vector<double> cloudflare_loss = {0, 0.001, 0.002, 0.003, 0.004};

  Reference reference;
  auto put = [&](const char* dataset, const char* metric,
                 std::vector<double> values) {
    const std::size_t n = values.size();
    reference.cells[{"r", dataset, metric}] = {
        worst_direction_p95(metric, values), n};
    reference.metric_counts[std::string(dataset) + "/" + metric] += n;
  };
  for (const char* dataset : {"ndt", "cloudflare", "ookla"}) {
    put(dataset, "download",
        std::string(dataset) == "ookla" ? ookla_download : download);
    put(dataset, "upload", upload);
    put(dataset, "latency", latency);
  }
  put("ndt", "loss", ndt_loss);
  put("cloudflare", "loss", cloudflare_loss);  // Ookla reports no loss.
  reference.scores = score_cells(reference.cells);
  return reference;
}

}  // namespace

TEST(BenchReference, R7QuantileMatchesHandValues) {
  std::vector<double> values = {5, 1, 4, 2, 3};
  EXPECT_TRUE(near(r7_quantile(values, 0.95), 4.8));  // h = 3.8: 4 + 0.8 * 1
  EXPECT_TRUE(near(r7_quantile(values, 0.05), 1.2));  // h = 0.2: 1 + 0.2 * 1
  EXPECT_TRUE(near(r7_quantile(values, 0.5), 3.0));
  std::vector<double> one = {7.5};
  EXPECT_TRUE(near(r7_quantile(one, 0.95), 7.5));
}

TEST(BenchReference, WorseDirectionPercentiles) {
  const Reference reference = hand_case();
  // 5th percentile of throughput, 95th of latency and loss.
  EXPECT_TRUE(near(reference.cells.at({"r", "ndt", "download"}).value, 60.0));
  EXPECT_TRUE(near(reference.cells.at({"r", "ookla", "download"}).value, 120.0));
  EXPECT_TRUE(near(reference.cells.at({"r", "ndt", "upload"}).value, 220.0));
  EXPECT_TRUE(near(reference.cells.at({"r", "ndt", "latency"}).value, 9.6));
  EXPECT_TRUE(near(reference.cells.at({"r", "ndt", "loss"}).value, 0.00044));
  EXPECT_TRUE(near(reference.cells.at({"r", "cloudflare", "loss"}).value, 0.0038));
}

TEST(BenchReference, HandWorkedScores) {
  const Reference reference = hand_case();
  const LevelScores& high = reference.scores.at("r").at("high");
  const LevelScores& minimum = reference.scores.at("r").at("minimum");

  // Eq. (1): only Ookla's 120 Mb/s meets the 100 Mb/s high download
  // bars; loss renormalizes over ndt and cloudflare (Ookla has none),
  // and cloudflare's 0.38% misses the 0.1% bars but meets 0.5%.
  EXPECT_TRUE(near(high.requirements.at("web_browsing.download_throughput"), 1.0 / 3));
  EXPECT_TRUE(near(high.requirements.at("audio_streaming.download_throughput"), 1.0));
  EXPECT_TRUE(near(high.requirements.at("video_streaming.packet_loss"), 0.5));
  EXPECT_TRUE(near(high.requirements.at("gaming.packet_loss"), 1.0));

  // Eq. (2) with Table 1 weights (down, up, latency, loss).
  const double web = (3.0 / 3 + 2 + 4 + 4) / 13;           // 11/13
  const double video = (4.0 / 3 + 2 + 4 + 4 * 0.5) / 14;   // 2/3
  const double conferencing = (4.0 / 3 + 4 + 4 + 2) / 16;  // 17/24
  const double audio = (4.0 + 1 + 3 + 2) / 12;             // 5/6
  const double backup = (4.0 + 4 + 2 + 2) / 14;            // 6/7
  const double gaming = (4.0 / 3 + 4 + 5 + 4) / 17;        // 43/51
  EXPECT_TRUE(near(high.use_cases.at("web_browsing"), 11.0 / 13));
  EXPECT_TRUE(near(high.use_cases.at("video_streaming"), 2.0 / 3));
  EXPECT_TRUE(near(high.use_cases.at("video_conferencing"), 17.0 / 24));
  EXPECT_TRUE(near(high.use_cases.at("audio_streaming"), 5.0 / 6));
  EXPECT_TRUE(near(high.use_cases.at("online_backup"), 6.0 / 7));
  EXPECT_TRUE(near(high.use_cases.at("gaming"), 43.0 / 51));

  // Eq. (4)/(5) with equal use-case weights.
  EXPECT_TRUE(near(high.iqb,
              (web + video + conferencing + audio + backup + gaming) / 6));
  // Every minimum-quality bar is met.
  EXPECT_TRUE(near(minimum.iqb, 1.0));
}

TEST(BenchReference, CheckAcceptsTheReferenceItself) {
  const Reference reference = hand_case();
  EXPECT_TRUE(check(reference.cells, reference.scores, reference).empty());
}

TEST(BenchReference, CheckRejectsAnAggregateMovedAcrossItsThreshold) {
  const Reference reference = hand_case();
  // ndt's download moves from 60 to 120 Mb/s, across the 100 Mb/s
  // high-quality bars; the scores are recomputed from the moved table,
  // so the published result is self-consistent but wrong.
  CellTable moved = reference.cells;
  moved.at({"r", "ndt", "download"}).value = 120.0;
  const ScoreTable moved_scores = score_cells(moved);
  EXPECT_TRUE(moved_scores.at("r").at("high").iqb >
         reference.scores.at("r").at("high").iqb);

  const auto problems = check(moved, moved_scores, reference);
  EXPECT_TRUE(!problems.empty());
  bool names_cell = false;
  for (const std::string& problem : problems) {
    names_cell |= problem.find("aggregate r/ndt/download") != std::string::npos;
  }
  EXPECT_TRUE(names_cell);
  // The scores alone give it away too.
  EXPECT_TRUE(!check(reference.cells, moved_scores, reference).empty());
}

TEST(BenchReference, CheckRejectsBrokenInvariants) {
  Reference reference = hand_case();
  ScoreTable swapped = reference.scores;
  std::swap(swapped["r"]["high"], swapped["r"]["minimum"]);
  const auto problems = check(reference.cells, swapped, reference);
  bool ordering = false;
  for (const std::string& problem : problems) {
    ordering |= problem.find("above minimum-quality") != std::string::npos;
  }
  EXPECT_TRUE(ordering);
}

TEST(BenchReference, ParsesProgramDocuments) {
  const std::string scores =
      R"({"regions":[{"region":"r","grade":"B","high":{"iqb_score":0.5,)"
      R"("use_case_scores":{"gaming":0.5},"requirement_scores":{"gaming.latency":1}},)"
      R"("minimum":{"iqb_score":1,"use_case_scores":{},"requirement_scores":{}}}]})";
  ScoreTable table;
  EXPECT_TRUE(parse_scores_json(scores, table));
  EXPECT_TRUE(near(table.at("r").at("high").iqb, 0.5));
  EXPECT_TRUE(near(table.at("r").at("high").requirements.at("gaming.latency"), 1.0));

  const std::string aggregate =
      R"({"version":1,"cycle":3,"trace":"t","cells":[{"region":"r",)"
      R"("dataset":"ndt","metric":"loss","value":4.4000000000000002e-04,"samples":5}]})";
  CellTable cells;
  EXPECT_TRUE(parse_aggregate_json(aggregate, cells));
  EXPECT_TRUE(near(cells.at({"r", "ndt", "loss"}).value, 0.00044));
  EXPECT_TRUE(cells.at({"r", "ndt", "loss"}).samples == 5);
  EXPECT_TRUE(!parse_scores_json("{\"regions\": [", table));
}

}  // namespace iqb_perf
