// Independent reference for the IQB score, written from the paper
// alone and sharing no code with the program under test.
//
// * Aggregation: per (region, dataset, metric) the R-7 95th percentile
//   oriented to the worse direction — the 5th percentile of
//   throughput, the 95th of latency, loaded latency and loss — over
//   the values exactly as written to the input file.
// * Scoring: eqs. (1)-(5). A requirement is met (S_{u,r,d} = 1) when a
//   throughput aggregate is at or above, or a latency/loss aggregate
//   at or below, the Fig. 2 threshold. Eq. (1) averages S_{u,r,d} over
//   the datasets that report the requirement's metric with equal
//   weights (so Ookla, which reports no loss, drops out and the other
//   two renormalize); eq. (2) averages S_{u,r} with the Table 1
//   weights; eq. (4) averages S_u with equal use-case weights.
//
// check() compares what the program published against this reference.
#pragma once

#include <array>
#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace iqb_perf {

inline constexpr std::array<const char*, 5> kMetrics = {
    "download", "upload", "latency", "loaded_latency", "loss"};
inline constexpr std::array<const char*, 6> kUseCases = {
    "web_browsing",    "video_streaming", "video_conferencing",
    "audio_streaming", "online_backup",   "gaming"};
inline constexpr std::array<const char*, 4> kRequirements = {
    "download_throughput", "upload_throughput", "latency", "packet_loss"};
inline constexpr std::array<const char*, 2> kLevels = {"high", "minimum"};

/// True for throughput metrics (aggregated at the 5th percentile).
bool higher_is_better(const std::string& metric);

/// R-7 quantile (q in [0,1]) of `values`; reorders them.
double r7_quantile(std::vector<double>& values, double q);

/// The 95th percentile in the metric's worse direction; reorders.
double worst_direction_p95(const std::string& metric,
                           std::vector<double>& values);

struct CellKey {
  std::string region, dataset, metric;
  auto operator<=>(const CellKey&) const = default;
};

struct Cell {
  double value = 0.0;
  std::size_t samples = 0;
};

using CellTable = std::map<CellKey, Cell>;

/// One region's scores at one quality level.
struct LevelScores {
  double iqb = 0.0;
  std::map<std::string, double> use_cases;     ///< S_u by use case.
  std::map<std::string, double> requirements;  ///< "use_case.requirement".
};

/// region -> level ("high" | "minimum") -> scores.
using ScoreTable = std::map<std::string, std::map<std::string, LevelScores>>;

/// Eqs. (1)-(5) over an aggregate table, with the paper's thresholds
/// and weights.
ScoreTable score_cells(const CellTable& cells);

/// Everything the reference expects of one input file.
struct Reference {
  CellTable cells;
  ScoreTable scores;
  /// "dataset/metric" -> records in the input carrying that metric.
  std::map<std::string, std::size_t> metric_counts;

  bool write(const std::string& path) const;
  static bool read(const std::string& path, Reference& out);
};

/// Compare a published aggregate table and score table with the
/// reference. Returns one line per disagreement (empty = match):
/// aggregates to 1e-9 relative, scores to 1e-9 absolute, the cell
/// sets and per-(dataset, metric) sample totals exactly, plus the
/// invariants high <= minimum and every score in [0, 1].
std::vector<std::string> check(const CellTable& published_cells,
                               const ScoreTable& published_scores,
                               const Reference& reference);

/// Parse the program's /scores document (report::to_json) into a
/// ScoreTable; false on a malformed document.
bool parse_scores_json(const std::string& text, ScoreTable& out);

/// Parse the program's shard payload (/shard/aggregate) cells; false
/// on a malformed document.
bool parse_aggregate_json(const std::string& text, CellTable& out);

}  // namespace iqb_perf
