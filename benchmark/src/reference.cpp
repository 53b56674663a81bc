#include "reference.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "minijson.hpp"

namespace iqb_perf {

namespace {

// Fig. 2: minimum-quality and high-quality thresholds per use case.
// Throughput in Mb/s, latency in ms, loss in percent as published.
struct ThresholdRow {
  const char* use_case;
  double down_min, down_high;
  double up_min, up_high;
  double latency_min, latency_high;
  double loss_min_pct, loss_high_pct;
};
constexpr ThresholdRow kFig2[] = {
    {"web_browsing", 10, 100, 10, 10, 100, 50, 1.0, 0.5},
    {"video_streaming", 25, 100, 10, 10, 100, 50, 1.0, 0.1},
    {"video_conferencing", 10, 100, 25, 100, 50, 20, 0.5, 0.1},
    {"audio_streaming", 10, 50, 10, 50, 100, 50, 1.0, 0.1},
    {"online_backup", 10, 10, 25, 200, 100, 100, 1.0, 0.1},
    {"gaming", 10, 100, 10, 10, 100, 50, 1.0, 0.5},
};

// Table 1: importance weights w_{u,r} (download, upload, latency, loss).
struct WeightRow {
  const char* use_case;
  int down, up, latency, loss;
};
constexpr WeightRow kTable1[] = {
    {"web_browsing", 3, 2, 4, 4},       {"video_streaming", 4, 2, 4, 4},
    {"audio_streaming", 4, 1, 3, 4},    {"video_conferencing", 4, 4, 4, 4},
    {"online_backup", 4, 4, 2, 4},      {"gaming", 4, 4, 5, 4},
};

const char* requirement_metric(const std::string& requirement) {
  if (requirement == "download_throughput") return "download";
  if (requirement == "upload_throughput") return "upload";
  if (requirement == "latency") return "latency";
  return "loss";
}

double threshold(const std::string& use_case, const std::string& requirement,
                 const std::string& level) {
  for (const ThresholdRow& row : kFig2) {
    if (use_case != row.use_case) continue;
    const bool high = level == "high";
    if (requirement == "download_throughput") {
      return high ? row.down_high : row.down_min;
    }
    if (requirement == "upload_throughput") return high ? row.up_high : row.up_min;
    if (requirement == "latency") {
      return high ? row.latency_high : row.latency_min;
    }
    return (high ? row.loss_high_pct : row.loss_min_pct) / 100.0;
  }
  return 0.0;
}

int weight(const std::string& use_case, const std::string& requirement) {
  for (const WeightRow& row : kTable1) {
    if (use_case != row.use_case) continue;
    if (requirement == "download_throughput") return row.down;
    if (requirement == "upload_throughput") return row.up;
    if (requirement == "latency") return row.latency;
    return row.loss;
  }
  return 0;
}

bool close_relative(double a, double b) {
  return std::fabs(a - b) <=
         1e-9 * std::max({std::fabs(a), std::fabs(b), 1e-12});
}

std::string fmt(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

void compare_maps(const std::string& where,
                  const std::map<std::string, double>& published,
                  const std::map<std::string, double>& expected,
                  std::vector<std::string>& problems) {
  for (const auto& [key, value] : expected) {
    const auto it = published.find(key);
    if (it == published.end()) {
      problems.push_back(where + " " + key + ": missing");
    } else if (std::fabs(it->second - value) > 1e-9) {
      problems.push_back(where + " " + key + ": published " + fmt(it->second) +
                         ", reference " + fmt(value));
    }
  }
  for (const auto& [key, value] : published) {
    if (!expected.count(key)) {
      problems.push_back(where + " " + key + ": not in the reference");
    }
  }
}

}  // namespace

bool higher_is_better(const std::string& metric) {
  return metric == "download" || metric == "upload";
}

double r7_quantile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  const double h = (static_cast<double>(values.size()) - 1.0) * q;
  const auto lo = static_cast<std::size_t>(std::floor(h));
  std::nth_element(values.begin(), values.begin() + lo, values.end());
  const double x_lo = values[lo];
  if (lo + 1 >= values.size()) return x_lo;
  const double x_hi = *std::min_element(values.begin() + lo + 1, values.end());
  return x_lo + (h - static_cast<double>(lo)) * (x_hi - x_lo);
}

double worst_direction_p95(const std::string& metric,
                           std::vector<double>& values) {
  return r7_quantile(values, higher_is_better(metric) ? 0.05 : 0.95);
}

ScoreTable score_cells(const CellTable& cells) {
  // region -> metric -> datasets reporting it (sorted).
  std::map<std::string, std::map<std::string, std::vector<std::string>>>
      reporting;
  for (const auto& [key, cell] : cells) {
    reporting[key.region][key.metric].push_back(key.dataset);
  }
  ScoreTable scores;
  for (const auto& [region, by_metric] : reporting) {
    for (const char* level : kLevels) {
      LevelScores out;
      double iqb_sum = 0.0;
      double iqb_weight = 0.0;
      for (const char* use_case : kUseCases) {
        double use_case_sum = 0.0;
        double use_case_weight = 0.0;
        for (const char* requirement : kRequirements) {
          const std::string metric = requirement_metric(requirement);
          const auto datasets = by_metric.find(metric);
          if (datasets == by_metric.end()) continue;
          const double limit = threshold(use_case, requirement, level);
          // Eq. (1): equal dataset weights over the reporting datasets.
          double met = 0.0;
          for (const std::string& dataset : datasets->second) {
            const double value = cells.at({region, dataset, metric}).value;
            const bool ok = higher_is_better(metric) ? value >= limit
                                                     : value <= limit;
            met += ok ? 1.0 : 0.0;
          }
          const double s_ur =
              met / static_cast<double>(datasets->second.size());
          out.requirements[std::string(use_case) + "." + requirement] = s_ur;
          // Eq. (2): Table 1 weights.
          const int w = weight(use_case, requirement);
          use_case_sum += w * s_ur;
          use_case_weight += w;
        }
        if (use_case_weight <= 0.0) continue;
        const double s_u = use_case_sum / use_case_weight;
        out.use_cases[use_case] = s_u;
        // Eq. (4): equal use-case weights.
        iqb_sum += s_u;
        iqb_weight += 1.0;
      }
      out.iqb = iqb_weight > 0.0 ? iqb_sum / iqb_weight : 0.0;
      scores[region][level] = std::move(out);
    }
  }
  return scores;
}

bool Reference::write(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  for (const auto& [key, cell] : cells) {
    out << "cell " << key.region << ' ' << key.dataset << ' ' << key.metric
        << ' ' << fmt(cell.value) << ' ' << cell.samples << '\n';
  }
  for (const auto& [name, count] : metric_counts) {
    out << "count " << name << ' ' << count << '\n';
  }
  return static_cast<bool>(out);
}

bool Reference::read(const std::string& path, Reference& out) {
  std::ifstream in(path);
  if (!in) return false;
  out = Reference{};
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string kind;
    fields >> kind;
    if (kind == "cell") {
      CellKey key;
      std::string value;
      Cell cell;
      fields >> key.region >> key.dataset >> key.metric >> value >>
          cell.samples;
      cell.value = std::strtod(value.c_str(), nullptr);
      if (!fields) return false;
      out.cells[key] = cell;
    } else if (kind == "count") {
      std::string name;
      std::size_t count = 0;
      fields >> name >> count;
      if (!fields) return false;
      out.metric_counts[name] = count;
    } else if (!kind.empty()) {
      return false;
    }
  }
  out.scores = score_cells(out.cells);
  return !out.cells.empty();
}

std::vector<std::string> check(const CellTable& published_cells,
                               const ScoreTable& published_scores,
                               const Reference& reference) {
  std::vector<std::string> problems;
  for (const auto& [key, cell] : reference.cells) {
    const std::string where =
        "aggregate " + key.region + "/" + key.dataset + "/" + key.metric;
    const auto it = published_cells.find(key);
    if (it == published_cells.end()) {
      problems.push_back(where + ": missing");
      continue;
    }
    if (!close_relative(it->second.value, cell.value)) {
      problems.push_back(where + ": published " + fmt(it->second.value) +
                         ", reference " + fmt(cell.value));
    }
    if (it->second.samples != cell.samples) {
      problems.push_back(where + ": " + std::to_string(it->second.samples) +
                         " samples, reference " +
                         std::to_string(cell.samples));
    }
  }
  std::map<std::string, std::size_t> totals;
  for (const auto& [key, cell] : published_cells) {
    if (!reference.cells.count(key)) {
      problems.push_back("aggregate " + key.region + "/" + key.dataset + "/" +
                         key.metric + ": not in the reference");
    }
    totals[key.dataset + "/" + key.metric] += cell.samples;
  }
  for (const auto& [name, count] : reference.metric_counts) {
    if (totals[name] != count) {
      problems.push_back("sample total " + name + ": " +
                         std::to_string(totals[name]) + ", input has " +
                         std::to_string(count));
    }
  }

  for (const auto& [region, levels] : reference.scores) {
    const auto it = published_scores.find(region);
    if (it == published_scores.end()) {
      problems.push_back("scores for region " + region + ": missing");
      continue;
    }
    for (const auto& [level, expected] : levels) {
      const auto got = it->second.find(level);
      if (got == it->second.end()) {
        problems.push_back("scores " + region + "/" + level + ": missing");
        continue;
      }
      const std::string where = "score " + region + "/" + level;
      if (std::fabs(got->second.iqb - expected.iqb) > 1e-9) {
        problems.push_back(where + " iqb: published " + fmt(got->second.iqb) +
                           ", reference " + fmt(expected.iqb));
      }
      compare_maps(where + " use case", got->second.use_cases,
                   expected.use_cases, problems);
      compare_maps(where + " requirement", got->second.requirements,
                   expected.requirements, problems);
    }
  }
  for (const auto& [region, levels] : published_scores) {
    if (!reference.scores.count(region)) {
      problems.push_back("scores for region " + region +
                         ": not in the reference");
    }
    double high = -1.0;
    double minimum = -1.0;
    for (const auto& [level, scores] : levels) {
      if (!(scores.iqb >= 0.0 && scores.iqb <= 1.0)) {
        problems.push_back("score " + region + "/" + level + " outside [0,1]");
      }
      (level == "high" ? high : minimum) = scores.iqb;
    }
    if (high > minimum) {
      problems.push_back("region " + region + ": high-quality score " +
                         fmt(high) + " above minimum-quality score " +
                         fmt(minimum));
    }
  }
  return problems;
}

bool parse_scores_json(const std::string& text, ScoreTable& out) {
  json::Value root;
  if (!json::parse(text, root)) return false;
  const json::Value* regions = root.get("regions");
  if (regions == nullptr || regions->type != json::Value::Type::kArray) {
    return false;
  }
  out.clear();
  for (const json::Value& region : regions->array) {
    const json::Value* name = region.get("region");
    if (name == nullptr) return false;
    for (const char* level : kLevels) {
      const json::Value* breakdown = region.get(level);
      if (breakdown == nullptr) return false;
      const json::Value* iqb = breakdown->get("iqb_score");
      const json::Value* use_cases = breakdown->get("use_case_scores");
      const json::Value* requirements = breakdown->get("requirement_scores");
      if (iqb == nullptr || use_cases == nullptr || requirements == nullptr) {
        return false;
      }
      LevelScores& scores = out[name->string][level];
      scores.iqb = iqb->number;
      for (const auto& [key, value] : use_cases->object) {
        scores.use_cases[key] = value.number;
      }
      for (const auto& [key, value] : requirements->object) {
        scores.requirements[key] = value.number;
      }
    }
  }
  return true;
}

bool parse_aggregate_json(const std::string& text, CellTable& out) {
  json::Value root;
  if (!json::parse(text, root)) return false;
  const json::Value* cells = root.get("cells");
  if (cells == nullptr || cells->type != json::Value::Type::kArray) {
    return false;
  }
  out.clear();
  for (const json::Value& cell : cells->array) {
    const json::Value* region = cell.get("region");
    const json::Value* dataset = cell.get("dataset");
    const json::Value* metric = cell.get("metric");
    const json::Value* value = cell.get("value");
    const json::Value* samples = cell.get("samples");
    if (!region || !dataset || !metric || !value || !samples) return false;
    out[{region->string, dataset->string, metric->string}] = {
        value->number, static_cast<std::size_t>(samples->number)};
  }
  return true;
}

}  // namespace iqb_perf
