#include "synth.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

namespace iqb_perf {

namespace {

/// xoshiro256** seeded through splitmix64.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) {
    for (auto& word : state_) {
      seed += 0x9e3779b97f4a7c15ULL;
      std::uint64_t z = seed;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      word = z ^ (z >> 31);
    }
  }
  std::uint64_t next() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  double normal() {
    const double u1 = 1.0 - uniform();
    const double u2 = uniform();
    return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
  }
  double exponential() { return -std::log(1.0 - uniform()); }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::array<std::uint64_t, 4> state_{};
};

struct RegionProfile {
  const char* name;
  double weight;  ///< Share of each dataset's tests.
  std::array<const char*, 2> isps;
  double down_median_mbps, down_sigma;
  double up_ratio;
  double latency_ms, latency_sigma;
  double bloat_ms;    ///< Mean extra delay under load.
  double loss_mean;   ///< Mean loss fraction of a lossy test.
  double loss_share;  ///< Share of tests that see any loss.
};

constexpr RegionProfile kRegions[] = {
    {"metro", 0.26, {"cityfiber", "metronet"}, 420, 0.45, 0.85, 9, 0.25, 15,
     0.0004, 0.35},
    {"suburb", 0.22, {"cablecorp", "ringtel"}, 160, 0.55, 0.10, 16, 0.30, 60,
     0.0015, 0.5},
    {"exurb", 0.16, {"ringtel", "valleydsl"}, 55, 0.60, 0.15, 24, 0.30, 45,
     0.003, 0.6},
    {"rural", 0.14, {"hilltop", "valleydsl"}, 22, 0.70, 0.25, 38, 0.35, 80,
     0.006, 0.7},
    {"islands", 0.12, {"leosat", "islandnet"}, 90, 0.50, 0.12, 42, 0.30, 50,
     0.008, 0.6},
    {"remote", 0.10, {"geosat", "leosat"}, 30, 0.50, 0.10, 580, 0.08, 120,
     0.012, 0.8},
};
constexpr std::size_t kRegionCount = std::size(kRegions);

/// How each dataset's tool sees the same line.
struct DatasetProfile {
  const char* name;
  double down_scale, up_scale, latency_scale;
  bool reports_loss;
  double upload_missing;  ///< Share of tests without an upload result.
};

constexpr DatasetProfile kDatasets[] = {
    {"ndt", 0.85, 0.90, 1.00, true, 0.03},
    {"cloudflare", 0.95, 0.95, 1.10, true, 0.03},
    {"ookla", 1.15, 1.10, 0.95, false, 0.0},
};

/// Append `value` with exactly six decimals.
void append_fixed6(std::string& out, double value) {
  auto micros = static_cast<long long>(std::llround(value * 1e6));
  if (micros < 0) micros = 0;
  char digits[32];
  const int n = std::snprintf(digits, sizeof(digits), "%lld.%06lld",
                              micros / 1000000, micros % 1000000);
  out.append(digits, static_cast<std::size_t>(n));
}

void append2(std::string& out, int value) {
  out.push_back(static_cast<char>('0' + value / 10));
  out.push_back(static_cast<char>('0' + value % 10));
}

}  // namespace

bool generate_country(std::uint64_t seed, std::size_t records,
                      const std::string& csv_path, Reference& reference,
                      SynthStats& stats) {
  std::FILE* file = std::fopen(csv_path.c_str(), "wb");
  if (file == nullptr) return false;
  Rng rng(seed);
  reference = Reference{};
  stats = SynthStats{};

  // values[region][dataset][metric] as parsed back from the CSV text.
  std::vector<std::vector<double>> values(kRegionCount * 3 * kMetrics.size());
  auto bucket = [&](std::size_t region, std::size_t dataset,
                    std::size_t metric) -> std::vector<double>& {
    return values[(region * 3 + dataset) * kMetrics.size() + metric];
  };

  std::string out =
      "dataset,region,isp,subscriber_id,timestamp,download_mbps,upload_mbps,"
      "latency_ms,loaded_latency_ms,loss_fraction\n";
  out.reserve(1 << 23);
  bool io_ok = true;
  auto flush = [&] {
    if (std::fwrite(out.data(), 1, out.size(), file) != out.size()) {
      io_ok = false;
    }
    stats.bytes += out.size();
    out.clear();
  };

  // Writes one field and records the value exactly as written.
  auto field = [&](std::vector<double>& sink, double value) {
    const std::size_t at = out.size();
    append_fixed6(out, value);
    sink.push_back(std::strtod(out.c_str() + at, nullptr));
  };

  for (std::size_t d = 0; d < 3; ++d) {
    const DatasetProfile& dataset = kDatasets[d];
    const std::size_t block = records / 3 + (d == 0 ? records % 3 : 0);
    for (std::size_t i = 0; i < block; ++i) {
      double pick = rng.uniform();
      std::size_t r = 0;
      while (r + 1 < kRegionCount && pick >= kRegions[r].weight) {
        pick -= kRegions[r].weight;
        ++r;
      }
      const RegionProfile& region = kRegions[r];
      const std::uint64_t subscriber = rng.next() % 4096;

      out += dataset.name;
      out.push_back(',');
      out += region.name;
      out.push_back(',');
      out += region.isps[subscriber % 2];
      out.push_back(',');
      out += region.name;
      out.push_back('-');
      out += std::to_string(subscriber);
      out.push_back(',');
      // February 2025, spread evenly over the block.
      const std::size_t second = i * (28ULL * 86400ULL) / std::max<std::size_t>(block, 1);
      out += "2025-02-";
      append2(out, static_cast<int>(second / 86400 + 1));
      out.push_back('T');
      append2(out, static_cast<int>(second / 3600 % 24));
      out.push_back(':');
      append2(out, static_cast<int>(second / 60 % 60));
      out.push_back(':');
      append2(out, static_cast<int>(second % 60));
      out += "Z,";

      const double down = std::clamp(region.down_median_mbps *
                                         std::exp(region.down_sigma * rng.normal()) *
                                         dataset.down_scale,
                                     0.1, 5000.0);
      const double up = std::clamp(
          down * region.up_ratio * std::exp(0.25 * rng.normal()) *
              dataset.up_scale / dataset.down_scale,
          0.05, 5000.0);
      const double latency = std::max(
          0.5, region.latency_ms * std::exp(region.latency_sigma * rng.normal()) *
                   dataset.latency_scale);
      const double loaded = latency + region.bloat_ms * rng.exponential();
      const bool lossy = rng.uniform() < region.loss_share;
      const double loss = lossy ? std::min(0.25, region.loss_mean *
                                                     rng.exponential())
                                : 0.0;
      const bool has_upload = rng.uniform() >= dataset.upload_missing;

      field(bucket(r, d, 0), down);
      out.push_back(',');
      if (has_upload) field(bucket(r, d, 1), up);
      out.push_back(',');
      field(bucket(r, d, 2), latency);
      out.push_back(',');
      field(bucket(r, d, 3), loaded);
      out.push_back(',');
      if (dataset.reports_loss) field(bucket(r, d, 4), loss);
      out.push_back('\n');
      ++stats.records;
      if (out.size() > (1 << 22)) flush();
    }
  }
  flush();
  if (std::fclose(file) != 0) io_ok = false;
  if (!io_ok) return false;

  for (std::size_t r = 0; r < kRegionCount; ++r) {
    for (std::size_t d = 0; d < 3; ++d) {
      for (std::size_t m = 0; m < kMetrics.size(); ++m) {
        std::vector<double>& sink = bucket(r, d, m);
        if (sink.empty()) continue;
        const std::string metric = kMetrics[m];
        reference.metric_counts[std::string(kDatasets[d].name) + "/" + metric] +=
            sink.size();
        Cell cell;
        cell.samples = sink.size();
        cell.value = worst_direction_p95(metric, sink);
        reference.cells[{kRegions[r].name, kDatasets[d].name, metric}] = cell;
      }
    }
  }
  reference.scores = score_cells(reference.cells);
  return true;
}

}  // namespace iqb_perf
