// Seeded synthetic-country generator for the cycle and serving
// workloads: 6 regions x 3 datasets of per-test records in the
// program's record CSV schema. It uses no IQB code; alongside the CSV
// it builds the independent reference from the values exactly as
// written.
//
// Records come in three dataset blocks (ndt, cloudflare, ookla), each
// in time order with regions interleaved, as if three exports were
// concatenated. Each region has its own access mix, so scores differ
// across regions and between the two quality levels. Ookla carries no
// loss; about 3% of ndt and cloudflare tests have no upload (a failed
// upload phase), so sample totals differ by metric.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "reference.hpp"

namespace iqb_perf {

struct SynthStats {
  std::size_t records = 0;
  std::size_t bytes = 0;
};

/// Write `records` records drawn from `seed` to `csv_path` and return
/// the reference for them in `reference`. False on an I/O error.
bool generate_country(std::uint64_t seed, std::size_t records,
                      const std::string& csv_path, Reference& reference,
                      SynthStats& stats);

}  // namespace iqb_perf
