// Entry points of the iqb_perf subcommands (argv after the subcommand).
#pragma once

#include <string>
#include <vector>

namespace iqb_perf {

/// gen: write a synthetic-country CSV and its reference.
int gen_main(const std::vector<std::string>& args);
/// cycle: the cycle_csv_2m / cycle_iqbr_276k workloads.
int cycle_main(const std::vector<std::string>& args);
/// serve: the serve_scores workload against a spawned iqbd.
int serve_main(const std::vector<std::string>& args);
/// campaign: the campaign workload.
int campaign_main(const std::vector<std::string>& args);

}  // namespace iqb_perf
