// Shared plumbing for the benchmark workloads: clocks, the result line,
// in-memory spans with a Prometheus-text dump, child processes and a
// plain-socket HTTP/1.1 GET.
//
// Nothing here calls into IQB; the workloads (cycle.cpp, serve.cpp,
// campaign.cpp) do, and only through the program's public entry
// points.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "reference.hpp"

namespace iqb_perf {

/// Seconds on the steady clock since an arbitrary origin.
double now_s();

/// Steady-clock time at which this process started running static
/// initializers; span start times are given relative to it.
double process_start_s();

/// Peak resident set of this process, in MiB (getrusage ru_maxrss).
double peak_rss_mb();

/// R-7 median of `values` (reference.hpp's r7_quantile); reorders
/// `values`. Empty input gives 0.
inline double median(std::vector<double>& values) {
  return r7_quantile(values, 0.5);
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The last stdout line of every run:
/// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable reasons `correct` is false (printed to stderr).
  std::vector<std::string> problems;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void fail(const std::string& why) {
    correct = false;
    problems.push_back(why);
  }
  /// Print problems to stderr and the JSON line to stdout.
  void print() const;
};

/// Every per-layer metric the benchmark defines, with its unit, in the
/// order BENCHMARK.json lists them. A traced run reports all of them;
/// a layer its workload leaves idle reads 0.
const std::vector<std::pair<std::string, std::string>>& per_layer_catalog();

/// Fill `result` with every catalogued per-layer metric, taking values
/// from `values` (missing names read 0).
void add_per_layer(RunResult& result,
                   const std::map<std::string, double>& values);

/// In-memory span recorder for the traced run: each span has a name,
/// start, end and the id of the span that caused it. Spans stay in
/// memory until write_prometheus() at the end of the run.
class Spans {
 public:
  static constexpr int kNoParent = -1;

  int begin(const std::string& name, int parent = kNoParent);
  void end(int id);

  /// Durations of every span called `name`, in the order they ran.
  std::vector<double> durations(const std::string& name) const;

  /// Write the spans plus `values` (per-layer metrics, with units) in
  /// the Prometheus text exposition format /metrics uses.
  bool write_prometheus(const std::string& path,
                        const std::vector<Metric>& values) const;

 private:
  struct Record {
    std::string name;
    int parent = kNoParent;
    double start_s = 0.0;
    double end_s = -1.0;
  };
  std::vector<Record> spans_;
};

/// RAII span: begins on construction, ends on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Spans& spans, const std::string& name,
             int parent = Spans::kNoParent)
      : spans_(spans), id_(spans.begin(name, parent)) {}
  ~ScopedSpan() { spans_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Spans& spans_;
  int id_;
};

/// A child process started by the benchmark. Its stdout and stderr
/// go through a pipe that a reader thread copies to the log file; the
/// reader also catches the line iqbd prints once it listens
/// ("... serving telemetry on port N ..."), so a wait for the port
/// ends as soon as the line is written.
class Child {
 public:
  Child() = default;
  ~Child() { stop(); }
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  /// Start `argv` (argv[0] is a path), its output going to `log_path`.
  /// False if it could not be started.
  bool start(const std::vector<std::string>& argv,
             const std::string& log_path);

  /// The port from iqbd's listen line, or 0 if the child's output ends
  /// or `timeout_s` passes first.
  std::uint16_t wait_for_listen_port(double timeout_s);

  /// SIGTERM the child (SIGKILL after `grace_s`), reap it and wait for
  /// the rest of its output. Returns its peak RSS in MiB (wait4
  /// rusage), or -1 if it was not running.
  double stop(double grace_s = 10.0);

  const std::string& log_path() const { return log_path_; }

 private:
  void copy_output(int fd);

  pid_t pid_ = -1;
  std::string log_path_;
  std::thread reader_;
  std::mutex mutex_;
  std::condition_variable changed_;
  std::uint16_t port_ = 0;
  bool output_ended_ = false;
};

/// Median set-up time of `count` fresh processes of this binary, each
/// started with `args_for(i)`: the time from spawning one to the
/// "ready" line it prints (print_ready) once its set-up is done, so
/// each is a cold set-up, exec and dynamic loading included. Nothing if
/// any of them fails.
std::optional<double> median_cold_setup(
    int count, const std::function<std::vector<std::string>(int)>& args_for);

/// The line a set-up-only process prints when its set-up is done.
void print_ready();

/// Outcome of one plain-socket HTTP/1.1 GET against 127.0.0.1.
struct HttpResult {
  bool ok = false;  ///< Transport succeeded and a full response arrived.
  int status = 0;
  std::string body;
  double connect_s = 0.0;     ///< socket() + connect().
  double first_byte_s = 0.0;  ///< Request sent -> first response byte.
  double body_s = 0.0;        ///< First byte -> end of response.
  std::size_t bytes = 0;      ///< Whole response, head included.
};

/// GET `path` over a fresh connection and read to EOF (the server
/// closes every connection); the client's close is a reset, so no
/// TIME_WAIT entry outlives the request.
HttpResult http_get(std::uint16_t port, const std::string& path,
                    double timeout_s = 10.0);

/// "--name value" option lookup over argv; `fallback` when absent.
std::string option(const std::vector<std::string>& args,
                   const std::string& name, const std::string& fallback = "");

/// Read a whole file; empty string if it cannot be read.
std::string read_file(const std::string& path);

}  // namespace iqb_perf
