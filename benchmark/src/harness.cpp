#include "harness.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

extern char** environ;

namespace iqb_perf {

namespace {

const double g_process_start = now_s();

/// What a set-up-only process prints when its set-up is done.
constexpr const char* kReadyLine = "ready\n";

std::string json_escape(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

std::string format_value(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_start_s() { return g_process_start; }

double peak_rss_mb() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void RunResult::print() const {
  for (const std::string& problem : problems) {
    std::cerr << "check failed: " << problem << "\n";
  }
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) out << ", ";
    out << '"' << json_escape(metrics[i].name) << "\": {\"value\": "
        << format_value(metrics[i].value) << ", \"unit\": \""
        << json_escape(metrics[i].unit) << "\"}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_catalog() {
  static const std::vector<std::pair<std::string, std::string>> catalog = [] {
    std::vector<std::pair<std::string, std::string>> names = {
        {"datasets.load_s", "s"},
        {"datasets.load_serial_s", "s"},
        {"datasets.store_build_s", "s"},
        {"datasets.index_build_s", "s"},
        {"datasets.aggregate_s", "s"},
        {"datasets.aggregate_serial_s", "s"},
        {"core.score_s", "s"},
        {"report.render_s", "s"},
        {"fleet.wire_s", "s"},
        {"robust.checkpoint_s", "s"},
        {"fleet.replicate_s", "s"},
        {"obs.history_slo_s", "s"},
        {"cli.cycle_traced_s", "s"},
        {"datasets.records", "count"},
        {"datasets.input_bytes", "B"},
        {"datasets.cells", "count"},
        {"report.scores_bytes", "B"},
        {"robust.checkpoint_bytes", "B"},
    };
    for (const char* endpoint : {"scores", "aggregate", "metrics"}) {
      const std::string prefix = std::string("obs.") + endpoint;
      names.push_back({prefix + "_connect_ms", "ms"});
      names.push_back({prefix + "_first_byte_ms", "ms"});
      names.push_back({prefix + "_body_ms", "ms"});
      names.push_back({prefix + "_bytes", "B"});
      names.push_back({prefix + "_p50_ms", "ms"});
      names.push_back({prefix + "_p99_ms", "ms"});
    }
    for (const char* tool : {"ndt", "ookla_style", "cloudflare_style"}) {
      names.push_back({std::string("measurement.") + tool + ".busy_s", "s"});
      names.push_back({std::string("netsim.") + tool + ".events", "count"});
      names.push_back(
          {std::string("netsim.") + tool + ".events_per_s", "1/s"});
    }
    names.push_back({"measurement.sessions", "count"});
    names.push_back({"measurement.campaign_s", "s"});
    names.push_back({"measurement.tail_s", "s"});
    return names;
  }();
  return catalog;
}

void add_per_layer(RunResult& result,
                   const std::map<std::string, double>& values) {
  for (const auto& [name, unit] : per_layer_catalog()) {
    const auto it = values.find(name);
    result.add(name, it == values.end() ? 0.0 : it->second, unit);
  }
}

int Spans::begin(const std::string& name, int parent) {
  spans_.push_back({name, parent, now_s(), -1.0});
  return static_cast<int>(spans_.size() - 1);
}

void Spans::end(int id) {
  spans_.at(static_cast<std::size_t>(id)).end_s = now_s();
}

std::vector<double> Spans::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Record& record : spans_) {
    if (record.name == name && record.end_s >= 0.0) {
      out.push_back(record.end_s - record.start_s);
    }
  }
  return out;
}

bool Spans::write_prometheus(const std::string& path,
                             const std::vector<Metric>& values) const {
  std::ostringstream out;
  out << "# HELP iqb_bench_layer Per-layer benchmark metric (unit label)\n"
      << "# TYPE iqb_bench_layer gauge\n";
  for (const Metric& metric : values) {
    out << "iqb_bench_layer{name=\"" << metric.name << "\",unit=\""
        << metric.unit << "\"} " << format_value(metric.value) << "\n";
  }
  out << "# HELP iqb_bench_span_start_seconds Span start, seconds after "
         "process start\n"
      << "# TYPE iqb_bench_span_start_seconds gauge\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Record& record = spans_[i];
    out << "iqb_bench_span_start_seconds{id=\"" << i << "\",parent=\""
        << record.parent << "\",span=\"" << record.name << "\"} "
        << format_value(record.start_s - process_start_s()) << "\n";
  }
  out << "# HELP iqb_bench_span_seconds Span duration\n"
      << "# TYPE iqb_bench_span_seconds gauge\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Record& record = spans_[i];
    if (record.end_s < 0.0) continue;
    out << "iqb_bench_span_seconds{id=\"" << i << "\",parent=\""
        << record.parent << "\",span=\"" << record.name << "\"} "
        << format_value(record.end_s - record.start_s) << "\n";
  }
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  file << out.str();
  return static_cast<bool>(file);
}

namespace {

/// posix_spawn `argv` with stdin from /dev/null and stdout (and, if
/// `merge_stderr`, stderr) into a fresh pipe. Returns the pid and the
/// pipe's read end, or pid -1.
std::pair<pid_t, int> spawn_piped(const std::vector<std::string>& argv,
                                  bool merge_stderr) {
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) return {-1, -1};
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDIN_FILENO, "/dev/null",
                                   O_RDONLY, 0);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  if (merge_stderr) {
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDERR_FILENO);
  }
  std::vector<char*> args;
  for (const std::string& arg : argv) args.push_back(const_cast<char*>(arg.c_str()));
  args.push_back(nullptr);
  pid_t pid = -1;
  if (posix_spawn(&pid, args[0], &actions, nullptr, args.data(), environ) != 0) {
    pid = -1;
  }
  posix_spawn_file_actions_destroy(&actions);
  ::close(fds[1]);
  if (pid < 0) {
    ::close(fds[0]);
    return {-1, -1};
  }
  return {pid, fds[0]};
}

}  // namespace

bool Child::start(const std::vector<std::string>& argv,
                  const std::string& log_path) {
  stop();
  log_path_ = log_path;
  port_ = 0;
  output_ended_ = false;
  const auto [pid, fd] = spawn_piped(argv, true);
  if (pid < 0) return false;
  pid_ = pid;
  reader_ = std::thread([this, fd = fd] { copy_output(fd); });
  return true;
}

void Child::copy_output(int fd) {
  static const std::string kMarker = "serving telemetry on port ";
  std::ofstream log(log_path_, std::ios::binary | std::ios::trunc);
  std::string line;  // output after the last newline, until the port is seen
  bool found = false;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    log.write(buf, n);
    log.flush();
    if (found) continue;
    line.append(buf, static_cast<std::size_t>(n));
    const auto at = line.find(kMarker);
    if (at == std::string::npos) {
      const auto newline = line.rfind('\n');
      if (newline != std::string::npos) line.erase(0, newline + 1);
      continue;
    }
    const std::size_t digits = at + kMarker.size();
    const auto end = line.find_first_not_of("0123456789", digits);
    if (end == std::string::npos || end == digits) continue;  // not all here yet
    const unsigned long port = std::strtoul(line.c_str() + digits, nullptr, 10);
    found = true;
    std::lock_guard<std::mutex> lock(mutex_);
    port_ = port < 65536 ? static_cast<std::uint16_t>(port) : 0;
    changed_.notify_all();
  }
  ::close(fd);
  std::lock_guard<std::mutex> lock(mutex_);
  output_ended_ = true;
  changed_.notify_all();
}

std::uint16_t Child::wait_for_listen_port(double timeout_s) {
  std::unique_lock<std::mutex> lock(mutex_);
  changed_.wait_for(lock, std::chrono::duration<double>(timeout_s),
                    [this] { return port_ != 0 || output_ended_; });
  return port_;
}

double Child::stop(double grace_s) {
  if (pid_ <= 0) return -1.0;
  ::kill(pid_, SIGTERM);
  const double deadline = now_s() + grace_s;
  int status = 0;
  struct rusage usage {};
  double rss_mb = -1.0;
  for (;;) {
    const pid_t reaped = ::wait4(pid_, &status, WNOHANG, &usage);
    if (reaped == pid_) {
      rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
      break;
    }
    if (reaped < 0) break;
    if (now_s() > deadline) {
      ::kill(pid_, SIGKILL);
      ::wait4(pid_, &status, 0, &usage);
      rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  pid_ = -1;
  if (reader_.joinable()) reader_.join();
  return rss_mb;
}

std::optional<double> median_cold_setup(
    int count, const std::function<std::vector<std::string>(int)>& args_for) {
  std::vector<double> setups;
  for (int i = 0; i < count; ++i) {
    std::vector<std::string> argv = {"/proc/self/exe"};
    const std::vector<std::string> args = args_for(i);
    argv.insert(argv.end(), args.begin(), args.end());
    const double t0 = now_s();
    const auto [pid, fd] = spawn_piped(argv, false);
    if (pid < 0) return std::nullopt;
    std::string output;
    double ready_s = -1.0;
    char buf[256];
    for (;;) {
      const ssize_t n = ::read(fd, buf, sizeof(buf));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      if (output.empty()) ready_s = now_s() - t0;
      output.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
        output.rfind(kReadyLine, 0) != 0) {
      return std::nullopt;
    }
    setups.push_back(ready_s);
  }
  return median(setups);
}

void print_ready() { std::cout << kReadyLine << std::flush; }

HttpResult http_get(std::uint16_t port, const std::string& path,
                    double timeout_s) {
  HttpResult result;
  const double t0 = now_s();
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return result;
  struct Closer {
    int fd;
    ~Closer() { ::close(fd); }
  } closer{fd};
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(timeout_s);
  tv.tv_usec = static_cast<suseconds_t>((timeout_s - std::floor(timeout_s)) * 1e6);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return result;
  }
  const double t1 = now_s();
  result.connect_s = t1 - t0;
  // Close with a reset once the reply is read. Client and server share
  // this host's TCP tables: a normal close leaves the server's side in
  // TIME_WAIT for 60 s, about 14k entries per run, and later connects
  // that reuse those ports make a run's throughput depend on the runs
  // before it.
  const linger reset_on_close{1, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &reset_on_close,
               sizeof(reset_on_close));

  const std::string request = "GET " + path +
                              " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                              "Connection: close\r\n\r\n";
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd, request.data() + sent, request.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) return result;
    sent += static_cast<std::size_t>(n);
  }
  const double t2 = now_s();

  std::string response;
  char buf[65536];
  double first_byte = 0.0;
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) return result;
    if (n == 0) break;
    if (response.empty()) first_byte = now_s();
    response.append(buf, static_cast<std::size_t>(n));
  }
  const double t3 = now_s();
  if (response.empty()) return result;
  result.first_byte_s = first_byte - t2;
  result.body_s = t3 - first_byte;
  result.bytes = response.size();

  // Status line, then the head; the body runs to EOF.
  if (response.compare(0, 9, "HTTP/1.1 ") != 0 || response.size() < 12) {
    return result;
  }
  result.status = std::atoi(response.c_str() + 9);
  const auto head_end = response.find("\r\n\r\n");
  if (head_end == std::string::npos) return result;
  result.body = response.substr(head_end + 4);
  result.ok = true;
  return result;
}

std::string option(const std::vector<std::string>& args,
                   const std::string& name, const std::string& fallback) {
  for (std::size_t i = 0; i + 1 < args.size(); ++i) {
    if (args[i] == name) return args[i + 1];
  }
  return fallback;
}

std::string read_file(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) return {};
  std::ostringstream out;
  out << file.rdbuf();
  return out.str();
}

}  // namespace iqb_perf
