// perfbench: runs one benchmark workload in-process and prints one
// JSON line for perfbench/run.py, which owns the output contract.
//
//   perfbench --workload <name> --seed <n> --seconds <s>
//                    --trace <0|1> --workdir <dir>
//
// --trace 0 measures the end-to-end figures with tracing off.
// --trace 1 runs the workload twice for half the time each, untraced
// then traced, and reports the program's per-layer counters, the
// benchmark's own timers, the outside kernel probes and the tracing
// overhead.  A watchdog ends a run that outlives its time budget with
// exit code 3 and no result, so a hung actor is a failed run, never a
// stall.
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <mutex>
#include <sstream>
#include <thread>

#include "bench.hpp"

namespace perfbench {
namespace {

/// A failed operation counts as the client's response timeout, so it
/// misses any latency limit without making percentiles infinite.
constexpr double kFailedOpMs = 10000.0;

double percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  for (auto& value : values) {
    if (!std::isfinite(value)) value = kFailedOpMs;
  }
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const auto lower = static_cast<std::size_t>(std::floor(position));
  const std::size_t upper = std::min(lower + 1, values.size() - 1);
  const double fraction = position - static_cast<double>(lower);
  return values[lower] + (values[upper] - values[lower]) * fraction;
}

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) {
    return "null";
  }
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.9g", value);
  return buffer;
}

std::string json_object(const std::map<std::string, double>& values) {
  std::ostringstream out;
  out << "{";
  bool first = true;
  for (const auto& [name, value] : values) {
    out << (first ? "" : ", ") << "\"" << json_escape(name)
        << "\": " << json_number(value);
    first = false;
  }
  out << "}";
  return out.str();
}

std::map<std::string, double> end_to_end(const RunReport& report) {
  std::map<std::string, double> metrics;
  metrics["setup_s"] = percentile(report.setup_s, 0.5);
  metrics["op_p50_ms"] = percentile(report.op_ms, 0.5);
  metrics["op_p90_ms"] = percentile(report.op_ms, 0.9);
  metrics["ops_per_s"] = report.measured_s > 0
                             ? report.completed_ops / report.measured_s
                             : 0.0;
  metrics["mb_per_op"] =
      report.bytes_ops > 0
          ? report.op_bytes / report.bytes_ops / (1024.0 * 1024.0)
          : 0.0;
  return metrics;
}

/// Benchmark-side timers as per-operation figures.
void add_timers(const RunReport& report, std::map<std::string, double>& out) {
  const auto timer = [&](const std::string& name) {
    const auto it = report.timers.find(name);
    return it == report.timers.end() ? 0.0 : it->second;
  };
  const double requests = timer("serve.requests");
  for (const char* name : {"serve.client.submit_us", "serve.client.await_us"}) {
    out[name] = requests > 0 ? timer(name) / requests : 0.0;
  }
  out["load.gen_late_ms"] = timer("load.gen_late_ms");
}

/// A run that attempted nothing checked nothing: it reports one failed
/// operation and is not correct.
void print_result(const RunReport& report,
                  const std::map<std::string, double>& e2e,
                  const std::map<std::string, double>& layer) {
  const bool correct = report.wrong == 0 && report.attempted > 0;
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << std::max<std::uint64_t>(report.attempted, 1)
      << ", \"failed\": "
      << std::max<std::uint64_t>(std::min(report.failed, report.attempted),
                                 report.attempted == 0 ? 1 : 0)
      << ", \"samples\": " << report.op_ms.size() << ", \"setup_samples\": [";
  for (std::size_t i = 0; i < report.setup_s.size(); ++i) {
    out << (i ? ", " : "") << json_number(report.setup_s[i]);
  }
  out << "]"
      << ", \"e2e\": " << json_object(e2e)
      << ", \"layer\": " << json_object(layer);
  out << ", \"trace\": {\"path\": \"" << json_escape(report.trace_path)
      << "\", \"begin_us\": " << report.window_begin_us
      << ", \"end_us\": " << report.window_end_us
      << ", \"ops\": " << json_number(report.completed_ops)
      << ", \"sessions\": " << json_number(report.traced_sessions) << "}";
  out << ", \"errors\": [";
  for (std::size_t i = 0; i < report.errors.size(); ++i) {
    out << (i ? ", " : "") << "\"" << json_escape(report.errors[i]) << "\"";
  }
  out << "]}";
  std::printf("%s\n", out.str().c_str());
  std::fflush(stdout);
}

/// Ends the process if the run outlives `budget`.
class Watchdog {
 public:
  explicit Watchdog(std::chrono::seconds budget)
      : thread_([this, budget] {
          std::unique_lock<std::mutex> lock(mu_);
          if (!cv_.wait_for(lock, budget, [this] { return done_; })) {
            std::fprintf(stderr,
                         "perfbench: run exceeded %llds; a hung actor is a "
                         "failed run\n",
                         static_cast<long long>(budget.count()));
            std::fflush(stderr);
            std::_Exit(3);
          }
        }) {}
  ~Watchdog() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;
};

using WorkloadFn = std::function<RunReport(const Options&, Layout, double)>;

int run(const Options& options) {
  const std::map<std::string, WorkloadFn> workloads = {
      {"serve_open", run_serve_open},
      {"serve_burst", run_serve_burst},
      {"train_tcp", run_train_tcp},
      {"robust_train", run_robust_train},
  };
  const auto it = workloads.find(options.workload);
  if (it == workloads.end()) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 options.workload.c_str());
    return 2;
  }
  // Set-ups, reference checks and the timed window fit well inside
  // this; a benchmark run may take at most 180 s.
  const auto budget = std::chrono::seconds(static_cast<long long>(
      std::min(165.0, 90.0 + 3.0 * options.seconds)));
  const Watchdog watchdog(budget);

  if (!options.trace) {
    const RunReport report =
        it->second(options, Layout::kTimed, options.seconds);
    print_result(report, end_to_end(report), {});
    return 0;
  }

  const double half = options.seconds / 2.0;
  const RunReport baseline = it->second(options, Layout::kBaseline, half);
  RunReport traced = it->second(options, Layout::kTraced, half);
  std::map<std::string, double> layer = traced.layer;
  add_timers(traced, layer);
  for (const auto& [name, value] : run_kernel_probes()) {
    layer[name] = value;
  }
  const double base_p50 = percentile(baseline.op_ms, 0.5);
  layer["obs.overhead_frac"] =
      base_p50 > 0 ? percentile(traced.op_ms, 0.5) / base_p50 - 1.0 : 0.0;
  // Both halves count toward the run's ledger.
  traced.attempted += baseline.attempted;
  traced.failed += baseline.failed;
  traced.wrong += baseline.wrong;
  for (const auto& error : baseline.errors) {
    traced.errors.push_back(error);
  }
  print_result(traced, end_to_end(baseline), layer);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--workdir") {
      options.workdir = value;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (options.workload.empty() || !(options.seconds > 0.0)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> --workdir <dir>\n");
    return 2;
  }
  try {
    return perfbench::run(options);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 1;
  }
}
