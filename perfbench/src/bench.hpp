// Shared types of the repository benchmark binary.
//
// A workload runs the system through its public entry points only
// (serve::run_serving_session + InferenceClient, TrustDdlEngine over
// net::TcpFabric, train::run_training_session) and fills a RunReport:
// set-up samples, one latency sample per timed operation, the wire
// bytes those operations moved, and the correctness ledger.  In a
// traced run the workload also opens the program's own JSONL tracer
// and metrics registry around its timed window; report.cpp turns the
// registry into per-layer figures and run.py adds span self times
// from the trace file.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Per-run scratch directory (trace files); created by run.py.
  std::string workdir = ".";
};

/// What one workload run measured.
struct RunReport {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Output mismatches and broken ledgers (each also counts as failed).
  std::uint64_t wrong = 0;
  std::vector<std::string> errors;

  /// Wall time from the entry-point call to the first timed operation,
  /// one warm-up call included; one sample per set-up.
  std::vector<double> setup_s;
  /// Per timed operation (request, training step or round), in ms; a
  /// failed operation is +inf so it misses any latency limit.
  std::vector<double> op_ms;
  /// Completed operations over the wall time they were measured in.
  double completed_ops = 0.0;
  double measured_s = 0.0;
  /// Wire bytes attributed to the timed operations.
  double op_bytes = 0.0;
  /// Operations the bytes figure covers.
  double bytes_ops = 0.0;

  /// Benchmark-side timers: serve.client.{submit,await}_us sums over
  /// serve.requests timed requests, and load.gen_late_ms (largest).
  std::map<std::string, double> timers;

  /// Traced runs: metrics-registry figures, normalised per operation.
  std::map<std::string, double> layer;
  /// Traced runs: trace file and the steady-clock window (obs::now_us)
  /// whose spans count toward per-operation figures.
  std::string trace_path;
  std::uint64_t window_begin_us = 0;
  std::uint64_t window_end_us = 0;
  /// Sessions (set-ups) covered by the trace.
  double traced_sessions = 0.0;

  /// Record `ops` failed operations (already counted in `attempted`).
  void fail(const std::string& what, bool wrong_output,
            std::uint64_t ops = 1) {
    failed += ops;
    if (wrong_output) {
      ++wrong;
    }
    if (errors.size() < 8) {
      errors.push_back(what);
    }
  }
};

/// How a workload lays out its set-ups and timed operations.
///  kTimed     end-to-end run: several set-ups, tracing off.
///  kBaseline  one set-up, tracing off (reference for obs overhead).
///  kTraced    one set-up, tracer and metrics registry on.
enum class Layout { kTimed, kBaseline, kTraced };

/// Workload entry points (seconds = length of the timed window).
RunReport run_serve_open(const Options& options, Layout layout,
                         double seconds);
RunReport run_serve_burst(const Options& options, Layout layout,
                          double seconds);
RunReport run_train_tcp(const Options& options, Layout layout,
                        double seconds);
RunReport run_robust_train(const Options& options, Layout layout,
                           double seconds);

/// Traced-run helpers (report.cpp).  begin_trace opens the tracer
/// and enables the registry; mark_window_begin zeroes the registry so
/// its counters cover exactly the timed window; end_trace snapshots
/// the registry into report.layer (divided by `ops`), closes the
/// tracer and turns the registry off again.
void begin_trace(const Options& options, RunReport& report);
void mark_window_begin(RunReport& report);
void mark_window_end(RunReport& report);
void end_trace(RunReport& report, double ops);

/// Outside probes of the numeric/common hot loops, in µs per call.
std::map<std::string, double> run_kernel_probes();

/// FNV-1a over raw bytes (weight digests).
std::uint64_t fnv1a(const void* data, std::size_t size,
                    std::uint64_t hash = 1469598103934665603ULL);

double seconds_since(Clock::time_point start);

}  // namespace perfbench
