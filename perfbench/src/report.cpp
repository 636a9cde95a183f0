// Traced-run plumbing and outside probes.
//
// The registry figures below are the program's own counters
// (obs::MetricsRegistry), read once after the timed window and divided
// by the number of operations.  Span self times are computed from the
// JSONL trace by run.py, which knows the window boundaries recorded
// here.
#include <algorithm>
#include <filesystem>

#include "bench.hpp"
#include "common/rng.hpp"
#include "common/sha256.hpp"
#include "core/roles.hpp"
#include "numeric/kernels.hpp"
#include "numeric/tensor.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace perfbench {
namespace {

namespace obs = trustddl::obs;

/// Keeps probe results observable so the timed calls are not elided.
volatile std::uint64_t g_probe_sink = 0;

const obs::MetricsSnapshot::HistogramData* find_histogram(
    const obs::MetricsSnapshot& snapshot, const std::string& name) {
  for (const auto& histogram : snapshot.histograms) {
    if (histogram.name == name) {
      return &histogram;
    }
  }
  return nullptr;
}

double histogram_sum(const obs::MetricsSnapshot& snapshot,
                     const std::string& name) {
  const auto* histogram = find_histogram(snapshot, name);
  return histogram ? static_cast<double>(histogram->sum) : 0.0;
}

double histogram_mean(const obs::MetricsSnapshot& snapshot,
                      const std::string& name) {
  const auto* histogram = find_histogram(snapshot, name);
  if (histogram == nullptr || histogram->count == 0) {
    return 0.0;
  }
  return static_cast<double>(histogram->sum) /
         static_cast<double>(histogram->count);
}

template <typename Fn>
double median_of(std::size_t reps, Fn&& fn) {
  std::vector<double> samples;
  for (std::size_t i = 0; i < reps + 3; ++i) {
    const auto start = Clock::now();
    fn();
    const double us =
        std::chrono::duration<double, std::micro>(Clock::now() - start)
            .count();
    if (i >= 3) {  // first three calls warm caches and the pool
      samples.push_back(us);
    }
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

}  // namespace

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::uint64_t fnv1a(const void* data, std::size_t size, std::uint64_t hash) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 1099511628211ULL;
  }
  return hash;
}

void begin_trace(const Options& options, RunReport& report) {
  report.trace_path =
      (std::filesystem::path(options.workdir) / "trace.jsonl").string();
  obs::set_metrics_enabled(true);
  obs::MetricsRegistry::global().reset();
  obs::Tracer::global().open(report.trace_path);
}

void mark_window_begin(RunReport& report) {
  obs::MetricsRegistry::global().reset();
  report.window_begin_us = obs::now_us();
}

void mark_window_end(RunReport& report) {
  report.window_end_us = obs::now_us();
}

void end_trace(RunReport& report, double ops) {
  const obs::MetricsSnapshot snapshot =
      obs::MetricsRegistry::global().snapshot();
  obs::Tracer::global().close();
  obs::set_metrics_enabled(false);
  const double per_op = ops > 0 ? 1.0 / ops : 0.0;
  auto& layer = report.layer;

  // Counters every computing party bumps: averaged over the parties,
  // so open.batch.flushes reads as opening rounds per operation.
  const double per_party_op = per_op / trustddl::core::kComputingParties;
  for (const char* name : {"open.batch.flushes", "open.batch.values",
                           "triple.store.miss", "train.agg.comparisons"}) {
    layer[name] =
        static_cast<double>(snapshot.counter_sum(name)) * per_party_op;
  }
  layer["triple.consumed"] =
      static_cast<double>(snapshot.counter_sum("triple.consumed.")) *
      per_party_op;
  layer["triple.online_wait.us"] =
      histogram_sum(snapshot, "triple.online_wait.us") * per_party_op;
  // Process-wide counters: the owner's batches, the shared kernel pool
  // and every actor's sends.
  for (const char* name : {"serve.batches", "kernels.jobs"}) {
    layer[name] = static_cast<double>(snapshot.counter_sum(name)) * per_op;
  }
  for (const auto& [name, value] : snapshot.counters) {
    if (name.rfind("net.sent.", 0) == 0) {
      layer[name] = static_cast<double>(value) * per_op;
    }
  }
  layer["net.sent.bytes.total"] =
      static_cast<double>(snapshot.counter_sum("net.sent.bytes.")) * per_op;
  layer["net.sent.messages.total"] =
      static_cast<double>(snapshot.counter_sum("net.sent.messages.")) *
      per_op;
  for (const char* name : {"net.recv_wait_us", "kernels.caller_wait_us",
                           "kernels.worker_idle_us"}) {
    layer[name] = histogram_sum(snapshot, name) * per_op;
  }
  // Per-sample means.
  for (const char* name : {"serve.queue.wait.us", "serve.batch.rows",
                           "train.queue.wait.us", "train.round.owners"}) {
    layer[name] = histogram_mean(snapshot, name);
  }
  for (const auto& gauge : snapshot.gauges) {
    if (gauge.name == "net.mailbox.depth") {
      layer["net.mailbox.depth"] = static_cast<double>(gauge.peak);
    }
  }
}

std::map<std::string, double> run_kernel_probes() {
  using trustddl::RingTensor;
  trustddl::Rng rng(5);
  // The ring product of the FC 980x100 layer on a full 8-row batch.
  RingTensor lhs = RingTensor::matrix(8, 980);
  RingTensor rhs = RingTensor::matrix(980, 100);
  for (auto* tensor : {&lhs, &rhs}) {
    for (std::size_t i = 0; i < tensor->size(); ++i) {
      tensor->data()[i] = rng.next_u64();
    }
  }
  std::uint64_t sink = 0;
  std::map<std::string, double> probes;
  probes["probe.ring_matmul_fc_us"] = median_of(30, [&] {
    const RingTensor product = trustddl::kernels::matmul(lhs, rhs);
    sink ^= product.data()[0];
  });
  // Three commitment streams over one weight-sized share component
  // (980x100 ring elements each), as one robust opening hashes them.
  std::vector<trustddl::Bytes> messages(3, trustddl::Bytes(980 * 100 * 8));
  for (auto& message : messages) {
    for (auto& byte : message) {
      byte = static_cast<std::uint8_t>(rng.next_u64());
    }
  }
  probes["probe.sha256_batch_us"] = median_of(15, [&] {
    const auto digests = trustddl::sha256_batch(messages);
    sink ^= digests[0][0];
  });
  g_probe_sink = sink;
  return probes;
}

}  // namespace perfbench
