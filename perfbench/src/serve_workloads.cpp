// serve_open and serve_burst: the Table I CNN behind the secure
// serving layer (malicious mode, triple prefetch on, 8-row batches,
// 20 ms window, 2 ms emulated links), driven through
// serve::run_serving_session with InferenceClient::submit/await.
//
// Each run is one set-up-only session (warm-up calls, then stop) and
// two timed sessions.  Every session's set-up is a setup_s sample.
// The set-up-only session's traffic is subtracted from each timed
// session's, so bytes per request exclude parameter sharing and the
// triple warm phase.  A traced run uses one timed session only.
//
// Every label is checked after the timed sessions against
// TrustDdlEngine::infer on the same rows (in-memory, untimed).
#include <algorithm>
#include <barrier>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <limits>
#include <mutex>
#include <thread>

#include "bench.hpp"
#include "common/rng.hpp"
#include "data/synthetic_mnist.hpp"
#include "serve/harness.hpp"

namespace perfbench {
namespace {

using namespace trustddl;
using std::chrono::milliseconds;

constexpr std::uint64_t kModelSeed = 7;
constexpr std::uint64_t kDatasetSeed = 42;
constexpr std::size_t kPoolRows = 64;
constexpr milliseconds kLinkLatency{2};

// serve_open: 2 client actors, each a submitter and an awaiter thread,
// 4 req/s offered in total (below the ~6 req/s knee).
constexpr int kOpenClients = 2;
constexpr double kOpenRate = 4.0;
// serve_burst: 4 client actors, 8 requests outstanding each.
constexpr int kBurstClients = 4;
constexpr std::size_t kBurstWindow = 8;

const data::Dataset& row_pool() {
  static const data::Dataset pool = [] {
    data::SyntheticMnistConfig config;
    config.train_count = 1;
    config.test_count = kPoolRows;
    config.seed = kDatasetSeed;
    return data::generate_synthetic_mnist(config).test;
  }();
  return pool;
}

core::EngineConfig engine_config() {
  core::EngineConfig config;
  config.mode = mpc::SecurityMode::kMalicious;
  config.seed = kModelSeed;
  return config;
}

serve::SessionConfig session_config(int clients, std::uint64_t client_seed) {
  serve::SessionConfig config;
  config.spec = nn::mnist_cnn_spec();
  config.engine = engine_config();
  config.engine.emulate_latency = true;
  config.engine.link_latency = kLinkLatency;
  config.engine.triple_prefetch = true;
  config.serve.max_batch_rows = 8;
  config.serve.batch_window = milliseconds(20);
  config.num_clients = clients;
  config.client.seed = client_seed;
  return config;
}

/// One request's outcome, checked against the reference afterwards.
struct Served {
  std::size_t row = 0;
  bool ok = false;
  std::size_t label = 0;
};

/// State shared by the client threads of one session.
struct SessionState {
  std::mutex mu;
  std::vector<Served> served;
  std::vector<double> latency_ms;
  Clock::time_point t0;
  Clock::time_point last_done;
  double submit_us = 0.0;
  double await_us = 0.0;
  double late_ms_max = 0.0;
  std::uint64_t requests = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  void record(std::size_t row, const serve::InferenceResult& result,
              double latency, double submit, double waited,
              Clock::time_point done) {
    const bool ok =
        result.status == serve::Status::kOk && result.labels.size() == 1;
    const std::lock_guard<std::mutex> lock(mu);
    ++requests;
    served.push_back({row, ok, ok ? result.labels[0] : 0});
    latency_ms.push_back(ok ? latency
                            : std::numeric_limits<double>::infinity());
    if (!ok) {
      ++failed;
      if (errors.size() < 4) {
        errors.push_back(std::string("request ended ") +
                         serve::status_name(result.status));
      }
    }
    submit_us += submit;
    await_us += waited;
    last_done = std::max(last_done, done);
  }

  void error(const std::string& what) {
    const std::lock_guard<std::mutex> lock(mu);
    ++failed;
    ++requests;
    latency_ms.push_back(std::numeric_limits<double>::infinity());
    if (errors.size() < 4) {
      errors.push_back(what);
    }
  }
};

double micros(Clock::duration duration) {
  return std::chrono::duration<double, std::micro>(duration).count();
}

RealTensor row_tensor(std::size_t row) {
  return data::slice(row_pool(), row, 1).images;
}

/// Untimed warm-up: one synchronous single-row inference.
void warm_up(serve::InferenceClient& client, std::size_t row,
             std::vector<Served>& warm, std::mutex& mu) {
  const serve::InferenceResult result = client.infer(row_tensor(row));
  const bool ok =
      result.status == serve::Status::kOk && result.labels.size() == 1;
  const std::lock_guard<std::mutex> lock(mu);
  warm.push_back({row, ok, ok ? result.labels[0] : 0});
}

/// Open loop for one client: the calling thread submits on schedule,
/// a second thread awaits in submission order.  Latency runs from each
/// request's due time.
void open_loop_client(serve::InferenceClient& client,
                      const std::vector<double>& due_offsets_s,
                      const std::vector<std::size_t>& rows,
                      SessionState& state) {
  struct Pending {
    std::uint64_t seq = 0;
    std::size_t row = 0;
    Clock::time_point due;
    double submit_us = 0.0;
    bool submitted = false;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Pending> queue;
  const std::size_t total = due_offsets_s.size();

  std::thread awaiter([&] {
    for (std::size_t k = 0; k < total; ++k) {
      Pending pending;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return !queue.empty(); });
        pending = queue.front();
        queue.pop_front();
      }
      if (!pending.submitted) {
        state.error("submit threw");
        continue;
      }
      try {
        const auto start = Clock::now();
        const serve::InferenceResult result = client.await(pending.seq, 1);
        const auto done = Clock::now();
        state.record(
            pending.row, result,
            std::chrono::duration<double, std::milli>(done - pending.due)
                .count(),
            pending.submit_us, micros(done - start), done);
      } catch (const std::exception& error) {
        state.error(std::string("await threw: ") + error.what());
      }
    }
  });

  for (std::size_t k = 0; k < total; ++k) {
    Pending pending;
    pending.row = rows[k];
    pending.due = state.t0 + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(
                                     due_offsets_s[k]));
    std::this_thread::sleep_until(pending.due);
    const auto start = Clock::now();
    const double late_ms =
        std::chrono::duration<double, std::milli>(start - pending.due)
            .count();
    try {
      const RealTensor images = row_tensor(pending.row);
      const auto call = Clock::now();
      pending.seq = client.submit(images);
      pending.submit_us = micros(Clock::now() - call);
      pending.submitted = true;
    } catch (const std::exception&) {
      pending.submitted = false;
    }
    {
      const std::lock_guard<std::mutex> lock(state.mu);
      state.late_ms_max = std::max(state.late_ms_max, late_ms);
    }
    {
      const std::lock_guard<std::mutex> lock(mu);
      queue.push_back(pending);
    }
    cv.notify_one();
  }
  awaiter.join();
}

/// Closed loop for one client: keep `kBurstWindow` requests
/// outstanding until `end`, then drain.  Latency runs from submit.
void burst_client(serve::InferenceClient& client, Clock::time_point end,
                  Rng& rng, SessionState& state) {
  struct Pending {
    std::uint64_t seq = 0;
    std::size_t row = 0;
    Clock::time_point submitted;
    double submit_us = 0.0;
  };
  std::deque<Pending> inflight;
  while (true) {
    while (inflight.size() < kBurstWindow && Clock::now() < end) {
      Pending pending;
      pending.row = static_cast<std::size_t>(rng.next_below(kPoolRows));
      try {
        const RealTensor images = row_tensor(pending.row);
        pending.submitted = Clock::now();
        pending.seq = client.submit(images);
        pending.submit_us = micros(Clock::now() - pending.submitted);
        inflight.push_back(pending);
      } catch (const std::exception& error) {
        state.error(std::string("submit threw: ") + error.what());
      }
    }
    if (inflight.empty()) {
      break;
    }
    const Pending pending = inflight.front();
    inflight.pop_front();
    try {
      const auto start = Clock::now();
      const serve::InferenceResult result = client.await(pending.seq, 1);
      const auto done = Clock::now();
      state.record(
          pending.row, result,
          std::chrono::duration<double, std::milli>(done - pending.submitted)
              .count(),
          pending.submit_us, micros(done - start), done);
    } catch (const std::exception& error) {
      state.error(std::string("await threw: ") + error.what());
    }
  }
}

struct Plan {
  bool open_loop = true;
  int clients = 1;
  std::size_t timed_sessions = 2;
  bool setup_only_session = true;
};

RunReport run_serve(const Options& options, Layout layout, double seconds,
                    const Plan& plan) {
  const bool traced = layout == Layout::kTraced;
  RunReport report;
  Rng rng(options.seed * 0x9E3779B97F4A7C15ULL + (plan.open_loop ? 1 : 2));
  std::vector<Served> warm;
  std::mutex warm_mu;
  std::vector<Served> served;
  std::uint64_t setup_bytes = 0;
  bool have_setup_bytes = false;

  const std::size_t sessions =
      plan.timed_sessions + (plan.setup_only_session ? 1 : 0);
  const double window_s = seconds / static_cast<double>(plan.timed_sessions);
  if (traced) {
    begin_trace(options, report);
  }

  for (std::size_t s = 0; s < sessions; ++s) {
    const bool setup_only = plan.setup_only_session && s == 0;
    SessionState state;
    // Inputs for this session, drawn up front from the workload seed.
    std::vector<std::size_t> warm_rows(plan.clients);
    std::vector<std::vector<double>> due(plan.clients);
    std::vector<std::vector<std::size_t>> rows(plan.clients);
    std::vector<Rng> client_rngs;
    const double period = plan.clients / kOpenRate;
    const auto per_client = static_cast<std::size_t>(
        std::max(1.0, std::floor(window_s * kOpenRate / plan.clients)));
    for (int c = 0; c < plan.clients; ++c) {
      warm_rows[c] = static_cast<std::size_t>(rng.next_below(kPoolRows));
      client_rngs.push_back(rng.fork());
      if (plan.open_loop) {
        for (std::size_t k = 0; k < per_client; ++k) {
          // Fixed rate, clients interleaved, +-25% uniform jitter.
          const double base = 0.05 + (static_cast<double>(k) +
                                      static_cast<double>(c) / plan.clients) *
                                         period;
          due[c].push_back(base + rng.next_double(-0.25, 0.25) * period);
          rows[c].push_back(
              static_cast<std::size_t>(rng.next_below(kPoolRows)));
        }
      }
    }

    const auto session_start = Clock::now();
    auto on_ready = [&]() noexcept {
      state.t0 = Clock::now();
      state.last_done = state.t0;
      report.setup_s.push_back(seconds_since(session_start));
      if (traced && !setup_only) {
        mark_window_begin(report);
      }
    };
    std::barrier ready(plan.clients, on_ready);

    serve::SessionConfig config =
        session_config(plan.clients, options.seed * 131 + s);
    serve::SessionResult result;
    try {
      result = serve::run_serving_session(
          config, [&](int index, serve::InferenceClient& client) {
            try {
              warm_up(client, warm_rows[index], warm, warm_mu);
            } catch (const std::exception&) {
              const std::lock_guard<std::mutex> lock(warm_mu);
              warm.push_back({warm_rows[index], false, 0});
            }
            ready.arrive_and_wait();
            if (setup_only) {
              return;
            }
            if (plan.open_loop) {
              open_loop_client(client, due[index], rows[index], state);
            } else {
              const auto end =
                  state.t0 + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(window_s));
              burst_client(client, end, client_rngs[index], state);
            }
          });
    } catch (const std::exception& error) {
      ++report.attempted;
      report.fail(std::string("serving session threw: ") + error.what(),
                  false);
      continue;
    }
    if (traced && !setup_only) {
      mark_window_end(report);
      report.traced_sessions += 1.0;
    }

    if (setup_only) {
      setup_bytes = result.traffic.total_bytes;
      have_setup_bytes = true;
    } else {
      report.attempted += state.requests;
      report.failed += state.failed;
      for (const auto& error : state.errors) {
        if (report.errors.size() < 8) report.errors.push_back(error);
      }
      report.op_ms.insert(report.op_ms.end(), state.latency_ms.begin(),
                          state.latency_ms.end());
      report.completed_ops +=
          static_cast<double>(state.requests - state.failed);
      report.measured_s +=
          std::chrono::duration<double>(state.last_done - state.t0).count();
      if (have_setup_bytes && result.traffic.total_bytes > setup_bytes) {
        report.op_bytes +=
            static_cast<double>(result.traffic.total_bytes - setup_bytes);
        report.bytes_ops += static_cast<double>(state.requests);
      }
      report.timers["serve.requests"] += static_cast<double>(state.requests);
      report.timers["serve.client.submit_us"] += state.submit_us;
      report.timers["serve.client.await_us"] += state.await_us;
      report.timers["load.gen_late_ms"] =
          std::max(report.timers["load.gen_late_ms"], state.late_ms_max);
      served.insert(served.end(), state.served.begin(), state.served.end());
    }
    // Owner ledger: every admitted request is accounted for.
    const auto& ledger = result.scheduler;
    if (ledger.admitted !=
        ledger.completed + ledger.rejected + ledger.deadline_missed) {
      ++report.attempted;
      report.fail("scheduler ledger unbalanced", true);
    }
  }
  if (traced) {
    end_trace(report, report.timers["serve.requests"]);
  }

  // Correctness: every label equals TrustDdlEngine::infer on the row.
  report.attempted += warm.size();
  served.insert(served.end(), warm.begin(), warm.end());
  std::vector<std::size_t> used;
  for (const auto& item : served) {
    if (item.ok) used.push_back(item.row);
  }
  std::sort(used.begin(), used.end());
  used.erase(std::unique(used.begin(), used.end()), used.end());
  if (!used.empty()) {
    core::TrustDdlEngine reference(nn::mnist_cnn_spec(), engine_config());
    const data::Dataset rows = data::gather(row_pool(), used, 0, used.size());
    const std::vector<std::size_t> expected =
        reference.infer(rows, /*batch_size=*/8).labels;
    std::vector<std::size_t> label_of(kPoolRows, kPoolRows);
    for (std::size_t i = 0; i < used.size() && i < expected.size(); ++i) {
      label_of[used[i]] = expected[i];
    }
    for (const auto& item : served) {
      if (item.ok && item.label != label_of[item.row]) {
        report.fail("label differs from TrustDdlEngine::infer on row " +
                        std::to_string(item.row),
                    true);
      }
    }
  }
  for (const auto& item : warm) {
    if (!item.ok) {
      report.fail("warm-up request failed", false);
    }
  }
  return report;
}

}  // namespace

RunReport run_serve_open(const Options& options, Layout layout,
                         double seconds) {
  Plan plan;
  plan.open_loop = true;
  plan.clients = kOpenClients;
  plan.timed_sessions = layout == Layout::kTimed ? 2 : 1;
  plan.setup_only_session = layout == Layout::kTimed;
  return run_serve(options, layout, seconds, plan);
}

RunReport run_serve_burst(const Options& options, Layout layout,
                          double seconds) {
  Plan plan;
  plan.open_loop = false;
  plan.clients = kBurstClients;
  plan.timed_sessions = layout == Layout::kTimed ? 2 : 1;
  plan.setup_only_session = layout == Layout::kTimed;
  return run_serve(options, layout, seconds, plan);
}

}  // namespace perfbench
