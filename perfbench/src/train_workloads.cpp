// train_tcp and robust_train.
//
// train_tcp: the Table II training step (Table I CNN, malicious,
// paper-default local truncation, batch 1, synchronous dealing) run by
// TrustDdlEngine::train over a loopback net::TcpFabric on ephemeral
// ports.  A set-up is the fabric rendezvous plus a one-step warm-up
// call.  Each timed operation is a fresh engine on the same fabric
// training kStepsPerCall steps from the seeded initial weights, so its
// revealed weights are a pure function of the rows; after the timed
// window they are compared bit for bit with an in-memory engine
// trained on the same rows.
//
// robust_train: the multi-owner training service through
// train::run_training_session (4 owners, owner 3 a scale-100
// poisoner, trimmed mean with trim 1, quorum 4, 144-32-4 MLP, 12-row
// minibatches, masked-open truncation, 2 ms emulated links).  A
// set-up is a one-round session; each timed operation is a session of
// kRoundsPerSession rounds.  Gates: clean shutdown, balanced
// sequencer ledger, every party ran every round, identical revealed
// weights across same-length sessions, and (with the registry on) a
// balanced aggregation ledger.
#include <limits>
#include <memory>
#include <optional>

#include "bench.hpp"
#include "common/rng.hpp"
#include "core/engine.hpp"
#include "data/synthetic_mnist.hpp"
#include "net/tcp_transport.hpp"
#include "obs/metrics.hpp"
#include "train/harness.hpp"

namespace perfbench {
namespace {

using namespace trustddl;

// ---- train_tcp -------------------------------------------------------

constexpr std::uint64_t kCnnSeed = 7;
constexpr std::size_t kCnnPoolRows = 64;
constexpr std::size_t kStepsPerCall = 4;
/// Distinct row sequences the timed calls cycle through (each needs
/// one in-memory reference run).
constexpr std::size_t kSequences = 2;

const data::TrainTestSplit& cnn_pool() {
  static const data::TrainTestSplit split = [] {
    data::SyntheticMnistConfig config;
    config.train_count = kCnnPoolRows;
    config.test_count = 1;
    config.seed = 42;
    return data::generate_synthetic_mnist(config);
  }();
  return split;
}

core::EngineConfig cnn_engine_config() {
  core::EngineConfig config;
  config.mode = mpc::SecurityMode::kMalicious;
  config.seed = kCnnSeed;
  return config;
}

core::TrainOptions cnn_train_options() {
  core::TrainOptions options;
  options.epochs = 1;
  options.batch_size = 1;
  options.evaluate_each_epoch = false;
  options.reveal_weights = true;
  return options;
}

std::uint64_t model_digest(nn::Sequential& model) {
  std::uint64_t hash = fnv1a(nullptr, 0);
  for (const nn::Parameter* parameter : model.parameters()) {
    hash = fnv1a(parameter->value.data(),
                 parameter->value.size() * sizeof(double), hash);
  }
  return hash;
}

std::unique_ptr<net::TcpFabric> make_fabric() {
  net::NetworkConfig config;
  config.num_parties = core::kNumActors;
  return std::make_unique<net::TcpFabric>(config);
}

data::Dataset rows_dataset(const std::vector<std::size_t>& rows) {
  return data::gather(cnn_pool().train, rows, 0, rows.size());
}

// ---- robust_train ----------------------------------------------------

constexpr std::uint64_t kMlpSeed = 11;
constexpr int kOwners = 4;
constexpr std::size_t kRoundsPerSession = 3;
constexpr std::size_t kOwnerRows = 12;
constexpr std::size_t kDatasetRows = 96;

nn::ModelSpec mlp_spec() {
  nn::ModelSpec spec;
  spec.name = "perfbench-144x32x4";
  spec.input_features = 12 * 12;
  spec.classes = 4;
  spec.layers.push_back(nn::LayerSpec::make_dense(144, 32));
  spec.layers.push_back(nn::LayerSpec::make_relu());
  spec.layers.push_back(nn::LayerSpec::make_dense(32, 4));
  spec.layers.push_back(nn::LayerSpec::make_softmax());
  return spec;
}

train::TrainSessionConfig robust_session(const data::Dataset& dataset,
                                         std::size_t rounds) {
  train::TrainSessionConfig session;
  session.spec = mlp_spec();
  session.engine.seed = kMlpSeed;
  session.engine.trunc_mode = mpc::TruncationMode::kMaskedOpen;
  session.engine.emulate_latency = true;
  session.engine.link_latency = std::chrono::milliseconds(2);
  session.train.rule = mpc::AggregationRule::kTrimmedMean;
  session.train.trim = 1;
  session.train.quorum = kOwners;
  session.train.rounds_per_epoch = rounds;
  session.train.epochs = 1;
  session.num_owners = kOwners;
  session.submissions_per_owner = rounds;
  session.owner_batch_rows = kOwnerRows;
  session.owners.resize(kOwners);
  session.owners[kOwners - 1].poison = train::parse_poison_spec("scale=100");
  session.dataset = dataset;
  return session;
}

std::uint64_t revealed_digest(const train::TrainSessionResult& result) {
  std::uint64_t hash = fnv1a(nullptr, 0);
  for (const auto& [key, tensor] : result.revealed) {
    hash = fnv1a(key.data(), key.size(), hash);
    hash = fnv1a(tensor.data(), tensor.size() * sizeof(std::uint64_t), hash);
  }
  return hash;
}

/// Gates shared by set-up and timed sessions; returns the first
/// problem, or an empty string.
std::string check_session(const train::TrainSessionResult& result,
                          std::size_t rounds) {
  const auto& ledger = result.sequencer;
  if (!result.clean) {
    return "training session did not shut down cleanly";
  }
  if (ledger.admitted != ledger.consumed + ledger.discarded) {
    return "sequencer ledger unbalanced";
  }
  if (ledger.rounds != rounds) {
    return "sequencer ran " + std::to_string(ledger.rounds) +
           " rounds, expected " + std::to_string(rounds);
  }
  for (const auto party_rounds : result.party_rounds) {
    if (party_rounds != rounds) {
      return "a party missed rounds";
    }
  }
  if (result.revealed.empty()) {
    return "no weights revealed";
  }
  return {};
}

/// Aggregation ledger from the metrics registry (registry must be on).
bool aggregation_ledger_balanced() {
  const auto snapshot = trustddl::obs::MetricsRegistry::global().snapshot();
  const auto submitted = snapshot.counter_sum("train.agg.values.submitted");
  const auto aggregated = snapshot.counter_sum("train.agg.values.aggregated");
  const auto trimmed = snapshot.counter_sum("train.agg.values.trimmed");
  return submitted != 0 && submitted == aggregated + trimmed;
}

}  // namespace

RunReport run_train_tcp(const Options& options, Layout layout,
                        double seconds) {
  RunReport report;
  const bool traced = layout == Layout::kTraced;
  const std::size_t setups = layout == Layout::kTimed ? 3 : 1;
  Rng rng(options.seed * 0x9E3779B97F4A7C15ULL + 3);
  const std::size_t warm_row =
      static_cast<std::size_t>(rng.next_below(kCnnPoolRows));
  std::vector<std::vector<std::size_t>> sequences(kSequences);
  for (auto& rows : sequences) {
    for (std::size_t k = 0; k < kStepsPerCall; ++k) {
      rows.push_back(static_cast<std::size_t>(rng.next_below(kCnnPoolRows)));
    }
  }
  const data::Dataset& test = cnn_pool().test;
  const nn::ModelSpec spec = nn::mnist_cnn_spec();

  std::unique_ptr<net::TcpFabric> fabric;
  for (std::size_t s = 0; s < setups; ++s) {
    const auto start = Clock::now();
    try {
      fabric.reset();
      fabric = make_fabric();
      core::TrustDdlEngine engine(spec, cnn_engine_config(), *fabric);
      engine.train(rows_dataset({warm_row}), test, cnn_train_options());
    } catch (const std::exception& error) {
      ++report.attempted;
      report.fail(std::string("train_tcp set-up threw: ") + error.what(),
                  false);
      return report;
    }
    report.setup_s.push_back(seconds_since(start));
  }

  if (traced) {
    begin_trace(options, report);
    mark_window_begin(report);
  }
  // Weight digest per call; calls that threw are already failed.
  std::vector<std::optional<std::uint64_t>> digests;
  const auto window_start = Clock::now();
  for (std::size_t call = 0; call == 0 || seconds_since(window_start) < seconds;
       ++call) {
    const std::size_t which = call % kSequences;
    ++report.attempted;
    try {
      core::TrustDdlEngine engine(spec, cnn_engine_config(), *fabric);
      const data::Dataset rows = rows_dataset(sequences[which]);
      const auto start = Clock::now();
      const core::TrainResult result =
          engine.train(rows, test, cnn_train_options());
      const double wall = seconds_since(start);
      report.op_ms.push_back(wall * 1e3 / kStepsPerCall);
      report.completed_ops += kStepsPerCall;
      report.measured_s += wall;
      report.op_bytes += static_cast<double>(result.cost.total_bytes);
      report.bytes_ops += kStepsPerCall;
      report.traced_sessions += 1.0;
      digests.push_back(model_digest(engine.reference_model()));
    } catch (const std::exception& error) {
      report.op_ms.push_back(std::numeric_limits<double>::infinity());
      report.fail(std::string("train call threw: ") + error.what(), false);
      digests.emplace_back();
    }
  }
  if (traced) {
    mark_window_end(report);
    end_trace(report, report.completed_ops);
  }
  fabric.reset();

  // Correctness: revealed weights equal an in-memory engine's.
  for (std::size_t which = 0; which < kSequences && which < digests.size();
       ++which) {
    core::TrustDdlEngine reference(spec, cnn_engine_config());
    reference.train(rows_dataset(sequences[which]), test,
                    cnn_train_options());
    const std::uint64_t expected = model_digest(reference.reference_model());
    for (std::size_t call = which; call < digests.size();
         call += kSequences) {
      if (digests[call] && *digests[call] != expected) {
        report.fail("TCP-trained weights differ from the in-memory engine "
                    "(call " + std::to_string(call) + ")",
                    true);
      }
    }
  }
  return report;
}

RunReport run_robust_train(const Options& options, Layout layout,
                           double seconds) {
  RunReport report;
  const bool traced = layout == Layout::kTraced;
  const std::size_t setups = layout == Layout::kTimed ? 3 : 1;

  data::SyntheticMnistConfig data_config;
  data_config.train_count = 240;
  data_config.test_count = 1;
  data_config.height = 12;
  data_config.width = 12;
  data_config.classes = 4;
  data_config.seed = 7;
  const data::Dataset pool = data::generate_synthetic_mnist(data_config).train;
  Rng rng(options.seed * 0x9E3779B97F4A7C15ULL + 4);
  std::vector<std::size_t> order = data::shuffled_indices(pool.size(), rng);
  const data::Dataset dataset = data::gather(pool, order, 0, kDatasetRows);

  // Set-ups: one-round sessions.  In an end-to-end run the first one
  // has the registry on to check the aggregation ledger.
  std::uint64_t warm_digest = 0;
  for (std::size_t s = 0; s < setups; ++s) {
    const bool ledger_check = !traced && s == 0;
    if (ledger_check) {
      trustddl::obs::set_metrics_enabled(true);
      trustddl::obs::MetricsRegistry::global().reset();
    }
    ++report.attempted;
    std::string problem;
    try {
      const auto start = Clock::now();
      const auto result =
          train::run_training_session(robust_session(dataset, 1));
      report.setup_s.push_back(seconds_since(start));
      problem = check_session(result, 1);
      const std::uint64_t digest = revealed_digest(result);
      if (s == 0) {
        warm_digest = digest;
      } else if (problem.empty() && digest != warm_digest) {
        problem = "one-round sessions revealed different weights";
      }
      if (problem.empty() && ledger_check && !aggregation_ledger_balanced()) {
        problem = "aggregation ledger unbalanced";
      }
    } catch (const std::exception& error) {
      report.fail(std::string("training session threw: ") + error.what(),
                  false);
      return report;
    }
    if (ledger_check) {
      trustddl::obs::set_metrics_enabled(false);
    }
    if (!problem.empty()) {
      report.fail(problem, true);
    }
  }

  if (traced) {
    begin_trace(options, report);
    mark_window_begin(report);
  }
  std::uint64_t digest = 0;
  const auto window_start = Clock::now();
  for (std::size_t session = 0;
       session == 0 || seconds_since(window_start) < seconds; ++session) {
    report.attempted += kRoundsPerSession;
    try {
      const auto start = Clock::now();
      const auto result = train::run_training_session(
          robust_session(dataset, kRoundsPerSession));
      const double wall = seconds_since(start);
      report.op_ms.push_back(wall * 1e3 / kRoundsPerSession);
      report.completed_ops += static_cast<double>(result.sequencer.rounds);
      report.measured_s += wall;
      report.op_bytes += static_cast<double>(result.traffic.total_bytes);
      report.bytes_ops += static_cast<double>(result.sequencer.rounds);
      report.traced_sessions += 1.0;
      std::string problem = check_session(result, kRoundsPerSession);
      const std::uint64_t this_digest = revealed_digest(result);
      if (session == 0) {
        digest = this_digest;
      } else if (problem.empty() && this_digest != digest) {
        problem = "sessions revealed different weights";
      }
      if (!problem.empty()) {
        report.fail(problem, true, kRoundsPerSession);
      }
    } catch (const std::exception& error) {
      report.op_ms.push_back(std::numeric_limits<double>::infinity());
      report.fail(std::string("training session threw: ") + error.what(),
                  false, kRoundsPerSession);
    }
  }
  if (traced) {
    mark_window_end(report);
    if (!aggregation_ledger_balanced()) {
      report.fail("aggregation ledger unbalanced", true);
    }
    end_trace(report, report.completed_ops);
  }
  return report;
}

}  // namespace perfbench
