// Serving-layer tests: BatchQueue policy, wire framing, and full
// in-process serving sessions (three party servers + owner scheduler +
// clients over one in-memory network), including the Byzantine and
// crash degradations at the serving edge.
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/actors.hpp"
#include "core/engine.hpp"
#include "core/triple_pipeline.hpp"
#include "data/synthetic_mnist.hpp"
#include "obs/metrics.hpp"
#include "serve/batch_queue.hpp"
#include "serve/harness.hpp"
#include "serve/server.hpp"
#include "serve/wire.hpp"

namespace trustddl::serve {
namespace {

using Clock = BatchQueue::Clock;
using std::chrono::milliseconds;

BatchQueue::Entry entry(net::PartyId client, std::uint64_t seq,
                        std::size_t rows, Clock::time_point admitted,
                        milliseconds deadline = milliseconds(60000)) {
  BatchQueue::Entry e;
  e.client = client;
  e.seq = seq;
  e.rows = rows;
  e.admitted = admitted;
  e.deadline = admitted + deadline;
  return e;
}

// ---------------------------------------------------------------------------
// BatchQueue: the clock-injected flush/expiry/backpressure state
// machine, unit-tested deterministically.

TEST(BatchQueueTest, FlushesWhenMaxRowsPending) {
  BatchQueue queue(/*capacity=*/16, /*max_batch_rows=*/8,
                   /*window=*/milliseconds(1000));
  const auto now = Clock::now();
  ASSERT_TRUE(queue.push(entry(5, 0, 3, now)));
  EXPECT_FALSE(queue.should_flush(now));
  ASSERT_TRUE(queue.push(entry(5, 1, 5, now)));
  EXPECT_TRUE(queue.should_flush(now));  // 8 rows pending, window not up
}

TEST(BatchQueueTest, FlushesWhenWindowExpires) {
  BatchQueue queue(/*capacity=*/16, /*max_batch_rows=*/8,
                   /*window=*/milliseconds(20));
  const auto now = Clock::now();
  ASSERT_TRUE(queue.push(entry(5, 0, 1, now)));
  EXPECT_FALSE(queue.should_flush(now + milliseconds(19)));
  EXPECT_TRUE(queue.should_flush(now + milliseconds(20)));
}

TEST(BatchQueueTest, RejectsWhenFull) {
  BatchQueue queue(/*capacity=*/2, /*max_batch_rows=*/8,
                   /*window=*/milliseconds(20));
  const auto now = Clock::now();
  EXPECT_TRUE(queue.push(entry(5, 0, 1, now)));
  EXPECT_TRUE(queue.push(entry(6, 0, 1, now)));
  EXPECT_FALSE(queue.push(entry(7, 0, 1, now)));  // backpressure
  EXPECT_EQ(queue.size(), 2u);
}

TEST(BatchQueueTest, ExpiresPastDeadlineEntries) {
  BatchQueue queue(/*capacity=*/16, /*max_batch_rows=*/8,
                   /*window=*/milliseconds(1000));
  const auto now = Clock::now();
  ASSERT_TRUE(queue.push(entry(5, 0, 2, now, milliseconds(10))));
  ASSERT_TRUE(queue.push(entry(6, 0, 3, now, milliseconds(10000))));
  const auto expired = queue.expire(now + milliseconds(11));
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0].client, 5);
  EXPECT_EQ(queue.size(), 1u);
  EXPECT_EQ(queue.pending_rows(), 3u);
}

TEST(BatchQueueTest, PopBatchRespectsMaxRowsAndArrivalOrder) {
  BatchQueue queue(/*capacity=*/16, /*max_batch_rows=*/8,
                   /*window=*/milliseconds(0));
  const auto now = Clock::now();
  ASSERT_TRUE(queue.push(entry(5, 0, 3, now)));
  ASSERT_TRUE(queue.push(entry(6, 0, 4, now)));
  ASSERT_TRUE(queue.push(entry(7, 0, 2, now)));  // 3+4+2 > 8: next batch
  const auto batch = queue.pop_batch();
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].client, 5);
  EXPECT_EQ(batch[1].client, 6);
  EXPECT_EQ(queue.size(), 1u);
  EXPECT_EQ(queue.pending_rows(), 2u);
}

TEST(BatchQueueTest, OversizedRequestDispatchesAlone) {
  BatchQueue queue(/*capacity=*/16, /*max_batch_rows=*/8,
                   /*window=*/milliseconds(0));
  const auto now = Clock::now();
  ASSERT_TRUE(queue.push(entry(5, 0, 16, now)));
  ASSERT_TRUE(queue.push(entry(6, 0, 1, now)));
  const auto batch = queue.pop_batch();
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].rows, 16u);
  EXPECT_EQ(queue.pending_rows(), 1u);
}

// ---------------------------------------------------------------------------
// Wire framing round-trips.

TEST(ServeWireTest, NoticeRoundTrip) {
  RequestNotice notice;
  notice.kind = NoticeKind::kRequest;
  notice.seq = 41;
  notice.rows = 7;
  notice.deadline_ms = 1234;
  const RequestNotice decoded = decode_notice(encode_notice(notice));
  EXPECT_EQ(decoded.kind, notice.kind);
  EXPECT_EQ(decoded.seq, notice.seq);
  EXPECT_EQ(decoded.rows, notice.rows);
  EXPECT_EQ(decoded.deadline_ms, notice.deadline_ms);

  RequestNotice stop;
  stop.kind = NoticeKind::kStop;
  stop.seq = 42;
  EXPECT_EQ(decode_notice(encode_notice(stop)).kind, NoticeKind::kStop);
}

TEST(ServeWireTest, ManifestRoundTrip) {
  BatchManifest manifest;
  manifest.index = 9;
  manifest.entries = {{kFirstClientId, 3, 2}, {kFirstClientId + 1, 0, 5}};
  const BatchManifest decoded = decode_manifest(encode_manifest(manifest));
  EXPECT_EQ(decoded.index, 9u);
  EXPECT_FALSE(decoded.shutdown);
  ASSERT_EQ(decoded.entries.size(), 2u);
  EXPECT_EQ(decoded.entries[0].client, kFirstClientId);
  EXPECT_EQ(decoded.entries[1].rows, 5u);
  EXPECT_EQ(decoded.total_rows(), 7u);

  BatchManifest shutdown;
  shutdown.index = 10;
  shutdown.shutdown = true;
  EXPECT_TRUE(decode_manifest(encode_manifest(shutdown)).shutdown);
}

TEST(ServeWireTest, ControlRoundTrip) {
  ControlResponse control;
  control.status = Status::kDeadlineMissed;
  control.seq = 17;
  const ControlResponse decoded = decode_control(encode_control(control));
  EXPECT_EQ(decoded.status, Status::kDeadlineMissed);
  EXPECT_EQ(decoded.seq, 17u);
}

TEST(ServeWireTest, ShareRoundTrip) {
  Rng rng(7);
  RingTensor secret({3, 4});
  for (auto& v : secret.values()) {
    v = rng.next_u64();
  }
  const auto triples = mpc::share_secret(secret, rng);
  for (const auto& triple : triples) {
    const mpc::PartyShare decoded = decode_share(encode_share(triple));
    EXPECT_EQ(decoded.primary, triple.primary);
    EXPECT_EQ(decoded.duplicate, triple.duplicate);
    EXPECT_EQ(decoded.second, triple.second);
  }
}

TEST(ServeWireTest, ConcatThenSliceRoundTrip) {
  Rng rng(11);
  RingTensor a({2, 5});
  RingTensor b({3, 5});
  for (auto& v : a.values()) {
    v = rng.next_u64();
  }
  for (auto& v : b.values()) {
    v = rng.next_u64();
  }
  const auto shares_a = mpc::share_secret(a, rng);
  const auto shares_b = mpc::share_secret(b, rng);
  for (int party = 0; party < mpc::kNumParties; ++party) {
    const mpc::PartyShare coalesced = concat_rows(
        {shares_a[static_cast<std::size_t>(party)],
         shares_b[static_cast<std::size_t>(party)]});
    EXPECT_EQ(coalesced.primary.shape(), (Shape{5, 5}));
    const mpc::PartyShare back_a = slice_rows(coalesced, 0, 2);
    const mpc::PartyShare back_b = slice_rows(coalesced, 2, 3);
    EXPECT_EQ(back_a.primary, shares_a[static_cast<std::size_t>(party)].primary);
    EXPECT_EQ(back_a.second, shares_a[static_cast<std::size_t>(party)].second);
    EXPECT_EQ(back_b.duplicate,
              shares_b[static_cast<std::size_t>(party)].duplicate);
    EXPECT_EQ(back_b.second, shares_b[static_cast<std::size_t>(party)].second);
  }
}

// ---------------------------------------------------------------------------
// Full in-process serving sessions.

core::EngineConfig fast_engine() {
  core::EngineConfig config;
  config.collect_timeout = std::chrono::milliseconds(300);
  return config;
}

data::TrainTestSplit query_split(std::size_t rows) {
  data::SyntheticMnistConfig config;
  config.train_count = 1;
  config.test_count = rows;
  config.seed = 42;
  return data::generate_synthetic_mnist(config);
}

/// Labels the in-memory engine (same spec/config seeds as the serving
/// session) computes for `sample` — the correctness reference:
/// serving coalesces different batch shapes, but predictions must not
/// change.
std::vector<std::size_t> reference_labels(const nn::ModelSpec& spec,
                                          const core::EngineConfig& config,
                                          const data::Dataset& sample) {
  core::TrustDdlEngine engine(spec, config);
  return engine.infer(sample, /*batch_size=*/4).labels;
}

TEST(ServeSessionTest, ConcurrentClientsMatchSequentialInference) {
  constexpr int kClients = 2;
  constexpr std::size_t kRequests = 4;
  const auto split = query_split(kClients * kRequests);

  SessionConfig config;
  config.spec = nn::mnist_mlp_spec();
  config.engine = fast_engine();
  config.serve.max_batch_rows = 4;
  config.serve.batch_window = milliseconds(10);
  config.num_clients = kClients;

  std::vector<std::vector<InferenceResult>> results(
      kClients, std::vector<InferenceResult>(kRequests));
  const SessionResult session = run_serving_session(
      config, [&](int index, InferenceClient& client) {
        for (std::size_t r = 0; r < kRequests; ++r) {
          const data::Dataset row = data::slice(
              split.test, static_cast<std::size_t>(index) * kRequests + r, 1);
          results[static_cast<std::size_t>(index)][r] =
              client.infer(row.images);
        }
      });

  const auto expected = reference_labels(
      config.spec, config.engine,
      data::slice(split.test, 0, kClients * kRequests));
  for (int c = 0; c < kClients; ++c) {
    for (std::size_t r = 0; r < kRequests; ++r) {
      const auto& result = results[static_cast<std::size_t>(c)][r];
      ASSERT_EQ(result.status, Status::kOk) << "client " << c << " seq " << r;
      ASSERT_EQ(result.labels.size(), 1u);
      EXPECT_EQ(result.labels[0],
                expected[static_cast<std::size_t>(c) * kRequests + r]);
      EXPECT_GE(result.responders, 2);
      EXPECT_FALSE(result.anomaly);
    }
  }
  EXPECT_EQ(session.scheduler.admitted, kClients * kRequests);
  EXPECT_EQ(session.scheduler.completed, kClients * kRequests);
}

TEST(ServeSessionTest, CoalescesConcurrentRequestsIntoBatches) {
  constexpr std::size_t kRequests = 8;
  const auto split = query_split(kRequests);

  SessionConfig config;
  config.spec = nn::mnist_mlp_spec();
  config.engine = fast_engine();
  config.serve.max_batch_rows = 4;
  config.serve.batch_window = milliseconds(50);

  std::vector<InferenceResult> results(kRequests);
  const SessionResult session = run_serving_session(
      config, [&](int, InferenceClient& client) {
        // Submit everything up front so the owner sees a full queue,
        // then await: the batcher must coalesce, not serialize.
        std::vector<std::uint64_t> seqs(kRequests);
        for (std::size_t r = 0; r < kRequests; ++r) {
          seqs[r] = client.submit(data::slice(split.test, r, 1).images);
        }
        for (std::size_t r = 0; r < kRequests; ++r) {
          results[r] = client.await(seqs[r], 1);
        }
      });

  const auto expected =
      reference_labels(config.spec, config.engine,
                       data::slice(split.test, 0, kRequests));
  for (std::size_t r = 0; r < kRequests; ++r) {
    ASSERT_EQ(results[r].status, Status::kOk) << "seq " << r;
    EXPECT_EQ(results[r].labels[0], expected[r]);
  }
  EXPECT_LT(session.scheduler.batches, kRequests);  // real coalescing
  EXPECT_EQ(session.scheduler.batched_rows, kRequests);
  for (const std::size_t batches : session.party_batches) {
    EXPECT_EQ(batches, session.scheduler.batches);
  }
}

// ---------------------------------------------------------------------------
// Fixed-operand serving (DESIGN.md §9): each dense and conv layer's
// F = W − B is opened once per server start, batches open only their
// inputs' masks.

/// Serves the repository benchmark's row pool (synthetic MNIST, seed
/// 42, 64 test rows) through `spec` in malicious mode with default
/// local truncation, at most `batch_rows` rows per batch, and expects
/// TrustDdlEngine::infer's labels for every row.
void expect_served_labels_match_infer(const nn::ModelSpec& spec,
                                      std::size_t batch_rows) {
  constexpr std::size_t kRows = 64;
  const data::Dataset pool = query_split(kRows).test;

  SessionConfig config;
  config.spec = spec;
  config.engine = fast_engine();
  config.engine.seed = 7;
  config.serve.max_batch_rows = batch_rows;
  config.serve.batch_window = milliseconds(50);
  config.client.deadline = milliseconds(120000);
  config.client.response_timeout = milliseconds(120000);

  std::vector<InferenceResult> results(kRows);
  const SessionResult session = run_serving_session(
      config, [&](int, InferenceClient& client) {
        std::vector<std::uint64_t> seqs(kRows);
        for (std::size_t r = 0; r < kRows; ++r) {
          seqs[r] = client.submit(data::slice(pool, r, 1).images);
        }
        for (std::size_t r = 0; r < kRows; ++r) {
          results[r] = client.await(seqs[r], 1);
        }
      });

  core::TrustDdlEngine engine(config.spec, config.engine);
  const std::vector<std::size_t> expected =
      engine.infer(pool, /*batch_size=*/8).labels;
  for (std::size_t r = 0; r < kRows; ++r) {
    ASSERT_EQ(results[r].status, Status::kOk) << "row " << r;
    EXPECT_EQ(results[r].labels[0], expected[r]) << "row " << r;
  }
  EXPECT_EQ(session.scheduler.batched_rows, kRows);
  EXPECT_GE(session.scheduler.batches, kRows / batch_rows);
}

class ServeFixedOperandTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ServeFixedOperandTest, LabelsMatchEngineInferOnTheBenchRowPool) {
  expect_served_labels_match_infer(nn::mnist_cnn_spec(), GetParam());
}

TEST_P(ServeFixedOperandTest, PoolCnnLabelsMatchEngineInferOnTheBenchRowPool) {
  // Stride-1 conv (im2col 25 x 784 per row) followed by max pooling.
  expect_served_labels_match_infer(nn::mnist_cnn_pool_spec(), GetParam());
}

INSTANTIATE_TEST_SUITE_P(BatchRows, ServeFixedOperandTest,
                         ::testing::Values(1, 3, 8));

// Exact per-batch costs of fixed-operand serving.  Every opening goes
// through mpc::OpenBatch (open.batch.elements) and every dealt entry
// through the TripleStore (triple.elements.consumed), so both counters
// must equal a closed form: one start-up term — the weight masks B of
// every dense and conv layer, and their F = W − B openings — plus a
// term linear in the batch's rows.  The in-process session sums them
// over the three parties.

struct ServeElements {
  std::uint64_t opened = 0;
  std::uint64_t dealt = 0;
  std::uint64_t misses = 0;
};

ServeElements serve_elements(const obs::MetricsSnapshot& snapshot) {
  return {snapshot.counter_sum("open.batch.elements"),
          snapshot.counter_sum("triple.elements.consumed"),
          snapshot.counter_sum("triple.store.miss")};
}

struct ServeCostModel {
  std::uint64_t startup;  ///< Σ |W| over dense and conv layers
  std::uint64_t opened_per_row;
  std::uint64_t dealt_per_row;
};

/// mnist_cnn, per row: conv opens X − M (784) and is dealt M (784) and
/// C (5·196); each ReLU over n features opens t − a, α − b and β (3n)
/// and is dealt t, a, b, c (4n), n = 980 then 100; each dense layer
/// opens X − A (980, 100) and is dealt A and C (980 + 100, 100 + 10).
/// Start-up: W of conv (5·25), FC 980→100 and FC 100→10.
constexpr ServeCostModel kCnnCost{
    5 * 25 + 980 * 100 + 100 * 10,
    784 + 3 * 980 + 980 + 3 * 100 + 100,
    (784 + 5 * 196) + 4 * 980 + (980 + 100) + 4 * 100 + (100 + 10)};

/// mnist_cnn_pool, per row: the stride-1 conv is dealt C [5, 784]; the
/// ReLU runs over 3920 features; the 2x2 max pool's tournament makes
/// three comparisons over 980 pools (opening 3·980, dealt 4·980 each);
/// the dense tail is mnist_cnn's.  Same start-up weights.
constexpr ServeCostModel kCnnPoolCost{
    5 * 25 + 980 * 100 + 100 * 10,
    784 + 3 * 3920 + 3 * (3 * 980) + 980 + 3 * 100 + 100,
    (784 + 5 * 784) + 4 * 3920 + 3 * (4 * 980) + (980 + 100) + 4 * 100 +
        (100 + 10)};

// The figures an 8-row serve_burst batch of the Table I CNN moves.
static_assert(8 * kCnnCost.opened_per_row == 40832);
static_assert(8 * kCnnCost.dealt_per_row == 58192);

void expect_elements_linear_in_rows(const nn::ModelSpec& spec,
                                    const ServeCostModel& cost) {
  for (const std::size_t rows : {1, 3, 8}) {
    obs::set_metrics_enabled(true);
    obs::MetricsRegistry::global().reset();
    SessionConfig config;
    config.spec = spec;
    config.engine = fast_engine();
    config.serve.max_batch_rows = 8;
    config.serve.batch_window = milliseconds(10);
    InferenceResult result;
    const SessionResult session = run_serving_session(
        config, [&](int, InferenceClient& client) {
          result = client.infer(query_split(rows).test.images);
        });
    const ServeElements measured =
        serve_elements(obs::MetricsRegistry::global().snapshot());
    obs::set_metrics_enabled(false);

    ASSERT_EQ(result.status, Status::kOk) << rows << " rows";
    ASSERT_EQ(session.scheduler.batches, 1u) << rows << " rows";
    EXPECT_EQ(measured.opened, 3 * (cost.startup + rows * cost.opened_per_row))
        << rows << " rows";
    EXPECT_EQ(measured.dealt, 3 * (cost.startup + rows * cost.dealt_per_row))
        << rows << " rows";
  }
}

TEST(ServeCostTest, CnnOpensAndIsDealtAClosedFormPerBatch) {
  expect_elements_linear_in_rows(nn::mnist_cnn_spec(), kCnnCost);
}

TEST(ServeCostTest, PoolCnnOpensAndIsDealtAClosedFormPerBatch) {
  expect_elements_linear_in_rows(nn::mnist_cnn_pool_spec(), kCnnPoolCost);
}

/// With prefetch on, a batch after InferenceServer's plan_step pops
/// only prefetched entries: profile_step_demand names exactly the keys
/// and counts the layers pop.
void expect_planned_batch_never_misses(const nn::ModelSpec& spec,
                                       const ServeCostModel& cost) {
  constexpr std::size_t kBatchRows = 8;
  const std::size_t planned =
      core::profile_step_demand(spec, kBatchRows, mpc::TruncationMode::kLocal,
                                /*training=*/false, /*fixed_version=*/0)
          .total();
  std::size_t weight_layers = 0;
  for (const nn::LayerSpec& layer : spec.layers) {
    weight_layers += layer.kind == nn::LayerSpec::Kind::kDense ||
                     layer.kind == nn::LayerSpec::Kind::kConv;
  }
  // Per party: the masks and the first batch on demand, then a refill
  // to two planned batches.
  const std::size_t produced_when_warm = 3 * (weight_layers + 3 * planned);
  const data::Dataset rows = query_split(kBatchRows).test;
  obs::set_metrics_enabled(true);
  obs::MetricsRegistry::global().reset();
  SessionConfig config;
  config.spec = spec;
  config.engine = fast_engine();
  config.engine.triple_prefetch = true;
  config.serve.max_batch_rows = kBatchRows;
  config.serve.batch_window = milliseconds(10);
  ServeElements first;
  ServeElements second;
  std::uint64_t produced = 0;
  run_serving_session(config, [&](int, InferenceClient& client) {
    ASSERT_EQ(client.infer(rows.images).status, Status::kOk);
    // Every party plans two batches' worth after the first and fills
    // it while idle; wait for all of it before the next request.
    const auto deadline = Clock::now() + std::chrono::seconds(60);
    while (obs::MetricsRegistry::global().snapshot().counter_sum(
               "triple.produced.") < produced_when_warm &&
           Clock::now() < deadline) {
      std::this_thread::sleep_for(milliseconds(5));
    }
    const obs::MetricsSnapshot warm = obs::MetricsRegistry::global().snapshot();
    produced = warm.counter_sum("triple.produced.");
    first = serve_elements(warm);
    ASSERT_EQ(client.infer(rows.images).status, Status::kOk);
    second = serve_elements(obs::MetricsRegistry::global().snapshot());
  });
  obs::set_metrics_enabled(false);
  EXPECT_EQ(produced, produced_when_warm);
  EXPECT_EQ(first.misses, 3 * (weight_layers + planned))
      << "the first batch runs before any plan";
  EXPECT_EQ(second.misses, first.misses);
  EXPECT_EQ(second.dealt - first.dealt, 3 * kBatchRows * cost.dealt_per_row);
}

TEST(ServeCostTest, CnnBatchAfterPlanStepNeverMissesThePrefetchedStore) {
  expect_planned_batch_never_misses(nn::mnist_cnn_spec(), kCnnCost);
}

TEST(ServeCostTest, PoolCnnBatchAfterPlanStepNeverMissesThePrefetchedStore) {
  expect_planned_batch_never_misses(nn::mnist_cnn_pool_spec(), kCnnPoolCost);
}

TEST(ServeFixedOperandVersionTest, NewModelGetsFreshMaskAndF) {
  // Two models under one dealing seed: distinct versions, so distinct
  // masks, and F_new − F_old does not reveal W_new − W_old.
  const nn::ModelSpec spec = nn::mnist_mlp_spec();
  const core::EngineConfig engine = fast_engine();
  const std::uint64_t dealing_seed =
      core::make_owner_service_config(engine, /*training=*/false).seed;
  Rng rng_old(1);
  Rng rng_new(2);
  nn::Sequential old_model = nn::build_model(spec, rng_old);
  nn::Sequential new_model = nn::build_model(spec, rng_new);
  const std::uint64_t v_old =
      serving_model_version(old_model, engine.frac_bits, dealing_seed);
  const std::uint64_t v_new =
      serving_model_version(new_model, engine.frac_bits, dealing_seed);
  ASSERT_NE(v_old, v_new);
  EXPECT_EQ(v_old,
            serving_model_version(old_model, engine.frac_bits, dealing_seed));
  EXPECT_NE(v_old, serving_model_version(old_model, engine.frac_bits,
                                         dealing_seed + 1));

  std::size_t slot = 0;
  while (spec.layers[slot].kind != nn::LayerSpec::Kind::kDense) {
    ++slot;
  }
  const auto mask = [&](std::uint64_t version) {
    const auto views = mpc::deal_material(
        mpc::TripleKey::fixed_mask(slot, version, spec.layers[slot].in,
                                   spec.layers[slot].out),
        0, 1, dealing_seed, engine.frac_bits);
    return mpc::reconstruct(std::array<mpc::PartyShare, 3>{
        views[0].aux[0], views[1].aux[0], views[2].aux[0]});
  };
  const RingTensor w_old =
      to_ring(old_model.parameters()[0]->value, engine.frac_bits);
  const RingTensor w_new =
      to_ring(new_model.parameters()[0]->value, engine.frac_bits);
  const RingTensor f_old = w_old - mask(v_old);
  const RingTensor f_new = w_new - mask(v_new);
  EXPECT_NE(mask(v_old), mask(v_new));
  EXPECT_NE(f_old, f_new);
  EXPECT_NE(f_new - f_old, w_new - w_old);
}

TEST(ServeSessionTest, LedgerEquationHolds) {
  const auto split = query_split(4);

  SessionConfig config;
  config.spec = nn::mnist_mlp_spec();
  config.engine = fast_engine();
  config.serve.max_batch_rows = 2;
  config.serve.batch_window = milliseconds(10);

  const SessionResult session = run_serving_session(
      config, [&](int, InferenceClient& client) {
        for (std::size_t r = 0; r < 4; ++r) {
          client.infer(data::slice(split.test, r, 1).images);
        }
      });
  EXPECT_EQ(session.scheduler.admitted,
            session.scheduler.completed + session.scheduler.rejected +
                session.scheduler.deadline_missed);
  EXPECT_EQ(session.scheduler.admitted, 4u);
  EXPECT_GT(session.scheduler.batches, 0u);
}

TEST(ServeSessionTest, QueueFullRejectsThenRetrySucceeds) {
  const auto split = query_split(4);

  SessionConfig config;
  config.spec = nn::mnist_mlp_spec();
  config.engine = fast_engine();
  // Nothing flushes for 150ms and only two requests fit: the third
  // must bounce with kRejected, and a retried request must land once
  // the window expires the backlog.
  config.serve.max_batch_rows = 64;
  config.serve.batch_window = milliseconds(150);
  config.serve.queue_capacity = 2;
  config.client.max_retries = 8;
  config.client.retry_backoff = milliseconds(50);

  InferenceResult rejected;
  InferenceResult retried;
  const SessionResult session = run_serving_session(
      config, [&](int, InferenceClient& client) {
        const auto seq_a = client.submit(data::slice(split.test, 0, 1).images);
        const auto seq_b = client.submit(data::slice(split.test, 1, 1).images);
        const auto seq_c = client.submit(data::slice(split.test, 2, 1).images);
        rejected = client.await(seq_c, 1);
        // infer() retries rejected submissions with backoff until the
        // window flushes the two admitted requests.
        retried = client.infer(data::slice(split.test, 3, 1).images);
        client.await(seq_a, 1);
        client.await(seq_b, 1);
      });

  EXPECT_EQ(rejected.status, Status::kRejected);
  EXPECT_EQ(retried.status, Status::kOk);
  EXPECT_GE(session.scheduler.rejected, 1u);
  EXPECT_EQ(session.scheduler.admitted,
            session.scheduler.completed + session.scheduler.rejected +
                session.scheduler.deadline_missed);
}

TEST(ServeSessionTest, ExpiredDeadlineIsReported) {
  const auto split = query_split(1);

  SessionConfig config;
  config.spec = nn::mnist_mlp_spec();
  config.engine = fast_engine();
  // A 1ms queue deadline under a 500ms batch window: the owner's
  // deadline sweep must answer before any batch forms.
  config.serve.max_batch_rows = 64;
  config.serve.batch_window = milliseconds(500);
  config.client.deadline = milliseconds(1);

  InferenceResult result;
  const SessionResult session = run_serving_session(
      config, [&](int, InferenceClient& client) {
        result = client.infer(split.test.images);
      });

  EXPECT_EQ(result.status, Status::kDeadlineMissed);
  EXPECT_EQ(session.scheduler.deadline_missed, 1u);
  EXPECT_EQ(session.scheduler.completed, 0u);
  EXPECT_EQ(session.scheduler.admitted, 1u);
}

TEST(ServeSessionTest, ReconstructsWithPartyCrashedMidService) {
  constexpr std::size_t kRequests = 3;
  const auto split = query_split(kRequests);

  SessionConfig config;
  config.spec = nn::mnist_mlp_spec();
  config.engine = fast_engine();
  // Short protocol timeouts so the surviving parties detect the dead
  // peer quickly; generous client budget so degraded batches finish.
  config.engine.recv_timeout = milliseconds(150);
  config.serve.max_batch_rows = 1;  // one batch per request
  config.serve.batch_window = milliseconds(5);
  config.client.response_timeout = milliseconds(60000);
  config.client.deadline = milliseconds(60000);
  config.crash_party = 2;
  config.crash_after_batches = 1;

  std::vector<InferenceResult> results(kRequests);
  const SessionResult session = run_serving_session(
      config, [&](int, InferenceClient& client) {
        for (std::size_t r = 0; r < kRequests; ++r) {
          results[r] = client.infer(data::slice(split.test, r, 1).images);
        }
      });

  const auto expected = reference_labels(
      config.spec, config.engine, data::slice(split.test, 0, kRequests));
  for (std::size_t r = 0; r < kRequests; ++r) {
    ASSERT_EQ(results[r].status, Status::kOk) << "seq " << r;
    EXPECT_EQ(results[r].labels[0], expected[r]) << "seq " << r;
  }
  // The crashed party executed exactly one batch; requests after the
  // crash were answered from the two survivors (2-of-3).
  EXPECT_EQ(session.party_batches[2], 1u);
  EXPECT_EQ(session.party_batches[0], kRequests);
  EXPECT_LE(results[kRequests - 1].responders, 2);
}

TEST(ServeSessionTest, OutvotesCorruptedResultShares) {
  constexpr std::size_t kRequests = 3;
  const auto split = query_split(kRequests);

  SessionConfig config;
  config.spec = nn::mnist_mlp_spec();
  config.engine = fast_engine();
  config.serve.max_batch_rows = 2;
  config.serve.batch_window = milliseconds(10);
  config.corrupt_party = 1;

  std::vector<InferenceResult> results(kRequests);
  const SessionResult session = run_serving_session(
      config, [&](int, InferenceClient& client) {
        for (std::size_t r = 0; r < kRequests; ++r) {
          results[r] = client.infer(data::slice(split.test, r, 1).images);
        }
      });

  const auto expected = reference_labels(
      config.spec, config.engine, data::slice(split.test, 0, kRequests));
  for (std::size_t r = 0; r < kRequests; ++r) {
    ASSERT_EQ(results[r].status, Status::kOk) << "seq " << r;
    EXPECT_EQ(results[r].labels[0], expected[r]) << "seq " << r;
    // The corrupted share set must be noticed, never believed.
    EXPECT_TRUE(results[r].anomaly) << "seq " << r;
  }
  EXPECT_EQ(session.scheduler.completed, kRequests);
}

TEST(ServeSessionTest, RecordsServeMetrics) {
  const auto split = query_split(4);

  obs::set_metrics_enabled(true);
  obs::MetricsRegistry::global().reset();

  SessionConfig config;
  config.spec = nn::mnist_mlp_spec();
  config.engine = fast_engine();
  config.serve.max_batch_rows = 2;
  config.serve.batch_window = milliseconds(10);

  const SessionResult session = run_serving_session(
      config, [&](int, InferenceClient& client) {
        for (std::size_t r = 0; r < 4; ++r) {
          client.infer(data::slice(split.test, r, 1).images);
        }
      });

  const obs::MetricsSnapshot snapshot =
      obs::MetricsRegistry::global().snapshot();
  obs::set_metrics_enabled(false);

  const auto counter = [&](const std::string& name) -> std::uint64_t {
    for (const auto& [counter_name, value] : snapshot.counters) {
      if (counter_name == name) {
        return value;
      }
    }
    return 0;
  };
  EXPECT_EQ(counter("serve.requests.admitted"), session.scheduler.admitted);
  EXPECT_EQ(counter("serve.requests.admitted"),
            counter("serve.requests.completed") +
                counter("serve.requests.rejected") +
                counter("serve.requests.deadline_missed"));
  EXPECT_EQ(counter("serve.batches"), session.scheduler.batches);

  bool found_rows_histogram = false;
  for (const auto& histogram : snapshot.histograms) {
    if (histogram.name == "serve.batch.rows") {
      found_rows_histogram = true;
      EXPECT_EQ(histogram.count, session.scheduler.batches);
    }
  }
  EXPECT_TRUE(found_rows_histogram);
}

}  // namespace
}  // namespace trustddl::serve
