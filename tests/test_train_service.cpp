// Multi-owner robust training service tests: wire round-trips, full
// in-process sessions (three party servers + sequencer/owner service +
// K owner clients over one in-memory network), the poisoning
// degradations the trimmed-mean window must absorb, quorum operation
// after an owner crash, checkpoint suspend/resume, and the metrics
// ledgers.
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>

#include <gtest/gtest.h>

#include "core/engine.hpp"
#include "data/synthetic_mnist.hpp"
#include "mpc/robust_aggregate.hpp"
#include "nn/model_zoo.hpp"
#include "obs/metrics.hpp"
#include "train/harness.hpp"
#include "train/owner_client.hpp"
#include "train/wire.hpp"

namespace trustddl::train {
namespace {

/// Small dense net over an 8x8 4-class task: big enough to exercise
/// every layer kind the backward pass touches, small enough that a
/// full multi-owner session is test-priced.
nn::ModelSpec tiny_train_spec() {
  nn::ModelSpec spec;
  spec.name = "tiny_train";
  spec.input_features = 8 * 8;
  spec.classes = 4;
  spec.layers = {
      nn::LayerSpec::make_dense(64, 16),
      nn::LayerSpec::make_relu(),
      nn::LayerSpec::make_dense(16, 4),
      nn::LayerSpec::make_softmax(),
  };
  nn::validate_spec(spec);
  return spec;
}

data::Dataset tiny_dataset(std::size_t rows, std::uint64_t seed) {
  data::SyntheticMnistConfig config;
  config.train_count = rows;
  config.test_count = 1;
  config.height = 8;
  config.width = 8;
  config.classes = 4;
  config.seed = seed;
  return data::generate_synthetic_mnist(config).train;
}

TrainSessionConfig base_session(int num_owners) {
  TrainSessionConfig session;
  session.spec = tiny_train_spec();
  session.engine.seed = 11;
  // Value-exact truncation: aggregates (and therefore checkpoints) are
  // pure functions of the submitted values, the anchor of every
  // determinism assertion below.
  session.engine.trunc_mode = mpc::TruncationMode::kMaskedOpen;
  session.engine.collect_timeout = std::chrono::milliseconds(2000);
  session.num_owners = num_owners;
  session.submissions_per_owner = 2;
  session.owner_batch_rows = 4;
  session.train.rule = mpc::AggregationRule::kTrimmedMean;
  session.train.trim = 1;
  session.train.quorum = static_cast<std::size_t>(num_owners);
  session.train.round_window = std::chrono::milliseconds(20);
  session.train.rounds_per_epoch = 2;
  session.train.epochs = 1;
  session.train.learning_rate = 0.1;
  session.dataset = tiny_dataset(24, 5);
  return session;
}

double weight_distance(const std::map<std::string, RingTensor>& a,
                       const std::map<std::string, RingTensor>& b,
                       std::size_t epoch, std::size_t param_count,
                       int frac_bits) {
  double sum = 0.0;
  for (std::size_t p = 0; p < param_count; ++p) {
    const auto key = core::reveal_key(epoch, p);
    const auto it_a = a.find(key);
    const auto it_b = b.find(key);
    EXPECT_NE(it_a, a.end()) << key;
    EXPECT_NE(it_b, b.end()) << key;
    if (it_a == a.end() || it_b == b.end()) {
      continue;
    }
    const RealTensor ra = to_real(it_a->second, frac_bits);
    const RealTensor rb = to_real(it_b->second, frac_bits);
    EXPECT_EQ(ra.shape(), rb.shape()) << key;
    for (std::size_t i = 0; i < ra.size(); ++i) {
      const double d = ra[i] - rb[i];
      sum += d * d;
    }
  }
  return sum;
}

std::string fresh_dir(const std::string& stem) {
  const auto dir = std::filesystem::temp_directory_path() /
                   (stem + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

std::uint64_t counter_value(const obs::MetricsSnapshot& snapshot,
                            const std::string& name) {
  for (const auto& [counter, value] : snapshot.counters) {
    if (counter == name) {
      return value;
    }
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Wire format

TEST(TrainWireTest, ManifestRoundTrips) {
  RoundManifest manifest;
  manifest.round = 7;
  manifest.epoch = 1;
  manifest.epoch_end = true;
  manifest.entries = {{kFirstOwnerId, 3, 8}, {kFirstOwnerId + 2, 5, 4}};
  const RoundManifest decoded =
      decode_round_manifest(encode_round_manifest(manifest));
  EXPECT_EQ(decoded.round, 7u);
  EXPECT_EQ(decoded.epoch, 1u);
  EXPECT_TRUE(decoded.epoch_end);
  EXPECT_FALSE(decoded.shutdown);
  EXPECT_FALSE(decoded.suspend);
  ASSERT_EQ(decoded.entries.size(), 2u);
  EXPECT_EQ(decoded.entries[0].owner, kFirstOwnerId);
  EXPECT_EQ(decoded.entries[0].seq, 3u);
  EXPECT_EQ(decoded.entries[1].rows, 4u);
  EXPECT_EQ(decoded.total_rows(), 12u);
}

TEST(TrainWireTest, NoticeAndHelloRoundTrip) {
  SubmitNotice notice;
  notice.kind = SubmitKind::kStop;
  notice.seq = 9;
  const SubmitNotice n = decode_submit_notice(encode_submit_notice(notice));
  EXPECT_EQ(n.kind, SubmitKind::kStop);
  EXPECT_EQ(n.seq, 9u);

  HelloAck ack;
  ack.next_seq = 4;
  EXPECT_EQ(decode_hello_ack(encode_hello_ack(ack)).next_seq, 4u);
  EXPECT_EQ(decode_hello(encode_hello()), 1u);
}

TEST(TrainWireTest, SubmissionSeedsAreStableAndDistinct) {
  const std::uint64_t o0 = owner_base_seed(11, 0);
  const std::uint64_t o1 = owner_base_seed(11, 1);
  EXPECT_NE(o0, o1);
  EXPECT_EQ(submission_seed(o0, 3), submission_seed(o0, 3));
  EXPECT_NE(submission_seed(o0, 3), submission_seed(o0, 4));
  EXPECT_NE(submission_seed(o0, 3), submission_seed(o1, 3));
}

TEST(PoisonSpecTest, ParsesAllModes) {
  EXPECT_EQ(parse_poison_spec("none").mode, PoisonMode::kNone);
  EXPECT_EQ(parse_poison_spec("sign-flip").mode, PoisonMode::kSignFlip);
  EXPECT_EQ(parse_poison_spec("label-flip").mode, PoisonMode::kLabelFlip);
  const PoisonSpec scaled = parse_poison_spec("scale=25");
  EXPECT_EQ(scaled.mode, PoisonMode::kScale);
  EXPECT_DOUBLE_EQ(scaled.factor, 25.0);
  EXPECT_TRUE(scaled.active());
  EXPECT_FALSE(parse_poison_spec("none").active());
}

TEST(PoisonSpecTest, LabelFlipRotatesLabels) {
  data::Dataset batch;
  batch.images = RealTensor(Shape{2, 4}, std::vector<double>(8, 0.5));
  batch.labels = {1, 3};
  PoisonSpec poison;
  poison.mode = PoisonMode::kLabelFlip;
  const data::Dataset poisoned = apply_poison(batch, poison, 4);
  EXPECT_EQ(poisoned.labels, (std::vector<std::size_t>{2, 0}));
  EXPECT_EQ(poisoned.images, batch.images);
}

// ---------------------------------------------------------------------------
// Full sessions

TEST(TrainServiceTest, HonestSessionIsDeterministicAndBalanced) {
  const TrainSessionConfig session = base_session(3);
  const TrainSessionResult first = run_training_session(session);
  const TrainSessionResult second = run_training_session(session);

  EXPECT_TRUE(first.clean);
  for (const auto rounds : first.party_rounds) {
    EXPECT_EQ(rounds, session.train.total_rounds());
  }
  EXPECT_EQ(first.sequencer.rounds, session.train.total_rounds());
  EXPECT_EQ(first.sequencer.epochs_completed, 1u);
  EXPECT_FALSE(first.sequencer.suspended);
  // Submission ledger: everything admitted is either consumed by a
  // round or discarded at shutdown.
  EXPECT_EQ(first.sequencer.admitted,
            first.sequencer.consumed + first.sequencer.discarded);
  EXPECT_EQ(first.sequencer.consumed,
            session.train.total_rounds() *
                static_cast<std::uint64_t>(session.num_owners));

  // Bit-identical weights across runs: the whole SPMD pipeline —
  // sharing, comparisons, masked rescales, aggregation — is a pure
  // function of the seeds.
  ASSERT_FALSE(first.revealed.empty());
  EXPECT_EQ(first.revealed, second.revealed);

  // And the revealed weights actually load.
  Rng rng(1);
  nn::Sequential model = nn::build_model(session.spec, rng);
  EXPECT_TRUE(apply_revealed_weights(first.revealed, 0,
                                     model.parameters().size(),
                                     session.engine.frac_bits, model));
  EXPECT_FALSE(apply_revealed_weights(first.revealed, 7,
                                      model.parameters().size(),
                                      session.engine.frac_bits, model));
}

TEST(TrainServiceTest, TrimmedMeanAbsorbsPoisonedOwner) {
  TrainSessionConfig honest = base_session(5);
  honest.dataset = tiny_dataset(40, 5);

  TrainSessionConfig poisoned_trimmed = honest;
  poisoned_trimmed.owners.resize(5);
  poisoned_trimmed.owners[4].poison = parse_poison_spec("scale=25");

  TrainSessionConfig poisoned_mean = poisoned_trimmed;
  poisoned_mean.train.rule = mpc::AggregationRule::kMean;

  const auto honest_result = run_training_session(honest);
  const auto trimmed_result = run_training_session(poisoned_trimmed);
  const auto mean_result = run_training_session(poisoned_mean);

  Rng rng(1);
  const std::size_t param_count =
      nn::build_model(honest.spec, rng).parameters().size();
  const double trimmed_dist =
      weight_distance(trimmed_result.revealed, honest_result.revealed, 0,
                      param_count, honest.engine.frac_bits);
  const double mean_dist =
      weight_distance(mean_result.revealed, honest_result.revealed, 0,
                      param_count, honest.engine.frac_bits);
  // The scaled gradient is coordinate-wise extreme, so the trim window
  // removes it: trimmed training stays near the honest trajectory
  // while the undefended mean is dragged away.
  EXPECT_LT(trimmed_dist, mean_dist);
  EXPECT_LT(trimmed_dist, 0.25 * mean_dist);
}

TEST(TrainServiceTest, MedianSessionCompletes) {
  TrainSessionConfig session = base_session(3);
  session.train.rule = mpc::AggregationRule::kMedian;
  const TrainSessionResult result = run_training_session(session);
  EXPECT_TRUE(result.clean);
  EXPECT_FALSE(result.revealed.empty());
}

TEST(TrainServiceTest, QuorumContinuesAfterOwnerCrash) {
  TrainSessionConfig session = base_session(3);
  session.submissions_per_owner = 4;
  session.train.rounds_per_epoch = 4;
  session.train.quorum = 2;
  session.train.round_window = std::chrono::milliseconds(10);
  session.train.dormant_after_misses = 1;
  session.owners.resize(3);
  session.owners[2].crash_after_submissions = 1;

  const TrainSessionResult result = run_training_session(session);
  EXPECT_TRUE(result.clean);
  EXPECT_EQ(result.sequencer.rounds, session.train.total_rounds());
  for (const auto rounds : result.party_rounds) {
    EXPECT_EQ(rounds, session.train.total_rounds());
  }
  // The crashed owner missed at least one round slot.
  EXPECT_GE(result.sequencer.dropped_owner_slots, 1u);
  EXPECT_EQ(result.sequencer.admitted,
            result.sequencer.consumed + result.sequencer.discarded);
  // Epoch weights still reveal — the service degraded, not died.
  Rng rng(1);
  nn::Sequential model = nn::build_model(session.spec, rng);
  EXPECT_TRUE(apply_revealed_weights(result.revealed, 0,
                                     model.parameters().size(),
                                     session.engine.frac_bits, model));
}

TEST(TrainServiceTest, SuspendResumeIsBitIdentical) {
  const std::string checkpoint_dir = fresh_dir("trustddl_train_ckpt_");
  const std::string store_dir = fresh_dir("trustddl_train_tdst_");

  TrainSessionConfig session = base_session(3);
  session.submissions_per_owner = 4;
  session.train.rounds_per_epoch = 4;
  session.train.momentum = 0.5;  // exercise velocity checkpointing
  // Masked-open truncation results depend on the dealt masks, and the
  // derived-seed dealer addresses its streams by cursor — so a resumed
  // session is bit-identical only when the parties' stream cursors
  // persist too (TDST store files), not just the parameter shares.
  session.engine.triple_prefetch = true;

  // Reference: the same session uninterrupted (fresh cursors from 0).
  const TrainSessionResult reference = run_training_session(session);
  ASSERT_TRUE(reference.clean);

  // Interrupted: suspend after 2 of 4 rounds, then resume.
  TrainSessionConfig interrupted = session;
  interrupted.engine.triple_store_dir = store_dir;
  interrupted.train.checkpoint_dir = checkpoint_dir;
  interrupted.train.max_rounds = 2;
  const TrainSessionResult suspended = run_training_session(interrupted);
  EXPECT_FALSE(suspended.clean);
  EXPECT_TRUE(suspended.sequencer.suspended);
  EXPECT_TRUE(suspended.revealed.empty());  // epoch end never reached

  TrainSessionConfig resumed = interrupted;
  resumed.train.max_rounds = 0;
  const TrainSessionResult final_session = run_training_session(resumed);
  EXPECT_TRUE(final_session.clean);

  // Masked-open truncation makes every opened value a pure function of
  // the submitted values, so the resumed trajectory replays the
  // uninterrupted one bit for bit.
  ASSERT_FALSE(final_session.revealed.empty());
  EXPECT_EQ(final_session.revealed, reference.revealed);

  std::filesystem::remove_all(checkpoint_dir);
  std::filesystem::remove_all(store_dir);
}

TEST(TrainServiceTest, StoreNeverHoldsFixedOperandMaterial) {
  // Training weights move every step, so a training store must never
  // receive the serving-only fixed-operand kinds (DESIGN.md §9): the
  // per-kind produced counters cover every entry any store ever held.
  obs::set_metrics_enabled(true);
  obs::MetricsRegistry::global().reset();

  TrainSessionConfig session = base_session(3);
  session.engine.triple_prefetch = true;
  const TrainSessionResult result = run_training_session(session);
  EXPECT_TRUE(result.clean);

  const obs::MetricsSnapshot snapshot =
      obs::MetricsRegistry::global().snapshot();
  obs::set_metrics_enabled(false);
  EXPECT_GT(counter_value(snapshot, "triple.produced.matmul"), 0u);
  EXPECT_EQ(counter_value(snapshot, "triple.produced.fixed_mask"), 0u);
  EXPECT_EQ(counter_value(snapshot, "triple.produced.fixed_triple"), 0u);
  EXPECT_EQ(counter_value(snapshot, "triple.produced.fixed_conv_triple"), 0u);
}

TEST(TrainServiceTest, MetricsLedgersBalance) {
  obs::set_metrics_enabled(true);
  obs::MetricsRegistry::global().reset();

  TrainSessionConfig session = base_session(3);
  session.owners.resize(3);
  session.owners[2].poison = parse_poison_spec("sign-flip");
  const TrainSessionResult result = run_training_session(session);
  EXPECT_TRUE(result.clean);

  const obs::MetricsSnapshot snapshot =
      obs::MetricsRegistry::global().snapshot();
  obs::set_metrics_enabled(false);

  // Aggregation ledger (summed across the three parties).
  const auto submitted =
      counter_value(snapshot, "train.agg.values.submitted");
  EXPECT_GT(submitted, 0u);
  EXPECT_EQ(submitted,
            counter_value(snapshot, "train.agg.values.aggregated") +
                counter_value(snapshot, "train.agg.values.trimmed"));
  EXPECT_GT(counter_value(snapshot, "train.agg.values.trimmed"), 0u);

  // Sequencer submission ledger.
  const auto admitted =
      counter_value(snapshot, "train.owner.submissions.admitted");
  EXPECT_GT(admitted, 0u);
  EXPECT_EQ(admitted,
            counter_value(snapshot, "train.owner.submissions.consumed") +
                counter_value(snapshot, "train.owner.submissions.discarded"));

  // Round slot ledger.
  const auto expected_slots =
      counter_value(snapshot, "train.owner.slots.expected");
  EXPECT_GT(expected_slots, 0u);
  EXPECT_EQ(expected_slots,
            counter_value(snapshot, "train.owner.slots.included") +
                counter_value(snapshot, "train.owner.slots.dropped"));
}

}  // namespace
}  // namespace trustddl::train
