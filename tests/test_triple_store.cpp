// Offline/online split (DESIGN.md §10): derived-seed material streams,
// the shape-keyed TripleStore (prefetch, exhaustion fallback, disk
// round trip and corrupt-file rejection, SPSC concurrency) and the
// engine-level guarantees: synchronous runs miss on every pop, and
// prefetched and synchronous runs are bit-identical.
#include "mpc/triple_store.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "core/triple_pipeline.hpp"
#include "mpc/share_serde.hpp"
#include "numeric/fixed_point.hpp"
#include "obs/metrics.hpp"

namespace trustddl::mpc {
namespace {

constexpr int kF = fx::kDefaultFracBits;
constexpr std::uint64_t kSeed = 4242;

Bytes encode(const BeaverTripleShare& triple) {
  ByteWriter writer;
  write_beaver_share(writer, triple);
  return writer.take();
}

Bytes encode(const PartyShare& share) {
  ByteWriter writer;
  write_party_share(writer, share);
  return writer.take();
}

Bytes encode(const TruncPairShare& pair) {
  ByteWriter writer;
  write_trunc_pair(writer, pair);
  return writer.take();
}

/// Party 0's view of entry `index` of `key`, dealt directly.
MaterialBatch stream_entry(const TripleKey& key, std::uint64_t index) {
  return std::move(deal_material(key, index, 1, kSeed, kF)[0]);
}

TEST(DerivedSeedTest, EntriesArePureFunctionsOfKeyAndIndex) {
  const TripleKey key = TripleKey::matmul(2, 3, 2);
  const auto batch = deal_material(key, 0, 4, kSeed, kF);
  for (std::uint64_t i = 0; i < 4; ++i) {
    const auto single = deal_material(key, i, 1, kSeed, kF);
    for (std::size_t party = 0; party < kNumParties; ++party) {
      EXPECT_EQ(encode(batch[party].triples[i]),
                encode(single[party].triples[0]))
          << "party " << party << " entry " << i;
    }
  }
  // Overlapping ranges agree entry-wise — the property that lets
  // caches, stores and restarts coexist.
  const auto overlap = deal_material(key, 2, 2, kSeed, kF);
  EXPECT_EQ(encode(overlap[0].triples[0]), encode(batch[0].triples[2]));
  EXPECT_EQ(encode(overlap[0].triples[1]), encode(batch[0].triples[3]));
  // Different indices yield different material.
  EXPECT_NE(encode(batch[0].triples[0]), encode(batch[0].triples[1]));
}

TEST(DerivedSeedTest, DealtBatchesSatisfyTheBeaverRelation) {
  const TripleKey key = TripleKey::matmul(3, 4, 2);
  const auto views = deal_material(key, 7, 2, kSeed, kF);
  for (std::size_t i = 0; i < 2; ++i) {
    std::array<PartyShare, 3> a_views, b_views, c_views;
    for (std::size_t party = 0; party < kNumParties; ++party) {
      a_views[party] = views[party].triples[i].a;
      b_views[party] = views[party].triples[i].b;
      c_views[party] = views[party].triples[i].c;
    }
    EXPECT_EQ(matmul(reconstruct(a_views), reconstruct(b_views)),
              reconstruct(c_views))
        << "entry " << i;
  }
}

TEST(TripleStoreTest, ServesTheStreamInOrderAndFallsBackWhenDry) {
  DealerBackend backend(kSeed, kF, /*party=*/0);
  TripleStore store(backend, /*party=*/0);
  const TripleKey key = TripleKey::matmul(2, 3, 2);

  store.demand(key, 3);
  EXPECT_EQ(store.target(key), 3u);
  EXPECT_EQ(store.refill(key, 8), 3u) << "refill is target-bounded";
  EXPECT_EQ(store.depth(key), 3u);

  // Five pops against three buffered entries: the last two exhaust the
  // store and fall back to on-demand dealing — same stream, in order.
  for (std::uint64_t i = 0; i < 5; ++i) {
    const BeaverTripleShare triple = store.matmul_triple(2, 3, 2);
    EXPECT_EQ(encode(triple), encode(stream_entry(key, i).triples[0]))
        << "entry " << i;
  }
  EXPECT_EQ(store.misses(), 2u);
  EXPECT_EQ(store.depth(key), 0u);
  EXPECT_EQ(store.consumed(key), 5u);
}

TEST(TripleStoreTest, KindsKeepIndependentStreams) {
  DealerBackend backend(kSeed, kF, /*party=*/0);
  TripleStore store(backend, /*party=*/0);
  const Shape shape{4, 2};
  store.demand(TripleKey::mul(shape), 2);
  store.demand(TripleKey::comp_aux(shape), 2);
  store.demand(TripleKey::trunc_pair(shape), 2);
  EXPECT_EQ(store.refill_toward_targets(16), 6u);
  EXPECT_EQ(store.depth(), 6u);

  EXPECT_EQ(encode(store.mul_triple(shape)),
            encode(stream_entry(TripleKey::mul(shape), 0).triples[0]));
  EXPECT_EQ(encode(store.comp_aux(shape)),
            encode(stream_entry(TripleKey::comp_aux(shape), 0).aux[0]));
  EXPECT_EQ(encode(store.trunc_pair(shape)),
            encode(stream_entry(TripleKey::trunc_pair(shape), 0).pairs[0]));
  EXPECT_EQ(store.misses(), 0u);
}

TEST(TripleStoreTest, LowWaterListsOnlyShallowKeys) {
  DealerBackend backend(kSeed, kF, /*party=*/0);
  TripleStore store(backend, /*party=*/0);
  const TripleKey deep = TripleKey::mul(Shape{2});
  const TripleKey shallow = TripleKey::mul(Shape{3});
  store.demand(deep, 4);
  store.demand(shallow, 4);
  store.refill(deep, 4);
  store.refill(shallow, 1);

  const auto keys = store.keys_below(0.5);
  ASSERT_EQ(keys.size(), 1u);
  EXPECT_EQ(keys[0], shallow);
}

TEST(TripleStoreTest, DiskRoundTripRestoresEntriesAndCursor) {
  const std::string path = ::testing::TempDir() + "triple_store_rt.bin";
  std::remove(path.c_str());
  const std::uint64_t provenance = 0xfeedULL;
  const TripleKey key = TripleKey::trunc_pair(Shape{3, 2});

  {
    DealerBackend backend(kSeed, kF, /*party=*/1);
    TripleStore store(backend, /*party=*/1);
    EXPECT_FALSE(store.load(path, provenance)) << "no file yet";
    store.demand(key, 4);
    store.refill(key, 4);
    (void)store.trunc_pair(Shape{3, 2});  // consume entry 0
    store.save(path, provenance);
  }

  DealerBackend backend(kSeed, kF, /*party=*/1);
  TripleStore restored(backend, /*party=*/1);
  EXPECT_THROW(restored.load(path, provenance + 1), SerializationError)
      << "provenance mismatch must fail loudly";
  ASSERT_TRUE(restored.load(path, provenance));
  EXPECT_EQ(restored.depth(key), 3u);
  EXPECT_EQ(restored.consumed(key), 1u);

  // The restored store resumes the stream exactly where the saved one
  // stopped: entries 1..3 from the buffer, entry 4 via fallback.
  for (std::uint64_t i = 1; i <= 4; ++i) {
    const auto pairs = deal_material(key, i, 1, kSeed, kF);
    EXPECT_EQ(encode(restored.trunc_pair(Shape{3, 2})),
              encode(pairs[1].pairs[0]))
        << "entry " << i;
  }
  std::remove(path.c_str());
}

// --- Fixed-operand material (serving) ------------------------------

Bytes encode_fixed(const BeaverTripleShare& triple) {
  ByteWriter writer;
  write_fixed_triple(writer, triple);
  return writer.take();
}

TEST(DerivedSeedTest, FixedTriplesMultiplyByTheLayersOneMask) {
  const TripleKey mask_key = TripleKey::fixed_mask(3, 0xabc, 4, 2);
  const auto first = deal_material(mask_key, 0, 1, kSeed, kF);
  const auto later = deal_material(mask_key, 5, 1, kSeed, kF);
  for (std::size_t party = 0; party < kNumParties; ++party) {
    EXPECT_EQ(encode(first[party].aux[0]), encode(later[party].aux[0]))
        << "every index of a mask stream deals the same B";
  }
  const RingTensor mask = reconstruct(
      {first[0].aux[0], first[1].aux[0], first[2].aux[0]});

  const auto triples = deal_material(TripleKey::fixed_triple(3, 0xabc, 5, 4, 2),
                                     0, 3, kSeed, kF);
  RingTensor previous_a;
  for (std::size_t i = 0; i < 3; ++i) {
    const RingTensor a = reconstruct({triples[0].triples[i].a,
                                            triples[1].triples[i].a,
                                            triples[2].triples[i].a});
    const RingTensor c = reconstruct({triples[0].triples[i].c,
                                            triples[1].triples[i].c,
                                            triples[2].triples[i].c});
    EXPECT_EQ(matmul(a, mask), c) << "entry " << i;
    EXPECT_NE(a, previous_a) << "entry " << i << " reuses a";
    previous_a = a;
  }
  // Another slot or model version gets another mask.
  EXPECT_NE(encode(stream_entry(mask_key, 0).aux[0]),
            encode(stream_entry(TripleKey::fixed_mask(4, 0xabc, 4, 2), 0)
                       .aux[0]));
  EXPECT_NE(encode(stream_entry(mask_key, 0).aux[0]),
            encode(stream_entry(TripleKey::fixed_mask(3, 0xabd, 4, 2), 0)
                       .aux[0]));
}

/// A small conv with padding and stride: W [3, 2·3·3], P = 3x2 pixels.
ConvSpec small_conv() {
  ConvSpec conv;
  conv.in_channels = 2;
  conv.in_height = 4;
  conv.in_width = 3;
  conv.out_channels = 3;
  conv.kernel_h = 3;
  conv.kernel_w = 3;
  conv.pad = 1;
  conv.stride = 2;
  return conv;
}

TEST(DerivedSeedTest, FixedConvTriplesMultiplyTheLayersMaskByIm2colOfM) {
  const ConvSpec conv = small_conv();
  const auto masks = deal_material(
      TripleKey::fixed_mask(3, 0xabc, conv.out_channels, conv.col_rows()), 0,
      1, kSeed, kF);
  const RingTensor mask =
      reconstruct({masks[0].aux[0], masks[1].aux[0], masks[2].aux[0]});

  const auto triples = deal_material(
      TripleKey::fixed_conv_triple(3, 0xabc, /*rows=*/2, conv), 0, 3, kSeed,
      kF);
  RingTensor previous_m;
  for (std::size_t i = 0; i < 3; ++i) {
    const RingTensor m = reconstruct({triples[0].triples[i].a,
                                      triples[1].triples[i].a,
                                      triples[2].triples[i].a});
    const RingTensor c = reconstruct({triples[0].triples[i].c,
                                      triples[1].triples[i].c,
                                      triples[2].triples[i].c});
    // M is dealt in image shape, not in its im2col expansion.
    EXPECT_EQ(m.shape(), (Shape{2, 2 * 4 * 3})) << "entry " << i;
    EXPECT_EQ(matmul(mask, batch_im2col(m, conv)), c) << "entry " << i;
    EXPECT_TRUE(triples[0].triples[i].b.primary.values().empty());
    EXPECT_NE(m, previous_m) << "entry " << i << " reuses M";
    previous_m = m;
  }
}

// --- Crafted conv keys: a party chooses the key it sends the owner ----

/// The mnist_cnn conv key at 8 rows with one dim replaced.
TripleKey conv_key_with(std::size_t dim, std::size_t value) {
  ConvSpec conv;
  conv.in_channels = 1;
  conv.in_height = 28;
  conv.in_width = 28;
  conv.out_channels = 5;
  conv.kernel_h = 5;
  conv.kernel_w = 5;
  conv.pad = 2;
  conv.stride = 2;
  TripleKey key = TripleKey::fixed_conv_triple(0, 7, 8, conv);
  key.dims.at(dim) = value;
  return key;
}

void expect_rejected(const TripleKey& key) {
  EXPECT_THROW((void)material_entry_values(key), InvalidArgument);
  EXPECT_THROW((void)deal_material(key, 0, 1, kSeed, kF), InvalidArgument);
}

TEST(FixedConvKeyTest, EntryCostIsTheImageMaskPlusTheDealersProduct) {
  // 8 rows of the Table I conv: M [8, 784] and B [5, 25] times
  // im2col(M) [25, 8·196].
  EXPECT_EQ(material_entry_values(conv_key_with(2, 8)),
            8u * 784u + 5u * 25u * 8u * 196u);
}

TEST(FixedConvKeyTest, EntryCostCountsAKernelThatOnlyPaddingFits) {
  // A 1×1 image padded by 2^15 on each side under a (2^16+1)² kernel:
  // one output pixel, yet the dealer's mask B alone has (2^16+1)²
  // values, so the cost must exceed the owner's 2^28 fill bound.
  const std::size_t kernel = (std::size_t{1} << 16) + 1;
  ConvSpec conv;
  conv.in_height = 1;
  conv.in_width = 1;
  conv.kernel_h = kernel;
  conv.kernel_w = kernel;
  conv.pad = std::size_t{1} << 15;
  const TripleKey key = TripleKey::fixed_conv_triple(0, 7, 1, conv);
  EXPECT_EQ(material_entry_values(key), 1 + kernel * kernel);
  EXPECT_GT(material_entry_values(key), std::size_t{1} << 28);
}

TEST(FixedConvKeyTest, RejectsStrideZero) {
  expect_rejected(conv_key_with(10, 0));
}

TEST(FixedConvKeyTest, RejectsKernelLargerThanThePaddedInput) {
  expect_rejected(conv_key_with(7, 33));  // 28 + 2·2 = 32 rows padded
  expect_rejected(conv_key_with(8, 33));
}

TEST(FixedConvKeyTest, RejectsZeroChannels) {
  expect_rejected(conv_key_with(3, 0));
  expect_rejected(conv_key_with(6, 0));
}

TEST(FixedConvKeyTest, RejectsDimsWhoseProductOverflows) {
  expect_rejected(conv_key_with(2, std::size_t{1} << 60));  // rows
  expect_rejected(conv_key_with(3, std::size_t{1} << 60));  // channels
  expect_rejected(conv_key_with(9, ~std::size_t{0}));        // 2·pad
  TripleKey short_key = conv_key_with(2, 8);
  short_key.dims.pop_back();
  expect_rejected(short_key);
}

TEST(TripleStoreTest, DiskRoundTripRestoresFixedOperandStreams) {
  const std::string path = ::testing::TempDir() + "triple_store_fixed.bin";
  std::remove(path.c_str());
  const std::uint64_t provenance = 0xfeedULL;
  const TripleKey mask_key = TripleKey::fixed_mask(2, 0x5eed, 4, 3);
  const TripleKey triple_key = TripleKey::fixed_triple(2, 0x5eed, 2, 4, 3);
  const ConvSpec conv = small_conv();
  const TripleKey conv_key = TripleKey::fixed_conv_triple(0, 0x5eed, 2, conv);

  {
    DealerBackend backend(kSeed, kF, /*party=*/1);
    TripleStore store(backend, /*party=*/1);
    store.demand(mask_key, 1);
    store.demand(triple_key, 4);
    store.demand(conv_key, 3);
    store.refill_toward_targets(8);
    (void)store.fixed_mask(2, 0x5eed, 4, 3);
    (void)store.fixed_triple(2, 0x5eed, 2, 4, 3);  // consume entry 0
    (void)store.fixed_conv_triple(0, 0x5eed, 2, conv);
    store.save(path, provenance);
  }

  DealerBackend backend(kSeed, kF, /*party=*/1);
  TripleStore restored(backend, /*party=*/1);
  ASSERT_TRUE(restored.load(path, provenance));
  EXPECT_EQ(restored.depth(triple_key), 3u);
  EXPECT_EQ(restored.consumed(triple_key), 1u);
  EXPECT_EQ(restored.consumed(mask_key), 1u);

  // The (a, c) stream resumes at entry 1: entries 1..3 from the file,
  // entry 4 on demand, each identical to a fresh dealing.
  for (std::uint64_t i = 1; i <= 4; ++i) {
    const auto dealt = deal_material(triple_key, i, 1, kSeed, kF);
    EXPECT_EQ(encode_fixed(restored.fixed_triple(2, 0x5eed, 2, 4, 3)),
              encode_fixed(dealt[1].triples[0]))
        << "entry " << i;
  }
  // The conv stream, keyed by its eleven dims, resumes the same way.
  EXPECT_EQ(restored.depth(conv_key), 2u);
  for (std::uint64_t i = 1; i <= 3; ++i) {
    const auto dealt = deal_material(conv_key, i, 1, kSeed, kF);
    EXPECT_EQ(encode_fixed(restored.fixed_conv_triple(0, 0x5eed, 2, conv)),
              encode_fixed(dealt[1].triples[0]))
        << "conv entry " << i;
  }
  // A restarted server re-fetches its mask past the cursor: same B.
  EXPECT_EQ(encode(restored.fixed_mask(2, 0x5eed, 4, 3)),
            encode(deal_material(mask_key, 0, 1, kSeed, kF)[1].aux[0]));
  std::remove(path.c_str());
}

// --- Corrupt TDST files ---------------------------------------------

constexpr std::uint64_t kProvenance = 0xfeedULL;

/// A party-0 TDST file under kProvenance holding one rank-0 kMul key
/// with the given target and depth fields and no entries.
Bytes crafted_store(std::uint64_t target, std::uint64_t depth,
                    std::uint8_t kind = 0) {
  ByteWriter writer;
  writer.write_u32(0x54534454);  // "TDST"
  writer.write_u32(1);           // version
  writer.write_u64(kProvenance);
  writer.write_u32(0);  // party
  writer.write_u64(1);  // keys
  writer.write_u8(kind);
  writer.write_u64(0);  // rank
  writer.write_u64(0);  // stream cursor
  writer.write_u64(target);
  writer.write_u64(depth);
  return writer.take();
}

void write_file(const std::string& path, const Bytes& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// Loading `bytes` into a fresh party-0 store must throw
/// SerializationError promptly, without allocating what the file
/// claims.
void expect_load_rejected(const Bytes& bytes) {
  const std::string path = ::testing::TempDir() + "triple_store_bad.bin";
  write_file(path, bytes);
  DealerBackend backend(kSeed, kF, /*party=*/0);
  TripleStore store(backend, /*party=*/0);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(store.load(path, kProvenance), SerializationError);
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(1));
  std::remove(path.c_str());
}

TEST(TripleStoreLoadTest, HugeTargetIsRejected) {
  // 2^63 + 1 has no power-of-two ring capacity.
  expect_load_rejected(crafted_store((std::uint64_t{1} << 63) + 1, 0));
}

TEST(TripleStoreLoadTest, HugeDepthIsRejected) {
  expect_load_rejected(crafted_store(4, std::uint64_t{1} << 40));
}

TEST(TripleStoreLoadTest, UnknownKindIsRejected) {
  expect_load_rejected(crafted_store(0, 0, /*kind=*/9));
}

TEST(TripleStoreLoadTest, TruncationMidEntryIsRejected) {
  const std::string path = ::testing::TempDir() + "triple_store_cut.bin";
  DealerBackend backend(kSeed, kF, /*party=*/0);
  TripleStore store(backend, /*party=*/0);
  store.demand(TripleKey::mul(Shape{4}), 2);
  store.refill_toward_targets(2);
  store.save(path, kProvenance);
  std::ifstream in(path, std::ios::binary);
  Bytes bytes((std::istreambuf_iterator<char>(in)),
              std::istreambuf_iterator<char>());
  bytes.resize(bytes.size() - 20);  // inside the second entry
  expect_load_rejected(bytes);
  std::remove(path.c_str());
}

TEST(TripleStoreLoadTest, RestoredTargetIsClampedToDepth) {
  // A target far beyond the file's entries sizes nothing: the restore
  // holds what the file holds, and planning raises the target again.
  const std::string path = ::testing::TempDir() + "triple_store_big.bin";
  write_file(path, crafted_store(std::uint64_t{1} << 40, 0));
  DealerBackend backend(kSeed, kF, /*party=*/0);
  TripleStore store(backend, /*party=*/0);
  ASSERT_TRUE(store.load(path, kProvenance));
  const TripleKey key = TripleKey::mul(Shape{});
  EXPECT_EQ(store.target(key), 0u);
  store.demand(key, 3);
  EXPECT_EQ(store.refill(key, 8), 3u);
  std::remove(path.c_str());
}

TEST(TripleStoreTest, ConcurrentProducerAndConsumerPreserveStreamOrder) {
  // SPSC contract under real concurrency (run under TSan in CI): a
  // producer thread refills while the consumer pops; every pop must
  // still see the stream in order, whether it hit the ring or missed.
  DealerBackend backend(kSeed, kF, /*party=*/2);
  TripleStore store(backend, /*party=*/2);
  const TripleKey key = TripleKey::mul(Shape{4});
  constexpr std::size_t kEntries = 400;
  store.demand(key, 32);

  std::atomic<bool> stop{false};
  std::thread producer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      if (store.refill(key, 8) == 0) {
        std::this_thread::yield();
      }
    }
  });

  std::vector<Bytes> popped;
  popped.reserve(kEntries);
  for (std::size_t i = 0; i < kEntries; ++i) {
    popped.push_back(encode(store.mul_triple(Shape{4})));
  }
  stop.store(true, std::memory_order_relaxed);
  producer.join();

  const auto expected = deal_material(key, 0, kEntries, kSeed, kF);
  for (std::size_t i = 0; i < kEntries; ++i) {
    ASSERT_EQ(popped[i], encode(expected[2].triples[i])) << "entry " << i;
  }
  EXPECT_EQ(store.consumed(key), kEntries);
}

// --- Demand profiler + engine-level equivalence ----------------------

data::TrainTestSplit tiny_split(std::size_t train, std::size_t test) {
  data::SyntheticMnistConfig config;
  config.train_count = train;
  config.test_count = test;
  config.seed = 42;
  return data::generate_synthetic_mnist(config);
}

core::EngineConfig prefetch_config(bool prefetch) {
  core::EngineConfig config;
  config.collect_timeout = std::chrono::milliseconds(300);
  config.triple_prefetch = prefetch;
  // Uncapped targets: the warm phase prefetches the whole job's
  // demand, so any online miss means the profiler under-counted.
  config.triple_max_depth = std::size_t{1} << 40;
  return config;
}

TEST(DemandProfilerTest, CountsMergeAcrossBatchSizes) {
  const nn::ModelSpec spec = nn::mnist_mlp_spec();
  const core::DemandPlan one =
      core::profile_step_demand(spec, 8, TruncationMode::kLocal,
                                /*training=*/false);
  EXPECT_FALSE(one.empty());
  const core::DemandPlan job = core::profile_job_demand(
      spec, {8, 8, 4}, TruncationMode::kLocal, /*training=*/false);
  // Two same-size steps share shape classes; the partial batch gets
  // its own.
  EXPECT_EQ(job.total(), 2 * one.total() +
                             core::profile_step_demand(
                                 spec, 4, TruncationMode::kLocal, false)
                                 .total());
  // Masked truncation adds pairs, training adds backward material.
  EXPECT_GT(core::profile_step_demand(spec, 8, TruncationMode::kMaskedOpen,
                                      true)
                .total(),
            one.total());
}

TEST(PrefetchExactnessTest, InferLabelsBitIdenticalAndStoreNeverMisses) {
  const auto split = tiny_split(30, 16);
  const data::Dataset sample = data::slice(split.test, 0, 6);

  core::TrustDdlEngine sync_engine(nn::tiny_cnn_spec(),
                                   prefetch_config(false));
  const auto sync = sync_engine.infer(sample, /*batch_size=*/4);

  obs::MetricsRegistry::global().reset();
  obs::set_metrics_enabled(true);
  core::TrustDdlEngine prefetch_engine(nn::tiny_cnn_spec(),
                                       prefetch_config(true));
  const auto prefetched = prefetch_engine.infer(sample, /*batch_size=*/4);
  obs::set_metrics_enabled(false);
  const obs::MetricsSnapshot snapshot =
      obs::MetricsRegistry::global().snapshot();

  EXPECT_EQ(prefetched.labels, sync.labels);
  // The demand profiler supplied every (kind, shape) the online phase
  // consumed: no pop fell back to on-demand dealing...
  EXPECT_EQ(snapshot.counter_sum("triple.store.miss"), 0u);
  EXPECT_GT(snapshot.counter_sum("triple.consumed"), 0u);
  // ...and the ledger balances: produced == consumed + still in store.
  std::int64_t in_store = 0;
  for (const auto& gauge : snapshot.gauges) {
    if (gauge.name.rfind("triple.store.depth", 0) == 0) {
      in_store += gauge.value;
    }
  }
  EXPECT_EQ(snapshot.counter_sum("triple.produced"),
            snapshot.counter_sum("triple.consumed") +
                static_cast<std::uint64_t>(in_store));
}

TEST(PrefetchExactnessTest, SyncRunMissesOnEveryPopAndLedgerBalances) {
  // With prefetch off the store stays empty: every pop is a miss that
  // fetches one entry from the owner, and the triple.* ledger still
  // balances with nothing left in store.
  const auto split = tiny_split(30, 16);
  const data::Dataset sample = data::slice(split.test, 0, 6);

  obs::MetricsRegistry::global().reset();
  obs::set_metrics_enabled(true);
  core::TrustDdlEngine engine(nn::tiny_cnn_spec(), prefetch_config(false));
  (void)engine.infer(sample, /*batch_size=*/4);
  obs::set_metrics_enabled(false);
  const obs::MetricsSnapshot snapshot =
      obs::MetricsRegistry::global().snapshot();

  const std::uint64_t consumed = snapshot.counter_sum("triple.consumed");
  EXPECT_GT(consumed, 0u);
  EXPECT_EQ(snapshot.counter_sum("triple.store.miss"), consumed);
  EXPECT_EQ(snapshot.counter_sum("triple.produced"), consumed);
  for (const auto& gauge : snapshot.gauges) {
    if (gauge.name.rfind("triple.store.depth", 0) == 0) {
      EXPECT_EQ(gauge.value, 0) << gauge.name;
    }
  }
}

TEST(PrefetchExactnessTest, TrainedWeightsBitIdenticalWithPrefetch) {
  // The acceptance bar for the offline/online split: prefetched and
  // synchronous training consume identical material streams in
  // identical order, so the trained weights must match BIT FOR BIT —
  // masked-open truncation included (it consumes trunc-pair streams).
  const auto split = tiny_split(32, 12);
  core::TrainOptions options;
  options.epochs = 1;
  options.batch_size = 8;
  options.learning_rate = 0.3;

  auto train_weights = [&](bool prefetch) {
    core::EngineConfig config = prefetch_config(prefetch);
    config.trunc_mode = TruncationMode::kMaskedOpen;
    config.collect_timeout = std::chrono::seconds(30);
    core::TrustDdlEngine engine(nn::mnist_mlp_spec(), config);
    (void)engine.train(split.train, split.test, options);
    std::vector<RealTensor> weights;
    for (nn::Parameter* parameter : engine.reference_model().parameters()) {
      weights.push_back(parameter->value);
    }
    return weights;
  };

  const auto sync = train_weights(false);
  const auto prefetched = train_weights(true);
  ASSERT_EQ(sync.size(), prefetched.size());
  ASSERT_FALSE(sync.empty());
  for (std::size_t p = 0; p < sync.size(); ++p) {
    EXPECT_EQ(sync[p], prefetched[p]) << "parameter " << p;
  }
}

TEST(TriplePipelineTest, PersistedStoreSurvivesARestart) {
  // Same job twice against one store dir: the first run persists
  // whatever its producer over-fetched; the second restores it and
  // resumes the streams mid-cursor.  Results stay correct because the
  // entries are position-addressed, not arrival-ordered.
  const std::string dir = ::testing::TempDir();
  for (int party = 0; party < 3; ++party) {
    std::remove(
        core::TriplePipeline::store_path(dir, party, false).c_str());
  }
  const auto split = tiny_split(20, 12);
  const data::Dataset sample = data::slice(split.test, 0, 6);

  core::EngineConfig config = prefetch_config(true);
  config.triple_store_dir = dir;
  // Cap the targets so the producer over-fetches a little and leaves
  // entries to persist.
  config.triple_max_depth = 8;

  core::TrustDdlEngine first(nn::mnist_mlp_spec(), config);
  const auto first_result = first.infer(sample, /*batch_size=*/3);

  core::TrustDdlEngine second(nn::mnist_mlp_spec(), config);
  const auto second_result = second.infer(sample, /*batch_size=*/3);
  EXPECT_EQ(second_result.labels, first_result.labels);

  for (int party = 0; party < 3; ++party) {
    std::remove(
        core::TriplePipeline::store_path(dir, party, false).c_str());
  }
}

}  // namespace
}  // namespace trustddl::mpc
