#include "mpc/protocols_bt.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "mpc/adversary.hpp"
#include "numeric/conv.hpp"
#include "numeric/fixed_point.hpp"
#include "test_util.hpp"

namespace trustddl::mpc {
namespace {

using testing::ThreePartyHarness;
using testing::random_real;

constexpr int kF = fx::kDefaultFracBits;

struct MulFixture {
  RealTensor x;
  RealTensor y;
  std::array<PartyShare, 3> x_views;
  std::array<PartyShare, 3> y_views;
  std::unique_ptr<testing::PartyTriples> dealer;

  MulFixture(const Shape& shape, std::uint64_t seed, double bound = 4.0) {
    Rng rng(seed);
    x = random_real(shape, rng, bound);
    y = random_real(shape, rng, bound);
    x_views = share_secret(to_ring(x, kF), rng);
    y_views = share_secret(to_ring(y, kF), rng);
    dealer = std::make_unique<testing::PartyTriples>(seed + 999, kF);
  }
};

TEST(SecMulBtTest, ElementwiseProductMatchesPlaintext) {
  ThreePartyHarness harness;
  MulFixture fixture(Shape{3, 4}, 21);
  std::array<RealTensor, 3> results;
  harness.run([&](PartyContext& ctx) {
    const auto index = static_cast<std::size_t>(ctx.party);
    TripleStore& source = (*fixture.dealer)[ctx.party];
    const auto triple = source.mul_triple(Shape{3, 4});
    PartyShare z = sec_mul_bt(ctx, fixture.x_views[index],
                              fixture.y_views[index], triple);
    z = truncate_product_local(z, kF);
    results[index] = to_real(open_value(ctx, z), kF);
  });
  const RealTensor expected = hadamard(fixture.x, fixture.y);
  for (const auto& result : results) {
    EXPECT_LT(max_abs_diff(result, expected), 1e-4);
  }
}

TEST(SecMatMulBtTest, MatrixProductMatchesPlaintext) {
  ThreePartyHarness harness;
  Rng rng(22);
  const RealTensor x = random_real(Shape{4, 6}, rng, 2.0);
  const RealTensor y = random_real(Shape{6, 5}, rng, 2.0);
  const auto x_views = share_secret(to_ring(x, kF), rng);
  const auto y_views = share_secret(to_ring(y, kF), rng);
  testing::PartyTriples dealer(777, kF);

  std::array<RealTensor, 3> results;
  harness.run([&](PartyContext& ctx) {
    const auto index = static_cast<std::size_t>(ctx.party);
    TripleStore& source = dealer[ctx.party];
    const auto triple = source.matmul_triple(4, 6, 5);
    PartyShare z =
        sec_matmul_bt(ctx, x_views[index], y_views[index], triple);
    z = truncate_product_local(z, kF);
    results[index] = to_real(open_value(ctx, z), kF);
  });
  const RealTensor expected = matmul(x, y);
  for (const auto& result : results) {
    EXPECT_LT(max_abs_diff(result, expected), 1e-3);
  }
}

TEST(SecMulBtTest, MaskedOpenTruncationIsExact) {
  ThreePartyHarness harness;
  MulFixture fixture(Shape{8}, 23);
  std::array<RealTensor, 3> results;
  harness.run([&](PartyContext& ctx) {
    const auto index = static_cast<std::size_t>(ctx.party);
    TripleStore& source = (*fixture.dealer)[ctx.party];
    const auto triple = source.mul_triple(Shape{8});
    const auto pair = source.trunc_pair(Shape{8});
    PartyShare z = sec_mul_bt(ctx, fixture.x_views[index],
                              fixture.y_views[index], triple);
    z = truncate_product_masked(ctx, z, pair);
    results[index] = to_real(open_value(ctx, z), kF);
  });
  const RealTensor expected = hadamard(fixture.x, fixture.y);
  for (const auto& result : results) {
    EXPECT_LT(max_abs_diff(result, expected), 4.0 / (1 << kF));
  }
}

TEST(SecCompBtTest, SignsMatchPlaintextComparison) {
  ThreePartyHarness harness;
  Rng rng(24);
  const Shape shape{10};
  RealTensor x = random_real(shape, rng);
  RealTensor y = random_real(shape, rng);
  x[0] = y[0];  // include an exact tie
  const auto x_views = share_secret(to_ring(x, kF), rng);
  const auto y_views = share_secret(to_ring(y, kF), rng);
  testing::PartyTriples dealer(555, kF);

  std::array<RingTensor, 3> signs;
  harness.run([&](PartyContext& ctx) {
    const auto index = static_cast<std::size_t>(ctx.party);
    TripleStore& source = dealer[ctx.party];
    const auto triple = source.mul_triple(shape);
    const auto t_aux = source.comp_aux(shape);
    signs[index] = sec_comp_bt(ctx, x_views[index], y_views[index], t_aux,
                               triple);
  });
  for (const auto& result : signs) {
    for (std::size_t i = 0; i < result.size(); ++i) {
      const double diff = x[i] - y[i];
      const auto got = static_cast<std::int64_t>(result[i]);
      if (diff > 1e-5) {
        EXPECT_EQ(got, 1) << "element " << i;
      } else if (diff < -1e-5) {
        EXPECT_EQ(got, -1) << "element " << i;
      } else {
        EXPECT_EQ(got, 0) << "element " << i;
      }
    }
  }
}

TEST(SecCompBtTest, SignAgainstZeroAndPositiveMask) {
  ThreePartyHarness harness;
  Rng rng(25);
  const Shape shape{6};
  const RealTensor x(Shape{6}, {-2.0, -0.5, 0.0, 0.5, 2.0, 7.0});
  const auto x_views = share_secret(to_ring(x, kF), rng);
  testing::PartyTriples dealer(444, kF);

  std::array<RingTensor, 3> masks;
  harness.run([&](PartyContext& ctx) {
    const auto index = static_cast<std::size_t>(ctx.party);
    TripleStore& source = dealer[ctx.party];
    const auto signs = sec_sign_bt(ctx, x_views[index],
                                   source.comp_aux(shape),
                                   source.mul_triple(shape));
    masks[index] = positive_mask(signs);
  });
  const AlignedVector<std::uint64_t> expected{0, 0, 0, 1, 1, 1};
  for (const auto& mask : masks) {
    EXPECT_EQ(mask.values(), expected);
  }
}

class SecMulByzantineSweep
    : public ::testing::TestWithParam<
          std::tuple<int, ByzantineConfig::Behavior>> {};

TEST_P(SecMulByzantineSweep, HonestPartiesComputeCorrectProduct) {
  const auto [byzantine_party, behavior] = GetParam();
  ThreePartyHarness harness;
  ByzantineConfig config;
  config.behavior = behavior;
  config.target_peer = (byzantine_party + 2) % 3;
  harness.make_byzantine(byzantine_party, config);

  MulFixture fixture(Shape{4}, 26);
  std::array<PartyShare, 3> product_shares;
  harness.run([&](PartyContext& ctx) {
    const auto index = static_cast<std::size_t>(ctx.party);
    TripleStore& source = (*fixture.dealer)[ctx.party];
    const auto triple = source.mul_triple(Shape{4});
    PartyShare z = sec_mul_bt(ctx, fixture.x_views[index],
                              fixture.y_views[index], triple);
    product_shares[index] = truncate_product_local(z, kF);
  });

  // Verify via the shares of the two honest parties: reconstruct the
  // set whose both halves are honest-held.
  const RealTensor expected = hadamard(fixture.x, fixture.y);
  for (int set = 0; set < kNumSets; ++set) {
    const int p1 = holder_of_primary(set);
    const int p2 = holder_of_second(set);
    if (p1 == byzantine_party || p2 == byzantine_party) {
      continue;
    }
    const RealTensor got = to_real(
        product_shares[static_cast<std::size_t>(p1)].primary +
            product_shares[static_cast<std::size_t>(p2)].second,
        kF);
    EXPECT_LT(max_abs_diff(got, expected), 1e-4)
        << "set " << set << " behavior " << static_cast<int>(behavior);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SecMulByzantineSweep,
    ::testing::Combine(
        ::testing::Values(0, 1, 2),
        ::testing::Values(
            ByzantineConfig::Behavior::kConsistentCorruption,
            ByzantineConfig::Behavior::kCommitmentViolationGlobal,
            ByzantineConfig::Behavior::kCommitmentViolationSingle)));

// --- One-sided SecMatMul-BT over a fixed operand -----------------------

constexpr std::size_t kFixedSlot = 1;
constexpr std::uint64_t kFixedVersion = 0x5e12e;

/// Corrupts this party's shares in its `target`-th opening only
/// (0: the F = W − B opening of a fixed operand, 1: the first batch's
/// E = x − a), consistently across the commitment and the exchange
/// (Case 3).
class CorruptOneOpening final : public AdversaryHooks {
 public:
  explicit CorruptOneOpening(int target = 0) : target_(target) {}

  void before_commit(std::uint64_t /*step*/,
                     std::vector<PartyShare>& triples) override {
    if (openings_++ != target_) {
      return;
    }
    for (auto& share : triples) {
      for (auto& value : share.primary.values()) value += 0x1234567;
      for (auto& value : share.duplicate.values()) value += 0x7654321;
      for (auto& value : share.second.values()) value += 0xabcdef;
    }
  }

 private:
  int target_;
  int openings_ = 0;
};

/// Runs the serving pattern at every party: open F = W − B once, then
/// two one-sided products against it.  Returns each party's opened F
/// and its raw (untruncated) product shares.
struct FixedOperandRun {
  std::array<RingTensor, 3> f;
  std::array<std::array<PartyShare, 3>, 2> products;  // [batch][party]
};

FixedOperandRun run_fixed_operand(ThreePartyHarness& harness,
                                  const std::array<PartyShare, 3>& w_views,
                                  const std::array<std::array<PartyShare, 3>,
                                                   2>& x_views,
                                  testing::PartyTriples& dealer) {
  FixedOperandRun run;
  harness.run([&](PartyContext& ctx) {
    const auto index = static_cast<std::size_t>(ctx.party);
    TripleStore& store = dealer[ctx.party];
    FixedOperand operand;
    operand.b = store.fixed_mask(kFixedSlot, kFixedVersion, 6, 4);
    operand.f = open_value(ctx, w_views[index] - operand.b);
    run.f[index] = operand.f;
    for (std::size_t b = 0; b < 2; ++b) {
      run.products[b][index] = sec_matmul_bt_fixed(
          ctx, x_views[b][index], operand,
          store.fixed_triple(kFixedSlot, kFixedVersion, 3, 6, 4));
    }
  });
  return run;
}

struct FixedOperandFixture {
  RingTensor w;
  std::array<RingTensor, 2> x;
  std::array<PartyShare, 3> w_views;
  std::array<std::array<PartyShare, 3>, 2> x_views;
  RingTensor mask;  // the dealer's plaintext B

  explicit FixedOperandFixture(std::uint64_t seed, std::uint64_t dealer_seed) {
    Rng rng(seed);
    w = to_ring(random_real(Shape{6, 4}, rng, 2.0), kF);
    w_views = share_secret(w, rng);
    for (std::size_t b = 0; b < 2; ++b) {
      x[b] = to_ring(random_real(Shape{3, 6}, rng, 2.0), kF);
      x_views[b] = share_secret(x[b], rng);
    }
    const auto views = deal_material(
        TripleKey::fixed_mask(kFixedSlot, kFixedVersion, 6, 4), 0, 1,
        dealer_seed, kF);
    mask = reconstruct(std::array<PartyShare, 3>{
        views[0].aux[0], views[1].aux[0], views[2].aux[0]});
  }
};

TEST(SecMatMulBtFixedTest, ProductsMatchPlaintextAndOpenOnlyTheInputMask) {
  ThreePartyHarness harness;
  FixedOperandFixture fixture(29, 888);
  testing::PartyTriples dealer(888, kF);
  const FixedOperandRun run =
      run_fixed_operand(harness, fixture.w_views, fixture.x_views, dealer);
  for (std::size_t party = 0; party < 3; ++party) {
    EXPECT_EQ(run.f[party], fixture.w - fixture.mask);
  }
  // Products are exact in the ring (no truncation applied here).
  for (std::size_t b = 0; b < 2; ++b) {
    EXPECT_EQ(reconstruct(run.products[b]), matmul(fixture.x[b], fixture.w))
        << "batch " << b;
  }
  // One opening for F, then one per product: each product opens only
  // E = x − a, never a weight-sized value.
  EXPECT_EQ(harness.contexts[0].detections.opens, 3u);
  EXPECT_EQ(harness.contexts[0].detections.values_opened, 3u);
}

class SecMatMulFixedByzantineTest : public ::testing::TestWithParam<int> {};

TEST_P(SecMatMulFixedByzantineTest, CorruptedShareOfFIsOutvoted) {
  const int byzantine = GetParam();
  ThreePartyHarness harness;
  CorruptOneOpening adversary;
  harness.contexts[static_cast<std::size_t>(byzantine)].adversary = &adversary;
  FixedOperandFixture fixture(30, 889);
  testing::PartyTriples dealer(889, kF);
  const FixedOperandRun run =
      run_fixed_operand(harness, fixture.w_views, fixture.x_views, dealer);

  for (int party = 0; party < 3; ++party) {
    if (party != byzantine) {
      EXPECT_EQ(run.f[static_cast<std::size_t>(party)],
                fixture.w - fixture.mask)
          << "honest party " << party << " adopted a corrupted F";
    }
  }
  // Honest products stay exact: the set whose both halves are held by
  // honest parties reconstructs x × W bit for bit.
  for (std::size_t b = 0; b < 2; ++b) {
    const RingTensor expected = matmul(fixture.x[b], fixture.w);
    for (int set = 0; set < kNumSets; ++set) {
      const int p1 = holder_of_primary(set);
      const int p2 = holder_of_second(set);
      if (p1 == byzantine || p2 == byzantine) {
        continue;
      }
      EXPECT_EQ(run.products[b][static_cast<std::size_t>(p1)].primary +
                    run.products[b][static_cast<std::size_t>(p2)].second,
                expected)
          << "batch " << b << " set " << set;
    }
  }
  for (int party = 0; party < 3; ++party) {
    if (party != byzantine) {
      EXPECT_GT(harness.contexts[static_cast<std::size_t>(party)]
                    .detections.events.size(),
                0u)
          << "party " << party << " saw no anomaly";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Parties, SecMatMulFixedByzantineTest,
                         ::testing::Values(0, 1, 2));

// --- One-sided conv product over fixed weights --------------------------

constexpr std::size_t kConvRows = 2;

/// Two channels, a 3x2 kernel, padding and stride: every im2col edge
/// case in a small product (W [3, 12], P = 3x3 output pixels).
ConvSpec fixed_conv() {
  ConvSpec conv;
  conv.in_channels = 2;
  conv.in_height = 5;
  conv.in_width = 4;
  conv.out_channels = 3;
  conv.kernel_h = 3;
  conv.kernel_w = 2;
  conv.pad = 1;
  conv.stride = 2;
  return conv;
}

struct FixedConvFixture {
  ConvSpec conv = fixed_conv();
  RingTensor w;
  std::array<RingTensor, 2> x;
  std::array<PartyShare, 3> w_views;
  std::array<std::array<PartyShare, 3>, 2> x_views;
  RingTensor mask;  // the dealer's plaintext B

  FixedConvFixture(std::uint64_t seed, std::uint64_t dealer_seed) {
    Rng rng(seed);
    w = to_ring(random_real(Shape{conv.out_channels, conv.col_rows()}, rng,
                            2.0),
                kF);
    w_views = share_secret(w, rng);
    for (std::size_t b = 0; b < 2; ++b) {
      x[b] = to_ring(random_real(Shape{kConvRows, conv.in_channels *
                                                      conv.in_height *
                                                      conv.in_width},
                                 rng, 2.0),
                     kF);
      x_views[b] = share_secret(x[b], rng);
    }
    const auto views = deal_material(
        TripleKey::fixed_mask(kFixedSlot, kFixedVersion, conv.out_channels,
                              conv.col_rows()),
        0, 1, dealer_seed, kF);
    mask = reconstruct(std::array<PartyShare, 3>{
        views[0].aux[0], views[1].aux[0], views[2].aux[0]});
  }

  RingTensor expected(std::size_t b) const {
    return matmul(w, batch_im2col(x[b], conv));
  }
};

/// The serving pattern for a conv layer at every party: open
/// F = W − B once, then two batches' one-sided products against it.
FixedOperandRun run_fixed_conv(ThreePartyHarness& harness,
                               const FixedConvFixture& fixture,
                               testing::PartyTriples& dealer) {
  FixedOperandRun run;
  const ConvSpec& conv = fixture.conv;
  harness.run([&](PartyContext& ctx) {
    const auto index = static_cast<std::size_t>(ctx.party);
    TripleStore& store = dealer[ctx.party];
    FixedOperand operand;
    operand.b = store.fixed_mask(kFixedSlot, kFixedVersion, conv.out_channels,
                                 conv.col_rows());
    operand.f = open_value(ctx, fixture.w_views[index] - operand.b);
    run.f[index] = operand.f;
    for (std::size_t b = 0; b < 2; ++b) {
      run.products[b][index] = sec_conv_bt_fixed(
          ctx, fixture.x_views[b][index], operand,
          store.fixed_conv_triple(kFixedSlot, kFixedVersion, kConvRows, conv),
          conv);
    }
  });
  return run;
}

TEST(SecConvBtFixedTest, ProductsMatchPlaintextAndOpenOnlyTheImageMask) {
  ThreePartyHarness harness;
  FixedConvFixture fixture(31, 890);
  testing::PartyTriples dealer(890, kF);
  const FixedOperandRun run = run_fixed_conv(harness, fixture, dealer);
  for (std::size_t party = 0; party < 3; ++party) {
    EXPECT_EQ(run.f[party], fixture.w - fixture.mask);
  }
  for (std::size_t b = 0; b < 2; ++b) {
    EXPECT_EQ(reconstruct(run.products[b]), fixture.expected(b))
        << "batch " << b;
  }
  // One opening for F, then one image-shaped E per product.
  EXPECT_EQ(harness.contexts[0].detections.opens, 3u);
  EXPECT_EQ(harness.contexts[0].detections.values_opened, 3u);
}

/// Parameter: the Byzantine party.
class SecConvFixedByzantineTest : public ::testing::TestWithParam<int> {
 protected:
  /// Runs the conv serving pattern with the Byzantine party corrupting
  /// its shares in opening `target`; honest parties must adopt the
  /// true F, reconstruct exact products and record the attack.
  void expect_outvoted(int target) {
    const int byzantine = GetParam();
    ThreePartyHarness harness;
    CorruptOneOpening adversary(target);
    harness.contexts[static_cast<std::size_t>(byzantine)].adversary =
        &adversary;
    FixedConvFixture fixture(32, 891);
    testing::PartyTriples dealer(891, kF);
    const FixedOperandRun run = run_fixed_conv(harness, fixture, dealer);

    for (int party = 0; party < 3; ++party) {
      if (party != byzantine) {
        EXPECT_EQ(run.f[static_cast<std::size_t>(party)],
                  fixture.w - fixture.mask)
            << "honest party " << party << " adopted a corrupted F";
        EXPECT_GT(harness.contexts[static_cast<std::size_t>(party)]
                      .detections.events.size(),
                  0u)
            << "party " << party << " saw no anomaly";
      }
    }
    for (std::size_t b = 0; b < 2; ++b) {
      for (int set = 0; set < kNumSets; ++set) {
        const int p1 = holder_of_primary(set);
        const int p2 = holder_of_second(set);
        if (p1 == byzantine || p2 == byzantine) {
          continue;
        }
        EXPECT_EQ(run.products[b][static_cast<std::size_t>(p1)].primary +
                      run.products[b][static_cast<std::size_t>(p2)].second,
                  fixture.expected(b))
            << "batch " << b << " set " << set;
      }
    }
  }
};

TEST_P(SecConvFixedByzantineTest, CorruptedShareOfFIsOutvoted) {
  expect_outvoted(/*target=*/0);
}

TEST_P(SecConvFixedByzantineTest, CorruptedShareOfEIsOutvoted) {
  expect_outvoted(/*target=*/1);
}

INSTANTIATE_TEST_SUITE_P(Parties, SecConvFixedByzantineTest,
                         ::testing::Values(0, 1, 2));

TEST(SecMulBtTest, ChainedMultiplicationsStayAccurate) {
  // x * y * w with re-truncation between steps: exercises triple reuse
  // ordering and accumulation of fixed-point error.
  ThreePartyHarness harness;
  Rng rng(27);
  const Shape shape{5};
  const RealTensor x = random_real(shape, rng, 2.0);
  const RealTensor y = random_real(shape, rng, 2.0);
  const RealTensor w = random_real(shape, rng, 2.0);
  const auto x_views = share_secret(to_ring(x, kF), rng);
  const auto y_views = share_secret(to_ring(y, kF), rng);
  const auto w_views = share_secret(to_ring(w, kF), rng);
  testing::PartyTriples dealer(321, kF);

  std::array<RealTensor, 3> results;
  harness.run([&](PartyContext& ctx) {
    const auto index = static_cast<std::size_t>(ctx.party);
    TripleStore& source = dealer[ctx.party];
    PartyShare xy = sec_mul_bt(ctx, x_views[index], y_views[index],
                               source.mul_triple(shape));
    xy = truncate_product_local(xy, kF);
    PartyShare xyw =
        sec_mul_bt(ctx, xy, w_views[index], source.mul_triple(shape));
    xyw = truncate_product_local(xyw, kF);
    results[index] = to_real(open_value(ctx, xyw), kF);
  });
  const RealTensor expected = hadamard(hadamard(x, y), w);
  for (const auto& result : results) {
    EXPECT_LT(max_abs_diff(result, expected), 1e-3);
  }
}

TEST(SecMulBtTest, HbcModeProducesSameResult) {
  ThreePartyHarness harness(SecurityMode::kHonestButCurious);
  MulFixture fixture(Shape{3, 3}, 28);
  std::array<RealTensor, 3> results;
  harness.run([&](PartyContext& ctx) {
    const auto index = static_cast<std::size_t>(ctx.party);
    TripleStore& source = (*fixture.dealer)[ctx.party];
    PartyShare z =
        sec_mul_bt(ctx, fixture.x_views[index], fixture.y_views[index],
                   source.mul_triple(Shape{3, 3}));
    z = truncate_product_local(z, kF);
    results[index] = to_real(open_value(ctx, z), kF);
  });
  const RealTensor expected = hadamard(fixture.x, fixture.y);
  for (const auto& result : results) {
    EXPECT_LT(max_abs_diff(result, expected), 1e-4);
  }
}

}  // namespace
}  // namespace trustddl::mpc
