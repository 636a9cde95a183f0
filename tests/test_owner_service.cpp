// Model-owner service (core/owner_service.hpp): triple-dealing
// consistency, collective Softmax/reveal handling, straggler and
// garbage tolerance, shutdown semantics.
#include "core/owner_service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "core/actors.hpp"
#include "core/owner_link.hpp"
#include "mpc/triple_store.hpp"
#include "mpc/robust_reconstruct.hpp"
#include "net/runtime.hpp"
#include "nn/layers.hpp"
#include "test_util.hpp"

namespace trustddl::core {
namespace {

using testing::random_real;

constexpr int kF = fx::kDefaultFracBits;

struct ServiceHarness {
  net::Network network;
  ModelOwnerService service;
  std::thread thread;

  explicit ServiceHarness(std::chrono::milliseconds collect =
                              std::chrono::milliseconds(300))
      : network(net::NetworkConfig{.num_parties = kNumActors,
                                   .recv_timeout =
                                       std::chrono::milliseconds(2000)}),
        service(network.endpoint(kModelOwner), [&] {
          OwnerServiceConfig config;
          config.frac_bits = kF;
          config.collect_timeout = collect;
          return config;
        }()) {
    thread = std::thread([this] { service.run(); });
  }

  /// Wait for the service loop to finish (call before asserting on
  /// service state; the destructor joins too if not already joined).
  void join() {
    if (thread.joinable()) {
      thread.join();
    }
  }

  ~ServiceHarness() { join(); }
};

TEST(OwnerServiceTest, DealsConsistentTriplesToAllParties) {
  ServiceHarness harness;
  std::array<mpc::BeaverTripleShare, 3> triples;
  net::run_parties(3, [&](net::PartyId party) {
    OwnerLink link(harness.network.endpoint(party), party);
    mpc::TripleStore store(link, party);
    triples[static_cast<std::size_t>(party)] = store.matmul_triple(2, 3, 2);
    link.stop();
  });
  // The dealt views must reconstruct a consistent triple: c == a x b.
  const auto reconstruct = [&](auto member) {
    std::array<mpc::PartyShare, 3> views = {member(triples[0]),
                                            member(triples[1]),
                                            member(triples[2])};
    return mpc::reconstruct(views);
  };
  const RingTensor a =
      reconstruct([](const mpc::BeaverTripleShare& t) { return t.a; });
  const RingTensor b =
      reconstruct([](const mpc::BeaverTripleShare& t) { return t.b; });
  const RingTensor c =
      reconstruct([](const mpc::BeaverTripleShare& t) { return t.c; });
  EXPECT_EQ(matmul(a, b), c);
}

TEST(OwnerServiceTest, TrainingOwnerRefusesFixedOperandMaterial) {
  net::Network network(net::NetworkConfig{
      .num_parties = kNumActors,
      .recv_timeout = std::chrono::milliseconds(2000)});
  ModelOwnerService service(
      network.endpoint(kModelOwner),
      make_owner_service_config(EngineConfig{}, /*training=*/true));
  std::thread thread([&] { service.run(); });
  net::run_parties(3, [&](net::PartyId party) {
    OwnerLink link(network.endpoint(party), party);
    mpc::TripleStore store(link, party);
    EXPECT_THROW((void)store.fixed_mask(1, 7, 4, 2), MaterialRefused);
    EXPECT_THROW((void)store.fixed_triple(1, 7, 2, 4, 2), MaterialRefused);
    ConvSpec conv;
    conv.in_height = 4;
    conv.in_width = 4;
    conv.kernel_h = 3;
    conv.kernel_w = 3;
    EXPECT_THROW((void)store.fixed_conv_triple(0, 7, 2, conv),
                 MaterialRefused);
    // Per-multiplication triples still flow.
    EXPECT_EQ(store.matmul_triple(2, 3, 2).a.shape(), (Shape{2, 3}));
    link.stop();
  });
  thread.join();
}

TEST(OwnerServiceTest, RejectsCraftedConvKeysAndKeepsServing) {
  // A party controls the key it sends.  Each crafted conv key below is
  // rejected before anything is sized from it (no response, so the
  // link times out), and the owner keeps dealing valid material.
  ConvSpec conv;
  conv.in_height = 8;
  conv.in_width = 8;
  conv.kernel_h = 3;
  conv.kernel_w = 3;
  std::vector<mpc::TripleKey> crafted;
  for (const auto& [dim, value] :
       std::vector<std::pair<std::size_t, std::size_t>>{
           {10, 0},                       // stride 0
           {7, 11},                       // kernel over the padded input
           {3, 0},                        // zero channels
           {2, std::size_t{1} << 62}}) {  // rows·C·H·W overflows
    mpc::TripleKey key = mpc::TripleKey::fixed_conv_triple(0, 7, 2, conv);
    key.dims[dim] = value;
    crafted.push_back(key);
  }
  // One output pixel of a 1×1 image padded by 2^15, under a (2^16+1)²
  // kernel: every size check passes, but dealing it would build a
  // 2^32-value mask, so the fill bound refuses it.
  ConvSpec padded;
  padded.in_height = 1;
  padded.in_width = 1;
  padded.kernel_h = (std::size_t{1} << 16) + 1;
  padded.kernel_w = padded.kernel_h;
  padded.pad = std::size_t{1} << 15;
  crafted.push_back(mpc::TripleKey::fixed_conv_triple(0, 7, 1, padded));

  ServiceHarness harness;
  std::atomic<bool> done{false};
  net::run_parties(3, [&](net::PartyId party) {
    OwnerLink link(harness.network.endpoint(party), party,
                   std::chrono::milliseconds(200));
    if (party == 0) {
      for (const mpc::TripleKey& key : crafted) {
        EXPECT_THROW((void)link.fill(key, 0, 1), TimeoutError);
      }
      EXPECT_EQ(link.fill(mpc::TripleKey::matmul(2, 3, 2), 0, 1).count(),
                1u);
      done.store(true);
    }
    // Two stops would start the owner's shutdown grace window early.
    while (!done.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    link.stop();
  });
  harness.join();
  EXPECT_EQ(harness.service.fills_served(), 1u);
}

TEST(OwnerServiceTest, SoftmaxCollectiveMatchesPlaintext) {
  ServiceHarness harness;
  Rng rng(1);
  const RealTensor logits = random_real(Shape{2, 5}, rng, 3.0);
  const auto views = mpc::share_secret(to_ring(logits, kF), rng);

  std::array<mpc::PartyShare, 3> p_views;
  net::run_parties(3, [&](net::PartyId party) {
    OwnerLink link(harness.network.endpoint(party), party);
    p_views[static_cast<std::size_t>(party)] =
        link.softmax_forward(views[static_cast<std::size_t>(party)]);
    link.stop();
  });
  const RealTensor probabilities =
      to_real(mpc::reconstruct(p_views), kF);
  EXPECT_LT(max_abs_diff(probabilities, nn::softmax_rows(logits)), 1e-4);
}

TEST(OwnerServiceTest, SoftmaxToleratesOneGarbageSender) {
  ServiceHarness harness;
  Rng rng(2);
  const RealTensor logits = random_real(Shape{1, 4}, rng, 2.0);
  auto views = mpc::share_secret(to_ring(logits, kF), rng);
  // Party 2 sends garbage shares to the owner.
  for (std::size_t i = 0; i < views[2].second.size(); ++i) {
    views[2].second[i] += (1ull << 50) + i;
  }
  std::array<mpc::PartyShare, 3> p_views;
  net::run_parties(3, [&](net::PartyId party) {
    OwnerLink link(harness.network.endpoint(party), party);
    p_views[static_cast<std::size_t>(party)] =
        link.softmax_forward(views[static_cast<std::size_t>(party)]);
    link.stop();
  });
  const RealTensor probabilities = to_real(mpc::reconstruct(p_views), kF);
  EXPECT_LT(max_abs_diff(probabilities, nn::softmax_rows(logits)), 1e-4);
  EXPECT_GE(harness.service.reconstruction_anomalies(), 1u);
}

TEST(OwnerServiceTest, RevealStoredUnderKey) {
  Rng rng(3);
  const RealTensor secret = random_real(Shape{3}, rng, 5.0);
  const auto views = mpc::share_secret(to_ring(secret, kF), rng);
  ServiceHarness harness;
  net::run_parties(3, [&](net::PartyId party) {
    OwnerLink link(harness.network.endpoint(party), party);
    link.reveal("weights/final", views[static_cast<std::size_t>(party)]);
    link.stop();
  });
  harness.join();  // the service must have drained the reveal group
  const auto it = harness.service.revealed().find("weights/final");
  ASSERT_NE(it, harness.service.revealed().end());
  EXPECT_LT(max_abs_diff(to_real(it->second, kF), secret), 1e-5);
}

TEST(OwnerServiceTest, ShutsDownWithTwoStopsAndSilentThirdParty) {
  ServiceHarness harness(std::chrono::milliseconds(150));
  net::run_parties(2, [&](net::PartyId party) {
    OwnerLink link(harness.network.endpoint(party), party);
    mpc::TripleStore store(link, party);
    (void)store.mul_triple(Shape{2});
    link.stop();
  });
  // The harness destructor joins; reaching here without hanging IS the
  // assertion (party 2 never spoke).
  SUCCEED();
}

TEST(OwnerServiceTest, StragglerServedFromProcessedGroupCache) {
  ServiceHarness harness(std::chrono::milliseconds(100));
  Rng rng(4);
  const RealTensor logits = random_real(Shape{1, 3}, rng, 1.0);
  const auto views = mpc::share_secret(to_ring(logits, kF), rng);

  // Parties 0 and 1 delay their stop until the straggler is served, so
  // the scenario isolates the group cache rather than the shutdown
  // grace window.
  std::atomic<int> finished{0};
  std::array<mpc::PartyShare, 3> p_views;
  net::run_parties(3, [&](net::PartyId party) {
    if (party == 2) {
      // Arrive after the collect deadline: the group is processed with
      // two members, and the straggler must still get its cached view.
      std::this_thread::sleep_for(std::chrono::milliseconds(400));
    }
    OwnerLink link(harness.network.endpoint(party), party);
    p_views[static_cast<std::size_t>(party)] =
        link.softmax_forward(views[static_cast<std::size_t>(party)]);
    finished.fetch_add(1);
    while (finished.load() < 3) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    link.stop();
  });
  const RealTensor probabilities = to_real(mpc::reconstruct(p_views), kF);
  EXPECT_LT(max_abs_diff(probabilities, nn::softmax_rows(logits)), 1e-3);
}

}  // namespace
}  // namespace trustddl::core
