// Offline/online preprocessing pipeline (DESIGN.md §10).
//
// Ties the pieces of the offline phase together for one computing
// party:
//
//  * a demand profiler that walks a ModelSpec and counts exactly which
//    (kind, shape) material a forward/backward/sgd step consumes —
//    the same arithmetic the Secure* layers perform, so a warm store
//    holds precisely what the online phase will pop;
//  * the party's TripleStore over its backend (the OwnerLink), with
//    optional disk persistence (material survives restarts);
//  * warm() — the synchronous offline phase — and a background
//    producer thread that keeps stores above the low-water mark while
//    the online phase runs.
//
// The store is the online phase's only source of material.  With
// prefetch off nothing refills it, so every pop misses and fetches one
// entry from the backend: the synchronous dealing path, bit-identical
// to the prefetched one (both consume each per-key stream in order
// from index 0).
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "mpc/robust_aggregate.hpp"
#include "mpc/triple_store.hpp"
#include "nn/model_zoo.hpp"

namespace trustddl::core {

/// Aggregated material requirement: entry count per stream key.
struct DemandPlan {
  std::vector<std::pair<mpc::TripleKey, std::size_t>> counts;

  /// Add `count` entries of `key` (merging with an existing line).
  void add(const mpc::TripleKey& key, std::size_t count);
  void merge(const DemandPlan& other);
  bool empty() const { return counts.empty(); }
  std::size_t total() const;
};

/// Material one training/inference step consumes for a batch of
/// `batch_rows` samples: forward pass always; backward + SGD update
/// when `training`.  Truncation pairs appear only in kMaskedOpen mode
/// (local truncation consumes no material).  With `fixed_version`
/// (serving over fixed operands opened under that model version) dense
/// and conv forwards take kFixedTriple / kFixedConvTriple entries
/// instead of matmul triples.
/// Mirrors the consumption sites in secure_model.cpp layer by layer.
DemandPlan profile_step_demand(
    const nn::ModelSpec& spec, std::size_t batch_rows,
    TruncationMode trunc_mode, bool training,
    std::optional<std::uint64_t> fixed_version = std::nullopt);

/// Demand for a whole job: one step per entry of `batch_rows` (batches
/// may differ in size — the trailing partial batch gets its own shape
/// classes).
DemandPlan profile_job_demand(const nn::ModelSpec& spec,
                              const std::vector<std::size_t>& batch_rows,
                              TruncationMode trunc_mode, bool training);

/// Material one multi-owner training round consumes: per owner a full
/// forward/backward step on that owner's minibatch plus the masked
/// rescale of its normalized logit gradient, then per parameter the
/// comparison and truncation demand of the robust aggregation (see
/// mpc::aggregate_demand) and the optional momentum rescale.  Slightly
/// over-counts the per-round SGD truncation pairs (once per owner
/// instead of once per round) — a deliberate overshoot: store targets
/// are maxima, and surplus prefetched entries persist for later
/// rounds.
DemandPlan profile_train_round_demand(
    const nn::ModelSpec& spec, const std::vector<std::size_t>& owner_rows,
    TruncationMode trunc_mode, const mpc::AggregateOptions& aggregation,
    bool momentum);

class TriplePipeline {
 public:
  /// Builds the party's store over `backend` and restores a persisted
  /// store for this party/role if one exists under triple_store_dir.
  TriplePipeline(const EngineConfig& config, mpc::TripleBackend& backend,
                 int party, bool training);
  ~TriplePipeline();

  TriplePipeline(const TriplePipeline&) = delete;
  TriplePipeline& operator=(const TriplePipeline&) = delete;

  /// What the online phase consumes from.
  mpc::TripleStore& store() { return store_; }

  /// Raise per-key targets from a demand plan (each capped at
  /// EngineConfig::triple_max_depth).
  void plan(const DemandPlan& plan);

  /// Convenience for serving: plan `depth_factor` steps' worth of
  /// demand for a batch of `rows` over the fixed operands of
  /// `model_version` (adaptive steady-state planning — the first
  /// manifest of a size pays the miss cost, later ones pop prefetched
  /// entries).
  void plan_step(const nn::ModelSpec& spec, std::size_t rows,
                 std::size_t depth_factor, std::uint64_t model_version);

  /// Synchronous offline phase: refill every store to target.  Returns
  /// entries fetched.  No-op when prefetch is off.
  std::size_t warm();

  /// One bounded refill pass (for idle loops).  Returns entries added;
  /// 0 when prefetch is off.
  std::size_t refill_once();

  /// Start the background producer (refills keys below the low-water
  /// mark).  No-op when prefetch is off.
  void start();

  /// Stop the producer and persist the store if a store dir is
  /// configured.  Idempotent; also runs from the destructor.
  void shutdown();

  /// Provenance tag for persisted stores: ties a file to the dealing
  /// seed and fixed-point format of this run.
  static std::uint64_t store_provenance(const EngineConfig& config,
                                        bool training);

  /// Path of this party's persisted store under `dir`.
  static std::string store_path(const std::string& dir, int party,
                                bool training);

 private:
  void producer_loop();

  EngineConfig config_;
  int party_;
  bool training_;
  mpc::TripleStore store_;
  std::thread producer_;
  std::atomic<bool> stop_{false};
  bool shut_down_ = false;
};

}  // namespace trustddl::core
