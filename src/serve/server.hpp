// Party-side inference server: executes the model owner's batch
// manifests over one SecureModel.
//
// For each manifest the party collects the listed clients' input share
// triples, row-concatenates them into one coalesced batch, runs a
// single SecureModel::forward (one set of protocol rounds for the
// whole batch — the deferred-opening scheduler makes rounds nearly
// independent of row count), then slices the probability shares back
// per request and returns each client its rows.
//
// Degradation: a missing/garbled client input is substituted with a
// zero share after `ServeConfig::input_wait` — the party stays in
// lockstep and the client reconstructs its answer from the other two
// parties' result shares (2-of-3).  The fault knobs in ServerOptions
// exist for tests and CI: `corrupt_results` turns the party Byzantine
// at the serving edge, `max_batches` crashes it mid-service.
#pragma once

#include <cstdint>

#include "core/actors.hpp"
#include "core/secure_model.hpp"
#include "core/triple_pipeline.hpp"
#include "serve/batch_queue.hpp"
#include "serve/scheduler.hpp"

namespace trustddl::serve {

struct ServerOptions {
  ServeConfig serve;
  /// Byzantine fault injection: offset every result-share component so
  /// the share still parses but reconstructs wrong at this party —
  /// clients must out-vote it via robust reconstruction.
  bool corrupt_results = false;
  /// Crash fault injection: stop serving (without the polite owner
  /// stop) after this many executed batches; 0 = serve until shutdown.
  std::size_t max_batches = 0;
  /// How long a party waits for the model owner's dealer responses.
  /// The generous default covers multi-process slack; chaos harnesses
  /// shorten it so parties stranded by a killed owner exit promptly.
  std::chrono::milliseconds owner_link_timeout{60000};
};

class InferenceServer {
 public:
  /// `pipeline` is the party's offline/online preprocessing pipeline
  /// (DESIGN.md §10).  While waiting for the next manifest the server
  /// tops its store up instead of idling, and after each executed
  /// batch it raises the per-shape targets from the batch's demand
  /// (profiled from `spec`) so repeat batch sizes pop prefetched
  /// material.  Both must outlive run().  `model_version` is the
  /// owner's version of the served weights (serving_model_version); it
  /// keys the fixed-operand material.
  InferenceServer(int party, net::Endpoint endpoint, ServerOptions options,
                  core::TriplePipeline& pipeline, const nn::ModelSpec& spec,
                  std::uint64_t model_version);

  /// Open every dense and conv layer's fixed operand (one batched
  /// opening), then serve manifests until the owner's shutdown manifest
  /// (returns true) or the max_batches crash point (returns false).
  /// Leaves ctx.fixed pointing into this server.
  bool run(core::SecureModel& model, core::SecureExecContext& ctx);

  std::size_t batches_executed() const { return batches_; }

 private:
  int party_;
  net::Endpoint endpoint_;
  ServerOptions options_;
  std::size_t batches_ = 0;
  core::TriplePipeline& pipeline_;
  const nn::ModelSpec& spec_;
  std::uint64_t model_version_;
  core::FixedOperands fixed_;
};

/// Version of the weights an owner serves: a digest of `model`'s
/// fixed-point parameters keyed by the owner's dealing seed, so the
/// computing parties that receive it cannot test a guessed model
/// against it.  New weights get new fixed-operand masks (DESIGN.md
/// §9).
std::uint64_t serving_model_version(nn::Sequential& model, int frac_bits,
                                    std::uint64_t dealing_seed);

/// Full serving actor bodies, mirroring core/actors.hpp: identical
/// EngineConfig-derived seeds/contexts in-process and multi-process.

/// Computing party: receive parameter shares and the model version,
/// then serve batches.
/// Returns the party's detection log.  `batches_out`, if non-null,
/// receives the number of batches executed.
mpc::DetectionLog serve_computing_party_body(
    const nn::ModelSpec& spec, const core::EngineConfig& config,
    std::size_t param_count, int party, net::Endpoint endpoint,
    const ServerOptions& options, std::size_t* batches_out = nullptr);

/// Model owner: share parameters and the model version, then run the
/// owner service (unary/collective requests) and the batch scheduler
/// side by side until the parties stop.  `stats_out`, if non-null,
/// receives the scheduler's request ledger.
void serve_model_owner_body(const core::EngineConfig& config,
                            nn::Sequential& model, net::Endpoint endpoint,
                            const ServeConfig& serve_config, int num_clients,
                            SchedulerStats* stats_out = nullptr);

}  // namespace trustddl::serve
