#include "serve/server.hpp"

#include <exception>
#include <thread>
#include <utility>
#include <vector>

#include "common/logging.hpp"
#include "common/sha256.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/wire.hpp"

namespace trustddl::serve {
namespace {

constexpr const char* kLog = "serve.server";

/// Generous bound for the next manifest: the owner may legitimately be
/// idle while no client has anything to ask.
constexpr auto kManifestTimeout = std::chrono::seconds(60);

/// Sent after the parameter shares: the served model's version.
constexpr const char* kModelVersionTag = "init/version";
constexpr auto kModelVersionTimeout = std::chrono::seconds(60);

/// Byzantine result corruption: a constant offset on every component —
/// the share frame stays well-formed, the reconstructed value is junk.
mpc::PartyShare corrupted(const mpc::PartyShare& share) {
  return mpc::transform_share(share, [](const RingTensor& component) {
    RingTensor out = component;
    for (auto& value : out.values()) {
      value += 0x517e57ab1e0ddba1ULL;
    }
    return out;
  });
}

}  // namespace

InferenceServer::InferenceServer(int party, net::Endpoint endpoint,
                                 ServerOptions options,
                                 core::TriplePipeline& pipeline,
                                 const nn::ModelSpec& spec,
                                 std::uint64_t model_version)
    : party_(party),
      endpoint_(endpoint),
      options_(std::move(options)),
      pipeline_(pipeline),
      spec_(spec),
      model_version_(model_version) {}

bool InferenceServer::run(core::SecureModel& model,
                          core::SecureExecContext& ctx) {
  // The weights never change while serving, so every dense and conv
  // layer's F = W − B is opened once, here, and each batch then opens
  // only its input's mask (DESIGN.md §9).
  fixed_ = model.open_fixed_operands(ctx, model_version_);
  ctx.fixed = &fixed_;
  for (std::uint64_t index = 0;; ++index) {
    // Poll for the next manifest, spending idle gaps on triple-store
    // refills (the serving variant of the offline phase): with
    // prefetch on, the wait between batches becomes productive
    // preprocessing time instead of a blocking recv.
    Bytes manifest_bytes;
    const auto manifest_deadline =
        std::chrono::steady_clock::now() + kManifestTimeout;
    while (!endpoint_.try_recv(core::kModelOwner, manifest_tag(index),
                               manifest_bytes)) {
      if (std::chrono::steady_clock::now() > manifest_deadline) {
        throw TimeoutError("serve: no manifest " + std::to_string(index));
      }
      if (pipeline_.refill_once() == 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    }
    const BatchManifest manifest = decode_manifest(manifest_bytes);
    if (manifest.shutdown) {
      return true;
    }
    TRUSTDDL_REQUIRE(!manifest.entries.empty(), "serve: empty manifest");

    // Correlation scope first (so it outlives the span's destructor):
    // every protocol span this thread emits while executing the batch
    // carries the sequencer-minted id, joining the three parties' work
    // to the owner's dispatch record.
    const obs::CorrelationScope corr(
        "batch:" + std::to_string(manifest.trace_id));
    obs::trace_instant("serve.manifest", party_, index,
                       "\"trace_id\": " + std::to_string(manifest.trace_id) +
                           ", \"entries\": " +
                           std::to_string(manifest.entries.size()));
    obs::HealthState::global().note_progress("serve.last_batch", index);
    obs::ScopedSpan span("serve.batch", party_, index);
    std::vector<mpc::PartyShare> inputs;
    inputs.reserve(manifest.entries.size());
    for (const auto& entry : manifest.entries) {
      const Shape expected{entry.rows, spec_.input_features};
      mpc::PartyShare share = mpc::zero_share(expected);
      try {
        share = decode_share(endpoint_.recv(entry.client,
                                            input_tag(entry.seq),
                                            options_.serve.input_wait));
        TRUSTDDL_REQUIRE(share.shape() == expected,
                         "serve: input share shape mismatch");
      } catch (const Error& error) {
        // Missing or malformed input: stay in lockstep with a zero
        // share; the client's robust 2-of-3 reconstruction covers the
        // gap at this party.
        share = mpc::zero_share(expected);
        obs::count("serve.party.input_substituted");
        TRUSTDDL_LOG_WARN(kLog)
            << "party " << party_ << " batch " << index
            << ": substituting zero input for client " << entry.client
            << " seq " << entry.seq << " (" << error.what() << ")";
      }
      inputs.push_back(std::move(share));
    }

    const mpc::PartyShare probabilities =
        model.forward(ctx, concat_rows(inputs));

    std::size_t offset = 0;
    for (const auto& entry : manifest.entries) {
      mpc::PartyShare result =
          slice_rows(probabilities, offset, entry.rows);
      offset += entry.rows;
      if (options_.corrupt_results) {
        result = corrupted(result);
      }
      endpoint_.send(entry.client, result_tag(entry.seq),
                     encode_share(result));
    }
    ++batches_;
    obs::count("serve.party.batches");
    // Adaptive steady-state planning: the first manifest of a given
    // row count pays the on-demand miss cost; raising the targets to
    // two steps' worth lets later same-size batches pop prefetched
    // entries filled during the idle poll above.
    std::size_t total_rows = 0;
    for (const auto& entry : manifest.entries) {
      total_rows += entry.rows;
    }
    pipeline_.plan_step(spec_, total_rows, 2, model_version_);

    if (options_.max_batches != 0 && batches_ >= options_.max_batches) {
      TRUSTDDL_LOG_WARN(kLog) << "party " << party_
                              << " crashing after batch " << index
                              << " (fault injection)";
      return false;
    }
  }
}

mpc::DetectionLog serve_computing_party_body(
    const nn::ModelSpec& spec, const core::EngineConfig& config,
    std::size_t param_count, int party, net::Endpoint endpoint,
    const ServerOptions& options, std::size_t* batches_out) {
  core::OwnerLink link(endpoint, party, options.owner_link_timeout);
  core::SecureModel model(spec,
                          core::receive_parameters(endpoint, param_count));
  ByteReader version_reader(
      endpoint.recv(core::kModelOwner, kModelVersionTag, kModelVersionTimeout));
  const std::uint64_t model_version = version_reader.read_u64();

  // Serving uses the idle-poll refill inside InferenceServer::run
  // rather than a producer thread: the gaps between manifests are the
  // natural offline phase, and a restarted party restores whatever the
  // previous incarnation persisted.
  core::TriplePipeline pipeline(config, link, party, /*training=*/false);
  mpc::PartyContext pctx = core::make_party_context(config, party, endpoint);
  core::SecureExecContext sctx =
      core::make_exec_context(config, pctx, link, pipeline.store());
  InferenceServer server(party, endpoint, options, pipeline, spec,
                         model_version);
  const bool clean = server.run(model, sctx);
  if (batches_out != nullptr) {
    *batches_out = server.batches_executed();
  }
  pipeline.shutdown();  // persist the store before the link closes
  if (clean) {
    link.stop();
  }
  return pctx.detections;
}

std::uint64_t serving_model_version(nn::Sequential& model, int frac_bits,
                                    std::uint64_t dealing_seed) {
  Sha256 hasher;
  ByteWriter key;
  key.write_u64(dealing_seed);
  hasher.update(key.bytes());
  for (const nn::Parameter* parameter : model.parameters()) {
    const RingTensor ring = to_ring(parameter->value, frac_bits);
    hasher.update(reinterpret_cast<const std::uint8_t*>(ring.data()),
                  ring.size() * sizeof(std::uint64_t));
  }
  const Sha256Digest digest = hasher.finish();
  std::uint64_t version = 0;
  for (std::size_t i = 0; i < sizeof(version); ++i) {
    version = (version << 8) | digest[i];
  }
  return version;
}

void serve_model_owner_body(const core::EngineConfig& config,
                            nn::Sequential& model, net::Endpoint endpoint,
                            const ServeConfig& serve_config, int num_clients,
                            SchedulerStats* stats_out) {
  const core::OwnerServiceConfig owner_config =
      core::make_owner_service_config(config, /*training=*/false);
  // Same parameter-sharing seed derivation as one-shot inference, so a
  // serving deployment distributes bit-identical parameter shares.
  Rng rng(config.seed * 59 + 29);
  core::share_parameters(model, endpoint, config.frac_bits, rng);
  ByteWriter version;
  version.write_u64(
      serving_model_version(model, config.frac_bits, owner_config.seed));
  for (int party = 0; party < core::kComputingParties; ++party) {
    endpoint.send(party, kModelVersionTag, version.bytes());
  }

  core::ModelOwnerService service(endpoint, owner_config);
  std::exception_ptr service_error;
  std::thread service_thread([&] {
    try {
      service.run();
    } catch (...) {
      service_error = std::current_exception();
    }
  });

  BatchScheduler scheduler(endpoint, serve_config, num_clients);
  try {
    scheduler.run();
  } catch (...) {
    service.request_stop();
    service_thread.join();
    throw;
  }
  if (serve_config.max_batches != 0) {
    // Chaos crash: the whole owner process vanishes — do not wait for
    // party stops that crashed parties will never send.
    service.request_stop();
  }
  service_thread.join();
  if (stats_out != nullptr) {
    *stats_out = scheduler.stats();
  }
  if (service_error) {
    std::rethrow_exception(service_error);
  }
}

}  // namespace trustddl::serve
