#include "serve/harness.hpp"

#include <exception>
#include <thread>
#include <vector>

#include "common/stopwatch.hpp"
#include "core/metrics_export.hpp"
#include "net/network.hpp"
#include "obs/events.hpp"
#include "obs/trace.hpp"

namespace trustddl::serve {
namespace {

/// Serving-session cost report for the metrics export: traffic split
/// as in TrustDdlEngine::collect_cost (proxy = party<->party links,
/// owner = everything touching owners or clients), detection counters
/// summed over the party logs.
core::CostReport session_cost(const net::TrafficSnapshot& traffic,
                              double wall_seconds,
                              const std::array<mpc::DetectionLog, 3>& logs) {
  core::CostReport report;
  report.wall_seconds = wall_seconds;
  report.total_bytes = traffic.total_bytes;
  report.total_messages = traffic.total_messages;
  const auto actors = traffic.links.size();
  for (std::size_t i = 0; i < actors; ++i) {
    for (std::size_t j = 0; j < actors; ++j) {
      const auto bytes = traffic.links[i][j].bytes;
      if (i < core::kComputingParties && j < core::kComputingParties) {
        report.proxy_bytes += bytes;
      } else {
        report.owner_bytes += bytes;
      }
    }
  }
  for (const auto& log : logs) {
    report.commitment_violations +=
        log.count(mpc::DetectionEvent::Kind::kCommitmentViolation);
    report.distance_anomalies +=
        log.count(mpc::DetectionEvent::Kind::kDistanceAnomaly);
    report.share_auth_failures +=
        log.count(mpc::DetectionEvent::Kind::kShareAuthFailure);
    report.recovered_opens += log.recovered_opens;
  }
  report.opening_rounds = logs[0].opens;
  report.values_opened = logs[0].values_opened;
  return report;
}

}  // namespace

SessionResult run_serving_session(
    const SessionConfig& config,
    const std::function<void(int, InferenceClient&)>& client_body) {
  TRUSTDDL_REQUIRE(config.num_clients >= 1,
                   "serve: session needs at least one client");
  kernels::set_global_config(config.engine.kernels);
  if (!config.engine.metrics_out.empty()) {
    obs::set_metrics_enabled(true);
    obs::MetricsRegistry::global().reset();
    obs::EventLog::global().clear();
  }
  if (!config.engine.trace_out.empty()) {
    obs::Tracer::global().open(config.engine.trace_out);
  }

  net::NetworkConfig net_config;
  net_config.num_parties = core::kNumActors + config.num_clients;
  net_config.recv_timeout = config.engine.recv_timeout;
  net_config.emulate_latency = config.engine.emulate_latency;
  net_config.link_latency = config.engine.link_latency;
  net::Network network(net_config);

  // Same reference-model construction as TrustDdlEngine, so a serving
  // session evaluates exactly the model engine.infer() would.
  Rng model_rng(config.engine.seed);
  nn::Sequential model = nn::build_model(config.spec, model_rng);
  const std::size_t param_count = model.parameters().size();

  SessionResult result;
  std::array<mpc::DetectionLog, 3> detection_logs;

  std::vector<std::function<void()>> bodies;
  bodies.emplace_back([&] {
    serve_model_owner_body(config.engine, model,
                           network.endpoint(core::kModelOwner), config.serve,
                           config.num_clients, &result.scheduler);
  });
  for (int party = 0; party < core::kComputingParties; ++party) {
    bodies.emplace_back([&, party] {
      ServerOptions options;
      options.serve = config.serve;
      options.corrupt_results = party == config.corrupt_party;
      if (party == config.crash_party) {
        options.max_batches = config.crash_after_batches;
      }
      detection_logs[static_cast<std::size_t>(party)] =
          serve_computing_party_body(
              config.spec, config.engine, param_count, party,
              network.endpoint(party), options,
              &result.party_batches[static_cast<std::size_t>(party)]);
    });
  }
  for (int index = 0; index < config.num_clients; ++index) {
    bodies.emplace_back([&, index] {
      ClientOptions options = config.client;
      options.frac_bits = config.engine.frac_bits;
      options.dist_tolerance = config.engine.dist_tolerance;
      options.seed = config.client.seed * 1000003 + 17 *
                     static_cast<std::uint64_t>(index + 1);
      InferenceClient client(
          network.endpoint(kFirstClientId + index), options);
      client_body(index, client);
      client.stop();
    });
  }

  Stopwatch stopwatch;
  std::vector<std::exception_ptr> errors(bodies.size());
  std::vector<std::thread> threads;
  threads.reserve(bodies.size());
  for (std::size_t i = 0; i < bodies.size(); ++i) {
    threads.emplace_back([&, i] {
      try {
        bodies[i]();
      } catch (...) {
        errors[i] = std::current_exception();
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  result.wall_seconds = stopwatch.elapsed_seconds();
  result.traffic = network.traffic();

  for (const auto& error : errors) {
    if (error) {
      std::rethrow_exception(error);
    }
  }

  if (!config.engine.metrics_out.empty()) {
    core::write_metrics_export(
        config.engine.metrics_out, obs::MetricsRegistry::global().snapshot(),
        obs::EventLog::global().snapshot(), result.traffic,
        session_cost(result.traffic, result.wall_seconds, detection_logs));
  }
  if (!config.engine.trace_out.empty()) {
    obs::Tracer::global().close();
  }
  return result;
}

}  // namespace trustddl::serve
