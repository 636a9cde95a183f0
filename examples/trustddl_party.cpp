// trustddl_party: run one (or several) of TrustDDL's five actors as
// an OS process, communicating with its peers over real TCP sockets.
//
// Every process derives the model, the synthetic dataset and the batch
// schedule deterministically from --seed/--data-seed, so a multi-
// process deployment reconstructs exactly the outputs of the
// in-process engine, bit for bit.  The data owner can assert this with
// --check, which re-runs the same workload on the in-memory engine and
// compares results.
//
// Three-process secure inference on localhost:
//
//   ./build/examples/trustddl_party --party-ids 1 &
//   ./build/examples/trustddl_party --party-ids 2 &
//   ./build/examples/trustddl_party --party-ids 0,3,4 --check
//
// Flags:
//   --party-ids LIST     comma-separated actor ids hosted by this
//                        process (0-2 computing parties, 3 data owner,
//                        4 model owner); --party-id is an alias
//   --port-base N        party i listens on 127.0.0.1:(N+i)  [29500]
//   --peers LIST         explicit mesh: id=host:port,... for all 5 ids
//                        (overrides --port-base)
//   --listen HOST        bind host for hosted ids [host from the mesh]
//   --task infer|train|malicious-inference|serve   workload [infer];
//                        malicious-inference runs infer with computing
//                        party 1 mounting consistent-corruption attacks
//                        (Case 3) against every opening; serve runs the
//                        inference serving layer (parties 0-2 + model
//                        owner 4; clients attach via trustddl_client);
//                        train-serve runs the multi-owner robust
//                        training service (parties 0-2 + model owner 4
//                        as sequencer; data owners attach via
//                        trustddl_owner)
//   --clients N          serve: number of client actors [1]; clients
//                        occupy ids 5..5+N-1 and the data owner id 3
//                        is unused
//   --serve-max-batch N  serve: flush a batch at this many rows [8]
//   --serve-window-ms N  serve: max wait before a partial batch is
//                        flushed [20]
//   --serve-queue-cap N  serve: bounded-queue capacity; requests
//                        beyond it are rejected (backpressure) [64]
//   --serve-corrupt-results    serve: hosted computing parties return
//                        corrupted result shares (Byzantine serving-
//                        edge fault injection; clients must out-vote)
//   --owners N           train-serve: data-owner clients [3]; owners
//                        occupy ids 5..5+N-1 (data owner id 3 unused)
//   --aggregation R      train-serve: mean, trimmed-mean or median
//                        [trimmed-mean]
//   --trim N             train-serve: owners trimmed per side [1]
//   --quorum N           train-serve: min ready owners per round;
//                        0 = all owners (deterministic manifests) [0]
//   --rounds-per-epoch N train-serve: SGD rounds per epoch [4]
//   --max-rounds N       train-serve: suspend (checkpoint + exit)
//                        after N rounds; 0 = run to completion [0]
//   --round-window-ms N  train-serve: sequencer wait for more owners
//                        once quorum is met [50]
//   --input-wait-ms N    train-serve: party wait per owner minibatch
//                        before zero-share substitution [2000]
//   --momentum F         train-serve: SGD momentum [0]
//   --checkpoint-dir P   train-serve: TDCK checkpoint directory
//                        (parties + sequencer) for suspend/resume
//   --min-accuracy F     train-serve: exit 3 when the final epoch's
//                        test accuracy is below F
//   --submissions N      train-serve --check: per-owner lifetime
//                        submissions the owners were launched with [4]
//   --owner-batch-rows N train-serve --check: owners' minibatch rows
//                        per submission [8]
//   --metrics-out PATH   write the observability export (JSON, schema
//                        trustddl.metrics.v1: metrics registry,
//                        detection events, traffic matrix, cost) after
//                        the run; enables metrics collection
//   --trace-out PATH     write a protocol-phase trace (JSONL spans)
//   --fleet PATH         serve: read the pod's addresses from a fleet
//                        topology file (trustddl.fleet.v1 JSON; see
//                        src/fleet/topology.hpp and DESIGN.md §13);
//                        requires --pod and implies the pod accepts
//                        routed clients dynamically (clients may come
//                        and go; sends to departed clients are dropped
//                        rather than fatal)
//   --pod NAME           serve: which pod of the --fleet topology this
//                        process belongs to; also labels this pod's
//                        serve.* metrics, /healthz and trace meta
//   --admin-port N       live introspection endpoint on 127.0.0.1:N
//                        (0 picks an ephemeral port, printed at
//                        startup): GET /healthz, /metrics[?format=
//                        prometheus|pair], /events?n=K, /status — see
//                        DESIGN.md §12 and scripts/fleet_status.py
//   --triple-prefetch    offline/online split: prefetch preprocessing
//                        material into shape-keyed triple stores ahead
//                        of the online phase (DESIGN.md §10)
//   --triple-low-water F producer refill trigger as a fraction of each
//                        store's target depth [0.5]
//   --triple-store-dir PATH    persist/restore triple stores under
//                        this directory (per party and per mode;
//                        survives process restarts)
//   --mnist-dir PATH     load the real MNIST idx files from this
//                        directory (train/t10k images + labels);
//                        falls back to the synthetic substitute when
//                        absent or incomplete
//   --model mlp|cnn|tiny-cnn   architecture [mlp]
//   --images N           inference queries / test rows [12]
//   --rows N             training rows [64]
//   --batch N            batch size [4]
//   --epochs N           training epochs [1]
//   --lr F               learning rate [0.3]
//   --mode malicious|hbc security mode [malicious]
//   --batch-openings on|off    deferred-opening scheduler [on]
//   --seed N             model/protocol seed [1]
//   --data-seed N        synthetic-dataset seed [7]
//   --check              verify against an in-memory run (data owner
//                        for infer, model owner for train); exits 2 on
//                        mismatch
//   --connect-timeout-ms N     mesh rendezvous budget [10000]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/stopwatch.hpp"
#include "core/actors.hpp"
#include "core/engine.hpp"
#include "core/metrics_export.hpp"
#include "data/mnist_idx.hpp"
#include "data/synthetic_mnist.hpp"
#include "fleet/topology.hpp"
#include "net/tcp_transport.hpp"
#include "nn/loss.hpp"
#include "obs/admin_server.hpp"
#include "obs/events.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/server.hpp"
#include "serve/wire.hpp"
#include "train/harness.hpp"

using namespace trustddl;

namespace {

struct Options {
  std::vector<int> party_ids;
  std::string listen_host;  // empty: use the host from the mesh entry
  int port_base = 29500;
  std::string peers_text;          // raw --peers value (parsed after
                                   // --task/--clients are known)
  std::vector<std::string> peers;  // [actor id] -> host:port
  std::string task = "infer";
  int clients = 1;
  std::size_t serve_max_batch = 8;
  int serve_window_ms = 20;
  std::size_t serve_queue_cap = 64;
  bool serve_corrupt_results = false;
  int owners = 3;
  std::string aggregation = "trimmed-mean";
  std::size_t trim = 1;
  std::size_t quorum = 0;  // 0: all owners (deterministic manifests)
  std::size_t rounds_per_epoch = 4;
  std::size_t max_rounds = 0;
  int round_window_ms = 50;
  int input_wait_ms = 2000;
  double momentum = 0.0;
  std::string checkpoint_dir;
  double min_accuracy = -1.0;
  std::size_t submissions = 4;
  std::size_t owner_batch_rows = 8;
  std::string model = "mlp";
  std::size_t images = 12;
  std::size_t rows = 64;
  std::size_t batch = 4;
  std::size_t epochs = 1;
  double learning_rate = 0.3;
  std::string mode = "malicious";
  bool batch_openings = true;
  std::uint64_t seed = 1;
  std::uint64_t data_seed = 7;
  bool check = false;
  int connect_timeout_ms = 10000;
  std::string metrics_out;
  std::string trace_out;
  std::string fleet_file;  // --fleet topology path (serve only)
  std::string pod_name;    // --pod: this process's pod in the fleet
  bool fleet = false;      // fleet mode resolved (pod below is valid)
  fleet::PodSpec pod;
  int admin_port = -1;  // -1 = no admin endpoint; 0 = ephemeral
  bool triple_prefetch = false;
  double triple_low_water = 0.5;
  std::string triple_store_dir;
  std::string mnist_dir;
};

[[noreturn]] void usage_error(const std::string& reason) {
  std::fprintf(stderr, "trustddl_party: %s\n(see the header comment of "
               "examples/trustddl_party.cpp for flags)\n",
               reason.c_str());
  std::exit(64);
}

std::vector<int> parse_id_list(const std::string& text) {
  std::vector<int> ids;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = text.find(',', start);
    const std::string item =
        text.substr(start, comma == std::string::npos ? comma : comma - start);
    if (item.empty()) {
      usage_error("empty entry in id list '" + text + "'");
    }
    const int id = std::atoi(item.c_str());
    if (id < 0 || id >= core::kNumActors) {
      usage_error("party id out of range: " + item);
    }
    ids.push_back(id);
    if (comma == std::string::npos) {
      break;
    }
    start = comma + 1;
  }
  return ids;
}

/// "id=host:port,id=host:port,...": fills a vector indexed by actor
/// id.  Which ids must be present depends on the task (serve never
/// uses the data owner, and a party process never dials client slots),
/// so the caller validates completeness.
std::vector<std::string> parse_peer_list(const std::string& text,
                                         int num_actors) {
  std::vector<std::string> addresses(static_cast<std::size_t>(num_actors));
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = text.find(',', start);
    const std::string item =
        text.substr(start, comma == std::string::npos ? comma : comma - start);
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos) {
      usage_error("peer entry '" + item + "' is not id=host:port");
    }
    const int id = std::atoi(item.substr(0, eq).c_str());
    if (id < 0 || id >= num_actors) {
      usage_error("peer id out of range in '" + item + "'");
    }
    addresses[static_cast<std::size_t>(id)] = item.substr(eq + 1);
    if (comma == std::string::npos) {
      break;
    }
    start = comma + 1;
  }
  return addresses;
}

/// The single source of truth for workload names: validation and the
/// usage string both derive from this table, so adding a task cannot
/// leave the error message stale.
constexpr const char* kTaskNames[] = {"infer", "train", "malicious-inference",
                                      "serve", "train-serve"};

bool known_task(const std::string& task) {
  return std::any_of(std::begin(kTaskNames), std::end(kTaskNames),
                     [&](const char* name) { return task == name; });
}

std::string task_usage() {
  std::string text;
  const std::size_t count = std::size(kTaskNames);
  for (std::size_t i = 0; i < count; ++i) {
    if (i > 0) {
      text += i + 1 == count ? " or " : ", ";
    }
    text += kTaskNames[i];
  }
  return text;
}

Options parse_options(int argc, char** argv) {
  Options opt;
  bool clients_given = false;
  auto value = [&](int& i) -> std::string {
    if (i + 1 >= argc) {
      usage_error(std::string("missing value for ") + argv[i]);
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--party-ids" || arg == "--party-id") {
      opt.party_ids = parse_id_list(value(i));
    } else if (arg == "--port-base") {
      opt.port_base = std::atoi(value(i).c_str());
    } else if (arg == "--peers") {
      opt.peers_text = value(i);
    } else if (arg == "--clients") {
      opt.clients = std::atoi(value(i).c_str());
      clients_given = true;
    } else if (arg == "--serve-max-batch") {
      opt.serve_max_batch =
          static_cast<std::size_t>(std::atoll(value(i).c_str()));
    } else if (arg == "--serve-window-ms") {
      opt.serve_window_ms = std::atoi(value(i).c_str());
    } else if (arg == "--serve-queue-cap") {
      opt.serve_queue_cap =
          static_cast<std::size_t>(std::atoll(value(i).c_str()));
    } else if (arg == "--serve-corrupt-results") {
      opt.serve_corrupt_results = true;
    } else if (arg == "--owners") {
      opt.owners = std::atoi(value(i).c_str());
    } else if (arg == "--aggregation") {
      opt.aggregation = value(i);
    } else if (arg == "--trim") {
      opt.trim = static_cast<std::size_t>(std::atoll(value(i).c_str()));
    } else if (arg == "--quorum") {
      opt.quorum = static_cast<std::size_t>(std::atoll(value(i).c_str()));
    } else if (arg == "--rounds-per-epoch") {
      opt.rounds_per_epoch =
          static_cast<std::size_t>(std::atoll(value(i).c_str()));
    } else if (arg == "--max-rounds") {
      opt.max_rounds = static_cast<std::size_t>(std::atoll(value(i).c_str()));
    } else if (arg == "--round-window-ms") {
      opt.round_window_ms = std::atoi(value(i).c_str());
    } else if (arg == "--input-wait-ms") {
      opt.input_wait_ms = std::atoi(value(i).c_str());
    } else if (arg == "--momentum") {
      opt.momentum = std::atof(value(i).c_str());
    } else if (arg == "--checkpoint-dir") {
      opt.checkpoint_dir = value(i);
    } else if (arg == "--min-accuracy") {
      opt.min_accuracy = std::atof(value(i).c_str());
    } else if (arg == "--submissions") {
      opt.submissions = static_cast<std::size_t>(std::atoll(value(i).c_str()));
    } else if (arg == "--owner-batch-rows") {
      opt.owner_batch_rows =
          static_cast<std::size_t>(std::atoll(value(i).c_str()));
    } else if (arg == "--listen") {
      opt.listen_host = value(i);
    } else if (arg == "--task") {
      opt.task = value(i);
    } else if (arg == "--model") {
      opt.model = value(i);
    } else if (arg == "--images") {
      opt.images = static_cast<std::size_t>(std::atoll(value(i).c_str()));
    } else if (arg == "--rows") {
      opt.rows = static_cast<std::size_t>(std::atoll(value(i).c_str()));
    } else if (arg == "--batch") {
      opt.batch = static_cast<std::size_t>(std::atoll(value(i).c_str()));
    } else if (arg == "--epochs") {
      opt.epochs = static_cast<std::size_t>(std::atoll(value(i).c_str()));
    } else if (arg == "--lr") {
      opt.learning_rate = std::atof(value(i).c_str());
    } else if (arg == "--mode") {
      opt.mode = value(i);
    } else if (arg == "--batch-openings") {
      opt.batch_openings = value(i) == "on";
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value(i).c_str(), nullptr, 10);
    } else if (arg == "--data-seed") {
      opt.data_seed = std::strtoull(value(i).c_str(), nullptr, 10);
    } else if (arg == "--check") {
      opt.check = true;
    } else if (arg == "--connect-timeout-ms") {
      opt.connect_timeout_ms = std::atoi(value(i).c_str());
    } else if (arg == "--metrics-out") {
      opt.metrics_out = value(i);
    } else if (arg == "--trace-out") {
      opt.trace_out = value(i);
    } else if (arg == "--fleet") {
      opt.fleet_file = value(i);
    } else if (arg == "--pod") {
      opt.pod_name = value(i);
    } else if (arg == "--admin-port") {
      opt.admin_port = std::atoi(value(i).c_str());
    } else if (arg == "--triple-prefetch") {
      opt.triple_prefetch = true;
    } else if (arg == "--triple-low-water") {
      opt.triple_low_water = std::atof(value(i).c_str());
    } else if (arg == "--triple-store-dir") {
      opt.triple_store_dir = value(i);
    } else if (arg == "--mnist-dir") {
      opt.mnist_dir = value(i);
    } else {
      usage_error("unknown flag " + arg);
    }
  }
  if (opt.party_ids.empty()) {
    usage_error("--party-ids is required");
  }
  if (!known_task(opt.task)) {
    usage_error("--task must be " + task_usage());
  }
  if (opt.task == "malicious-inference" && opt.mode != "malicious") {
    usage_error("--task malicious-inference requires --mode malicious");
  }
  if (opt.mode != "malicious" && opt.mode != "hbc") {
    usage_error("--mode must be malicious or hbc");
  }
  if (opt.images < 1 || opt.rows < 1 || opt.batch < 1 || opt.epochs < 1) {
    usage_error("--images/--rows/--batch/--epochs must be >= 1");
  }
  if (opt.triple_low_water <= 0.0 || opt.triple_low_water > 1.0) {
    usage_error("--triple-low-water must be in (0, 1]");
  }
  const bool serving = opt.task == "serve";
  const bool train_serving = opt.task == "train-serve";
  if (serving) {
    if (opt.clients < 1) {
      usage_error("--clients must be >= 1");
    }
    if (opt.serve_max_batch < 1 || opt.serve_queue_cap < 1 ||
        opt.serve_window_ms < 0) {
      usage_error("--serve-max-batch/--serve-queue-cap must be >= 1 and "
                  "--serve-window-ms >= 0");
    }
  }
  if (train_serving) {
    if (opt.owners < 1) {
      usage_error("--owners must be >= 1");
    }
    if (opt.aggregation != "mean" && opt.aggregation != "trimmed-mean" &&
        opt.aggregation != "median") {
      usage_error("--aggregation must be mean, trimmed-mean or median");
    }
    if (opt.quorum > static_cast<std::size_t>(opt.owners)) {
      usage_error("--quorum must be <= --owners");
    }
    if (opt.rounds_per_epoch < 1 || opt.submissions < 1 ||
        opt.owner_batch_rows < 1) {
      usage_error("--rounds-per-epoch/--submissions/--owner-batch-rows "
                  "must be >= 1");
    }
  }
  if (serving || train_serving) {
    for (const int id : opt.party_ids) {
      if (id == core::kDataOwner) {
        usage_error("--task " + opt.task +
                    " has no data-owner actor (id 3)");
      }
    }
  }
  // Fleet mode: one topology file names every pod's addresses; the
  // pod's client count defaults to the file's `clients` so parties and
  // routed clients cannot disagree on the actor space.
  if (!opt.fleet_file.empty() || !opt.pod_name.empty()) {
    if (!serving) {
      usage_error("--fleet/--pod only apply to --task serve");
    }
    if (opt.fleet_file.empty() || opt.pod_name.empty()) {
      usage_error("--fleet and --pod must be given together");
    }
    try {
      const fleet::FleetTopology topology =
          fleet::load_topology(opt.fleet_file);
      opt.pod = topology.pods[topology.pod_index(opt.pod_name)];
      if (topology.clients > 0 && !clients_given) {
        opt.clients = topology.clients;
      }
    } catch (const Error& error) {
      usage_error(error.what());
    }
    opt.fleet = true;
  }
  // Peers are parsed only once the task is known: serving adds client
  // (or training data owner) actor ids and drops the single data owner
  // from the required set (the extra slots may also stay empty here —
  // a party process accepts those connections, it never dials them).
  const int num_actors =
      core::kNumActors +
      (serving ? opt.clients : train_serving ? opt.owners : 0);
  if (!opt.peers_text.empty()) {
    opt.peers = parse_peer_list(opt.peers_text, num_actors);
    for (int id = 0; id < core::kNumActors; ++id) {
      if ((serving || train_serving) && id == core::kDataOwner) {
        continue;
      }
      if (opt.peers[static_cast<std::size_t>(id)].empty()) {
        usage_error("--peers is missing actor id " + std::to_string(id));
      }
    }
  }
  return opt;
}

const char* role_name(int id) {
  switch (id) {
    case core::kDataOwner:
      return "data-owner";
    case core::kModelOwner:
      return "model-owner";
    default:
      return "computing-party";
  }
}

/// "computing-party-0,model-owner-4" — the /healthz role string for a
/// process hosting several actors.
std::string hosted_roles(const std::vector<int>& party_ids) {
  std::string roles;
  for (const int id : party_ids) {
    if (!roles.empty()) {
      roles += ",";
    }
    roles += std::string(role_name(id)) + "-" + std::to_string(id);
  }
  return roles;
}

/// Starts the live introspection endpoint when --admin-port was given.
/// The /metrics provider renders the same document write_process_export
/// emits at exit, over the live transports and a caller-held detection
/// log vector; `logs_mu` serializes the provider against the actor
/// bodies' end-of-run log assignments.
std::unique_ptr<obs::AdminServer> start_admin(
    const Options& opt,
    const std::vector<std::unique_ptr<net::TcpTransport>>& transports,
    const std::vector<mpc::DetectionLog>& party_logs, std::mutex& logs_mu,
    const Stopwatch& watch, int num_actors, int byzantine_party) {
  if (opt.admin_port < 0) {
    return nullptr;
  }
  obs::AdminOptions admin_options;
  admin_options.port = opt.admin_port;
  auto server = std::make_unique<obs::AdminServer>(admin_options);
  server->set_metrics_provider(
      [&transports, &party_logs, &logs_mu, &watch, num_actors,
       byzantine_party](const obs::MetricsSnapshot& snapshot) {
        const std::lock_guard<std::mutex> lock(logs_mu);
        return core::build_process_export_json(
            snapshot, transports, party_logs, watch.elapsed_seconds(),
            num_actors, byzantine_party);
      });
  server->start();
  obs::HealthState::global().set_identity(hosted_roles(opt.party_ids),
                                          opt.task);
  std::printf("admin endpoint on 127.0.0.1:%d\n", server->port());
  return server;
}

nn::ModelSpec spec_for(const std::string& name) {
  if (name == "mlp") {
    return nn::mnist_mlp_spec();
  }
  if (name == "cnn") {
    return nn::mnist_cnn_spec();
  }
  if (name == "tiny-cnn") {
    return nn::tiny_cnn_spec();
  }
  usage_error("--model must be mlp, cnn or tiny-cnn");
}

// --task serve: host any of parties 0-2 and the model owner.  Clients
// (ids >= serve::kFirstClientId) attach with trustddl_client; the data
// owner (id 3) does not participate.  The mesh is a subset mesh —
// parties and owner interconnect fully and accept client connections,
// but never dial client address slots.
int run_serve(const Options& opt, const core::EngineConfig& config,
              const nn::ModelSpec& spec, nn::Sequential& model,
              std::size_t param_count) {
  const int num_actors = core::kNumActors + opt.clients;

  std::vector<std::string> addresses = opt.peers;
  if (addresses.empty()) {
    for (int id = 0; id < num_actors; ++id) {
      addresses.push_back(opt.fleet
                              ? opt.pod.address_of(id)
                              : "127.0.0.1:" +
                                    std::to_string(opt.port_base + id));
    }
  }

  net::NetworkConfig net_config;
  net_config.num_parties = num_actors;
  net_config.connect.connect_timeout =
      std::chrono::milliseconds(opt.connect_timeout_ms);

  serve::ServeConfig serve_config;
  serve_config.max_batch_rows = opt.serve_max_batch;
  serve_config.batch_window = std::chrono::milliseconds(opt.serve_window_ms);
  serve_config.queue_capacity = opt.serve_queue_cap;

  try {
    std::vector<std::unique_ptr<net::TcpTransport>> transports;
    for (const int id : opt.party_ids) {
      std::string listen = addresses[static_cast<std::size_t>(id)];
      if (!opt.listen_host.empty()) {
        listen = opt.listen_host + ":" +
                 std::to_string(net::parse_address(listen).port);
      }
      std::printf("[party %d] %s listening on %s\n", id, role_name(id),
                  listen.c_str());
      transports.push_back(std::make_unique<net::TcpTransport>(
          static_cast<net::PartyId>(id), listen, net_config));
    }

    // Serving topology: party p links the other parties, the owner and
    // every client; the owner links the parties and every client.
    const auto peers_for = [&](int id) {
      std::vector<net::PartyId> peers;
      for (int p = 0; p < core::kComputingParties; ++p) {
        if (p != id) {
          peers.push_back(static_cast<net::PartyId>(p));
        }
      }
      if (id != core::kModelOwner) {
        peers.push_back(core::kModelOwner);
      }
      // Fleet pods do not rendezvous with clients: routed clients
      // attach (and re-attach after a failover) through the dynamic
      // acceptor below, so the pod comes up without waiting for them.
      if (!opt.fleet) {
        for (int c = 0; c < opt.clients; ++c) {
          peers.push_back(
              static_cast<net::PartyId>(serve::kFirstClientId + c));
        }
      }
      return peers;
    };
    {
      std::vector<std::thread> dialers;
      std::vector<std::exception_ptr> errors(transports.size());
      for (std::size_t i = 0; i < transports.size(); ++i) {
        dialers.emplace_back([&, i] {
          try {
            transports[i]->connect(
                addresses, peers_for(static_cast<int>(transports[i]->self())));
          } catch (...) {
            errors[i] = std::current_exception();
          }
        });
      }
      for (auto& dialer : dialers) {
        dialer.join();
      }
      for (const auto& error : errors) {
        if (error) {
          std::rethrow_exception(error);
        }
      }
    }
    if (opt.fleet) {
      for (auto& transport : transports) {
        transport->accept_dynamic_peers(
            static_cast<net::PartyId>(serve::kFirstClientId));
      }
      std::printf("serve mesh connected (pod %s, %zu local actor%s, "
                  "accepting %d routed client%s)\n",
                  opt.pod.name.c_str(), transports.size(),
                  transports.size() == 1 ? "" : "s", opt.clients,
                  opt.clients == 1 ? "" : "s");
    } else {
      std::printf("serve mesh connected (%zu local actor%s, %d client%s)\n",
                  transports.size(), transports.size() == 1 ? "" : "s",
                  opt.clients, opt.clients == 1 ? "" : "s");
    }

    std::vector<mpc::DetectionLog> party_logs(transports.size());
    std::mutex logs_mu;  // admin /metrics provider vs body assignments
    Stopwatch watch;
    const std::unique_ptr<obs::AdminServer> admin =
        start_admin(opt, transports, party_logs, logs_mu, watch, num_actors,
                    config.byzantine_party);
    std::vector<std::thread> bodies;
    std::vector<std::exception_ptr> errors(transports.size());
    for (std::size_t i = 0; i < transports.size(); ++i) {
      const int id = static_cast<int>(transports[i]->self());
      bodies.emplace_back([&, id, i] {
        try {
          net::Endpoint endpoint =
              transports[i]->endpoint(static_cast<net::PartyId>(id));
          if (id == core::kModelOwner) {
            serve::SchedulerStats stats;
            serve::serve_model_owner_body(config, model, endpoint,
                                          serve_config, opt.clients, &stats);
            std::printf(
                "[party %d] serve done: %llu admitted = %llu completed + "
                "%llu rejected + %llu deadline-missed (%llu batches, "
                "%llu rows)\n",
                id, static_cast<unsigned long long>(stats.admitted),
                static_cast<unsigned long long>(stats.completed),
                static_cast<unsigned long long>(stats.rejected),
                static_cast<unsigned long long>(stats.deadline_missed),
                static_cast<unsigned long long>(stats.batches),
                static_cast<unsigned long long>(stats.batched_rows));
          } else {
            serve::ServerOptions server_options;
            server_options.serve = serve_config;
            server_options.corrupt_results = opt.serve_corrupt_results;
            std::size_t batches = 0;
            mpc::DetectionLog log = serve::serve_computing_party_body(
                spec, config, param_count, id, endpoint, server_options,
                &batches);
            {
              const std::lock_guard<std::mutex> lock(logs_mu);
              party_logs[i] = std::move(log);
            }
            std::printf("[party %d] serve done: %zu batch%s executed\n", id,
                        batches, batches == 1 ? "" : "es");
          }
        } catch (...) {
          errors[i] = std::current_exception();
        }
      });
    }
    for (auto& body : bodies) {
      body.join();
    }
    for (std::size_t i = 0; i < transports.size(); ++i) {
      if (errors[i]) {
        std::rethrow_exception(errors[i]);
      }
    }

    core::print_process_traffic(transports);
    core::write_process_export(opt.metrics_out, transports, party_logs,
                               watch.elapsed_seconds(), num_actors,
                               config.byzantine_party);
    if (!opt.trace_out.empty()) {
      obs::Tracer::global().close();
    }
    if (admin) {
      admin->stop();
    }

    // Let in-flight frames from peers drain before tearing the
    // sockets down (a client's last result ack may still be in
    // transit).
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
    for (auto& transport : transports) {
      transport->shutdown();
    }
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "trustddl_party: %s\n", error.what());
    return 1;
  }
}

train::TrainConfig train_config_from(const Options& opt) {
  train::TrainConfig tc;
  tc.rule = opt.aggregation == "mean"     ? mpc::AggregationRule::kMean
            : opt.aggregation == "median" ? mpc::AggregationRule::kMedian
                                          : mpc::AggregationRule::kTrimmedMean;
  tc.trim = opt.trim;
  tc.quorum =
      opt.quorum == 0 ? static_cast<std::size_t>(opt.owners) : opt.quorum;
  tc.round_window = std::chrono::milliseconds(opt.round_window_ms);
  tc.input_wait = std::chrono::milliseconds(opt.input_wait_ms);
  tc.rounds_per_epoch = opt.rounds_per_epoch;
  tc.epochs = opt.epochs;
  tc.max_rounds = opt.max_rounds;
  tc.learning_rate = opt.learning_rate;
  tc.momentum = opt.momentum;
  tc.checkpoint_dir = opt.checkpoint_dir;
  return tc;
}

// --task train-serve: host any of parties 0-2 and the model owner
// (who doubles as the round sequencer).  Data owners (ids >=
// train::kFirstOwnerId) attach with trustddl_owner; the single-owner
// actor id 3 is unused.  Same subset mesh as serving: parties and the
// model owner interconnect fully and accept owner connections, but
// never dial owner address slots.
int run_train_serve(const Options& opt, const core::EngineConfig& config,
                    const nn::ModelSpec& spec, nn::Sequential& model,
                    std::size_t param_count) {
  const int num_actors = core::kNumActors + opt.owners;

  std::vector<std::string> addresses = opt.peers;
  if (addresses.empty()) {
    for (int id = 0; id < num_actors; ++id) {
      addresses.push_back("127.0.0.1:" + std::to_string(opt.port_base + id));
    }
  }

  net::NetworkConfig net_config;
  net_config.num_parties = num_actors;
  net_config.connect.connect_timeout =
      std::chrono::milliseconds(opt.connect_timeout_ms);

  const train::TrainConfig train_config = train_config_from(opt);

  // Only the test split is evaluated here (per-epoch accuracy at the
  // model owner); the training shards live with the owners.  The full
  // split is still derived with the owners' seeds so --check can
  // replay their exact data in memory.
  data::SyntheticMnistConfig data_config;
  data_config.train_count = opt.rows;
  data_config.test_count = opt.images;
  data_config.seed = opt.data_seed;
  const nn::InputGeometry geometry = nn::input_geometry(spec);
  data_config.height = geometry.height;
  data_config.width = geometry.width;
  data_config.classes = spec.classes;
  const auto split = data::load_mnist_or_synthetic(opt.mnist_dir, data_config);

  try {
    std::vector<std::unique_ptr<net::TcpTransport>> transports;
    for (const int id : opt.party_ids) {
      std::string listen = addresses[static_cast<std::size_t>(id)];
      if (!opt.listen_host.empty()) {
        listen = opt.listen_host + ":" +
                 std::to_string(net::parse_address(listen).port);
      }
      std::printf("[party %d] %s listening on %s\n", id, role_name(id),
                  listen.c_str());
      transports.push_back(std::make_unique<net::TcpTransport>(
          static_cast<net::PartyId>(id), listen, net_config));
    }

    const auto peers_for = [&](int id) {
      std::vector<net::PartyId> peers;
      for (int p = 0; p < core::kComputingParties; ++p) {
        if (p != id) {
          peers.push_back(static_cast<net::PartyId>(p));
        }
      }
      if (id != core::kModelOwner) {
        peers.push_back(core::kModelOwner);
      }
      for (int k = 0; k < opt.owners; ++k) {
        peers.push_back(static_cast<net::PartyId>(train::kFirstOwnerId + k));
      }
      return peers;
    };
    {
      std::vector<std::thread> dialers;
      std::vector<std::exception_ptr> errors(transports.size());
      for (std::size_t i = 0; i < transports.size(); ++i) {
        dialers.emplace_back([&, i] {
          try {
            transports[i]->connect(
                addresses, peers_for(static_cast<int>(transports[i]->self())));
          } catch (...) {
            errors[i] = std::current_exception();
          }
        });
      }
      for (auto& dialer : dialers) {
        dialer.join();
      }
      for (const auto& error : errors) {
        if (error) {
          std::rethrow_exception(error);
        }
      }
    }
    std::printf("train mesh connected (%zu local actor%s, %d owner%s)\n",
                transports.size(), transports.size() == 1 ? "" : "s",
                opt.owners, opt.owners == 1 ? "" : "s");

    std::vector<mpc::DetectionLog> party_logs(transports.size());
    std::mutex logs_mu;  // admin /metrics provider vs body assignments
    train::SequencerStats stats;
    std::map<std::string, RingTensor> revealed;
    Stopwatch watch;
    const std::unique_ptr<obs::AdminServer> admin =
        start_admin(opt, transports, party_logs, logs_mu, watch, num_actors,
                    config.byzantine_party);
    std::vector<std::thread> bodies;
    std::vector<std::exception_ptr> errors(transports.size());
    for (std::size_t i = 0; i < transports.size(); ++i) {
      const int id = static_cast<int>(transports[i]->self());
      bodies.emplace_back([&, id, i] {
        try {
          net::Endpoint endpoint =
              transports[i]->endpoint(static_cast<net::PartyId>(id));
          if (id == core::kModelOwner) {
            train::train_service_owner_body(config, model, endpoint,
                                            train_config, opt.owners, &stats,
                                            &revealed);
            std::printf(
                "[party %d] train done: %llu rounds, %llu admitted = "
                "%llu consumed + %llu discarded, %llu dropped owner "
                "slots%s\n",
                id, static_cast<unsigned long long>(stats.rounds),
                static_cast<unsigned long long>(stats.admitted),
                static_cast<unsigned long long>(stats.consumed),
                static_cast<unsigned long long>(stats.discarded),
                static_cast<unsigned long long>(stats.dropped_owner_slots),
                stats.suspended ? " (suspended)" : "");
          } else {
            bool clean = true;
            std::uint64_t rounds = 0;
            mpc::DetectionLog log = train::train_service_party_body(
                spec, config, param_count, id, endpoint, train_config, &clean,
                &rounds);
            {
              const std::lock_guard<std::mutex> lock(logs_mu);
              party_logs[i] = std::move(log);
            }
            std::printf("[party %d] train done: %llu round%s executed%s\n",
                        id, static_cast<unsigned long long>(rounds),
                        rounds == 1 ? "" : "s",
                        clean ? "" : " (suspended)");
          }
        } catch (...) {
          errors[i] = std::current_exception();
        }
      });
    }
    for (auto& body : bodies) {
      body.join();
    }
    for (std::size_t i = 0; i < transports.size(); ++i) {
      if (errors[i]) {
        std::rethrow_exception(errors[i]);
      }
    }

    core::print_process_traffic(transports);
    core::write_process_export(opt.metrics_out, transports, party_logs,
                               watch.elapsed_seconds(), num_actors,
                               config.byzantine_party);
    if (!opt.trace_out.empty()) {
      obs::Tracer::global().close();
    }
    if (admin) {
      admin->stop();
    }

    int exit_code = 0;
    const bool hosts_model_owner =
        std::count(opt.party_ids.begin(), opt.party_ids.end(),
                   static_cast<int>(core::kModelOwner)) > 0;
    if (hosts_model_owner) {
      std::vector<double> accuracies;
      for (std::size_t epoch = 0; epoch < opt.epochs; ++epoch) {
        if (!train::apply_revealed_weights(revealed, epoch, param_count,
                                           config.frac_bits, model)) {
          std::printf("[party %d] epoch %zu: weights not revealed\n",
                      core::kModelOwner, epoch);
          continue;
        }
        accuracies.push_back(
            model.accuracy(split.test.images, split.test.labels));
        std::printf("[party %d] epoch %zu test accuracy: %.4f\n",
                    core::kModelOwner, epoch, accuracies.back());
      }
      if (!stats.suspended && opt.min_accuracy >= 0.0) {
        const bool pass =
            !accuracies.empty() && accuracies.back() >= opt.min_accuracy;
        std::printf("min-accuracy check: %s (%.4f vs %.4f)\n",
                    pass ? "PASS" : "FAIL",
                    accuracies.empty() ? 0.0 : accuracies.back(),
                    opt.min_accuracy);
        if (!pass) {
          exit_code = 3;
        }
      }
      if (!stats.suspended && opt.check) {
        // Reference: the in-memory harness over the same seeds and
        // honest owners.  The revealed epoch weights must match BIT
        // FOR BIT — the TCP deployment runs the same SPMD bodies.
        train::TrainSessionConfig session;
        session.spec = spec;
        session.engine = config;
        session.engine.triple_store_dir.clear();
        session.engine.metrics_out.clear();
        session.train = train_config;
        session.train.checkpoint_dir.clear();
        session.train.max_rounds = 0;
        session.num_owners = opt.owners;
        session.submissions_per_owner = opt.submissions;
        session.owner_batch_rows = opt.owner_batch_rows;
        session.dataset = split.train;
        const train::TrainSessionResult expected =
            train::run_training_session(session);
        const bool match = expected.revealed == revealed;
        std::printf("train check: %s (in-memory harness, same seeds)\n",
                    match ? "MATCH" : "MISMATCH");
        if (!match) {
          exit_code = 2;
        }
      }
    }

    // Let in-flight frames from peers drain before tearing the
    // sockets down (an owner's last stop notice may still be in
    // transit).
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
    for (auto& transport : transports) {
      transport->shutdown();
    }
    return exit_code;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "trustddl_party: %s\n", error.what());
    return 1;
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);

  // --- Deterministic shared state: every process derives the same
  // configuration, model and batch schedule from the flags alone.
  core::EngineConfig config;
  config.mode = opt.mode == "hbc" ? mpc::SecurityMode::kHonestButCurious
                                  : mpc::SecurityMode::kMalicious;
  config.batch_openings = opt.batch_openings;
  config.seed = opt.seed;
  config.triple_prefetch = opt.triple_prefetch;
  config.triple_low_water = opt.triple_low_water;
  config.triple_store_dir = opt.triple_store_dir;
  // Processes start at different times; give the model owner's
  // collective ops more slack than the in-process default.
  config.collect_timeout = std::chrono::milliseconds(2000);

  const bool malicious_task = opt.task == "malicious-inference";
  if (malicious_task) {
    // Computing party 1 mounts consistent-corruption (Case 3) attacks:
    // commitment-consistent but corrupted shares, caught by share-copy
    // authentication at each honest observer (one attributable
    // share_auth_failure per attacked opening).  Masked-open rescaling
    // is mandatory under an active adversary — share-local truncation
    // would let the honest parties' states drift apart (DESIGN.md §4).
    config.byzantine_party = 1;
    config.byzantine.behavior =
        mpc::ByzantineConfig::Behavior::kConsistentCorruption;
    config.trunc_mode = mpc::TruncationMode::kMaskedOpen;
  }
  if (opt.task == "train-serve") {
    // The aggregation rescale and checkpoint/resume both need value-
    // exact truncation: under masked-open every opened value is a pure
    // function of the inputs and the dealt material, so a resumed
    // session replays bit-identically (DESIGN.md §11).
    config.trunc_mode = mpc::TruncationMode::kMaskedOpen;
  }

  // Pod identity must be set before the tracer opens (the trace meta
  // record carries it) and before the admin server answers /healthz:
  // it is what lets fleet-wide roll-ups attribute every sample,
  // span and health probe to its serving pod.
  if (opt.fleet) {
    obs::HealthState::global().set_pod(opt.pod.name);
  }
  // Telemetry: arm the sinks before any actor runs so every span,
  // counter and detection event of this process's actors is captured.
  if (!opt.metrics_out.empty()) {
    obs::set_metrics_enabled(true);
    obs::MetricsRegistry::global().reset();
  }
  if (!opt.trace_out.empty()) {
    obs::Tracer::global().open(opt.trace_out);
  }
  if (!opt.metrics_out.empty() || !opt.trace_out.empty()) {
    obs::EventLog::global().clear();
  }

  const nn::ModelSpec spec = spec_for(opt.model);
  Rng model_rng(config.seed);
  nn::Sequential model = nn::build_model(spec, model_rng);
  const std::size_t param_count = model.parameters().size();

  if (opt.task == "serve") {
    // The serving workload has no dataset or jobs of its own — clients
    // bring the inputs.  It gets its own driver with the larger actor
    // space and subset-mesh rendezvous.
    return run_serve(opt, config, spec, model, param_count);
  }
  if (opt.task == "train-serve") {
    return run_train_serve(opt, config, spec, model, param_count);
  }

  data::SyntheticMnistConfig data_config;
  data_config.train_count = opt.rows;
  data_config.test_count = opt.images;
  data_config.seed = opt.data_seed;
  // Synthetic-data geometry follows the model (--model tiny-cnn means
  // 12x12 4-class images); real MNIST idx files are 28x28/10 and only
  // fit the mlp/cnn specs.
  const nn::InputGeometry geometry = nn::input_geometry(spec);
  data_config.height = geometry.height;
  data_config.width = geometry.width;
  data_config.classes = spec.classes;
  const auto split =
      data::load_mnist_or_synthetic(opt.mnist_dir, data_config);
  if (!opt.mnist_dir.empty() && !data::mnist_files_present(opt.mnist_dir)) {
    std::fprintf(stderr,
                 "trustddl_party: %s is missing MNIST idx files; using the "
                 "synthetic substitute\n",
                 opt.mnist_dir.c_str());
  }
  const data::Dataset sample =
      data::slice(split.test, 0, std::min(opt.images, split.test.size()));

  core::TrainOptions train_options;
  train_options.epochs = opt.epochs;
  train_options.batch_size = opt.batch;
  train_options.learning_rate = opt.learning_rate;

  const bool training = opt.task == "train";
  std::unique_ptr<core::InferJob> infer_job;
  std::unique_ptr<core::TrainJob> train_job;
  if (training) {
    train_job = std::make_unique<core::TrainJob>(core::make_train_job(
        spec, config, train_options, split.train, param_count));
  } else {
    infer_job = std::make_unique<core::InferJob>(
        core::make_infer_job(spec, config, param_count, sample, opt.batch));
  }

  // --- Mesh addresses: explicit --peers, or 127.0.0.1:(base+id).
  std::vector<std::string> addresses = opt.peers;
  if (addresses.empty()) {
    for (int id = 0; id < core::kNumActors; ++id) {
      addresses.push_back("127.0.0.1:" +
                          std::to_string(opt.port_base + id));
    }
  }

  net::NetworkConfig net_config;
  net_config.num_parties = core::kNumActors;
  net_config.connect.connect_timeout =
      std::chrono::milliseconds(opt.connect_timeout_ms);

  try {
    // Bind every hosted id before dialing anyone, then rendezvous
    // concurrently: each connect() blocks until that id's mesh is up.
    std::vector<std::unique_ptr<net::TcpTransport>> transports;
    for (const int id : opt.party_ids) {
      std::string listen = addresses[static_cast<std::size_t>(id)];
      if (!opt.listen_host.empty()) {
        listen = opt.listen_host + ":" +
                 std::to_string(net::parse_address(listen).port);
      }
      std::printf("[party %d] %s listening on %s\n", id, role_name(id),
                  listen.c_str());
      transports.push_back(std::make_unique<net::TcpTransport>(
          static_cast<net::PartyId>(id), listen, net_config));
    }
    {
      std::vector<std::thread> dialers;
      std::vector<std::exception_ptr> errors(transports.size());
      for (std::size_t i = 0; i < transports.size(); ++i) {
        dialers.emplace_back([&, i] {
          try {
            transports[i]->connect(addresses);
          } catch (...) {
            errors[i] = std::current_exception();
          }
        });
      }
      for (auto& dialer : dialers) {
        dialer.join();
      }
      for (const auto& error : errors) {
        if (error) {
          std::rethrow_exception(error);
        }
      }
    }
    std::printf("mesh connected (%zu local actor%s)\n", transports.size(),
                transports.size() == 1 ? "" : "s");

    // --- Run the hosted actor bodies, one thread per id.
    std::unique_ptr<core::ModelOwnerService> service;
    for (const auto& transport : transports) {
      if (transport->self() == core::kModelOwner) {
        service = std::make_unique<core::ModelOwnerService>(
            transport->endpoint(core::kModelOwner),
            core::make_owner_service_config(config, training));
      }
    }

    // Protocol-level adversary for the hosted Byzantine party (if
    // any); make_party_context attaches it only at that party.
    std::unique_ptr<mpc::StandardAdversary> adversary;
    if (config.byzantine_party >= 0) {
      adversary = std::make_unique<mpc::StandardAdversary>(config.byzantine);
    }

    std::vector<mpc::DetectionLog> party_logs(transports.size());
    std::mutex logs_mu;  // admin /metrics provider vs body assignments
    Stopwatch watch;
    const std::unique_ptr<obs::AdminServer> admin =
        start_admin(opt, transports, party_logs, logs_mu, watch,
                    core::kNumActors, config.byzantine_party);

    std::vector<std::size_t> labels;
    std::vector<std::thread> bodies;
    std::vector<std::exception_ptr> errors(transports.size());
    for (std::size_t i = 0; i < transports.size(); ++i) {
      const int id = static_cast<int>(transports[i]->self());
      bodies.emplace_back([&, id, i] {
        try {
          net::Endpoint endpoint =
              transports[i]->endpoint(static_cast<net::PartyId>(id));
          if (id == core::kModelOwner) {
            if (training) {
              core::train_model_owner_body(*train_job, endpoint, model,
                                           *service);
            } else {
              core::infer_model_owner_body(*infer_job, endpoint, model,
                                           *service);
            }
          } else if (id == core::kDataOwner) {
            if (training) {
              core::train_data_owner_body(*train_job, endpoint);
            } else {
              labels = core::infer_data_owner_body(*infer_job, endpoint);
            }
          } else {
            const mpc::DetectionLog log =
                training ? core::train_computing_party_body(
                               *train_job, id, endpoint, adversary.get())
                         : core::infer_computing_party_body(
                               *infer_job, id, endpoint, adversary.get());
            std::printf("[party %d] done: %llu opening rounds, %zu "
                        "anomalies detected\n",
                        id, static_cast<unsigned long long>(log.opens),
                        log.events.size());
            {
              const std::lock_guard<std::mutex> lock(logs_mu);
              party_logs[i] = log;
            }
          }
        } catch (...) {
          errors[i] = std::current_exception();
        }
      });
    }
    for (auto& body : bodies) {
      body.join();
    }
    for (std::size_t i = 0; i < transports.size(); ++i) {
      if (errors[i]) {
        std::rethrow_exception(errors[i]);
      }
    }

    core::print_process_traffic(transports);
    core::write_process_export(opt.metrics_out, transports, party_logs,
                               watch.elapsed_seconds(), core::kNumActors,
                               config.byzantine_party);
    if (!opt.trace_out.empty()) {
      obs::Tracer::global().close();
    }
    if (admin) {
      admin->stop();
    }

    int exit_code = 0;
    const bool hosts_data_owner =
        std::count(opt.party_ids.begin(), opt.party_ids.end(),
                   static_cast<int>(core::kDataOwner)) > 0;
    const bool hosts_model_owner =
        std::count(opt.party_ids.begin(), opt.party_ids.end(),
                   static_cast<int>(core::kModelOwner)) > 0;

    if (!training && hosts_data_owner) {
      std::printf("[party %d] predicted labels:", core::kDataOwner);
      for (std::size_t i = 0; i < labels.size() && i < 24; ++i) {
        std::printf(" %zu", labels[i]);
      }
      std::printf("%s\n", labels.size() > 24 ? " ..." : "");
      if (opt.check) {
        // The reference engine must not touch the multi-process store
        // files: it spawns its own in-memory parties whose stream
        // cursors start at 0, while a restored store resumes mid-
        // stream.  Dealing stays bit-identical either way.
        core::EngineConfig check_config = config;
        check_config.triple_store_dir.clear();
        core::TrustDdlEngine engine(spec, check_config);
        const core::InferResult expected = engine.infer(sample, opt.batch);
        const bool match = expected.labels == labels;
        std::printf("check: %s (in-memory engine, same seeds)\n",
                    match ? "MATCH" : "MISMATCH");
        if (!match) {
          exit_code = 2;
        }
      }
    }

    if (training && hosts_model_owner) {
      // Apply the robustly reconstructed weights per epoch and report
      // test accuracy, exactly as TrustDdlEngine::train does.
      std::vector<double> accuracies;
      const auto parameters = model.parameters();
      for (std::size_t epoch = 0; epoch < opt.epochs; ++epoch) {
        bool complete = true;
        for (std::size_t p = 0; p < parameters.size(); ++p) {
          const auto it =
              service->revealed().find(core::reveal_key(epoch, p));
          if (it == service->revealed().end()) {
            complete = false;
            break;
          }
          parameters[p]->value = to_real(it->second, config.frac_bits);
        }
        if (!complete) {
          std::printf("[party %d] epoch %zu: weights not revealed\n",
                      core::kModelOwner, epoch);
          continue;
        }
        accuracies.push_back(
            model.accuracy(split.test.images, split.test.labels));
        std::printf("[party %d] epoch %zu test accuracy: %.4f\n",
                    core::kModelOwner, epoch, accuracies.back());
      }
      if (opt.check) {
        core::EngineConfig check_config = config;
        check_config.triple_store_dir.clear();
        core::TrustDdlEngine engine(spec, check_config);
        const core::TrainResult expected =
            engine.train(split.train, split.test, train_options);
        const bool match = expected.epoch_test_accuracy == accuracies;
        std::printf("check: %s (in-memory engine, same seeds)\n",
                    match ? "MATCH" : "MISMATCH");
        if (!match) {
          exit_code = 2;
        }
      }
    }

    // Let in-flight frames from peers drain before tearing the
    // sockets down (a peer's last stop/ack may still be in transit).
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
    for (auto& transport : transports) {
      transport->shutdown();
    }
    return exit_code;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "trustddl_party: %s\n", error.what());
    return 1;
  }
}
