#include "mpc/open.hpp"

#include <algorithm>
#include <array>
#include <optional>

#include "common/logging.hpp"
#include "common/sha256.hpp"
#include "mpc/adversary.hpp"
#include "numeric/kernels.hpp"
#include "numeric/serde.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace trustddl::mpc {
namespace {

constexpr const char* kLog = "mpc.open";

/// Serialize a vector of share triples for the wire / the commitment.
Bytes serialize_triples(const std::vector<PartyShare>& triples,
                        bool include_duplicate) {
  ByteWriter writer;
  writer.write_u64(triples.size());
  for (const auto& triple : triples) {
    write_tensor(writer, triple.primary);
    if (include_duplicate) {
      write_tensor(writer, triple.duplicate);
    }
    write_tensor(writer, triple.second);
  }
  return writer.take();
}

std::vector<PartyShare> deserialize_triples(const Bytes& data,
                                            bool include_duplicate) {
  ByteReader reader(data);
  const std::uint64_t count = reader.read_u64();
  if (count > 1024) {
    throw SerializationError("triple vector too large");
  }
  std::vector<PartyShare> triples(count);
  for (auto& triple : triples) {
    triple.primary = read_tensor(reader);
    if (include_duplicate) {
      triple.duplicate = read_tensor(reader);
    }
    triple.second = read_tensor(reader);
  }
  return triples;
}

Sha256Digest commitment_digest(std::uint64_t step, int sender,
                               const Bytes& payload) {
  Sha256 hasher;
  ByteWriter header;
  header.write_u64(step);
  header.write_u8(static_cast<std::uint8_t>(sender));
  hasher.update(header.bytes());
  hasher.update(payload);
  return hasher.finish();
}

/// Elementwise median of the signed interpretations of the candidate
/// reconstructions — the guaranteed-output-delivery fallback.
RingTensor elementwise_median(const std::vector<const RingTensor*>& candidates) {
  TRUSTDDL_ASSERT(!candidates.empty());
  RingTensor out(candidates[0]->shape());
  // Each element's median is independent — chunks own disjoint output
  // ranges (and their own scratch), so the result is exact at any
  // thread count.
  kernels::parallel_for(out.size(), 2048, [&](std::size_t lo,
                                              std::size_t hi) {
    std::vector<std::int64_t> scratch(candidates.size());
    for (std::size_t e = lo; e < hi; ++e) {
      for (std::size_t c = 0; c < candidates.size(); ++c) {
        scratch[c] = static_cast<std::int64_t>((*candidates[c])[e]);
      }
      std::nth_element(scratch.begin(),
                       scratch.begin() + static_cast<std::ptrdiff_t>(
                                             scratch.size() / 2),
                       scratch.end());
      out[e] = static_cast<std::uint64_t>(scratch[scratch.size() / 2]);
    }
  });
  return out;
}

struct ReceivedTriples {
  bool present = false;
  std::vector<PartyShare> triples;
};

/// A Byzantine party can send structurally bogus data (wrong count,
/// wrong shapes); that must invalidate its contribution, not crash the
/// honest party.
bool triples_compatible(const std::vector<PartyShare>& received,
                        const std::vector<PartyShare>& reference,
                        bool include_duplicate) {
  if (received.size() != reference.size()) {
    return false;
  }
  for (std::size_t v = 0; v < received.size(); ++v) {
    if (received[v].primary.shape() != reference[v].primary.shape() ||
        received[v].second.shape() != reference[v].second.shape()) {
      return false;
    }
    if (include_duplicate &&
        received[v].duplicate.shape() != reference[v].duplicate.shape()) {
      return false;
    }
  }
  return true;
}

/// HbC / crash-fault opening: one exchange of (share-1, share-2)
/// pairs, then the elementwise median of the available set
/// reconstructions.  In crash-fault mode (SafeML-style) a heartbeat
/// acknowledgement round precedes the exchange and receive timeouts
/// are tolerated: a silent party costs two sets, but exactly one set
/// is always held entirely by the surviving parties.
std::vector<RingTensor> open_hbc(PartyContext& ctx,
                                 const std::vector<PartyShare>& values) {
  const bool crash_fault = ctx.mode == SecurityMode::kCrashFault;
  const std::uint64_t step = ctx.next_step();
  const auto peers = peers_of(ctx.party);
  const Bytes wire = serialize_triples(values, /*include_duplicate=*/false);
  const std::string share_tag = ctx.tag(step, "s");

  if (crash_fault) {
    // Heartbeat/ack round: parties confirm liveness before the
    // exchange (SafeML's crash-detection handshake).
    obs::ScopedSpan heartbeat_span("open.heartbeat", ctx.party, step);
    const std::string ack_tag = ctx.tag(step, "hb");
    for (int peer : peers) {
      ctx.endpoint.send(peer, ack_tag, Bytes{1});
    }
    for (int peer : peers) {
      if (ctx.peer_excluded(peer)) {
        continue;
      }
      try {
        (void)ctx.endpoint.recv(peer, ack_tag);
      } catch (const TimeoutError&) {
        ctx.detections.record(DetectionEvent::Kind::kMissingMessage, step,
                              peer, "heartbeat", "reconstruct_remaining");
      }
    }
  }

  std::array<ReceivedTriples, kNumParties> from;
  from[static_cast<std::size_t>(ctx.party)].present = true;
  from[static_cast<std::size_t>(ctx.party)].triples = values;
  {
    obs::ScopedSpan exchange_span("open.exchange", ctx.party, step);
    for (int peer : peers) {
      ctx.endpoint.send(peer, share_tag, wire);
    }
    for (int peer : peers) {
      auto& slot = from[static_cast<std::size_t>(peer)];
      if (crash_fault && ctx.peer_excluded(peer)) {
        ctx.detections.record(DetectionEvent::Kind::kMissingMessage, step,
                              peer, "exchange", "reconstruct_remaining");
        continue;
      }
      try {
        const Bytes payload = ctx.endpoint.recv(peer, share_tag);
        slot.triples =
            deserialize_triples(payload, /*include_duplicate=*/false);
        if (!triples_compatible(slot.triples, values,
                                /*include_duplicate=*/false)) {
          throw ProtocolError("open (HbC): malformed shares from party " +
                              std::to_string(peer));
        }
        slot.present = true;
        ctx.note_peer_ok(peer);
      } catch (const TimeoutError&) {
        if (!crash_fault) {
          throw;
        }
        ctx.note_peer_miss(peer);
        ctx.detections.record(DetectionEvent::Kind::kMissingMessage, step,
                              peer, "exchange", "reconstruct_remaining");
        TRUSTDDL_LOG_WARN(kLog)
            << "party " << ctx.party << ": party " << peer
            << " silent at step " << step
            << " — reconstructing from remaining sets";
      }
    }
  }

  ctx.detections.opens += 1;
  ctx.detections.values_opened += values.size();
  obs::ScopedSpan reconstruct_span("open.reconstruct", ctx.party, step);
  std::vector<RingTensor> opened;
  opened.reserve(values.size());
  for (std::size_t v = 0; v < values.size(); ++v) {
    std::array<RingTensor, kNumSets> sets;
    std::vector<const RingTensor*> available;
    for (int set = 0; set < kNumSets; ++set) {
      const auto& provider1 =
          from[static_cast<std::size_t>(holder_of_primary(set))];
      const auto& provider2 =
          from[static_cast<std::size_t>(holder_of_second(set))];
      if (!provider1.present || !provider2.present) {
        continue;
      }
      sets[static_cast<std::size_t>(set)] =
          provider1.triples[v].primary + provider2.triples[v].second;
      available.push_back(&sets[static_cast<std::size_t>(set)]);
    }
    if (available.empty()) {
      throw ProtocolError("open (HbC): no reconstructible set");
    }
    opened.push_back(elementwise_median(available));
  }
  return opened;
}

/// Which reconstructions peer `a` can corrupt, from any observer's
/// point of view: its primary feeds s^a, its duplicate feeds ŝ^{a+1},
/// its second feeds both s^{a+2} and ŝ^{a+2}.
bool corruptible_by(int peer, int set, bool hat) {
  if (!hat) {
    return set == peer || set == (peer + 2) % kNumSets;
  }
  return set == (peer + 1) % kNumSets || set == (peer + 2) % kNumSets;
}

/// Shared tail of the malicious-mode openings: share-copy
/// authentication, the six reconstructions, the minimum-distance
/// decision rule and the guaranteed-delivery fallback.  `from` holds
/// the full triples received (own at ctx.party), `provider_valid`
/// carries the commitment-check results.
std::vector<RingTensor> decide_from_triples(
    PartyContext& ctx, const std::vector<PartyShare>& values,
    const std::array<ReceivedTriples, kNumParties>& from,
    std::array<bool, kNumParties>& provider_valid, std::uint64_t step,
    const std::vector<std::size_t>& group_sizes) {
  obs::ScopedSpan decide_span("open.decide", ctx.party, step);
  const auto peers = peers_of(ctx.party);
  // --- Share-copy cross-authentication (hardening beyond the paper;
  // see DESIGN.md §4).  Each share-1 value exists in two copies held
  // by different parties, and the observer itself holds two of them:
  //   * peer (i+1)'s primary duplicates the observer's `duplicate`
  //   * peer (i+2)'s duplicate duplicates the observer's `primary`
  //   * peer (i+1)'s duplicate and peer (i+2)'s primary duplicate
  //     each other (set i+2's share-1, which the observer lacks)
  // Copies are bit-exact by construction, so any difference exposes a
  // tampered component.  The first two checks attribute the tamper to
  // a specific peer; the third only proves one of the two lied.
  // Tampered components invalidate exactly the reconstructions that
  // use them.  per_value_invalid[v][set][hat].
  std::vector<std::array<std::array<bool, 2>, kNumSets>> component_invalid(
      values.size());
  if (ctx.share_authentication) {
    const int peer_a = (ctx.party + 1) % kNumParties;
    const int peer_b = (ctx.party + 2) % kNumParties;
    const auto a_index = static_cast<std::size_t>(peer_a);
    const auto b_index = static_cast<std::size_t>(peer_b);

    // Pass 1 — attributable checks against the observer's OWN copies.
    // A failure proves the peer tampered (the local copy is trusted),
    // so its entire contribution is discarded, exactly like a
    // commitment violation.  The tensor comparisons (the expensive
    // part) run in parallel over the batched values into per-value
    // flags; the fold below walks the flags in v order so the
    // detection events land exactly where the serial loop put them.
    std::vector<std::uint8_t> a_mismatch(values.size(), 0);
    std::vector<std::uint8_t> b_mismatch(values.size(), 0);
    const bool check_a = from[a_index].present && provider_valid[a_index];
    const bool check_b = from[b_index].present && provider_valid[b_index];
    if (check_a || check_b) {
      kernels::parallel_for(
          ctx.kernels, values.size(), 1, [&](std::size_t lo, std::size_t hi) {
            for (std::size_t v = lo; v < hi; ++v) {
              if (check_a &&
                  from[a_index].triples[v].primary != values[v].duplicate) {
                a_mismatch[v] = 1;
              }
              if (check_b &&
                  from[b_index].triples[v].duplicate != values[v].primary) {
                b_mismatch[v] = 1;
              }
            }
          });
    }
    for (std::size_t v = 0; v < values.size(); ++v) {
      if (a_mismatch[v] && provider_valid[a_index]) {
        provider_valid[a_index] = false;
        ctx.detections.record(DetectionEvent::Kind::kShareAuthFailure, step,
                              peer_a, "exchange", "discard_shares");
        TRUSTDDL_LOG_WARN(kLog)
            << "party " << ctx.party << ": share-copy authentication failed "
            << "for party " << peer_a << "'s primary at step " << step
            << " — discarding its shares";
      }
      if (b_mismatch[v] && provider_valid[b_index]) {
        provider_valid[b_index] = false;
        ctx.detections.record(DetectionEvent::Kind::kShareAuthFailure, step,
                              peer_b, "exchange", "discard_shares");
        TRUSTDDL_LOG_WARN(kLog)
            << "party " << ctx.party << ": share-copy authentication failed "
            << "for party " << peer_b << "'s duplicate at step " << step
            << " — discarding its shares";
      }
    }

    // Pass 2 — the cross-peer copy of set (i+2)'s share-1, which the
    // observer does not hold itself.  A mismatch between two
    // still-trusted peers proves one of them lied without saying
    // which; both reconstructions of that set are dropped.
    if (from[a_index].present && provider_valid[a_index] &&
        from[b_index].present && provider_valid[b_index]) {
      std::vector<std::uint8_t> conflict(values.size(), 0);
      kernels::parallel_for(
          ctx.kernels, values.size(), 1, [&](std::size_t lo, std::size_t hi) {
            for (std::size_t v = lo; v < hi; ++v) {
              if (from[a_index].triples[v].duplicate !=
                  from[b_index].triples[v].primary) {
                conflict[v] = 1;
              }
            }
          });
      for (std::size_t v = 0; v < values.size(); ++v) {
        if (conflict[v]) {
          const auto conflicted =
              static_cast<std::size_t>(set_primary(peer_b));
          component_invalid[v][conflicted][0] = true;
          component_invalid[v][conflicted][1] = true;
          ctx.detections.record(DetectionEvent::Kind::kShareCopyConflict,
                                step, -1, "decide", "drop_set");
          TRUSTDDL_LOG_WARN(kLog)
              << "party " << ctx.party << ": conflicting share-1 copies for "
              << "set " << set_primary(peer_b) << " at step " << step
              << " — discarding both reconstructions of that set";
        }
      }
    }
  }

  // --- Six reconstructions per value + decision rule (lines 15-20). ---
  ctx.detections.opens += 1;
  ctx.detections.values_opened += values.size();
  struct Reconstruction {
    RingTensor tensor;
    bool valid = false;
  };
  // reconstructions[v][set] / hat_reconstructions[v][set]
  std::vector<std::array<Reconstruction, kNumSets>> plain(values.size());
  std::vector<std::array<Reconstruction, kNumSets>> hats(values.size());

  auto provider_ok = [&](int party) {
    return from[static_cast<std::size_t>(party)].present &&
           provider_valid[static_cast<std::size_t>(party)];
  };

  // Candidate construction is pure ring arithmetic over disjoint
  // [v][set] slots — the six reconstructions of every batched value
  // build concurrently.
  kernels::parallel_for(
      ctx.kernels, values.size(), 1, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t v = lo; v < hi; ++v) {
          for (int set = 0; set < kNumSets; ++set) {
            const int p1 = holder_of_primary(set);
            const int p2 = holder_of_second(set);
            const int pd = holder_of_duplicate(set);
            const auto set_index = static_cast<std::size_t>(set);
            if (provider_ok(p1) && provider_ok(p2) &&
                !component_invalid[v][set_index][0]) {
              plain[v][set_index].tensor =
                  from[static_cast<std::size_t>(p1)].triples[v].primary +
                  from[static_cast<std::size_t>(p2)].triples[v].second;
              plain[v][set_index].valid = true;
            }
            if (provider_ok(pd) && provider_ok(p2) &&
                !component_invalid[v][set_index][1]) {
              hats[v][set_index].tensor =
                  from[static_cast<std::size_t>(pd)].triples[v].duplicate +
                  from[static_cast<std::size_t>(p2)].triples[v].second;
              hats[v][set_index].valid = true;
            }
          }
        }
      });

  // The decision rule runs independently over each group — a group is
  // one protocol call's open set (e.g. Algorithm 4's {e, f}).  Pair
  // selection minimizes the summed distance WITHIN a group only, so a
  // batched round adopts exactly the reconstructions its calls would
  // have chosen unbatched: under share-local truncation different
  // groups can legitimately favor different pairs (ulp drift), and one
  // round-global choice would flag honest drift as an anomaly.
  std::vector<RingTensor> opened;
  opened.reserve(values.size());
  std::size_t group_lo = 0;
  for (const std::size_t group_size : group_sizes) {
    const std::size_t group_hi = group_lo + group_size;
    TRUSTDDL_REQUIRE(group_hi <= values.size(),
                     "open_values: group sizes exceed value count");

    // Minimum summed distance over pairs (s^j, ŝ^k), j != k, both
    // valid.
    long best_j = -1;
    [[maybe_unused]] long best_k = -1;  // kept for diagnostics/symmetry
    std::uint64_t best_dist = ~std::uint64_t{0};
    for (int j = 0; j < kNumSets; ++j) {
      for (int k = 0; k < kNumSets; ++k) {
        if (j == k) {
          continue;
        }
        bool usable = true;
        std::uint64_t total = 0;
        for (std::size_t v = group_lo; v < group_hi; ++v) {
          const auto& lhs = plain[v][static_cast<std::size_t>(j)];
          const auto& rhs = hats[v][static_cast<std::size_t>(k)];
          if (!lhs.valid || !rhs.valid) {
            usable = false;
            break;
          }
          const std::uint64_t d = ring_distance(lhs.tensor, rhs.tensor);
          total = (total > ~d) ? ~std::uint64_t{0} : total + d;
        }
        if (usable && total < best_dist) {
          best_dist = total;
          best_j = j;
          best_k = k;
        }
      }
    }

    if (best_j < 0) {
      throw ProtocolError(
          "open_values: no valid reconstruction pair — more than one party "
          "failed, which exceeds the fault model");
    }

    // Detect whether any *valid* reconstruction deviates from the
    // chosen pair; if so the opening recovered from a corruption and
    // we try to implicate the responsible peer.
    bool anomaly = false;
    // deviations[set][hat]: some value's reconstruction of that kind
    // disagrees with the chosen pair.
    bool deviations[kNumSets][2] = {};
    for (std::size_t v = group_lo; v < group_hi; ++v) {
      const auto& reference =
          plain[v][static_cast<std::size_t>(best_j)].tensor;
      for (int set = 0; set < kNumSets; ++set) {
        const auto set_index = static_cast<std::size_t>(set);
        for (int hat = 0; hat < 2; ++hat) {
          const auto& candidate =
              (hat == 0) ? plain[v][set_index] : hats[v][set_index];
          if (!candidate.valid) {
            continue;
          }
          if (ring_distance(candidate.tensor, reference) >
              ctx.dist_tolerance) {
            anomaly = true;
            deviations[set][hat] = true;
          }
        }
      }
    }

    if (anomaly) {
      ctx.detections.record(DetectionEvent::Kind::kDistanceAnomaly, step, -1,
                            "decide", "min_distance");
      ctx.detections.recovered_opens += 1;
      // A peer is the plausible culprit if EVERY deviating
      // reconstruction is one it can touch; exactly one such peer
      // means attribution.
      int suspect = -1;
      int implicated = 0;
      for (int peer : peers) {
        bool explains_all = true;
        for (int set = 0; set < kNumSets && explains_all; ++set) {
          for (int hat = 0; hat < 2; ++hat) {
            if (deviations[set][hat] && !corruptible_by(peer, set, hat == 1)) {
              explains_all = false;
              break;
            }
          }
        }
        if (explains_all) {
          suspect = peer;
          ++implicated;
        }
      }
      if (implicated == 1) {
        ctx.detections.record(DetectionEvent::Kind::kByzantineSuspected, step,
                              suspect, "decide", "redundant_reconstruction");
        TRUSTDDL_LOG_WARN(kLog)
            << "party " << ctx.party << ": reconstruction anomaly at step "
            << step << " implicates party " << suspect
            << " — recovered via redundant reconstruction";
      } else {
        TRUSTDDL_LOG_WARN(kLog)
            << "party " << ctx.party << ": reconstruction anomaly at step "
            << step << " — recovered via minimum-distance rule";
      }
    }

    if (best_dist <= ctx.dist_tolerance * group_size) {
      for (std::size_t v = group_lo; v < group_hi; ++v) {
        opened.push_back(plain[v][static_cast<std::size_t>(best_j)].tensor);
      }
      group_lo = group_hi;
      continue;
    }

    // Even the closest pair disagrees beyond tolerance (e.g. several
    // share-local truncation glitches landing together).  Guarantee
    // output delivery with the elementwise median of every valid
    // reconstruction.
    ctx.detections.recovered_opens += 1;
    TRUSTDDL_LOG_WARN(kLog) << "party " << ctx.party
                            << ": min-distance pair beyond tolerance at step "
                            << step << " — falling back to elementwise median";
    for (std::size_t v = group_lo; v < group_hi; ++v) {
      std::vector<const RingTensor*> candidates;
      for (int set = 0; set < kNumSets; ++set) {
        const auto set_index = static_cast<std::size_t>(set);
        if (plain[v][set_index].valid) {
          candidates.push_back(&plain[v][set_index].tensor);
        }
        if (hats[v][set_index].valid) {
          candidates.push_back(&hats[v][set_index].tensor);
        }
      }
      opened.push_back(elementwise_median(candidates));
    }
    group_lo = group_hi;
  }
  TRUSTDDL_REQUIRE(group_lo == values.size(),
                   "open_values: group sizes must cover every value");
  return opened;
}


/// Serialize one component (0 = primary, 1 = duplicate, 2 = second) of
/// every value — the unit the per-component commitments bind.
Bytes serialize_component(const std::vector<PartyShare>& triples,
                          int component) {
  ByteWriter writer;
  writer.write_u64(triples.size());
  for (const auto& triple : triples) {
    const RingTensor& tensor = component == 0   ? triple.primary
                               : component == 1 ? triple.duplicate
                                                : triple.second;
    write_tensor(writer, tensor);
  }
  return writer.take();
}

/// The commitment stream for one component: 10-byte header then the
/// serialized component — digests are over the concatenation, so the
/// batched hasher sees the same bytes the old incremental updates did.
Bytes component_message(std::uint64_t step, int sender, int component,
                        const std::vector<PartyShare>& triples) {
  ByteWriter header;
  header.write_u64(step);
  header.write_u8(static_cast<std::uint8_t>(sender));
  header.write_u8(static_cast<std::uint8_t>(component));
  Bytes message = header.take();
  const Bytes payload = serialize_component(triples, component);
  message.insert(message.end(), payload.begin(), payload.end());
  return message;
}

/// Digests for a set of components of one sender's triples, hashed as
/// one SIMD batch (4-lane lockstep where available; see
/// common/sha256.hpp).  Serialization of the streams still fans out on
/// the kernel pool.
std::vector<Sha256Digest> component_digests(
    std::uint64_t step, int sender, const std::vector<int>& components,
    const kernels::KernelConfig& config,
    const std::vector<PartyShare>& triples) {
  std::vector<Bytes> messages(components.size());
  if (components.size() == 2) {
    kernels::parallel_invoke(
        config,
        {[&] {
           messages[0] =
               component_message(step, sender, components[0], triples);
         },
         [&] {
           messages[1] =
               component_message(step, sender, components[1], triples);
         }});
  } else if (components.size() == 3) {
    kernels::parallel_invoke(
        config,
        {[&] {
           messages[0] =
               component_message(step, sender, components[0], triples);
         },
         [&] {
           messages[1] =
               component_message(step, sender, components[1], triples);
         },
         [&] {
           messages[2] =
               component_message(step, sender, components[2], triples);
         }});
  } else {
    for (std::size_t i = 0; i < components.size(); ++i) {
      messages[i] = component_message(step, sender, components[i], triples);
    }
  }
  return sha256_batch(messages);
}

/// Optimistic malicious opening (the paper\'s future-work
/// communication optimization — see PartyContext::optimistic):
///
///  fast path   per-component commitments -> ack -> (share-1, share-2)
///              PAIR exchange -> three set reconstructions; if the
///              hashes verify and the sets agree, done at ~2/3 of the
///              full-triple bytes.
///  verdicts    every party broadcasts ok/escalate and then FORWARDS
///              the verdicts it received; an adversary that tells one
///              honest party "ok" and the other "escalate" cannot
///              split them, because the escalating party\'s verdict
///              reaches everyone directly.
///  escalation  full triples exchanged and verified against the SAME
///              commitments, then the standard six-way decision rule.
std::vector<RingTensor> open_optimistic(
    PartyContext& ctx, const std::vector<PartyShare>& values,
    const std::vector<std::size_t>& group_sizes) {
  const std::uint64_t step = ctx.next_step();
  const auto peers = peers_of(ctx.party);

  std::vector<PartyShare> wire_triples = values;
  if (ctx.adversary != nullptr) {
    ctx.adversary->before_commit(step, wire_triples);
  }

  // --- Commit to every component separately. ---
  std::array<std::optional<std::array<Sha256Digest, 3>>, kNumParties>
      commitments;
  {
    obs::ScopedSpan commit_span("open.commit", ctx.party, step);
    // Three independent SHA-256 streams: serialized side by side on
    // the pool, then hashed as one lockstep SIMD batch (the digest
    // bytes are identical either way).
    std::array<Sha256Digest, 3> own_digests;
    const std::vector<Sha256Digest> batched = component_digests(
        step, ctx.party, {0, 1, 2}, ctx.kernels, wire_triples);
    std::copy(batched.begin(), batched.end(), own_digests.begin());
    const std::string commit_tag = ctx.tag(step, "c");
    for (int peer : peers) {
      if (ctx.adversary != nullptr &&
          ctx.adversary->drop_messages_to(step, peer)) {
        continue;
      }
      Bytes commit;
      for (const auto& digest : own_digests) {
        commit.insert(commit.end(), digest.begin(), digest.end());
      }
      ctx.endpoint.send(peer, commit_tag, std::move(commit));
    }
    for (int peer : peers) {
      if (ctx.peer_excluded(peer)) {
        ctx.detections.record(DetectionEvent::Kind::kMissingMessage, step,
                              peer, "commit", "escalate");
        continue;
      }
      try {
        const Bytes payload = ctx.endpoint.recv(peer, commit_tag);
        if (payload.size() == 96) {
          std::array<Sha256Digest, 3> digests;
          for (int component = 0; component < 3; ++component) {
            std::copy(payload.begin() + 32 * component,
                      payload.begin() + 32 * (component + 1),
                      digests[static_cast<std::size_t>(component)].begin());
          }
          commitments[static_cast<std::size_t>(peer)] = digests;
        }
      } catch (const TimeoutError&) {
        ctx.detections.record(DetectionEvent::Kind::kMissingMessage, step,
                              peer, "commit", "escalate");
      }
    }
  }

  // --- Ack round (Algorithm 4 line 8). ---
  {
    obs::ScopedSpan confirm_span("open.confirm", ctx.party, step);
    const std::string ack_tag = ctx.tag(step, "a");
    for (int peer : peers) {
      if (ctx.adversary != nullptr &&
          ctx.adversary->drop_messages_to(step, peer)) {
        continue;
      }
      ctx.endpoint.send(peer, ack_tag, Bytes{1});
    }
    for (int peer : peers) {
      if (ctx.peer_excluded(peer)) {
        continue;
      }
      try {
        (void)ctx.endpoint.recv(peer, ack_tag);
      } catch (const TimeoutError&) {
      }
    }
  }

  // --- Fast path: pair exchange. ---
  std::array<ReceivedTriples, kNumParties> pairs;
  pairs[static_cast<std::size_t>(ctx.party)].present = true;
  pairs[static_cast<std::size_t>(ctx.party)].triples = values;
  bool own_escalate = false;
  {
    obs::ScopedSpan exchange_span("open.exchange", ctx.party, step);
    const std::string pair_tag = ctx.tag(step, "s");
    for (int peer : peers) {
      if (ctx.adversary != nullptr &&
          ctx.adversary->drop_messages_to(step, peer)) {
        continue;
      }
      std::vector<PartyShare> to_send = wire_triples;
      if (ctx.adversary != nullptr) {
        if (auto replacement =
                ctx.adversary->replace_shares_for(step, peer, wire_triples)) {
          to_send = std::move(*replacement);
        }
      }
      ctx.endpoint.send(
          peer, pair_tag,
          serialize_triples(to_send, /*include_duplicate=*/false));
    }

    for (int peer : peers) {
      const auto peer_index = static_cast<std::size_t>(peer);
      if (ctx.peer_excluded(peer)) {
        own_escalate = true;
        ctx.detections.record(DetectionEvent::Kind::kMissingMessage, step,
                              peer, "exchange", "escalate");
        continue;
      }
      try {
        const Bytes payload = ctx.endpoint.recv(peer, pair_tag);
        pairs[peer_index].triples =
            deserialize_triples(payload, /*include_duplicate=*/false);
        if (!triples_compatible(pairs[peer_index].triples, values,
                                /*include_duplicate=*/false)) {
          throw SerializationError("structurally invalid pair");
        }
        pairs[peer_index].present = true;
        bool hashes_ok = commitments[peer_index].has_value();
        if (hashes_ok) {
          // The pair carries components 0 and 2; verify both digests
          // as one batch (each stream is hashed whole, byte-identical).
          const std::vector<Sha256Digest> digests = component_digests(
              step, peer, {0, 2}, ctx.kernels, pairs[peer_index].triples);
          hashes_ok = (*commitments[peer_index])[0] == digests[0] &&
                      (*commitments[peer_index])[2] == digests[1];
        }
        if (!hashes_ok) {
          own_escalate = true;
          ctx.detections.record(DetectionEvent::Kind::kCommitmentViolation,
                                step, peer, "exchange", "escalate");
        }
      } catch (const TimeoutError&) {
        own_escalate = true;
        ctx.detections.record(DetectionEvent::Kind::kMissingMessage, step,
                              peer, "exchange", "escalate");
      } catch (const SerializationError&) {
        own_escalate = true;
        ctx.detections.record(DetectionEvent::Kind::kCommitmentViolation,
                              step, peer, "exchange", "escalate");
      }
    }
  }

  // Three set reconstructions; any disagreement forces escalation.
  std::vector<std::array<RingTensor, kNumSets>> sets(values.size());
  if (!own_escalate) {
    obs::ScopedSpan reconstruct_span("open.reconstruct", ctx.party, step);
    for (std::size_t v = 0; v < values.size() && !own_escalate; ++v) {
      for (int set = 0; set < kNumSets; ++set) {
        sets[v][static_cast<std::size_t>(set)] =
            pairs[static_cast<std::size_t>(holder_of_primary(set))]
                .triples[v]
                .primary +
            pairs[static_cast<std::size_t>(holder_of_second(set))]
                .triples[v]
                .second;
      }
      for (int a = 0; a < kNumSets && !own_escalate; ++a) {
        for (int b = a + 1; b < kNumSets; ++b) {
          if (ring_distance(sets[v][static_cast<std::size_t>(a)],
                            sets[v][static_cast<std::size_t>(b)]) >
              ctx.dist_tolerance) {
            own_escalate = true;
            ctx.detections.record(DetectionEvent::Kind::kDistanceAnomaly,
                                  step, -1, "reconstruct", "escalate");
            break;
          }
        }
      }
    }
  }

  // --- Verdict broadcast + forwarding (keeps honest escalation
  // decisions in agreement even under equivocation). ---
  bool escalate = own_escalate;
  {
    obs::ScopedSpan verdict_span("open.verdict", ctx.party, step);
    const std::string verdict_tag = ctx.tag(step, "v");
    const std::string forward_tag = ctx.tag(step, "w");
    for (int peer : peers) {
      ctx.endpoint.send(
          peer, verdict_tag,
          Bytes{own_escalate ? std::uint8_t{1} : std::uint8_t{0}});
    }
    std::array<std::uint8_t, 2> received_verdicts{1, 1};  // missing => escalate
    for (std::size_t i = 0; i < peers.size(); ++i) {
      if (ctx.peer_excluded(peers[i])) {
        escalate = true;
        continue;
      }
      try {
        const Bytes verdict = ctx.endpoint.recv(peers[i], verdict_tag);
        received_verdicts[i] = verdict.empty() ? 1 : verdict[0];
      } catch (const TimeoutError&) {
      }
      escalate = escalate || received_verdicts[i] != 0;
    }
    for (std::size_t i = 0; i < peers.size(); ++i) {
      // Forward the OTHER peer\'s verdict to this peer.
      ctx.endpoint.send(peers[i], forward_tag,
                        Bytes{received_verdicts[1 - i]});
    }
    for (int peer : peers) {
      if (ctx.peer_excluded(peer)) {
        escalate = true;
        continue;
      }
      try {
        const Bytes forwarded = ctx.endpoint.recv(peer, forward_tag);
        escalate = escalate || forwarded.empty() || forwarded[0] != 0;
      } catch (const TimeoutError&) {
        escalate = true;
      }
    }
  }

  ctx.detections.opens += 1;
  ctx.detections.values_opened += values.size();
  if (!escalate) {
    std::vector<RingTensor> opened;
    opened.reserve(values.size());
    for (std::size_t v = 0; v < values.size(); ++v) {
      opened.push_back(elementwise_median(
          {&sets[v][0], &sets[v][1], &sets[v][2]}));
    }
    return opened;
  }

  // --- Escalation: full triples, verified against the commitments,
  // then the standard decision machinery. ---
  TRUSTDDL_LOG_WARN(kLog) << "party " << ctx.party
                          << ": optimistic opening escalated at step "
                          << step;
  ctx.detections.recovered_opens += 1;
  obs::ScopedSpan escalate_span("open.escalate", ctx.party, step);
  const std::string full_tag = ctx.tag(step, "s2");
  for (int peer : peers) {
    if (ctx.adversary != nullptr &&
        ctx.adversary->drop_messages_to(step, peer)) {
      continue;
    }
    std::vector<PartyShare> to_send = wire_triples;
    if (ctx.adversary != nullptr) {
      if (auto replacement =
              ctx.adversary->replace_shares_for(step, peer, wire_triples)) {
        to_send = std::move(*replacement);
      }
    }
    ctx.endpoint.send(peer, full_tag,
                      serialize_triples(to_send, /*include_duplicate=*/true));
  }
  std::array<ReceivedTriples, kNumParties> from;
  std::array<bool, kNumParties> provider_valid{};
  from[static_cast<std::size_t>(ctx.party)].present = true;
  from[static_cast<std::size_t>(ctx.party)].triples = values;
  provider_valid[static_cast<std::size_t>(ctx.party)] = true;
  for (int peer : peers) {
    const auto peer_index = static_cast<std::size_t>(peer);
    if (ctx.peer_excluded(peer)) {
      ctx.detections.record(DetectionEvent::Kind::kMissingMessage, step,
                            peer, "escalate", "reconstruct_remaining");
      continue;
    }
    try {
      const Bytes payload = ctx.endpoint.recv(peer, full_tag);
      from[peer_index].triples =
          deserialize_triples(payload, /*include_duplicate=*/true);
      if (!triples_compatible(from[peer_index].triples, values,
                              /*include_duplicate=*/true)) {
        throw SerializationError("structurally invalid triples");
      }
      from[peer_index].present = true;
      bool commit_ok = commitments[peer_index].has_value();
      if (commit_ok) {
        const std::vector<Sha256Digest> digests = component_digests(
            step, peer, {0, 1, 2}, ctx.kernels, from[peer_index].triples);
        for (int component = 0; commit_ok && component < 3; ++component) {
          commit_ok =
              (*commitments[peer_index])[static_cast<std::size_t>(component)] ==
              digests[static_cast<std::size_t>(component)];
        }
      }
      provider_valid[peer_index] = commit_ok;
      ctx.note_peer_ok(peer);
      if (!commit_ok) {
        ctx.detections.record(DetectionEvent::Kind::kCommitmentViolation,
                              step, peer, "escalate", "discard_shares");
      }
    } catch (const TimeoutError&) {
      ctx.note_peer_miss(peer);
      ctx.detections.record(DetectionEvent::Kind::kMissingMessage, step,
                            peer, "escalate", "reconstruct_remaining");
    } catch (const SerializationError&) {
      ctx.detections.record(DetectionEvent::Kind::kCommitmentViolation, step,
                            peer, "escalate", "discard_shares");
    }
  }
  return decide_from_triples(ctx, values, from, provider_valid, step,
                             group_sizes);
}

}  // namespace

std::vector<RingTensor> open_values_grouped(
    PartyContext& ctx, const std::vector<PartyShare>& values,
    const std::vector<std::size_t>& group_sizes) {
  TRUSTDDL_REQUIRE(!values.empty(), "open_values: nothing to open");
  std::size_t grouped = 0;
  for (const std::size_t group_size : group_sizes) {
    grouped += group_size;
  }
  TRUSTDDL_REQUIRE(grouped == values.size(),
                   "open_values_grouped: group sizes must sum to the value "
                   "count");
  if (ctx.mode == SecurityMode::kHonestButCurious ||
      ctx.mode == SecurityMode::kCrashFault) {
    return open_hbc(ctx, values);
  }
  if (ctx.optimistic) {
    return open_optimistic(ctx, values, group_sizes);
  }

  const std::uint64_t step = ctx.next_step();
  const auto peers = peers_of(ctx.party);

  // An adversary may corrupt the triples consistently (Case 3): the
  // corrupted copy feeds both the commitment and the exchange.
  std::vector<PartyShare> wire_triples = values;
  if (ctx.adversary != nullptr) {
    ctx.adversary->before_commit(step, wire_triples);
  }
  const Bytes wire = serialize_triples(wire_triples, /*include_duplicate=*/true);
  const Sha256Digest own_digest = commitment_digest(step, ctx.party, wire);

  // --- Round 1: commitment phase (Algorithm 4 lines 3-7). ---
  std::array<std::optional<Sha256Digest>, kNumParties> commitments;
  {
    obs::ScopedSpan commit_span("open.commit", ctx.party, step);
    const std::string commit_tag = ctx.tag(step, "c");
    for (int peer : peers) {
      if (ctx.adversary != nullptr &&
          ctx.adversary->drop_messages_to(step, peer)) {
        continue;
      }
      Bytes commit(own_digest.begin(), own_digest.end());
      ctx.endpoint.send(peer, commit_tag, std::move(commit));
    }
    for (int peer : peers) {
      if (ctx.peer_excluded(peer)) {
        ctx.detections.record(DetectionEvent::Kind::kMissingMessage, step,
                              peer, "commit", "discard_shares");
        continue;
      }
      try {
        const Bytes payload = ctx.endpoint.recv(peer, commit_tag);
        if (payload.size() == 32) {
          Sha256Digest digest;
          std::copy(payload.begin(), payload.end(), digest.begin());
          commitments[static_cast<std::size_t>(peer)] = digest;
        }
      } catch (const TimeoutError&) {
        ctx.detections.record(DetectionEvent::Kind::kMissingMessage, step,
                              peer, "commit", "discard_shares");
        TRUSTDDL_LOG_WARN(kLog) << "party " << ctx.party
                                << ": no commitment from party " << peer
                                << " at step " << step;
      }
    }
  }

  // --- Round 2: confirm receipt (Algorithm 4 line 8). ---
  {
    obs::ScopedSpan confirm_span("open.confirm", ctx.party, step);
    const std::string ack_tag = ctx.tag(step, "a");
    for (int peer : peers) {
      if (ctx.adversary != nullptr &&
          ctx.adversary->drop_messages_to(step, peer)) {
        continue;
      }
      ctx.endpoint.send(peer, ack_tag, Bytes{1});
    }
    for (int peer : peers) {
      if (ctx.peer_excluded(peer)) {
        continue;
      }
      try {
        (void)ctx.endpoint.recv(peer, ack_tag);
      } catch (const TimeoutError&) {
        // A missing ack cannot block the opening: proceed; the peer's
        // shares will simply fail the commitment check if inconsistent.
      }
    }
  }

  // --- Round 3: share exchange + commitment check (lines 9-14). ---
  std::array<ReceivedTriples, kNumParties> from;
  std::array<bool, kNumParties> provider_valid{};
  from[static_cast<std::size_t>(ctx.party)].present = true;
  from[static_cast<std::size_t>(ctx.party)].triples = values;
  provider_valid[static_cast<std::size_t>(ctx.party)] = true;
  {
    obs::ScopedSpan exchange_span("open.exchange", ctx.party, step);
    const std::string share_tag = ctx.tag(step, "s");
    for (int peer : peers) {
      if (ctx.adversary != nullptr &&
          ctx.adversary->drop_messages_to(step, peer)) {
        continue;
      }
      Bytes to_send = wire;
      if (ctx.adversary != nullptr) {
        // Case 1/2: shares sent may differ from the committed ones.
        if (auto replacement =
                ctx.adversary->replace_shares_for(step, peer, wire_triples)) {
          to_send =
              serialize_triples(*replacement, /*include_duplicate=*/true);
        }
      }
      ctx.endpoint.send(peer, share_tag, std::move(to_send));
    }

    for (int peer : peers) {
      const auto peer_index = static_cast<std::size_t>(peer);
      if (ctx.peer_excluded(peer)) {
        ctx.detections.record(DetectionEvent::Kind::kMissingMessage, step,
                              peer, "exchange", "reconstruct_remaining");
        continue;
      }
      try {
        const Bytes payload = ctx.endpoint.recv(peer, share_tag);
        const Sha256Digest received_digest =
            commitment_digest(step, peer, payload);
        from[peer_index].triples =
            deserialize_triples(payload, /*include_duplicate=*/true);
        if (!triples_compatible(from[peer_index].triples, values,
                                /*include_duplicate=*/true)) {
          throw SerializationError("structurally invalid triples");
        }
        from[peer_index].present = true;
        const bool commit_ok =
            commitments[peer_index].has_value() &&
            *commitments[peer_index] == received_digest;
        provider_valid[peer_index] = commit_ok;
        ctx.note_peer_ok(peer);
        if (!commit_ok) {
          ctx.detections.record(DetectionEvent::Kind::kCommitmentViolation,
                                step, peer, "exchange", "discard_shares");
          TRUSTDDL_LOG_WARN(kLog)
              << "party " << ctx.party
              << ": commitment check failed for party " << peer << " at step "
              << step << " — discarding its shares";
        }
      } catch (const TimeoutError&) {
        ctx.note_peer_miss(peer);
        ctx.detections.record(DetectionEvent::Kind::kMissingMessage, step,
                              peer, "exchange", "reconstruct_remaining");
        TRUSTDDL_LOG_WARN(kLog) << "party " << ctx.party
                                << ": no shares from party " << peer
                                << " at step " << step;
      } catch (const SerializationError&) {
        ctx.detections.record(DetectionEvent::Kind::kCommitmentViolation,
                              step, peer, "exchange", "discard_shares");
      }
    }
  }

  return decide_from_triples(ctx, values, from, provider_valid, step,
                             group_sizes);
}

std::vector<RingTensor> open_values(PartyContext& ctx,
                                    const std::vector<PartyShare>& values) {
  return open_values_grouped(ctx, values, {values.size()});
}

RingTensor open_value(PartyContext& ctx, const PartyShare& value) {
  return open_values(ctx, {value})[0];
}

OpenBatch::~OpenBatch() {
  if (!pending_.empty()) {
    // Cannot flush from a destructor (it communicates and may throw);
    // unflushed work is a bug unless we are unwinding from an error.
    TRUSTDDL_LOG_WARN(kLog)
        << "party " << ctx_.party << ": OpenBatch destroyed with "
        << pending_.size() << " unflushed opening(s)";
  }
}

void OpenBatch::enqueue(std::vector<PartyShare> values, Continuation on_open) {
  TRUSTDDL_REQUIRE(!values.empty(), "OpenBatch::enqueue: nothing to open");
  PendingOpen entry;
  entry.count = values.size();
  entry.on_open = std::move(on_open);
  for (auto& value : values) {
    queue_.push_back(std::move(value));
  }
  pending_.push_back(std::move(entry));
  ++enqueued_;
}

DeferredTensor OpenBatch::enqueue_value(PartyShare value) {
  DeferredTensor result;
  std::vector<PartyShare> values;
  values.push_back(std::move(value));
  enqueue(std::move(values), [result](std::vector<RingTensor> opened) mutable {
    result.set(std::move(opened[0]));
  });
  return result;
}

void OpenBatch::flush() {
  if (pending_.empty()) {
    return;
  }
  const std::vector<PartyShare> values = std::move(queue_);
  const std::vector<PendingOpen> dispatch = std::move(pending_);
  queue_.clear();
  pending_.clear();
  ++flushes_;

  // ONE robust opening round covers every pending value: a single
  // commitment, confirmation and exchange regardless of how many
  // protocol calls contributed.  The decision rule still runs per
  // enqueued group so every call adopts the reconstruction pair it
  // would have chosen unbatched.
  std::vector<std::size_t> group_sizes;
  group_sizes.reserve(dispatch.size());
  for (const PendingOpen& entry : dispatch) {
    group_sizes.push_back(entry.count);
  }
  if (obs::metrics_enabled()) {
    std::size_t elements = 0;
    for (const PartyShare& value : values) {
      elements += value.primary.size();
    }
    obs::count("open.batch.flushes");
    obs::count("open.batch.values", values.size());
    obs::count("open.batch.elements", elements);
    obs::count("open.batch.groups", group_sizes.size());
  }
  obs::trace_instant("open.flush", ctx_.party, ctx_.step,
                     "\"values\": " + std::to_string(values.size()) +
                         ", \"groups\": " +
                         std::to_string(group_sizes.size()));
  std::vector<RingTensor> opened =
      open_values_grouped(ctx_, values, group_sizes);

  // Dispatch reconstructed slices back to the continuations in enqueue
  // order.  Continuations may enqueue follow-up openings; those landed
  // in the (now fresh) queue and wait for the next flush.
  std::size_t offset = 0;
  for (const PendingOpen& entry : dispatch) {
    std::vector<RingTensor> slice(
        std::make_move_iterator(opened.begin() +
                                static_cast<std::ptrdiff_t>(offset)),
        std::make_move_iterator(opened.begin() +
                                static_cast<std::ptrdiff_t>(offset +
                                                            entry.count)));
    offset += entry.count;
    entry.on_open(std::move(slice));
  }
}

void OpenBatch::flush_all() {
  while (!pending_.empty()) {
    flush();
  }
}

}  // namespace trustddl::mpc
