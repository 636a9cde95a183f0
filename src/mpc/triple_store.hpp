// Shape-keyed store for preprocessing material — the one place the
// online protocols take Beaver triples, comparison auxiliaries and
// truncation pairs from (FALCON-style offline/online split: correlated
// randomness is produced ahead of time so the online phase is pure
// communication + local compute).
//
// Material flows backend -> TripleStore -> protocols.  The backend is
// a DealerBackend (in process) or the party's OwnerLink (networked);
// protocols pull entries by TripleKey through the typed accessors.
// When nothing refills it (prefetch off), the store has depth 0 and
// every pop is a miss that fetches one entry from the backend:
// synchronous dealing.
//
// One SPSC ring per (kind, dims) stream: the party's protocol thread
// is the only consumer, the background producer (or the party thread
// itself between serving batches) is the only refiller.  The hot path
// — popping a prefetched entry — is lock-free: one acquire load and
// one release store on the ring indices.  Only a *miss* (store
// exhausted) takes the per-key fill mutex and falls back to an
// on-demand single-entry fetch from the backend, so correctness never
// depends on the producer keeping up.
//
// Determinism: entries are consumed strictly in stream order per key,
// starting at index 0, regardless of whether they arrived via a batch
// refill, a miss, or a disk restore.  Combined with derived-seed
// dealing (beaver.hpp) this makes prefetched and synchronous runs
// bit-identical.
//
// Instrumented under `triple.*` in every run: per-kind produced/
// consumed counters and store-depth gauges, `triple.refill.batch`
// (entries per refill), `triple.online_wait.us` (time the online path
// spent waiting for material — ~0 when prefetch keeps up),
// `triple.store.miss` (equal to consumed in a synchronous run).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "mpc/beaver.hpp"

namespace trustddl::mpc {

class TripleStore {
 public:
  TripleStore(TripleBackend& backend, int party);

  // The online hot path: the next entry of each stream, in order.
  BeaverTripleShare mul_triple(const Shape& shape) {
    return std::move(pop(TripleKey::mul(shape)).triple);
  }
  BeaverTripleShare matmul_triple(std::size_t m, std::size_t k,
                                  std::size_t n) {
    return std::move(pop(TripleKey::matmul(m, k, n)).triple);
  }
  PartyShare comp_aux(const Shape& shape) {
    return std::move(pop(TripleKey::comp_aux(shape)).aux);
  }
  TruncPairShare trunc_pair(const Shape& shape) {
    return std::move(pop(TripleKey::trunc_pair(shape)).pair);
  }
  /// Serving only: this party's shares of the mask B [k,n] of the fixed
  /// operand in layer `slot` under model `version`.
  PartyShare fixed_mask(std::size_t slot, std::uint64_t version,
                        std::size_t k, std::size_t n) {
    return std::move(pop(TripleKey::fixed_mask(slot, version, k, n)).aux);
  }
  /// Serving only: (a [m,k], c = a×B) for that fixed operand; `b` is
  /// empty.
  BeaverTripleShare fixed_triple(std::size_t slot, std::uint64_t version,
                                 std::size_t m, std::size_t k,
                                 std::size_t n) {
    return std::move(
        pop(TripleKey::fixed_triple(slot, version, m, k, n)).triple);
  }
  /// Serving only: (M [rows, C·H·W], C = B·batch_im2col(M)) for the
  /// fixed conv weights in layer `slot`; `b` is empty.
  BeaverTripleShare fixed_conv_triple(std::size_t slot, std::uint64_t version,
                                      std::size_t rows, const ConvSpec& conv) {
    return std::move(
        pop(TripleKey::fixed_conv_triple(slot, version, rows, conv)).triple);
  }

  /// Raise the refill target for `key` to at least `count` entries and
  /// reserve ring capacity.  NOT safe concurrently with pops of the
  /// same key (may reallocate the ring): call during planning, before
  /// the online phase, or from the consumer thread itself.
  void demand(const TripleKey& key, std::size_t count);

  /// Current refill target for `key` (0 if never demanded).
  std::size_t target(const TripleKey& key) const;

  /// Keys whose depth sits below `low_water_fraction` of their target
  /// (producer work list).
  std::vector<TripleKey> keys_below(double low_water_fraction) const;

  /// Refill `key` toward its target, fetching at most `max_entries` in
  /// one backend round trip.  Returns entries added.  Thread-safe
  /// against the consumer; single producer per store.
  std::size_t refill(const TripleKey& key, std::size_t max_entries);

  /// One pass over all keys, refilling each toward its target
  /// (at most `max_entries` per key per call).  Returns entries added.
  std::size_t refill_toward_targets(std::size_t max_entries);

  /// Entries currently buffered (across all keys / for one key).
  std::size_t depth() const;
  std::size_t depth(const TripleKey& key) const;

  /// Stream cursor: entries of `key` handed to the consumer so far
  /// (equals the index the next pop will receive minus buffered depth
  /// bookkeeping; after a restore it starts at the persisted cursor).
  std::uint64_t consumed(const TripleKey& key) const;

  /// Pops that found the store empty and fell back to on-demand
  /// dealing.
  std::uint64_t misses() const;

  /// Persist buffered entries and stream cursors (versioned binary
  /// format).  `provenance` ties the file to the dealing seed — a
  /// restore under a different seed must fail loudly rather than serve
  /// material from the wrong stream.  Call with producer stopped.
  void save(const std::string& path, std::uint64_t provenance) const;

  /// Restore a saved store.  Returns false if `path` does not exist;
  /// throws SerializationError on a malformed file or provenance
  /// mismatch.  Each restored target is clamped to the restored depth
  /// (planning raises it again).  Call before the online phase starts.
  bool load(const std::string& path, std::uint64_t provenance);

 private:
  /// One entry of any kind; exactly one member is meaningful,
  /// selected by the owning queue's key.
  struct Slot {
    BeaverTripleShare triple;
    PartyShare aux;
    TruncPairShare pair;
  };

  struct KeyQueue {
    std::vector<Slot> ring;      ///< capacity is a power of two
    std::atomic<std::uint64_t> head{0};  ///< next pop (consumer-owned)
    std::atomic<std::uint64_t> tail{0};  ///< next push (producer-owned)
    /// Stream index of the next backend fetch; guarded by fill_mu.
    std::uint64_t next_fill = 0;
    std::size_t target = 0;
    mutable std::mutex fill_mu;

    std::size_t capacity() const { return ring.size(); }
    std::size_t depth_now() const {
      return static_cast<std::size_t>(
          tail.load(std::memory_order_acquire) -
          head.load(std::memory_order_acquire));
    }
  };

  KeyQueue& queue_for(const TripleKey& key);
  const KeyQueue* find_queue(const TripleKey& key) const;

  /// Pop the next entry for `key`, refilling on demand if the store is
  /// dry.  The returned Slot's member for the key's kind is valid.
  Slot pop(const TripleKey& key);

  /// Fill up to `want` entries into `queue` (caller holds fill_mu).
  std::size_t fill_locked(const TripleKey& key, KeyQueue& queue,
                          std::size_t want);

  void grow_ring(KeyQueue& queue, std::size_t min_capacity);

  TripleBackend& backend_;
  int party_;

  mutable std::mutex map_mu_;
  std::unordered_map<TripleKey, std::unique_ptr<KeyQueue>, TripleKeyHash>
      queues_;

  std::atomic<std::uint64_t> misses_{0};
};

}  // namespace trustddl::mpc
