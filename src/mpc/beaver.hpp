// Beaver triples and the auxiliary preprocessing material TrustDDL's
// model owner deals to the computing parties (paper §II and §III-A:
// the model owner "is responsible for creating and distributing shares
// for ... auxiliary values (e.g., Beaver triples and auxiliary
// positive numbers)").
//
// Three kinds of material are dealt:
//  * multiplication triples  (a, b, c = a·b or a×b), replicated-shared
//  * comparison auxiliaries  t with positive entries (SecComp masks
//    x−y multiplicatively, preserving the sign)
//  * truncation pairs        (r, ⌊r/2^f⌋) for the exact masked-open
//    fixed-point rescale (see protocols_bt.hpp for the two truncation
//    strategies)
// plus, for serving only, fixed-operand material: one mask B per
// (dense or conv layer, model version) whose F = W − B is opened once,
// and per-batch entries against it — (a, c = a×B) for a dense layer,
// (M, C = B·im2col(M)) with M in image shape for a conv layer
// (DESIGN.md §10).
//
// Material is organized into *streams*: one FIFO sequence per
// (kind, dims) shape class, addressed by a `TripleKey` and an entry
// index.  Entry i of a stream is generated from a seed derived from
// (master seed, key, i) alone — never from arrival order — so either
// backend (the in-process DealerBackend, the networked owner service)
// regenerates the same entry at any time.  That makes prefetch stores
// pure optimizations: restarts and request-interleaving differences
// between parties cannot change what a party receives for a given
// (key, index).
#pragma once

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "mpc/sharing.hpp"
#include "numeric/conv.hpp"

namespace trustddl::mpc {

/// One party's replicated shares of a Beaver triple.
struct BeaverTripleShare {
  PartyShare a;
  PartyShare b;
  PartyShare c;
};

/// One party's shares of a truncation pair (r, ⌊r/2^f⌋); r is uniform
/// in [0, 2^62) so the masked difference never wraps.
struct TruncPairShare {
  PartyShare r;
  PartyShare r_shifted;
};

/// Dealer-side generation (trusted model-owner role).  Each function
/// returns the three per-party share views.
std::array<BeaverTripleShare, kNumParties> deal_mul_triple(const Shape& shape,
                                                           Rng& rng);
std::array<BeaverTripleShare, kNumParties> deal_matmul_triple(std::size_t m,
                                                              std::size_t k,
                                                              std::size_t n,
                                                              Rng& rng);
/// Positive auxiliary values, fixed-point encoded in [0.5, 2).
std::array<PartyShare, kNumParties> deal_positive_aux(const Shape& shape,
                                                      int frac_bits, Rng& rng);
std::array<TruncPairShare, kNumParties> deal_trunc_pair(const Shape& shape,
                                                        int frac_bits,
                                                        Rng& rng);

// --- Material streams -----------------------------------------------

/// The kinds of dealt material.  Values are wire/persistence format —
/// do not renumber.
enum class TripleKind : std::uint8_t {
  kMul = 0,
  kMatMul = 1,
  kCompAux = 2,
  kTruncPair = 3,
  /// Serving only: the mask B [k,n] of one fixed weight operand.  Every
  /// index of the stream deals the same B, so the F = W − B a party
  /// opens after a restart is the value it opened before.
  kFixedMask = 4,
  /// Serving only: (a [m,k], c = a×B) against the kFixedMask of the
  /// same layer slot and model version; the entry's `b` stays empty.
  kFixedTriple = 5,
  /// Serving only, conv layers: (M [rows, C·H·W] in image shape,
  /// C = B·batch_im2col(M)) against the kFixedMask [out, C·kh·kw] of
  /// the same slot and version; `b` stays empty.
  kFixedConvTriple = 6,
};
constexpr TripleKind kLastTripleKind = TripleKind::kFixedConvTriple;

/// Most dims any key carries (kFixedConvTriple's eleven): the bound a
/// decoder applies to a key's rank before reading it.
constexpr std::size_t kMaxTripleKeyDims = 11;

/// True for the fixed-operand kinds, which a training dealer must
/// refuse (DESIGN.md §9).
inline bool is_fixed_operand_kind(TripleKind kind) {
  return kind == TripleKind::kFixedMask ||
         kind == TripleKind::kFixedTriple ||
         kind == TripleKind::kFixedConvTriple;
}

/// Stable lowercase name for metrics/logs ("mul", "matmul",
/// "comp_aux", "trunc_pair", "fixed_mask", "fixed_triple",
/// "fixed_conv_triple").
const char* triple_kind_name(TripleKind kind);

/// Identity of one material shape class.  For kMul / kCompAux /
/// kTruncPair `dims` is the tensor shape; for kMatMul it is {m, k, n};
/// the fixed-operand kinds prefix {k, n} / {m, k, n} with the layer
/// slot and the model version, and kFixedConvTriple prefixes {rows}
/// plus the conv geometry (the dealer has no model spec).
struct TripleKey {
  TripleKind kind = TripleKind::kMul;
  Shape dims;

  bool operator==(const TripleKey& other) const {
    return kind == other.kind && dims == other.dims;
  }

  static TripleKey mul(const Shape& shape) {
    return TripleKey{TripleKind::kMul, shape};
  }
  static TripleKey matmul(std::size_t m, std::size_t k, std::size_t n) {
    return TripleKey{TripleKind::kMatMul, Shape{m, k, n}};
  }
  static TripleKey comp_aux(const Shape& shape) {
    return TripleKey{TripleKind::kCompAux, shape};
  }
  static TripleKey trunc_pair(const Shape& shape) {
    return TripleKey{TripleKind::kTruncPair, shape};
  }
  static TripleKey fixed_mask(std::size_t slot, std::uint64_t version,
                              std::size_t k, std::size_t n) {
    return TripleKey{TripleKind::kFixedMask, Shape{slot, version, k, n}};
  }
  static TripleKey fixed_triple(std::size_t slot, std::uint64_t version,
                                std::size_t m, std::size_t k,
                                std::size_t n) {
    return TripleKey{TripleKind::kFixedTriple,
                     Shape{slot, version, m, k, n}};
  }
  static TripleKey fixed_conv_triple(std::size_t slot, std::uint64_t version,
                                     std::size_t rows, const ConvSpec& conv) {
    return TripleKey{TripleKind::kFixedConvTriple,
                     Shape{slot, version, rows, conv.in_channels,
                           conv.in_height, conv.in_width, conv.out_channels,
                           conv.kernel_h, conv.kernel_w, conv.pad,
                           conv.stride}};
  }
};

/// The conv geometry a kFixedConvTriple key carries.  Throws
/// InvalidArgument — before any division or allocation — unless the
/// key has all eleven dims, no zero size or stride, a kernel that fits
/// the padded input, and a dealer cost that fits in size_t: a party
/// chooses the key it sends to the owner.
ConvSpec fixed_conv_spec(const TripleKey& key);

/// What dealing one entry of `key`'s stream costs, in values, by its
/// shape dims (slot and version excluded): a bound for request
/// validation that covers every tensor the dealer builds and its
/// multiply-adds.  The product of the dims (m·k·n for a matmul); for
/// kFixedConvTriple rows·C·H·W + out·(C·kh·kw)·(rows·P).  Throws
/// InvalidArgument when the dims are invalid or the value overflows.
std::size_t material_entry_values(const TripleKey& key);

struct TripleKeyHash {
  std::size_t operator()(const TripleKey& key) const;
};

/// Seed of entry `index` of stream `key` under `master_seed`
/// (splitmix-style mixing).  The whole offline/online split rests on
/// this being a pure function of its arguments.
std::uint64_t derive_material_seed(std::uint64_t master_seed,
                                   const TripleKey& key, std::uint64_t index);

/// One party's view of a contiguous range of a material stream.
/// Exactly one vector is populated, selected by the key's kind.
struct MaterialBatch {
  /// kMul / kMatMul / kFixedTriple / kFixedConvTriple
  std::vector<BeaverTripleShare> triples;
  std::vector<PartyShare> aux;             ///< kCompAux / kFixedMask
  std::vector<TruncPairShare> pairs;       ///< kTruncPair

  std::size_t count() const {
    return triples.size() + aux.size() + pairs.size();
  }
};

/// All three parties' views of entries [start, start+count) of stream
/// `key`.  Deterministic in (key, start, count, master_seed,
/// frac_bits); requesting overlapping ranges yields overlapping
/// entries bit for bit.
std::array<MaterialBatch, kNumParties> deal_material(const TripleKey& key,
                                                     std::uint64_t start,
                                                     std::size_t count,
                                                     std::uint64_t master_seed,
                                                     int frac_bits);

/// Batched range access to one party's material streams.  One call
/// fills N entries of a shape class (one round trip when the backend
/// is the networked owner link).  Protocols never call a backend
/// directly: a TripleStore (triple_store.hpp) sits in front of it and
/// hands entries out in stream order.
class TripleBackend {
 public:
  virtual ~TripleBackend() = default;
  virtual MaterialBatch fill(const TripleKey& key, std::uint64_t start,
                             std::size_t count) = 0;
};

/// In-process TripleBackend for one party: derives every entry
/// locally from the master seed (the same derivation the owner
/// service uses, so in-process and networked supplies agree).  Each
/// party holds its own; deal_material computes all three views and
/// the backend keeps this party's.
class DealerBackend final : public TripleBackend {
 public:
  DealerBackend(std::uint64_t master_seed, int frac_bits, int party)
      : master_seed_(master_seed), frac_bits_(frac_bits), party_(party) {}

  MaterialBatch fill(const TripleKey& key, std::uint64_t start,
                     std::size_t count) override {
    return std::move(deal_material(key, start, count, master_seed_,
                                   frac_bits_)[static_cast<std::size_t>(
        party_)]);
  }

 private:
  std::uint64_t master_seed_;
  int frac_bits_;
  int party_;
};

}  // namespace trustddl::mpc
