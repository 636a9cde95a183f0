#include "mpc/beaver.hpp"

#include <algorithm>
#include <limits>
#include <string>

#include "common/error.hpp"
#include "numeric/conv.hpp"
#include "numeric/fixed_point.hpp"

namespace trustddl::mpc {
namespace {

RingTensor random_ring_tensor(const Shape& shape, Rng& rng) {
  RingTensor out(shape);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = rng.next_u64();
  }
  return out;
}

std::array<BeaverTripleShare, kNumParties> package_triple(
    const RingTensor& a, const RingTensor& b, const RingTensor& c, Rng& rng) {
  const auto a_views = share_secret(a, rng);
  const auto b_views = share_secret(b, rng);
  const auto c_views = share_secret(c, rng);
  std::array<BeaverTripleShare, kNumParties> out;
  for (int party = 0; party < kNumParties; ++party) {
    const auto index = static_cast<std::size_t>(party);
    out[index] = BeaverTripleShare{a_views[index], b_views[index],
                                   c_views[index]};
  }
  return out;
}

/// Draws the plaintext mask B of a kFixedMask stream from `rng`, which
/// must be seeded from entry 0 of the stream whatever index is being
/// dealt.  B is drawn first, so the mask dealing and every kFixedTriple
/// dealing against it see the same B.
RingTensor fixed_mask_value(const TripleKey& mask_key, Rng& rng) {
  return random_ring_tensor(Shape{mask_key.dims[2], mask_key.dims[3]}, rng);
}

void require_rank(const TripleKey& key, std::size_t rank) {
  if (key.dims.size() != rank) {
    throw InvalidArgument(std::string(triple_kind_name(key.kind)) +
                          " key needs " + std::to_string(rank) + " dims");
  }
}

std::size_t checked_mul(std::size_t a, std::size_t b) {
  if (b != 0 && a > std::numeric_limits<std::size_t>::max() / b) {
    throw InvalidArgument("material key dims overflow");
  }
  return a * b;
}

std::size_t checked_add(std::size_t a, std::size_t b) {
  if (a > std::numeric_limits<std::size_t>::max() - b) {
    throw InvalidArgument("material key dims overflow");
  }
  return a + b;
}

/// What dealing one conv entry costs, in values: M [rows, C·H·W] plus
/// the product B·im2col(M), out·(C·kh·kw)·(rows·P) multiply-adds.  The
/// product term also bounds B [out, C·kh·kw], im2col(M) [C·kh·kw,
/// rows·P] and C [out, rows·P], as m·k·n bounds a matmul triple.
std::size_t fixed_conv_work(std::size_t rows, const ConvSpec& conv) {
  const std::size_t image = checked_mul(
      rows, checked_mul(conv.in_channels,
                        checked_mul(conv.in_height, conv.in_width)));
  const std::size_t col_rows = checked_mul(
      conv.in_channels, checked_mul(conv.kernel_h, conv.kernel_w));
  const std::size_t col_cols = checked_mul(
      rows, checked_mul(conv.out_height(), conv.out_width()));
  const std::size_t product =
      checked_mul(conv.out_channels, checked_mul(col_rows, col_cols));
  return checked_add(image, product);
}

/// splitmix64 finalizer: the standard 64-bit avalanche mix.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

std::array<BeaverTripleShare, kNumParties> deal_mul_triple(const Shape& shape,
                                                           Rng& rng) {
  const RingTensor a = random_ring_tensor(shape, rng);
  const RingTensor b = random_ring_tensor(shape, rng);
  const RingTensor c = hadamard(a, b);
  return package_triple(a, b, c, rng);
}

std::array<BeaverTripleShare, kNumParties> deal_matmul_triple(std::size_t m,
                                                              std::size_t k,
                                                              std::size_t n,
                                                              Rng& rng) {
  const RingTensor a = random_ring_tensor(Shape{m, k}, rng);
  const RingTensor b = random_ring_tensor(Shape{k, n}, rng);
  const RingTensor c = matmul(a, b);
  return package_triple(a, b, c, rng);
}

std::array<PartyShare, kNumParties> deal_positive_aux(const Shape& shape,
                                                      int frac_bits,
                                                      Rng& rng) {
  RingTensor t(shape);
  for (std::size_t i = 0; i < t.size(); ++i) {
    t[i] = fx::encode(rng.next_double(0.5, 2.0), frac_bits);
  }
  return share_secret(t, rng);
}

std::array<TruncPairShare, kNumParties> deal_trunc_pair(const Shape& shape,
                                                        int frac_bits,
                                                        Rng& rng) {
  RingTensor r(shape);
  RingTensor r_shifted(shape);
  for (std::size_t i = 0; i < r.size(); ++i) {
    // r uniform in [0, 2^62): the masked difference v - r stays inside
    // (-2^62, 2^62) for any bounded v, so opening it never wraps.
    r[i] = rng.next_u64() >> 2;
    r_shifted[i] = r[i] >> frac_bits;
  }
  const auto r_views = share_secret(r, rng);
  const auto shifted_views = share_secret(r_shifted, rng);
  std::array<TruncPairShare, kNumParties> out;
  for (int party = 0; party < kNumParties; ++party) {
    const auto index = static_cast<std::size_t>(party);
    out[index] = TruncPairShare{r_views[index], shifted_views[index]};
  }
  return out;
}

const char* triple_kind_name(TripleKind kind) {
  switch (kind) {
    case TripleKind::kMul:
      return "mul";
    case TripleKind::kMatMul:
      return "matmul";
    case TripleKind::kCompAux:
      return "comp_aux";
    case TripleKind::kTruncPair:
      return "trunc_pair";
    case TripleKind::kFixedMask:
      return "fixed_mask";
    case TripleKind::kFixedTriple:
      return "fixed_triple";
    case TripleKind::kFixedConvTriple:
      return "fixed_conv_triple";
  }
  return "unknown";
}

ConvSpec fixed_conv_spec(const TripleKey& key) {
  require_rank(key, kMaxTripleKeyDims);
  const Shape& dims = key.dims;
  // dims[2..8]: rows, channels, image, output channels and kernel.
  for (std::size_t i = 2; i <= 8; ++i) {
    if (dims[i] == 0) {
      throw InvalidArgument("fixed_conv_triple key has a zero size");
    }
  }
  ConvSpec conv;
  conv.in_channels = dims[3];
  conv.in_height = dims[4];
  conv.in_width = dims[5];
  conv.out_channels = dims[6];
  conv.kernel_h = dims[7];
  conv.kernel_w = dims[8];
  conv.pad = dims[9];
  conv.stride = dims[10];
  if (conv.stride == 0) {
    throw InvalidArgument("fixed_conv_triple key has stride 0");
  }
  const std::size_t padding = checked_mul(conv.pad, 2);
  if (conv.kernel_h > checked_add(conv.in_height, padding) ||
      conv.kernel_w > checked_add(conv.in_width, padding)) {
    throw InvalidArgument(
        "fixed_conv_triple kernel is larger than the padded input");
  }
  (void)fixed_conv_work(dims[2], conv);
  return conv;
}

std::size_t material_entry_values(const TripleKey& key) {
  if (key.kind == TripleKind::kFixedConvTriple) {
    return fixed_conv_work(key.dims[2], fixed_conv_spec(key));
  }
  const std::size_t skip = is_fixed_operand_kind(key.kind) ? 2 : 0;
  std::size_t values = 1;
  for (std::size_t i = skip; i < key.dims.size(); ++i) {
    values = checked_mul(values, std::max<std::size_t>(key.dims[i], 1));
  }
  return values;
}

std::size_t TripleKeyHash::operator()(const TripleKey& key) const {
  std::uint64_t h = mix64(static_cast<std::uint64_t>(key.kind) + 1);
  for (std::size_t dim : key.dims) {
    h = mix64(h ^ static_cast<std::uint64_t>(dim));
  }
  return static_cast<std::size_t>(h);
}

std::uint64_t derive_material_seed(std::uint64_t master_seed,
                                   const TripleKey& key, std::uint64_t index) {
  std::uint64_t h = mix64(master_seed);
  h = mix64(h ^ (static_cast<std::uint64_t>(key.kind) + 0x51ULL));
  h = mix64(h ^ static_cast<std::uint64_t>(key.dims.size()));
  for (std::size_t dim : key.dims) {
    h = mix64(h ^ static_cast<std::uint64_t>(dim));
  }
  return mix64(h ^ index);
}

std::array<MaterialBatch, kNumParties> deal_material(const TripleKey& key,
                                                     std::uint64_t start,
                                                     std::size_t count,
                                                     std::uint64_t master_seed,
                                                     int frac_bits) {
  std::array<MaterialBatch, kNumParties> out;
  // One B serves the whole range of a fixed-triple request.
  RingTensor fixed_b;
  ConvSpec conv;
  if (key.kind == TripleKind::kFixedTriple ||
      key.kind == TripleKind::kFixedConvTriple) {
    TripleKey mask_key;
    if (key.kind == TripleKind::kFixedTriple) {
      require_rank(key, 5);
      mask_key = TripleKey::fixed_mask(key.dims[0], key.dims[1], key.dims[3],
                                       key.dims[4]);
    } else {
      conv = fixed_conv_spec(key);
      mask_key = TripleKey::fixed_mask(key.dims[0], key.dims[1],
                                       conv.out_channels, conv.col_rows());
    }
    Rng mask_rng(derive_material_seed(master_seed, mask_key, 0));
    fixed_b = fixed_mask_value(mask_key, mask_rng);
  }
  for (std::size_t i = 0; i < count; ++i) {
    // Fresh generator per entry: material is addressable by (key,
    // index) alone, independent of the range it was requested in.
    Rng rng(derive_material_seed(master_seed, key, start + i));
    switch (key.kind) {
      case TripleKind::kMul: {
        const auto views = deal_mul_triple(key.dims, rng);
        for (int p = 0; p < kNumParties; ++p) {
          out[static_cast<std::size_t>(p)].triples.push_back(
              views[static_cast<std::size_t>(p)]);
        }
        break;
      }
      case TripleKind::kMatMul: {
        if (key.dims.size() != 3) {
          throw InvalidArgument("matmul triple key needs dims {m, k, n}");
        }
        const auto views =
            deal_matmul_triple(key.dims[0], key.dims[1], key.dims[2], rng);
        for (int p = 0; p < kNumParties; ++p) {
          out[static_cast<std::size_t>(p)].triples.push_back(
              views[static_cast<std::size_t>(p)]);
        }
        break;
      }
      case TripleKind::kCompAux: {
        const auto views = deal_positive_aux(key.dims, frac_bits, rng);
        for (int p = 0; p < kNumParties; ++p) {
          out[static_cast<std::size_t>(p)].aux.push_back(
              views[static_cast<std::size_t>(p)]);
        }
        break;
      }
      case TripleKind::kTruncPair: {
        const auto views = deal_trunc_pair(key.dims, frac_bits, rng);
        for (int p = 0; p < kNumParties; ++p) {
          out[static_cast<std::size_t>(p)].pairs.push_back(
              views[static_cast<std::size_t>(p)]);
        }
        break;
      }
      case TripleKind::kFixedMask: {
        require_rank(key, 4);
        Rng mask_rng(derive_material_seed(master_seed, key, 0));
        const RingTensor b = fixed_mask_value(key, mask_rng);
        const auto views = share_secret(b, mask_rng);
        for (int p = 0; p < kNumParties; ++p) {
          out[static_cast<std::size_t>(p)].aux.push_back(
              views[static_cast<std::size_t>(p)]);
        }
        break;
      }
      case TripleKind::kFixedTriple:
      case TripleKind::kFixedConvTriple: {
        // The input-side mask: a [m,k] with c = a×B, or for a conv M in
        // image shape with C = B·im2col(M) (weights on the left).
        const bool is_conv = key.kind == TripleKind::kFixedConvTriple;
        const RingTensor a = random_ring_tensor(
            is_conv ? Shape{key.dims[2], conv.in_channels * conv.in_height *
                                             conv.in_width}
                    : Shape{key.dims[2], key.dims[3]},
            rng);
        const auto a_views = share_secret(a, rng);
        const auto c_views = share_secret(
            is_conv ? matmul(fixed_b, batch_im2col(a, conv))
                    : matmul(a, fixed_b),
            rng);
        for (int p = 0; p < kNumParties; ++p) {
          const auto index = static_cast<std::size_t>(p);
          out[index].triples.push_back(
              BeaverTripleShare{a_views[index], {}, c_views[index]});
        }
        break;
      }
    }
  }
  return out;
}

}  // namespace trustddl::mpc
