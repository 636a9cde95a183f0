#include "mpc/protocols_bt.hpp"

#include "numeric/conv.hpp"
#include "numeric/fixed_point.hpp"
#include "numeric/kernels.hpp"
#include "obs/trace.hpp"

namespace trustddl::mpc {
namespace {

/// Shared tail of SecMul-BT / SecMatMul-BT (Algorithm 4 lines 21-24):
/// combine the opened masks e, f with the triple shares (a, b, c).
/// `product` abstracts elementwise vs matrix multiplication.
template <typename ProductFn>
PartyShare combine_masked(const RingTensor& e, const RingTensor& f,
                          const PartyShare& a, const PartyShare& b,
                          const PartyShare& c, const ProductFn& product) {
  PartyShare z;
  z.primary = c.primary + product(e, b.primary) + product(a.primary, f);
  z.duplicate =
      c.duplicate + product(e, b.duplicate) + product(a.duplicate, f);
  // r = 2 in Algorithm 4: the e·f term goes into share 2 of every set,
  // which each party holds for exactly one set.
  z.second = c.second + product(e, b.second) + product(a.second, f) +
             product(e, f);
  return z;
}

template <typename ProductFn>
PartyShare combine_with_triple(const RingTensor& e, const RingTensor& f,
                               const BeaverTripleShare& triple,
                               const ProductFn& product) {
  return combine_masked(e, f, triple.a, triple.b, triple.c, product);
}

RingTensor hadamard_product(const RingTensor& lhs, const RingTensor& rhs) {
  return kernels::hadamard_parallel(lhs, rhs);
}

RingTensor matmul_product(const RingTensor& lhs, const RingTensor& rhs) {
  return matmul(lhs, rhs);
}

/// Shared head of the deferred multiplications: enqueue the opening of
/// (e, f) = (x − a, y − b) and hand the continuation the combine step.
template <typename ProductFn>
DeferredShare masked_multiply_prepare(OpenBatch& batch, const PartyShare& x,
                                      const PartyShare& y,
                                      const BeaverTripleShare& triple,
                                      const ProductFn& product) {
  DeferredShare out;
  const int party = batch.context().party;
  std::vector<PartyShare> masked;
  {
    obs::ScopedSpan mask_span("proto.mask", party, batch.context().step);
    masked.push_back(x - triple.a);
    masked.push_back(y - triple.b);
  }
  batch.enqueue(
      std::move(masked),
      [out, triple, product, party](std::vector<RingTensor> opened) mutable {
        obs::ScopedSpan combine_span("proto.combine", party);
        out.set(combine_with_triple(opened[0], opened[1], triple, product));
      });
  return out;
}

/// Opens E = x − a, the only per-batch opening of the one-sided
/// products over a fixed operand.
RingTensor open_input_mask(PartyContext& ctx, const PartyShare& x,
                           const PartyShare& a) {
  OpenBatch batch(ctx);
  DeferredTensor e;
  {
    obs::ScopedSpan mask_span("proto.mask", ctx.party, ctx.step);
    e = batch.enqueue_value(x - a);
  }
  batch.flush_all();
  return e.take();
}

RingTensor signs_from_beta(const RingTensor& beta) {
  RingTensor signs(beta.shape());
  for (std::size_t i = 0; i < signs.size(); ++i) {
    signs[i] = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(fx::sign(beta[i])));
  }
  return signs;
}

RingTensor shift_public(const RingTensor& d, int frac_bits) {
  RingTensor shifted(d.shape());
  for (std::size_t i = 0; i < d.size(); ++i) {
    shifted[i] = fx::truncate(d[i], frac_bits);
  }
  return shifted;
}

}  // namespace

DeferredShare sec_mul_bt_prepare(OpenBatch& batch, const PartyShare& x,
                                 const PartyShare& y,
                                 const BeaverTripleShare& triple) {
  TRUSTDDL_REQUIRE(x.shape() == y.shape(),
                   "sec_mul_bt: operand shapes differ");
  return masked_multiply_prepare(batch, x, y, triple, hadamard_product);
}

DeferredShare sec_matmul_bt_prepare(OpenBatch& batch, const PartyShare& x,
                                    const PartyShare& y,
                                    const BeaverTripleShare& triple) {
  TRUSTDDL_REQUIRE(x.shape().size() == 2 && y.shape().size() == 2 &&
                       x.shape()[1] == y.shape()[0],
                   "sec_matmul_bt: incompatible operand shapes");
  return masked_multiply_prepare(batch, x, y, triple, matmul_product);
}

void sec_comp_bt_prepare_on(OpenBatch& batch, const PartyShare& x,
                            const PartyShare& y, const PartyShare& t_aux,
                            const BeaverTripleShare& triple,
                            std::function<void(RingTensor)> on_signs) {
  TRUSTDDL_REQUIRE(x.shape() == y.shape(),
                   "sec_comp_bt: operand shapes differ");
  // beta = t ⊙ (x - y); t has positive entries, so sign(beta) equals
  // sign(x - y) while the magnitude stays masked.
  const PartyShare alpha = x - y;
  std::vector<PartyShare> masked;
  masked.push_back(t_aux - triple.a);
  masked.push_back(alpha - triple.b);
  batch.enqueue(
      std::move(masked),
      [&batch, on_signs = std::move(on_signs),
       triple](std::vector<RingTensor> opened) mutable {
        PartyShare beta = combine_with_triple(opened[0], opened[1], triple,
                                              hadamard_product);
        // The β opening depends on this round's result, so it lands in
        // the NEXT flush — alongside every other chained opening.
        std::vector<PartyShare> follow_up;
        follow_up.push_back(std::move(beta));
        batch.enqueue(std::move(follow_up),
                      [on_signs = std::move(on_signs)](
                          std::vector<RingTensor> opened_beta) mutable {
                        on_signs(signs_from_beta(opened_beta[0]));
                      });
      });
}

DeferredTensor sec_comp_bt_prepare(OpenBatch& batch, const PartyShare& x,
                                   const PartyShare& y,
                                   const PartyShare& t_aux,
                                   const BeaverTripleShare& triple) {
  DeferredTensor out;
  sec_comp_bt_prepare_on(batch, x, y, t_aux, triple,
                         [out](RingTensor signs) mutable {
                           out.set(std::move(signs));
                         });
  return out;
}

DeferredTensor sec_sign_bt_prepare(OpenBatch& batch, const PartyShare& x,
                                   const PartyShare& t_aux,
                                   const BeaverTripleShare& triple) {
  return sec_comp_bt_prepare(batch, x, zero_share(x.shape()), t_aux, triple);
}

DeferredShare truncate_product_masked_prepare(OpenBatch& batch,
                                              const PartyShare& z,
                                              const TruncPairShare& pair) {
  TRUSTDDL_REQUIRE(z.shape() == pair.r.shape(),
                   "truncate_product_masked: pair shape mismatch");
  DeferredShare out;
  const int frac_bits = batch.context().frac_bits;
  // Open d = v - r; r is uniform 62-bit so d never wraps for bounded v
  // and statistically hides it.  The public shift is then exact and,
  // crucially, identical at every party — all six reconstructions of
  // downstream values stay consistent.
  std::vector<PartyShare> masked;
  masked.push_back(z - pair.r);
  batch.enqueue(std::move(masked),
                [out, pair, frac_bits](std::vector<RingTensor> opened) mutable {
                  PartyShare result = pair.r_shifted;
                  result.add_public(shift_public(opened[0], frac_bits));
                  out.set(std::move(result));
                });
  return out;
}

DeferredShare sec_matmul_bt_rescaled_prepare(
    OpenBatch& batch, const PartyShare& x, const PartyShare& y,
    const BeaverTripleShare& triple, TruncationMode trunc_mode,
    const TruncPairShare* pair) {
  TRUSTDDL_REQUIRE(x.shape().size() == 2 && y.shape().size() == 2 &&
                       x.shape()[1] == y.shape()[0],
                   "sec_matmul_bt: incompatible operand shapes");
  DeferredShare out;
  const int frac_bits = batch.context().frac_bits;
  if (trunc_mode == TruncationMode::kLocal) {
    std::vector<PartyShare> masked;
    masked.push_back(x - triple.a);
    masked.push_back(y - triple.b);
    batch.enqueue(std::move(masked),
                  [out, triple, frac_bits](
                      std::vector<RingTensor> opened) mutable {
                    PartyShare z = combine_with_triple(
                        opened[0], opened[1], triple, matmul_product);
                    z.truncate_local(frac_bits);
                    out.set(std::move(z));
                  });
    return out;
  }
  TRUSTDDL_REQUIRE(pair != nullptr,
                   "sec_matmul_bt_rescaled_prepare: masked-open rescale "
                   "needs a truncation pair");
  const TruncPairShare trunc = *pair;
  TRUSTDDL_REQUIRE(
      trunc.r.shape() == Shape({x.shape()[0], y.shape()[1]}),
      "sec_matmul_bt_rescaled_prepare: pair shape mismatch");
  std::vector<PartyShare> masked;
  masked.push_back(x - triple.a);
  masked.push_back(y - triple.b);
  batch.enqueue(
      std::move(masked),
      [&batch, out, triple, trunc,
       frac_bits](std::vector<RingTensor> opened) mutable {
        const PartyShare z = combine_with_triple(opened[0], opened[1], triple,
                                                 matmul_product);
        // Chain the masked-open truncation into the next flush: every
        // matmul prepared against this batch shares that round too.
        std::vector<PartyShare> follow_up;
        follow_up.push_back(z - trunc.r);
        batch.enqueue(std::move(follow_up),
                      [out, trunc, frac_bits](
                          std::vector<RingTensor> opened_d) mutable {
                        PartyShare result = trunc.r_shifted;
                        result.add_public(
                            shift_public(opened_d[0], frac_bits));
                        out.set(std::move(result));
                      });
      });
  return out;
}

PartyShare sec_mul_bt(PartyContext& ctx, const PartyShare& x,
                      const PartyShare& y, const BeaverTripleShare& triple) {
  obs::ScopedSpan span("proto.sec_mul_bt", ctx.party, ctx.step);
  OpenBatch batch(ctx);
  DeferredShare z = sec_mul_bt_prepare(batch, x, y, triple);
  batch.flush_all();
  return z.take();
}

PartyShare sec_matmul_bt(PartyContext& ctx, const PartyShare& x,
                         const PartyShare& y,
                         const BeaverTripleShare& triple) {
  obs::ScopedSpan span("proto.sec_matmul_bt", ctx.party, ctx.step);
  OpenBatch batch(ctx);
  DeferredShare z = sec_matmul_bt_prepare(batch, x, y, triple);
  batch.flush_all();
  return z.take();
}

PartyShare sec_matmul_bt_fixed(PartyContext& ctx, const PartyShare& x,
                               const FixedOperand& w,
                               const BeaverTripleShare& triple) {
  TRUSTDDL_REQUIRE(x.shape().size() == 2 && w.f.shape().size() == 2 &&
                       x.shape()[1] == w.f.shape()[0] &&
                       triple.a.shape() == x.shape(),
                   "sec_matmul_bt_fixed: incompatible operand shapes");
  obs::ScopedSpan span("proto.sec_matmul_bt", ctx.party, ctx.step);
  const RingTensor e = open_input_mask(ctx, x, triple.a);
  obs::ScopedSpan combine_span("proto.combine", ctx.party);
  return combine_masked(e, w.f, triple.a, w.b, triple.c, matmul_product);
}

PartyShare sec_conv_bt_fixed(PartyContext& ctx, const PartyShare& x,
                             const FixedOperand& w,
                             const BeaverTripleShare& triple,
                             const ConvSpec& conv) {
  TRUSTDDL_REQUIRE(
      x.shape().size() == 2 &&
          x.shape()[1] ==
              conv.in_channels * conv.in_height * conv.in_width &&
          triple.a.shape() == x.shape() &&
          w.f.shape() == Shape({conv.out_channels, conv.col_rows()}),
      "sec_conv_bt_fixed: incompatible operand shapes");
  obs::ScopedSpan span("proto.sec_matmul_bt", ctx.party, ctx.step);
  const RingTensor e = open_input_mask(ctx, x, triple.a);
  obs::ScopedSpan combine_span("proto.combine", ctx.party);
  const RingTensor e_columns = batch_im2col(e, conv);
  const PartyShare m_columns =
      transform_share(triple.a, [&](const RingTensor& m) {
        return batch_im2col(m, conv);
      });
  return combine_masked(w.f, e_columns, w.b, m_columns, triple.c,
                        matmul_product);
}

RingTensor sec_comp_bt(PartyContext& ctx, const PartyShare& x,
                       const PartyShare& y, const PartyShare& t_aux,
                       const BeaverTripleShare& triple) {
  obs::ScopedSpan span("proto.sec_comp_bt", ctx.party, ctx.step);
  OpenBatch batch(ctx);
  DeferredTensor signs = sec_comp_bt_prepare(batch, x, y, t_aux, triple);
  batch.flush_all();
  return signs.take();
}

RingTensor sec_sign_bt(PartyContext& ctx, const PartyShare& x,
                       const PartyShare& t_aux,
                       const BeaverTripleShare& triple) {
  return sec_comp_bt(ctx, x, zero_share(x.shape()), t_aux, triple);
}

RingTensor positive_mask(const RingTensor& signs) {
  RingTensor mask(signs.shape());
  for (std::size_t i = 0; i < mask.size(); ++i) {
    mask[i] = (static_cast<std::int64_t>(signs[i]) > 0) ? 1u : 0u;
  }
  return mask;
}

PartyShare truncate_product_local(const PartyShare& z, int frac_bits) {
  PartyShare out = z;
  out.truncate_local(frac_bits);
  return out;
}

PartyShare truncate_product_masked(PartyContext& ctx, const PartyShare& z,
                                   const TruncPairShare& pair) {
  OpenBatch batch(ctx);
  DeferredShare out = truncate_product_masked_prepare(batch, z, pair);
  batch.flush_all();
  return out.take();
}

}  // namespace trustddl::mpc
