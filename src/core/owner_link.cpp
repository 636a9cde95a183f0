#include "core/owner_link.hpp"

#include "core/roles.hpp"
#include "mpc/share_serde.hpp"
#include "numeric/serde.hpp"

namespace trustddl::core {

Bytes OwnerLink::unary_roundtrip(Bytes request) {
  std::uint64_t id = 0;
  {
    // Counter allocation and send are one atomic step so ids reach the
    // owner gap-free and in order per party.
    std::lock_guard<std::mutex> lock(mu_);
    id = unary_counter_++;
    endpoint_.send(kModelOwner, "req/" + std::to_string(id),
                   std::move(request));
  }
  return endpoint_.recv(kModelOwner, "rsp/" + std::to_string(id),
                        response_timeout_);
}

Bytes OwnerLink::collective_roundtrip(Bytes request) {
  std::uint64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = collective_counter_++;
  }
  endpoint_.send(kModelOwner, "col/" + std::to_string(id),
                 std::move(request));
  return endpoint_.recv(kModelOwner, "crsp/" + std::to_string(id),
                        response_timeout_);
}

void OwnerLink::collective_send(Bytes request) {
  std::uint64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = collective_counter_++;
  }
  endpoint_.send(kModelOwner, "col/" + std::to_string(id),
                 std::move(request));
}

mpc::MaterialBatch OwnerLink::fill(const mpc::TripleKey& key,
                                   std::uint64_t start, std::size_t count) {
  ByteWriter request;
  request.write_u8(static_cast<std::uint8_t>(OwnerOp::kBatchFill));
  request.write_u8(static_cast<std::uint8_t>(key.kind));
  request.write_u64(key.dims.size());
  for (std::size_t dim : key.dims) {
    request.write_u64(dim);
  }
  request.write_u64(start);
  request.write_u32(static_cast<std::uint32_t>(count));

  ByteReader response(unary_roundtrip(request.take()));
  const std::uint32_t served = response.read_u32();
  if (served == 0) {
    throw MaterialRefused(std::string("owner refused ") +
                          mpc::triple_kind_name(key.kind) + " material");
  }
  if (served != count) {
    throw ProtocolError("owner served short material batch");
  }
  mpc::MaterialBatch batch;
  for (std::uint32_t i = 0; i < served; ++i) {
    switch (key.kind) {
      case mpc::TripleKind::kMul:
      case mpc::TripleKind::kMatMul:
        batch.triples.push_back(mpc::read_beaver_share(response));
        break;
      case mpc::TripleKind::kFixedTriple:
      case mpc::TripleKind::kFixedConvTriple:
        batch.triples.push_back(mpc::read_fixed_triple(response));
        break;
      case mpc::TripleKind::kCompAux:
      case mpc::TripleKind::kFixedMask:
        batch.aux.push_back(mpc::read_party_share(response));
        break;
      case mpc::TripleKind::kTruncPair:
        batch.pairs.push_back(mpc::read_trunc_pair(response));
        break;
    }
  }
  return batch;
}

mpc::PartyShare OwnerLink::softmax_forward(const mpc::PartyShare& logits) {
  ByteWriter request;
  request.write_u8(static_cast<std::uint8_t>(OwnerOp::kSoftmaxForward));
  mpc::write_party_share(request, logits);
  ByteReader response(collective_roundtrip(request.take()));
  return mpc::read_party_share(response);
}

mpc::PartyShare OwnerLink::softmax_backward(
    const mpc::PartyShare& probabilities, const mpc::PartyShare& grad) {
  ByteWriter request;
  request.write_u8(static_cast<std::uint8_t>(OwnerOp::kSoftmaxBackward));
  mpc::write_party_share(request, probabilities);
  mpc::write_party_share(request, grad);
  ByteReader response(collective_roundtrip(request.take()));
  return mpc::read_party_share(response);
}

void OwnerLink::reveal(const std::string& key, const mpc::PartyShare& share) {
  ByteWriter request;
  request.write_u8(static_cast<std::uint8_t>(OwnerOp::kReveal));
  request.write_string(key);
  mpc::write_party_share(request, share);
  collective_send(request.take());
}

void OwnerLink::stop() {
  ByteWriter request;
  request.write_u8(static_cast<std::uint8_t>(OwnerOp::kStop));
  collective_send(request.take());
}

}  // namespace trustddl::core
