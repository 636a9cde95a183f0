#include "mpc/share_serde.hpp"

#include "numeric/serde.hpp"

namespace trustddl::mpc {

void write_party_share(ByteWriter& writer, const PartyShare& share) {
  write_tensor(writer, share.primary);
  write_tensor(writer, share.duplicate);
  write_tensor(writer, share.second);
}

PartyShare read_party_share(ByteReader& reader) {
  PartyShare share;
  share.primary = read_tensor(reader);
  share.duplicate = read_tensor(reader);
  share.second = read_tensor(reader);
  return share;
}

void write_beaver_share(ByteWriter& writer, const BeaverTripleShare& triple) {
  write_party_share(writer, triple.a);
  write_party_share(writer, triple.b);
  write_party_share(writer, triple.c);
}

BeaverTripleShare read_beaver_share(ByteReader& reader) {
  BeaverTripleShare triple;
  triple.a = read_party_share(reader);
  triple.b = read_party_share(reader);
  triple.c = read_party_share(reader);
  return triple;
}

void write_trunc_pair(ByteWriter& writer, const TruncPairShare& pair) {
  write_party_share(writer, pair.r);
  write_party_share(writer, pair.r_shifted);
}

TruncPairShare read_trunc_pair(ByteReader& reader) {
  TruncPairShare pair;
  pair.r = read_party_share(reader);
  pair.r_shifted = read_party_share(reader);
  return pair;
}

void write_fixed_triple(ByteWriter& writer, const BeaverTripleShare& triple) {
  write_party_share(writer, triple.a);
  write_party_share(writer, triple.c);
}

BeaverTripleShare read_fixed_triple(ByteReader& reader) {
  BeaverTripleShare triple;
  triple.a = read_party_share(reader);
  triple.c = read_party_share(reader);
  return triple;
}

}  // namespace trustddl::mpc
