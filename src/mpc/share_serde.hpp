// Serialization of share triples and preprocessing material for
// owner <-> party messages.
#pragma once

#include "common/bytes.hpp"
#include "mpc/beaver.hpp"
#include "mpc/sharing.hpp"

namespace trustddl::mpc {

void write_party_share(ByteWriter& writer, const PartyShare& share);
PartyShare read_party_share(ByteReader& reader);

void write_beaver_share(ByteWriter& writer, const BeaverTripleShare& triple);
BeaverTripleShare read_beaver_share(ByteReader& reader);

void write_trunc_pair(ByteWriter& writer, const TruncPairShare& pair);
TruncPairShare read_trunc_pair(ByteReader& reader);

/// A kFixedTriple entry: only `a` and `c` travel (its `b` is the
/// layer's fixed mask, held since start-up).
void write_fixed_triple(ByteWriter& writer, const BeaverTripleShare& triple);
BeaverTripleShare read_fixed_triple(ByteReader& reader);

}  // namespace trustddl::mpc
