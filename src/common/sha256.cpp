#include "common/sha256.hpp"

#include <algorithm>
#include <cstring>

#include "common/error.hpp"
#include "numeric/simd.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define TRUSTDDL_SHA_X86 1
#include <immintrin.h>
#endif

namespace trustddl {
namespace {

using State = std::array<std::uint32_t, 8>;

constexpr State kInitState = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                              0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

constexpr std::uint32_t kRoundConstants[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

inline std::uint32_t load_be32(const std::uint8_t* bytes) {
  return (static_cast<std::uint32_t>(bytes[0]) << 24) |
         (static_cast<std::uint32_t>(bytes[1]) << 16) |
         (static_cast<std::uint32_t>(bytes[2]) << 8) |
         static_cast<std::uint32_t>(bytes[3]);
}

/// The portable FIPS 180-4 compressor — the reference every
/// accelerated path must match byte for byte.
void compress_scalar(State& state, const std::uint8_t* block) {
  std::uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = load_be32(block + 4 * i);
  }
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 =
        rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 =
        rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

  for (int i = 0; i < 64; ++i) {
    const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t temp1 = h + s1 + ch + kRoundConstants[i] + w[i];
    const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t temp2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + temp1;
    d = c;
    c = b;
    b = a;
    a = temp1 + temp2;
  }

  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

#if defined(TRUSTDDL_SHA_X86)

/// SHA-NI compressor: the hardware message-schedule/round engine
/// (sha256msg1/msg2/rnds2) with the standard ABEF/CDGH state packing.
/// Schedule bookkeeping: quad q consumes message words W[4q..4q+3];
/// the msg1 half of producing W-quad q+4 runs at quads [1, 12], the
/// alignr+msg2 half at quads [3, 14].
__attribute__((target("sha,ssse3,sse4.1"))) void compress_sha_ni(
    State& state, const std::uint8_t* data, std::size_t count) {
  const __m128i kByteSwap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bll, 0x0405060700010203ll);

  // Pack a,b,..,h into ABEF / CDGH vector order.
  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));
  __m128i state1 =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));
  tmp = _mm_shuffle_epi32(tmp, 0xB1);        // CDAB
  state1 = _mm_shuffle_epi32(state1, 0x1B);  // EFGH
  __m128i state0 = _mm_alignr_epi8(tmp, state1, 8);   // ABEF
  state1 = _mm_blend_epi16(state1, tmp, 0xF0);        // CDGH

  for (std::size_t blk = 0; blk < count; ++blk, data += 64) {
    const __m128i save0 = state0;
    const __m128i save1 = state1;
    __m128i m[4];
    for (int q = 0; q < 16; ++q) {
      __m128i& m0 = m[q % 4];
      __m128i& m1 = m[(q + 1) % 4];
      __m128i& m3 = m[(q + 3) % 4];
      if (q < 4) {
        m0 = _mm_shuffle_epi8(
            _mm_loadu_si128(
                reinterpret_cast<const __m128i*>(data + 16 * q)),
            kByteSwap);
      }
      __m128i msg = _mm_add_epi32(
          m0, _mm_loadu_si128(
                  reinterpret_cast<const __m128i*>(&kRoundConstants[4 * q])));
      state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
      if (q >= 3 && q <= 14) {
        m1 = _mm_add_epi32(m1, _mm_alignr_epi8(m0, m3, 4));
        m1 = _mm_sha256msg2_epu32(m1, m0);
      }
      msg = _mm_shuffle_epi32(msg, 0x0E);
      state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
      if (q >= 1 && q <= 12) {
        m3 = _mm_sha256msg1_epu32(m3, m0);
      }
    }
    state0 = _mm_add_epi32(state0, save0);
    state1 = _mm_add_epi32(state1, save1);
  }

  tmp = _mm_shuffle_epi32(state0, 0x1B);     // FEBA
  state1 = _mm_shuffle_epi32(state1, 0xB1);  // DCHG
  state0 = _mm_blend_epi16(tmp, state1, 0xF0);  // DCBA
  state1 = _mm_alignr_epi8(state1, tmp, 8);     // HGFE
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]), state0);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]), state1);
}

bool sha_ni_enabled() {
  return simd::cpu_has_sha_ni() &&
         simd::active_backend() != simd::Backend::kScalar;
}

// --- 4-lane lockstep compressor (plain SSE2, x86-64 baseline) -------
//
// Lane l of every vector holds message l's value of that word: the 64
// rounds run once for four independent blocks.  Used while all lanes
// of a batch still have full blocks; ragged tails finish per lane.

inline __m128i rotr_epi32(__m128i x, int n) {
  return _mm_or_si128(_mm_srli_epi32(x, n), _mm_slli_epi32(x, 32 - n));
}

void compress_x4(__m128i state[8], const std::uint8_t* const blocks[4]) {
  __m128i w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = _mm_set_epi32(
        static_cast<int>(load_be32(blocks[3] + 4 * i)),
        static_cast<int>(load_be32(blocks[2] + 4 * i)),
        static_cast<int>(load_be32(blocks[1] + 4 * i)),
        static_cast<int>(load_be32(blocks[0] + 4 * i)));
  }
  for (int i = 16; i < 64; ++i) {
    const __m128i w15 = w[i - 15];
    const __m128i w2 = w[i - 2];
    const __m128i s0 = _mm_xor_si128(
        _mm_xor_si128(rotr_epi32(w15, 7), rotr_epi32(w15, 18)),
        _mm_srli_epi32(w15, 3));
    const __m128i s1 = _mm_xor_si128(
        _mm_xor_si128(rotr_epi32(w2, 17), rotr_epi32(w2, 19)),
        _mm_srli_epi32(w2, 10));
    w[i] = _mm_add_epi32(_mm_add_epi32(w[i - 16], s0),
                         _mm_add_epi32(w[i - 7], s1));
  }

  __m128i a = state[0], b = state[1], c = state[2], d = state[3];
  __m128i e = state[4], f = state[5], g = state[6], h = state[7];

  for (int i = 0; i < 64; ++i) {
    const __m128i s1 = _mm_xor_si128(
        _mm_xor_si128(rotr_epi32(e, 6), rotr_epi32(e, 11)),
        rotr_epi32(e, 25));
    const __m128i ch =
        _mm_xor_si128(_mm_and_si128(e, f), _mm_andnot_si128(e, g));
    const __m128i temp1 = _mm_add_epi32(
        _mm_add_epi32(_mm_add_epi32(h, s1), _mm_add_epi32(ch, w[i])),
        _mm_set1_epi32(static_cast<int>(kRoundConstants[i])));
    const __m128i s0 = _mm_xor_si128(
        _mm_xor_si128(rotr_epi32(a, 2), rotr_epi32(a, 13)),
        rotr_epi32(a, 22));
    const __m128i maj = _mm_xor_si128(
        _mm_xor_si128(_mm_and_si128(a, b), _mm_and_si128(a, c)),
        _mm_and_si128(b, c));
    const __m128i temp2 = _mm_add_epi32(s0, maj);
    h = g;
    g = f;
    f = e;
    e = _mm_add_epi32(d, temp1);
    d = c;
    c = b;
    b = a;
    a = _mm_add_epi32(temp1, temp2);
  }

  state[0] = _mm_add_epi32(state[0], a);
  state[1] = _mm_add_epi32(state[1], b);
  state[2] = _mm_add_epi32(state[2], c);
  state[3] = _mm_add_epi32(state[3], d);
  state[4] = _mm_add_epi32(state[4], e);
  state[5] = _mm_add_epi32(state[5], f);
  state[6] = _mm_add_epi32(state[6], g);
  state[7] = _mm_add_epi32(state[7], h);
}

#endif  // TRUSTDDL_SHA_X86

void compress_blocks(State& state, const std::uint8_t* data,
                     std::size_t count) {
#if defined(TRUSTDDL_SHA_X86)
  if (sha_ni_enabled()) {
    compress_sha_ni(state, data, count);
    return;
  }
#endif
  for (std::size_t i = 0; i < count; ++i) {
    compress_scalar(state, data + 64 * i);
  }
}

void store_digest(const State& state, Sha256Digest& digest) {
  for (int i = 0; i < 8; ++i) {
    digest[4 * i] = static_cast<std::uint8_t>(state[i] >> 24);
    digest[4 * i + 1] = static_cast<std::uint8_t>(state[i] >> 16);
    digest[4 * i + 2] = static_cast<std::uint8_t>(state[i] >> 8);
    digest[4 * i + 3] = static_cast<std::uint8_t>(state[i]);
  }
}

/// Finish one message from mid-stream: `rest` are the bytes after the
/// blocks already compressed into `state`; `total_bytes` the full
/// message length.  Byte-identical to Sha256 update+finish.
Sha256Digest finish_from(State state, const std::uint8_t* rest,
                         std::size_t rest_size, std::uint64_t total_bytes) {
  const std::size_t full = rest_size / 64;
  compress_blocks(state, rest, full);
  rest += full * 64;
  rest_size -= full * 64;

  std::uint8_t pad[128] = {0};
  if (rest_size != 0) {  // an empty message's data pointer may be null
    std::memcpy(pad, rest, rest_size);
  }
  pad[rest_size] = 0x80;
  const std::size_t pad_blocks = rest_size < 56 ? 1 : 2;
  const std::uint64_t bit_length = total_bytes * 8;
  for (int i = 0; i < 8; ++i) {
    pad[pad_blocks * 64 - 8 + i] =
        static_cast<std::uint8_t>(bit_length >> (8 * (7 - i)));
  }
  compress_blocks(state, pad, pad_blocks);

  Sha256Digest digest;
  store_digest(state, digest);
  return digest;
}

#if defined(TRUSTDDL_SHA_X86)

/// Up to four messages in lockstep.  `digests[l]` may be null for
/// padding lanes (shorter final groups re-point spare lanes at the
/// first message and discard their output).
void sha256_batch4(const Bytes* const messages[4],
                   Sha256Digest* const digests[4]) {
  std::size_t min_blocks = messages[0]->size() / 64;
  for (int l = 1; l < 4; ++l) {
    min_blocks = std::min(min_blocks, messages[l]->size() / 64);
  }

  __m128i state[8];
  for (int j = 0; j < 8; ++j) {
    state[j] = _mm_set1_epi32(static_cast<int>(kInitState[j]));
  }
  const std::uint8_t* blocks[4];
  for (std::size_t b = 0; b < min_blocks; ++b) {
    for (int l = 0; l < 4; ++l) {
      blocks[l] = messages[l]->data() + 64 * b;
    }
    compress_x4(state, blocks);
  }

  alignas(16) std::uint32_t words[8][4];
  for (int j = 0; j < 8; ++j) {
    _mm_store_si128(reinterpret_cast<__m128i*>(words[j]), state[j]);
  }
  for (int l = 0; l < 4; ++l) {
    if (digests[l] == nullptr) {
      continue;
    }
    State lane_state;
    for (int j = 0; j < 8; ++j) {
      lane_state[j] = words[j][l];
    }
    *digests[l] = finish_from(lane_state, messages[l]->data() + 64 * min_blocks,
                              messages[l]->size() - 64 * min_blocks,
                              messages[l]->size());
  }
}

#endif  // TRUSTDDL_SHA_X86

}  // namespace

Sha256::Sha256() : state_(kInitState) {}

void Sha256::process_blocks(const std::uint8_t* data, std::size_t count) {
  compress_blocks(state_, data, count);
}

void Sha256::update(const std::uint8_t* data, std::size_t size) {
  TRUSTDDL_ASSERT_MSG(!finished_, "Sha256 reused after finish()");
  total_bytes_ += size;
  if (buffered_ > 0) {
    const std::size_t take = std::min(size, buffer_.size() - buffered_);
    std::memcpy(buffer_.data() + buffered_, data, take);
    buffered_ += take;
    data += take;
    size -= take;
    if (buffered_ == buffer_.size()) {
      process_blocks(buffer_.data(), 1);
      buffered_ = 0;
    }
  }
  // Bulk fast path: full blocks compress straight from the caller's
  // buffer (one SHA-NI sweep when available) instead of staging each
  // through the 64-byte buffer.
  if (size >= buffer_.size()) {
    const std::size_t blocks = size / buffer_.size();
    process_blocks(data, blocks);
    data += blocks * buffer_.size();
    size -= blocks * buffer_.size();
  }
  if (size > 0) {
    std::memcpy(buffer_.data(), data, size);
    buffered_ = size;
  }
}

Sha256Digest Sha256::finish() {
  TRUSTDDL_ASSERT_MSG(!finished_, "Sha256 reused after finish()");
  finished_ = true;

  const std::uint64_t bit_length = total_bytes_ * 8;
  // Append 0x80 then zero padding so that length ≡ 56 (mod 64).
  std::uint8_t pad = 0x80;
  finished_ = false;  // allow the padding updates below
  update(&pad, 1);
  const std::uint8_t zero = 0x00;
  while (buffered_ != 56) {
    update(&zero, 1);
  }
  finished_ = true;

  std::uint8_t length_bytes[8];
  for (int i = 0; i < 8; ++i) {
    length_bytes[i] = static_cast<std::uint8_t>(bit_length >> (8 * (7 - i)));
  }
  std::memcpy(buffer_.data() + 56, length_bytes, 8);
  process_blocks(buffer_.data(), 1);

  Sha256Digest digest;
  store_digest(state_, digest);
  return digest;
}

Sha256Digest Sha256::hash(const Bytes& data) {
  Sha256 hasher;
  hasher.update(data);
  return hasher.finish();
}

Sha256Digest Sha256::hash(const std::string& text) {
  Sha256 hasher;
  hasher.update(text);
  return hasher.finish();
}

std::string Sha256::hex(const Sha256Digest& digest) {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  out.reserve(64);
  for (std::uint8_t byte : digest) {
    out.push_back(kHex[byte >> 4]);
    out.push_back(kHex[byte & 0x0f]);
  }
  return out;
}

void sha256_batch(const Bytes* messages, std::size_t count,
                  Sha256Digest* digests) {
#if defined(TRUSTDDL_SHA_X86)
  // The 4-lane path needs >= 2 real messages to beat single-stream
  // (which may itself be SHA-NI); spare lanes in a final short group
  // re-hash messages[i] with their output discarded.
  if (simd::active_backend() == simd::Backend::kAvx2) {
    std::size_t i = 0;
    while (count - i >= 2) {
      const std::size_t lanes = std::min<std::size_t>(4, count - i);
      const Bytes* lane_messages[4];
      Sha256Digest* lane_digests[4];
      for (std::size_t l = 0; l < 4; ++l) {
        lane_messages[l] = l < lanes ? &messages[i + l] : &messages[i];
        lane_digests[l] = l < lanes ? &digests[i + l] : nullptr;
      }
      sha256_batch4(lane_messages, lane_digests);
      i += lanes;
    }
    for (; i < count; ++i) {
      digests[i] = Sha256::hash(messages[i]);
    }
    return;
  }
#endif
  for (std::size_t i = 0; i < count; ++i) {
    digests[i] = Sha256::hash(messages[i]);
  }
}

std::vector<Sha256Digest> sha256_batch(const std::vector<Bytes>& messages) {
  std::vector<Sha256Digest> digests(messages.size());
  sha256_batch(messages.data(), messages.size(), digests.data());
  return digests;
}

}  // namespace trustddl
