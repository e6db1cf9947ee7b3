#include "common/rng.hpp"

namespace dt {

namespace {

inline std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

// Philox4x32-10 round constants (Salmon et al.).
constexpr std::uint32_t kMul0 = 0xD2511F53u;
constexpr std::uint32_t kMul1 = 0xCD9E8D57u;
constexpr std::uint32_t kWeyl0 = 0x9E3779B9u;
constexpr std::uint32_t kWeyl1 = 0xBB67AE85u;

/// Counters per lane-parallel batch in fill_uniform01. 32 blocks give
/// each multiply four independent 512-bit vectors of 64-bit products,
/// which hides the multiply latency (16 and 64 measured slower).
constexpr std::size_t kLanes = 32;

/// uniform01's 53-bit mapping of two successive 32-bit draws.
inline double unit_double(std::uint32_t hi, std::uint32_t lo) {
  return static_cast<double>(
             ((static_cast<std::uint64_t>(hi) << 32) | lo) >> 11) *
         0x1.0p-53;
}

/// Philox4x32::block for the kLanes counters first .. first+kLanes-1
/// (high counter word 0), written structure-of-arrays: w[j][l] is word j
/// of block first+l. The same rounds as the scalar path, lane by lane.
void philox_lanes(const std::array<std::uint32_t, 2>& key,
                  std::uint64_t first, std::uint32_t (&w)[4][kLanes]) {
  std::uint32_t c0[kLanes], c1[kLanes], c2[kLanes], c3[kLanes];
  for (std::size_t l = 0; l < kLanes; ++l) {
    const std::uint64_t ctr = first + l;
    c0[l] = static_cast<std::uint32_t>(ctr);
    c1[l] = static_cast<std::uint32_t>(ctr >> 32);
    c2[l] = c3[l] = 0;
  }
  std::uint32_t k0 = key[0];
  std::uint32_t k1 = key[1];
  for (int round = 0; round < 10; ++round) {
    // Kept rolled: fully unrolled, the lanes no longer vectorise.
#pragma GCC unroll 1
    for (std::size_t l = 0; l < kLanes; ++l) {
      const std::uint64_t p0 = static_cast<std::uint64_t>(kMul0) * c0[l];
      const std::uint64_t p1 = static_cast<std::uint64_t>(kMul1) * c2[l];
      c0[l] = static_cast<std::uint32_t>(p1 >> 32) ^ c1[l] ^ k0;
      c1[l] = static_cast<std::uint32_t>(p1);
      c2[l] = static_cast<std::uint32_t>(p0 >> 32) ^ c3[l] ^ k1;
      c3[l] = static_cast<std::uint32_t>(p0);
    }
    k0 += kWeyl0;
    k1 += kWeyl1;
  }
  for (std::size_t l = 0; l < kLanes; ++l) {
    w[0][l] = c0[l];
    w[1][l] = c1[l];
    w[2][l] = c2[l];
    w[3][l] = c3[l];
  }
}

}  // namespace

Xoshiro256ss::Xoshiro256ss(std::uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& word : s_) word = sm.next();
}

Xoshiro256ss::result_type Xoshiro256ss::operator()() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

void Xoshiro256ss::jump() {
  static constexpr std::uint64_t kJump[] = {
      0x180ec6d33cfd0abaULL, 0xd5a61266f0c9392cULL, 0xa9582618e03fc9aaULL,
      0x39abdc4529b1661cULL};
  std::array<std::uint64_t, 4> acc{};
  for (std::uint64_t word : kJump) {
    for (int bit = 0; bit < 64; ++bit) {
      if (word & (1ULL << bit)) {
        for (std::size_t i = 0; i < 4; ++i) acc[i] ^= s_[i];
      }
      (*this)();
    }
  }
  s_ = acc;
}

Philox4x32::Philox4x32(std::uint64_t seed, std::uint64_t stream) {
  // Key mixes seed and stream so distinct (seed, stream) pairs give
  // statistically independent sequences.
  SplitMix64 sm(seed ^ (stream * 0x9e3779b97f4a7c15ULL + 0x632be59bd9b4e019ULL));
  const std::uint64_t k = sm.next();
  key_ = {static_cast<std::uint32_t>(k), static_cast<std::uint32_t>(k >> 32)};
}

std::array<std::uint32_t, 4> Philox4x32::block(std::uint64_t ctr_lo,
                                               std::uint64_t ctr_hi) const {
  std::array<std::uint32_t, 4> ctr = {
      static_cast<std::uint32_t>(ctr_lo),
      static_cast<std::uint32_t>(ctr_lo >> 32),
      static_cast<std::uint32_t>(ctr_hi),
      static_cast<std::uint32_t>(ctr_hi >> 32)};
  std::array<std::uint32_t, 2> key = key_;

  for (int round = 0; round < 10; ++round) {
    const std::uint64_t p0 = static_cast<std::uint64_t>(kMul0) * ctr[0];
    const std::uint64_t p1 = static_cast<std::uint64_t>(kMul1) * ctr[2];
    const std::array<std::uint32_t, 4> next = {
        static_cast<std::uint32_t>(p1 >> 32) ^ ctr[1] ^ key[0],
        static_cast<std::uint32_t>(p1),
        static_cast<std::uint32_t>(p0 >> 32) ^ ctr[3] ^ key[1],
        static_cast<std::uint32_t>(p0)};
    ctr = next;
    key[0] += kWeyl0;
    key[1] += kWeyl1;
  }
  return ctr;
}

Philox4x32::result_type Philox4x32::operator()() {
  if (buf_pos_ == 4) {
    buf_ = block(counter_, 0);
    ++counter_;
    buf_pos_ = 0;
  }
  return buf_[buf_pos_++];
}

void Philox4x32::fill_uniform01(std::span<double> out) {
  // A uniform takes two draws. From an even buffer offset each block
  // yields the pairs (w0,w1) and (w2,w3); from an odd one, (carried w3 of
  // the previous block, w0) and (w1,w2), carrying its own w3 onward.
  // Single uniforms go through the scalar path until the offset is 4
  // (empty, even) or 3 (odd), then whole blocks go lane-parallel; an odd
  // count leaves one last uniform to the scalar path.
  std::size_t i = 0;
  while (i < out.size() && buf_pos_ != 4 && buf_pos_ != 3)
    out[i++] = uniform01(*this);
  const bool odd = buf_pos_ == 3;
  std::uint64_t blocks = (out.size() - i) / 2;
  std::uint32_t w[4][kLanes];
  while (blocks > 0) {
    const std::size_t use =
        blocks < kLanes ? static_cast<std::size_t>(blocks) : kLanes;
    philox_lanes(key_, counter_, w);
    double* dst = &out[i];
    if (odd) {
      std::uint32_t carry = buf_[3];
      for (std::size_t l = 0; l < use; ++l) {
        dst[2 * l] = unit_double(carry, w[0][l]);
        dst[2 * l + 1] = unit_double(w[1][l], w[2][l]);
        carry = w[3][l];
      }
      buf_[3] = carry;
    } else {
      for (std::size_t l = 0; l < use; ++l) {
        dst[2 * l] = unit_double(w[0][l], w[1][l]);
        dst[2 * l + 1] = unit_double(w[2][l], w[3][l]);
      }
    }
    i += 2 * use;
    counter_ += use;
    blocks -= use;
  }
  if (i < out.size()) out[i] = uniform01(*this);
}

void Philox4x32::seek(std::uint64_t draw_index) {
  counter_ = draw_index / 4;
  buf_ = block(counter_, 0);
  ++counter_;
  buf_pos_ = static_cast<unsigned>(draw_index % 4);
}

std::uint64_t stream_id(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  // Three rounds of SplitMix-style mixing over the packed coordinates.
  SplitMix64 sm(a * 0x9e3779b97f4a7c15ULL + 1);
  std::uint64_t h = sm.next() ^ (b * 0xbf58476d1ce4e5b9ULL);
  SplitMix64 sm2(h);
  h = sm2.next() ^ (c * 0x94d049bb133111ebULL);
  SplitMix64 sm3(h);
  return sm3.next();
}

}  // namespace dt
