#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <set>
#include <vector>

namespace dt {
namespace {

TEST(SplitMix64, DeterministicAndDistinct) {
  SplitMix64 a(42), b(42), c(43);
  const auto x = a.next();
  EXPECT_EQ(x, b.next());
  EXPECT_NE(x, c.next());
}

TEST(Xoshiro, ReproducibleForSameSeed) {
  Xoshiro256ss a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Xoshiro, DifferentSeedsDiffer) {
  Xoshiro256ss a(7), b(8);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a() == b()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(Xoshiro, JumpChangesStream) {
  Xoshiro256ss a(7), b(7);
  b.jump();
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a() == b()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(Philox, ReproducibleForSameKeyAndStream) {
  Philox4x32 a(1, 2), b(1, 2);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Philox, StreamsAreIndependent) {
  Philox4x32 a(1, 0), b(1, 1);
  int same = 0;
  for (int i = 0; i < 256; ++i)
    if (a() == b()) ++same;
  EXPECT_LE(same, 1);  // 32-bit collisions are possible but rare
}

TEST(Philox, SeekMatchesSequentialDraws) {
  Philox4x32 ref(9, 3);
  std::vector<std::uint32_t> seq(64);
  for (auto& v : seq) v = ref();

  for (std::uint64_t pos : {0ULL, 1ULL, 3ULL, 4ULL, 17ULL, 63ULL}) {
    Philox4x32 g(9, 3);
    g.seek(pos);
    EXPECT_EQ(g(), seq[pos]) << "position " << pos;
  }
}

TEST(Philox, BlockIsPureFunction) {
  const Philox4x32 g(5, 6);
  EXPECT_EQ(g.block(100, 0), g.block(100, 0));
  EXPECT_NE(g.block(100, 0), g.block(101, 0));
}

/// Bulk fill of n uniforms from `bulk`, and n uniform01 calls from
/// `scalar`: the values must agree bit for bit, both generators must
/// end at the same position, and their next draws must agree.
void expect_fill_is_successive_calls(Philox4x32& bulk, Philox4x32& scalar,
                                     std::size_t n) {
  std::vector<double> got(n, -1.0);
  bulk.fill_uniform01(got);
  for (std::size_t i = 0; i < n; ++i)
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i]),
              std::bit_cast<std::uint64_t>(uniform01(scalar)))
        << "uniform " << i << " of " << n;
  EXPECT_EQ(bulk.position(), scalar.position()) << "n = " << n;
  EXPECT_EQ(bulk(), scalar()) << "n = " << n;
}

TEST(Philox, FillUniform01IsSuccessiveCallsAfterSeek) {
  // Every buffer offset (parity of the pairing included), counts that
  // end mid-block, on a block and past several lane batches, and a start
  // just below a 2^32 block boundary (the counter's high word carries).
  const std::size_t counts[] = {0, 1, 2, 3, 7, 8, 63, 64, 65, 129, 2000, 2001};
  for (const std::uint64_t base : {0ULL, 4ULL * 1000, (4ULL << 32) - 64}) {
    for (std::uint64_t offset = 0; offset < 4; ++offset) {
      for (const std::size_t n : counts) {
        Philox4x32 bulk(7, 11), scalar(7, 11);
        bulk.seek(base + offset);
        scalar.seek(base + offset);
        SCOPED_TRACE(testing::Message() << "base " << base << " offset "
                                        << offset << " n " << n);
        expect_fill_is_successive_calls(bulk, scalar, n);
      }
    }
  }
}

TEST(Philox, FillUniform01IsSuccessiveCallsMidStream) {
  // From a fresh generator (nothing buffered yet) and after scalar draws
  // leave each buffer offset; fills chained with odd counts keep flipping
  // the pairing parity.
  for (int skip = 0; skip < 5; ++skip) {
    Philox4x32 bulk(3, 4), scalar(3, 4);
    for (int d = 0; d < skip; ++d) ASSERT_EQ(bulk(), scalar());
    for (const std::size_t n : {std::size_t{5}, std::size_t{0},
                                std::size_t{100}, std::size_t{1},
                                std::size_t{33}}) {
      SCOPED_TRACE(testing::Message() << "skip " << skip << " n " << n);
      expect_fill_is_successive_calls(bulk, scalar, n);
    }
  }
}

TEST(Uniform01, InHalfOpenUnitInterval) {
  Xoshiro256ss g(3);
  for (int i = 0; i < 10000; ++i) {
    const double u = uniform01(g);
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Uniform01, MeanNearHalf) {
  Xoshiro256ss g(3);
  double acc = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) acc += uniform01(g);
  EXPECT_NEAR(acc / n, 0.5, 0.005);
}

TEST(Uniform01, WorksWith32BitGenerator) {
  Philox4x32 g(3, 0);
  double acc = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double u = uniform01(g);
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    acc += u;
  }
  EXPECT_NEAR(acc / n, 0.5, 0.01);
}

TEST(UniformIndex, RespectsBounds) {
  Xoshiro256ss g(11);
  for (std::uint64_t n : {1ULL, 2ULL, 3ULL, 7ULL, 1000ULL}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(uniform_index(g, n), n);
    }
  }
}

TEST(UniformIndex, CoversAllValues) {
  Xoshiro256ss g(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(uniform_index(g, 10));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(UniformIndex, ApproximatelyUniform) {
  Xoshiro256ss g(13);
  std::vector<int> counts(8, 0);
  const int n = 80000;
  for (int i = 0; i < n; ++i) ++counts[uniform_index(g, 8)];
  for (int c : counts) EXPECT_NEAR(c, n / 8, 5 * std::sqrt(n / 8.0));
}

TEST(Normal01, MeanAndVariance) {
  Xoshiro256ss g(17);
  double sum = 0, sum2 = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = normal01(g);
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.02);
}

TEST(StreamId, DistinctCoordinatesGiveDistinctStreams) {
  std::set<std::uint64_t> ids;
  for (std::uint64_t a = 0; a < 10; ++a)
    for (std::uint64_t b = 0; b < 10; ++b)
      for (std::uint64_t c = 0; c < 3; ++c) ids.insert(stream_id(a, b, c));
  EXPECT_EQ(ids.size(), 300u);
}

}  // namespace
}  // namespace dt
