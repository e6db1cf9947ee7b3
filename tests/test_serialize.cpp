#include "common/serialize.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <sstream>
#include <string>

namespace dt {
namespace {

TEST(Serialize, PodRoundTrip) {
  std::stringstream ss;
  write_pod(ss, 42);
  write_pod(ss, 3.25);
  write_pod(ss, std::uint8_t{7});
  EXPECT_EQ(read_pod<int>(ss), 42);
  EXPECT_DOUBLE_EQ(read_pod<double>(ss), 3.25);
  EXPECT_EQ(read_pod<std::uint8_t>(ss), 7);
}

TEST(Serialize, StructRoundTrip) {
  struct Pod {
    int a;
    double b;
    bool operator==(const Pod&) const = default;
  };
  const Pod in{5, -1.5};
  std::stringstream ss;
  write_pod(ss, in);
  EXPECT_EQ(read_pod<Pod>(ss), in);
}

TEST(Serialize, VectorRoundTrip) {
  const std::vector<float> in = {1.5f, -2.0f, 0.0f};
  std::stringstream ss;
  write_vector(ss, in);
  EXPECT_EQ(read_vector<float>(ss), in);
}

TEST(Serialize, EmptyVector) {
  std::stringstream ss;
  write_vector(ss, std::vector<double>{});
  EXPECT_TRUE(read_vector<double>(ss).empty());
}

TEST(Serialize, TruncatedStreamThrows) {
  std::stringstream ss;
  write_pod(ss, 1.0);
  (void)read_pod<double>(ss);
  EXPECT_THROW((void)read_pod<double>(ss), Error);

  std::stringstream ss2;
  write_pod<std::uint64_t>(ss2, 100);  // claims 100 elements, has none
  EXPECT_THROW((void)read_vector<int>(ss2), Error);
}

// A length read from a corrupt stream is not trusted: a stream that
// claims 2^60 elements and then ends fails as truncated after reading a
// bounded first chunk, never with bad_alloc or a length_error.
TEST(Serialize, OversizedLengthOnShortStreamIsTruncatedNotAllocated) {
  const auto short_stream = [] {
    auto ss = std::make_unique<std::stringstream>();
    write_pod<std::uint64_t>(*ss, std::uint64_t{1} << 60);
    write_pod(*ss, 1.0);
    write_pod(*ss, 2.0);
    return ss;
  };
  const auto expect_truncated = [](const std::function<void()>& read) {
    try {
      read();
      ADD_FAILURE() << "no error on a stream that ends early";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("serialize: truncated stream"),
                std::string::npos)
          << e.what();
    }
  };
  expect_truncated([&] { (void)read_vector<double>(*short_stream()); });
  expect_truncated([&] { (void)read_vector<std::uint8_t>(*short_stream()); });
  expect_truncated([&] { (void)read_string(*short_stream()); });
}

// Payloads larger than the first read chunk arrive whole, through the
// growing-chunk loop.
TEST(Serialize, MultiChunkPayloadsRoundTrip) {
  std::vector<float> floats(700'001);
  for (std::size_t i = 0; i < floats.size(); ++i)
    floats[i] = static_cast<float>(i) * 0.5f;
  std::string text(3'000'007, '\0');
  for (std::size_t i = 0; i < text.size(); ++i)
    text[i] = static_cast<char>('a' + i % 26);
  std::stringstream ss;
  write_vector(ss, floats);
  write_string(ss, text);
  write_pod(ss, 7);
  EXPECT_EQ(read_vector<float>(ss), floats);
  EXPECT_EQ(read_string(ss), text);
  EXPECT_EQ(read_pod<int>(ss), 7);
}

TEST(Serialize, SequentialMixedPayloads) {
  std::stringstream ss;
  write_pod(ss, 'x');
  write_vector(ss, std::vector<int>{1, 2, 3});
  write_pod(ss, 9.0f);
  EXPECT_EQ(read_pod<char>(ss), 'x');
  EXPECT_EQ(read_vector<int>(ss), (std::vector<int>{1, 2, 3}));
  EXPECT_FLOAT_EQ(read_pod<float>(ss), 9.0f);
}

}  // namespace
}  // namespace dt
