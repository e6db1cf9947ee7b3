// Unit tests of the src/ckpt layer: CRC validation, manifest
// encode/decode, crash-consistent store semantics (generation fallback,
// pruning), the fault injector and the signal flags.
#include "ckpt/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/fault.hpp"
#include "ckpt/signal.hpp"
#include "common/error.hpp"
#include "common/serialize.hpp"
#include "common/units.hpp"

namespace dt::ckpt {
namespace {

namespace fs = std::filesystem;

/// Fresh directory under the test temp dir, removed on destruction.
struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& name) {
    path = fs::path(::testing::TempDir()) / name;
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
  [[nodiscard]] std::string str() const { return path.string(); }
};

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void write_file(const fs::path& p, const std::string& bytes) {
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Bit-at-a-time CRC-32 straight from the polynomial: the reference the
/// table-driven crc32 must reproduce bitwise.
std::uint32_t bitwise_crc32(std::span<const char> data, std::uint32_t seed) {
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (const char byte : data) {
    c ^= static_cast<std::uint8_t>(byte);
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xFFFFFFFFu;
}

/// Deterministic non-repeating bytes (LCG high bytes).
std::string pseudo_bytes(std::size_t n, std::uint32_t seed) {
  std::string out(n, '\0');
  std::uint32_t x = seed;
  for (char& c : out) {
    x = x * 1664525u + 1013904223u;
    c = static_cast<char>(x >> 24);
  }
  return out;
}

/// The manifest encoder as it was before saves were streamed: one
/// ostringstream image, bytewise CRCs, file CRC by a second pass. Saved
/// files must stay byte-identical to it.
std::string reference_encode(
    const std::vector<std::pair<std::string, std::string>>& components,
    std::uint64_t generation) {
  std::ostringstream os(std::ios::binary);
  write_pod(os, 0x44'54'43'4B'50'54'30'31ULL);  // "DTCKPT01"
  write_pod<std::uint32_t>(os, 1);
  write_pod(os, generation);
  write_pod<std::uint32_t>(os, static_cast<std::uint32_t>(components.size()));
  for (const auto& [name, payload] : components) {
    write_string(os, name);
    write_pod<std::uint32_t>(os, bitwise_crc32(payload, 0));
    write_string(os, payload);
  }
  std::string bytes = std::move(os).str();
  const std::uint32_t file_crc = bitwise_crc32(bytes, 0);
  bytes.append(reinterpret_cast<const char*>(&file_crc), sizeof(file_crc));
  return bytes;
}

TEST(Crc32, MatchesKnownVector) {
  // The IEEE 802.3 check value for "123456789".
  const std::string data = "123456789";
  EXPECT_EQ(crc32({data.data(), data.size()}), 0xCBF43926u);
}

TEST(Crc32, SeedChainsIncrementally) {
  const std::string a = "hello ", b = "world";
  const std::string ab = a + b;
  const auto whole = crc32({ab.data(), ab.size()});
  const auto chained =
      crc32({b.data(), b.size()}, crc32({a.data(), a.size()}));
  EXPECT_EQ(whole, chained);
}

TEST(Crc32, MatchesBitwiseReferenceAtEveryAlignmentAndLength) {
  const std::string buf = pseudo_bytes(16 + 300, 7);
  for (const std::uint32_t seed : {0u, 0xDEADBEEFu}) {
    for (std::size_t off = 0; off < 16; ++off) {
      for (std::size_t len = 0; len <= 300; ++len) {
        const std::span<const char> data(buf.data() + off, len);
        ASSERT_EQ(crc32(data, seed), bitwise_crc32(data, seed))
            << "seed " << seed << " offset " << off << " length " << len;
        // Chained over a split point inside the span.
        const std::size_t cut = len / 3;
        ASSERT_EQ(crc32(data.subspan(cut), crc32(data.first(cut), seed)),
                  bitwise_crc32(data, seed))
            << "chained, offset " << off << " length " << len;
      }
    }
    const std::string big = pseudo_bytes(std::size_t{1} << 20, 11);
    EXPECT_EQ(crc32(big, seed), bitwise_crc32(big, seed));
  }
}

TEST(Crc32, CombineMatchesCrcOfConcatenation) {
  const std::string big = pseudo_bytes((std::size_t{1} << 20) + 5, 3);
  for (const std::size_t len_a : {0u, 1u, 7u, 300u}) {
    for (const std::size_t len_b : {0u, 1u, 8u, 301u, 4096u, 1u << 20}) {
      const std::string a = pseudo_bytes(len_a, 1);
      const std::string b = big.substr(0, len_b);
      EXPECT_EQ(crc32_combine(crc32(a), crc32(b), b.size()), crc32(a + b))
          << "|a| " << len_a << " |b| " << len_b;
    }
  }
}

TEST(Checkpoint, EncodeDecodeRoundTripsComponents) {
  CheckpointBuilder builder;
  builder.add("alpha", std::string("payload-a"));
  builder.add("beta", std::string("\x00\x01\x02\xff", 4));
  builder.component("gamma", [](std::ostream& os) { os << "streamed"; });

  const auto ck = Checkpoint::decode(builder.encode(7));
  EXPECT_EQ(ck.generation(), 7u);
  EXPECT_TRUE(ck.has("alpha"));
  EXPECT_TRUE(ck.has("beta"));
  EXPECT_FALSE(ck.has("delta"));
  EXPECT_EQ(ck.blob("alpha"), "payload-a");
  EXPECT_EQ(ck.blob("beta"), std::string("\x00\x01\x02\xff", 4));
  EXPECT_EQ(ck.blob("gamma"), "streamed");
  EXPECT_EQ(ck.names().size(), 3u);
}

TEST(Checkpoint, PreRefactorRawDoublePayloadStaysBitExact) {
  // Checkpoints written before the typed-units refactor serialized bare
  // doubles. The typed layer (common/units.hpp) must not change that
  // byte layout: a payload authored with raw write_pod<double> values
  // decodes unchanged, and wrapping the read value in a unit type is a
  // bit-exact no-op.
  const double energy = -123.456789e-3;
  const double log_f = 2.7182818284590452;
  std::ostringstream legacy;
  write_pod(legacy, energy);
  write_pod(legacy, log_f);

  std::ostringstream typed;
  write_pod(typed, units::Energy(energy).value());
  write_pod(typed, units::LogWeight(log_f).value());
  ASSERT_EQ(legacy.str(), typed.str());

  CheckpointBuilder builder;
  builder.add("walker", legacy.str());
  const auto ck = Checkpoint::decode(builder.encode(3));
  std::istringstream is(ck.blob("walker"));
  const units::Energy e_back(read_pod<double>(is));
  const units::LogWeight f_back(read_pod<double>(is));
  EXPECT_EQ(e_back.value(), energy);
  EXPECT_EQ(f_back.value(), log_f);
}

TEST(Checkpoint, DuplicateComponentNameThrows) {
  CheckpointBuilder builder;
  builder.add("x", "1");
  EXPECT_THROW(builder.add("x", "2"), dt::Error);
}

TEST(Checkpoint, MissingComponentThrows) {
  CheckpointBuilder builder;
  builder.add("x", "1");
  const auto ck = Checkpoint::decode(builder.encode(1));
  EXPECT_THROW((void)ck.blob("missing"), dt::Error);
}

TEST(Checkpoint, TruncationIsDetected) {
  CheckpointBuilder builder;
  builder.add("x", std::string(256, 'q'));
  const std::string bytes = builder.encode(1);
  for (const std::size_t cut : {bytes.size() - 1, bytes.size() / 2,
                                std::size_t{4}, std::size_t{0}}) {
    EXPECT_THROW(Checkpoint::decode(bytes.substr(0, cut)), dt::Error)
        << "cut at " << cut;
  }
}

TEST(Checkpoint, BitFlipAnywhereIsDetected) {
  CheckpointBuilder builder;
  builder.add("x", std::string(64, 'q'));
  const std::string bytes = builder.encode(1);
  // Flip one bit at a spread of offsets: header, directory, payload,
  // trailer. Every flip must fail validation (either the file CRC or a
  // component CRC).
  for (std::size_t i = 0; i < bytes.size(); i += 7) {
    std::string bad = bytes;
    bad[i] = static_cast<char>(bad[i] ^ 0x10);
    EXPECT_THROW(Checkpoint::decode(bad), dt::Error) << "flip at " << i;
  }
}

TEST(Checkpoint, OversizedLengthIsAnErrorNotAnAllocation) {
  CheckpointBuilder builder;
  builder.add("x", "payload");
  const std::string good = builder.encode(1);
  // Header: u64 magic, u32 version, u64 generation, u32 count; then the
  // name's u64 length, the 1-byte name, its u32 CRC, the payload length.
  for (const std::size_t at : {std::size_t{24}, std::size_t{24 + 8 + 1 + 4}}) {
    std::string bad = good;
    const std::uint64_t huge = std::uint64_t{1} << 60;
    std::memcpy(bad.data() + at, &huge, sizeof(huge));
    const std::size_t body = bad.size() - sizeof(std::uint32_t);
    const std::uint32_t file_crc = crc32({bad.data(), body});
    std::memcpy(bad.data() + body, &file_crc, sizeof(file_crc));
    EXPECT_THROW(Checkpoint::decode(bad), dt::Error) << "length at " << at;
  }
}

TEST(CheckpointStore, SaveLoadRoundTrip) {
  TempDir dir("ckpt_roundtrip");
  CheckpointStore store(dir.str());
  CheckpointBuilder builder;
  builder.add("walker", "state-bytes");
  const SaveReport report = store.save(builder);
  EXPECT_EQ(report.generation, 1u);
  EXPECT_GT(report.bytes, 0u);
  EXPECT_TRUE(fs::exists(report.path));

  const auto ck = store.load_latest();
  ASSERT_TRUE(ck.has_value());
  EXPECT_EQ(ck->generation(), 1u);
  EXPECT_EQ(ck->blob("walker"), "state-bytes");
}

TEST(CheckpointStore, NoTempFileSurvivesASave) {
  TempDir dir("ckpt_tmpfiles");
  CheckpointStore store(dir.str());
  CheckpointBuilder builder;
  builder.add("x", "1");
  store.save(builder);
  for (const auto& entry : fs::directory_iterator(dir.path))
    EXPECT_EQ(entry.path().extension(), ".dtc") << entry.path();
}

TEST(CheckpointStore, CorruptNewestFallsBackToPreviousGeneration) {
  TempDir dir("ckpt_fallback");
  CheckpointStore store(dir.str());
  CheckpointBuilder b1;
  b1.add("x", "generation-one");
  store.save(b1);
  CheckpointBuilder b2;
  b2.add("x", "generation-two");
  const auto rep2 = store.save(b2);

  // Corrupt generation 2 mid-file.
  std::string bytes = read_file(rep2.path);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0xff);
  write_file(rep2.path, bytes);

  const auto ck = store.load_latest();
  ASSERT_TRUE(ck.has_value());
  EXPECT_EQ(ck->generation(), 1u);
  EXPECT_EQ(ck->blob("x"), "generation-one");
  // The corrupt generation is individually rejected.
  EXPECT_FALSE(store.load_generation(2).has_value());
  EXPECT_TRUE(store.load_generation(1).has_value());
}

TEST(CheckpointStore, TruncatedNewestFallsBack) {
  TempDir dir("ckpt_trunc");
  CheckpointStore store(dir.str());
  CheckpointBuilder b1;
  b1.add("x", "one");
  store.save(b1);
  CheckpointBuilder b2;
  b2.add("x", "two");
  const auto rep2 = store.save(b2);

  const std::string bytes = read_file(rep2.path);
  write_file(rep2.path, bytes.substr(0, bytes.size() / 3));

  const auto ck = store.load_latest();
  ASSERT_TRUE(ck.has_value());
  EXPECT_EQ(ck->generation(), 1u);
}

TEST(CheckpointStore, OversizedLengthNewestFallsBack) {
  TempDir dir("ckpt_oversized");
  CheckpointStore store(dir.str());
  CheckpointBuilder b1;
  b1.add("x", "generation-one");
  store.save(b1);

  // Generation 2 with a valid file CRC but a payload length of 2^60.
  CheckpointBuilder b2;
  b2.add("x", "generation-two");
  std::string bytes = b2.encode(2);
  const std::uint64_t huge = std::uint64_t{1} << 60;
  std::memcpy(bytes.data() + 24 + 8 + 1 + 4, &huge, sizeof(huge));
  const std::size_t body = bytes.size() - sizeof(std::uint32_t);
  const std::uint32_t file_crc = crc32({bytes.data(), body});
  std::memcpy(bytes.data() + body, &file_crc, sizeof(file_crc));
  write_file(dir.path / CheckpointStore::filename(2), bytes);

  const auto ck = store.load_latest();
  ASSERT_TRUE(ck.has_value());
  EXPECT_EQ(ck->generation(), 1u);
  EXPECT_EQ(ck->blob("x"), "generation-one");
}

TEST(CheckpointStore, SaveWritesExactlyTheEncodedBytes) {
  const std::vector<std::pair<std::string, std::string>> components = {
      {"empty", ""},
      {"one", pseudo_bytes(1, 5)},
      {"seven", pseudo_bytes(7, 6)},
      {"big", pseudo_bytes((std::size_t{3} << 20) + 3, 9)},
  };
  TempDir dir("ckpt_exact_bytes");
  CheckpointStore store(dir.str());
  CheckpointBuilder builder;
  for (const auto& [name, payload] : components) builder.add(name, payload);
  const SaveReport report = store.save(builder);
  const std::string on_disk = read_file(report.path);
  EXPECT_EQ(report.bytes, on_disk.size());
  EXPECT_TRUE(on_disk == builder.encode(report.generation));
  EXPECT_TRUE(on_disk == reference_encode(components, report.generation));

  const CheckpointBuilder none;
  const SaveReport empty = store.save(none);
  EXPECT_EQ(read_file(empty.path), reference_encode({}, empty.generation));
}

TEST(CheckpointStore, FailedSaveRemovesItsTempFile) {
  TempDir dir("ckpt_failed_save");
  CheckpointStore store(dir.str());
  CheckpointBuilder b1;
  b1.add("x", "generation-one");
  store.save(b1);

  auto& inj = FaultInjector::instance();
  inj.arm("ckpt.store.write", /*skip_hits=*/0);
  CheckpointBuilder b2;
  b2.add("x", "generation-two");
  EXPECT_THROW(store.save(b2), FaultInjected);
  inj.disarm();

  for (const auto& entry : fs::directory_iterator(dir.path))
    EXPECT_EQ(entry.path().filename(), CheckpointStore::filename(1))
        << entry.path();
  const auto ck = store.load_latest();
  ASSERT_TRUE(ck.has_value());
  EXPECT_EQ(ck->generation(), 1u);
  EXPECT_EQ(ck->blob("x"), "generation-one");
}

TEST(CheckpointStore, PrunesToKeepLast) {
  TempDir dir("ckpt_prune");
  CheckpointStore store(dir.str(), /*keep_last=*/2);
  for (int i = 0; i < 5; ++i) {
    CheckpointBuilder b;
    b.add("x", std::to_string(i));
    store.save(b);
  }
  EXPECT_EQ(store.generations(), (std::vector<std::uint64_t>{4, 5}));
  const auto ck = store.load_latest();
  ASSERT_TRUE(ck.has_value());
  EXPECT_EQ(ck->blob("x"), "4");
}

TEST(CheckpointStore, ResumesGenerationNumberingFromDisk) {
  TempDir dir("ckpt_regen");
  {
    CheckpointStore store(dir.str());
    CheckpointBuilder b;
    b.add("x", "1");
    store.save(b);
  }
  CheckpointStore reopened(dir.str());
  CheckpointBuilder b;
  b.add("x", "2");
  EXPECT_EQ(reopened.save(b).generation, 2u);
}

TEST(CheckpointStore, EmptyDirectoryLoadsNothing) {
  TempDir dir("ckpt_empty");
  CheckpointStore store(dir.str());
  EXPECT_FALSE(store.load_latest().has_value());
  EXPECT_TRUE(store.generations().empty());
}

TEST(FaultInjector, DisarmedFaultPointIsFree) {
  FaultInjector::instance().disarm();
  EXPECT_NO_THROW(fault_point("anything"));
}

TEST(FaultInjector, ArmedSiteThrowsAfterSkippedHits) {
  auto& inj = FaultInjector::instance();
  inj.arm("site.a", /*skip_hits=*/2);
  EXPECT_NO_THROW(fault_point("site.b"));  // other sites unaffected
  EXPECT_NO_THROW(fault_point("site.a"));  // hit 1: skipped
  EXPECT_NO_THROW(fault_point("site.a"));  // hit 2: skipped
  EXPECT_THROW(fault_point("site.a"), FaultInjected);
  // One-shot: disarmed after triggering.
  EXPECT_NO_THROW(fault_point("site.a"));
}

TEST(FaultInjector, CountsVisitsWhenEnabled) {
  auto& inj = FaultInjector::instance();
  inj.disarm();
  inj.reset_counts();
  inj.count_visits(true);
  fault_point("site.c");
  fault_point("site.c");
  fault_point("site.d");
  EXPECT_EQ(inj.hits("site.c"), 2);
  EXPECT_EQ(inj.hits("site.d"), 1);
  EXPECT_EQ(inj.hits("site.never"), 0);
  inj.count_visits(false);
  fault_point("site.c");
  EXPECT_EQ(inj.hits("site.c"), 2);
}

TEST(SignalFlags, SaveRequestIsConsumedOnce) {
  auto& flags = SignalFlags::instance();
  flags.reset();
  EXPECT_FALSE(flags.consume_save_request());
  flags.request_save();
  EXPECT_TRUE(flags.consume_save_request());
  EXPECT_FALSE(flags.consume_save_request());
}

TEST(SignalFlags, StopIsSticky) {
  auto& flags = SignalFlags::instance();
  flags.reset();
  EXPECT_FALSE(flags.stop_requested());
  flags.request_stop();
  EXPECT_TRUE(flags.stop_requested());
  EXPECT_TRUE(flags.stop_requested());
  flags.reset();
  EXPECT_FALSE(flags.stop_requested());
}

}  // namespace
}  // namespace dt::ckpt
