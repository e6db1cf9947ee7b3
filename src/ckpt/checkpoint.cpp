#include "ckpt/checkpoint.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <type_traits>

#include "ckpt/fault.hpp"
#include "common/error.hpp"
#include "common/log.hpp"
#include "common/serialize.hpp"
#include "common/stopwatch.hpp"
#include "common/strfmt.hpp"
#include "obs/telemetry.hpp"

namespace dt::ckpt {

namespace {

constexpr std::uint64_t kMagic = 0x44'54'43'4B'50'54'30'31ULL;  // "DTCKPT01"
constexpr std::uint32_t kVersion = 1;
constexpr const char* kSuffix = ".dtc";

constexpr std::uint32_t kCrcPoly = 0xEDB88320u;

/// Slicing-by-8 tables: kCrcTables[0] is the classic bytewise table;
/// kCrcTables[k][b] is the CRC register after byte b and k zero bytes.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? kCrcPoly ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k)
    for (std::size_t i = 0; i < 256; ++i)
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
  return t;
}

constexpr CrcTables kCrcTables = make_crc_tables();

/// Little-endian u32 at `p`, whatever the host byte order.
std::uint32_t load_le32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

/// a(x) * b(x) modulo the CRC polynomial, bit-reflected (zlib's multmodp).
/// `a` must be nonzero.
constexpr std::uint32_t multmodp(std::uint32_t a, std::uint32_t b) {
  std::uint32_t m = 1u << 31;
  std::uint32_t p = 0;
  for (;;) {
    if ((a & m) != 0) {
      p ^= b;
      if ((a & (m - 1)) == 0) break;
    }
    m >>= 1;
    b = (b & 1u) != 0 ? (b >> 1) ^ kCrcPoly : b >> 1;
  }
  return p;
}

/// x^(2^k) modulo the CRC polynomial, k = 0..31.
constexpr std::array<std::uint32_t, 32> make_x2n_table() {
  std::array<std::uint32_t, 32> table{};
  std::uint32_t p = 1u << 30;  // x^1
  table[0] = p;
  for (std::size_t k = 1; k < table.size(); ++k) table[k] = p = multmodp(p, p);
  return table;
}

constexpr std::array<std::uint32_t, 32> kX2n = make_x2n_table();

/// x^(8 * len) modulo the CRC polynomial: the operator that shifts a CRC
/// register past `len` zero bytes.
std::uint32_t x8nmodp(std::uint64_t len) {
  std::uint32_t p = 1u << 31;  // x^0
  for (std::size_t k = 3; len != 0; len >>= 1, ++k)
    if ((len & 1u) != 0) p = multmodp(kX2n[k & 31u], p);
  return p;
}

std::span<const char> chars(const Blob& blob) {
  return {reinterpret_cast<const char*>(blob.data()), blob.size()};
}

void write_all(int fd, std::span<const char> piece, const std::string& path) {
  while (!piece.empty()) {
    const ::ssize_t n = ::write(fd, piece.data(), piece.size());
    DT_CHECK_MSG(n >= 0, "checkpoint: write failed for " << path);
    piece = piece.subspan(static_cast<std::size_t>(n));
  }
}

/// Bounds-checked cursor over the manifest body: every length is checked
/// against the bytes left before anything is allocated.
class BodyReader {
 public:
  explicit BodyReader(std::string_view body) : rest_(body) {}

  template <class T>
  T pod() {
    static_assert(std::is_trivially_copyable_v<T>);
    T value{};
    std::memcpy(&value, take(sizeof(T)).data(), sizeof(T));
    return value;
  }
  /// A u64-length-prefixed string (common/serialize.hpp's layout), viewed
  /// in place.
  std::string_view string() { return take(pod<std::uint64_t>()); }

 private:
  std::string_view take(std::uint64_t n) {
    DT_CHECK_MSG(n <= rest_.size(), "serialize: truncated stream");
    const std::string_view out = rest_.substr(0, static_cast<std::size_t>(n));
    rest_.remove_prefix(static_cast<std::size_t>(n));
    return out;
  }

  std::string_view rest_;
};

}  // namespace

std::uint32_t crc32(std::span<const char> data, std::uint32_t seed) {
  const auto& t = kCrcTables;
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  std::size_t n = data.size();
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = load_le32(p) ^ c;
    const std::uint32_t hi = load_le32(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n != 0; ++p, --n) c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

std::uint32_t crc32_combine(std::uint32_t crc_a, std::uint32_t crc_b,
                            std::uint64_t len_b) {
  return multmodp(x8nmodp(len_b), crc_a) ^ crc_b;
}

void CheckpointBuilder::add(const std::string& name, Blob payload) {
  DT_CHECK_MSG(!name.empty(), "checkpoint: empty component name");
  for (const Component& existing : components_)
    DT_CHECK_MSG(existing.name != name,
                 "checkpoint: duplicate component '" << name << "'");
  const std::uint32_t crc = crc32(chars(payload));
  components_.push_back({crc, name, std::move(payload)});
}

void CheckpointBuilder::add(const std::string& name,
                            std::string_view payload) {
  const auto* bytes = reinterpret_cast<const std::byte*>(payload.data());
  add(name, Blob(bytes, bytes + payload.size()));
}

template <class Sink>
std::size_t CheckpointBuilder::write_pieces(std::uint64_t generation,
                                            Sink&& sink) const {
  // `run` collects the small fields between payloads; it is CRC'd and
  // handed over just before each payload, whose CRC is already known.
  Blob run;
  BlobStream os(run);
  std::uint32_t file_crc = 0;
  std::size_t bytes = 0;
  const auto hand_over = [&](const Blob& piece) {
    bytes += piece.size();
    sink(chars(piece));
  };
  write_pod(os, kMagic);
  write_pod(os, kVersion);
  write_pod(os, generation);
  write_pod<std::uint32_t>(os, static_cast<std::uint32_t>(components_.size()));
  for (const Component& c : components_) {
    write_string(os, c.name);
    write_pod(os, c.crc);
    write_pod<std::uint64_t>(os, c.payload.size());
    file_crc = crc32(chars(run), file_crc);
    hand_over(run);
    run.clear();
    file_crc = crc32_combine(file_crc, c.crc, c.payload.size());
    hand_over(c.payload);
  }
  file_crc = crc32(chars(run), file_crc);  // the header, if no components
  write_pod(os, file_crc);
  hand_over(run);
  return bytes;
}

std::string CheckpointBuilder::encode(std::uint64_t generation) const {
  std::string bytes;
  write_pieces(generation, [&bytes](std::span<const char> piece) {
    bytes.append(piece.data(), piece.size());
  });
  return bytes;
}

Checkpoint Checkpoint::decode(const std::string& bytes) {
  DT_CHECK_MSG(bytes.size() > sizeof(kMagic) + sizeof(std::uint32_t),
               "checkpoint: file too short");
  // File-level CRC over everything before the 4-byte trailer: catches
  // truncation and corruption up front.
  const std::size_t body = bytes.size() - sizeof(std::uint32_t);
  std::uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, bytes.data() + body, sizeof(stored_crc));
  DT_CHECK_MSG(crc32({bytes.data(), body}) == stored_crc,
               "checkpoint: file CRC mismatch (truncated or corrupted)");

  BodyReader in(std::string_view(bytes.data(), body));
  DT_CHECK_MSG(in.pod<std::uint64_t>() == kMagic, "checkpoint: bad magic");
  const auto version = in.pod<std::uint32_t>();
  DT_CHECK_MSG(version == kVersion,
               "checkpoint: unsupported manifest version " << version);
  Checkpoint out;
  out.generation_ = in.pod<std::uint64_t>();
  const auto n = in.pod<std::uint32_t>();
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::string_view name = in.string();
    const auto component_crc = in.pod<std::uint32_t>();
    const std::string_view payload = in.string();
    DT_CHECK_MSG(crc32(payload) == component_crc,
                 "checkpoint: component '" << name << "' CRC mismatch");
    out.components_.emplace_back(std::string(name), std::string(payload));
  }
  return out;
}

bool Checkpoint::has(const std::string& name) const {
  for (const auto& [n, blob] : components_)
    if (n == name) return true;
  return false;
}

const std::string& Checkpoint::blob(const std::string& name) const {
  for (const auto& [n, blob] : components_)
    if (n == name) return blob;
  throw Error("checkpoint: missing component '" + name + "'");
}

std::istringstream Checkpoint::stream(const std::string& name) const {
  return std::istringstream(blob(name), std::ios::binary);
}

std::vector<std::string> Checkpoint::names() const {
  std::vector<std::string> out;
  out.reserve(components_.size());
  for (const auto& [n, blob] : components_) out.push_back(n);
  return out;
}

std::string CheckpointStore::filename(std::uint64_t generation) {
  return strformat("ckpt-%06llu%s",
                   static_cast<unsigned long long>(generation), kSuffix);
}

CheckpointStore::CheckpointStore(std::string dir, int keep_last)
    : dir_(std::move(dir)), keep_last_(keep_last) {
  DT_CHECK_MSG(keep_last_ >= 1, "checkpoint store must keep >= 1 generation");
  DT_CHECK_MSG(!dir_.empty(), "checkpoint store needs a directory");
  std::filesystem::create_directories(dir_);
  const auto gens = generations();
  if (!gens.empty()) next_generation_ = gens.back() + 1;
}

std::vector<std::uint64_t> CheckpointStore::generations() const {
  std::vector<std::uint64_t> out;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("ckpt-", 0) != 0 || name.size() < 6 + 4) continue;
    if (name.substr(name.size() - 4) != kSuffix) continue;
    const std::string digits = name.substr(5, name.size() - 5 - 4);
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos)
      continue;
    out.push_back(std::stoull(digits));
  }
  std::sort(out.begin(), out.end());
  return out;
}

SaveReport CheckpointStore::save(const CheckpointBuilder& builder) {
  Stopwatch clock;
  const std::uint64_t generation = [this] {
    MutexLock lock(mutex_);
    return next_generation_++;
  }();

  const std::string final_path = dir_ + "/" + filename(generation);
  const std::string tmp_path = final_path + ".tmp";

  // Crash-consistency protocol: stream the complete image to a temp file,
  // fsync it, atomically rename over the final name, then fsync the
  // directory so the rename itself is durable. A crash at any point
  // leaves either the previous generation (tmp ignored on load) or the
  // complete new one. A save that fails before the rename removes its
  // temp file: the generation number is spent, so nothing else would.
  std::size_t bytes = 0;
  {
    const int fd = ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                          0644);
    DT_CHECK_MSG(fd >= 0, "checkpoint: cannot open " << tmp_path);
    try {
      bytes = builder.write_pieces(
          generation, [&](std::span<const char> piece) {
            write_all(fd, piece, tmp_path);
          });
      const bool synced = ::fsync(fd) == 0;
      DT_CHECK_MSG(synced, "checkpoint: fsync failed for " << tmp_path);
      fault_point("ckpt.store.write");
    } catch (...) {
      ::close(fd);
      ::unlink(tmp_path.c_str());
      throw;
    }
    ::close(fd);
  }
  if (std::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    ::unlink(tmp_path.c_str());
    DT_CHECK_MSG(false, "checkpoint: rename to " << final_path << " failed");
  }
  {
    const int dfd = ::open(dir_.c_str(), O_RDONLY | O_DIRECTORY);
    if (dfd >= 0) {
      ::fsync(dfd);
      ::close(dfd);
    }
  }

  // Prune old generations (never the one just written).
  const auto gens = generations();
  if (gens.size() > static_cast<std::size_t>(keep_last_)) {
    const std::size_t drop = gens.size() - static_cast<std::size_t>(keep_last_);
    for (std::size_t i = 0; i < drop; ++i) {
      std::error_code ec;
      std::filesystem::remove(dir_ + "/" + filename(gens[i]), ec);
    }
  }

  SaveReport report;
  report.generation = generation;
  report.bytes = bytes;
  report.seconds = clock.seconds();
  report.path = final_path;

  auto& metrics = obs::MetricsRegistry::global();
  metrics.counter("ckpt.saves").add();
  metrics.counter("ckpt.bytes_total").add(report.bytes);
  metrics.gauge("ckpt.last_bytes").set(static_cast<double>(report.bytes));
  metrics.gauge("ckpt.last_save_seconds").set(report.seconds);
  obs::Telemetry& telemetry = obs::Telemetry::instance();
  if (telemetry.enabled()) {
    telemetry.emit(obs::Event("checkpoint")
                       .with("generation", report.generation)
                       .with("bytes", static_cast<std::uint64_t>(report.bytes))
                       .with("seconds", report.seconds)
                       .with("path", report.path));
  }
  return report;
}

std::optional<Checkpoint> CheckpointStore::load_latest() const {
  const auto gens = generations();
  for (auto it = gens.rbegin(); it != gens.rend(); ++it) {
    auto ckpt = load_generation(*it);
    if (ckpt) return ckpt;
  }
  return std::nullopt;
}

std::optional<Checkpoint> CheckpointStore::load_generation(
    std::uint64_t generation) const {
  const std::string path = dir_ + "/" + filename(generation);
  Stopwatch clock;
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in.good()) return std::nullopt;
  const std::streamoff size = in.tellg();
  if (size < 0) return std::nullopt;
  std::string bytes(static_cast<std::size_t>(size), '\0');
  in.seekg(0);
  in.read(bytes.data(), size);
  // A short read (the file shrank under us) fails the CRC in decode.
  bytes.resize(static_cast<std::size_t>(in.gcount()));
  try {
    auto ckpt = Checkpoint::decode(bytes);
    auto& metrics = obs::MetricsRegistry::global();
    metrics.counter("ckpt.loads").add();
    metrics.gauge("ckpt.last_load_seconds").set(clock.seconds());
    return ckpt;
  } catch (const Error& e) {
    DT_LOG_WARN << "checkpoint: skipping invalid " << path << ": "
                << e.what();
    return std::nullopt;
  }
}

}  // namespace dt::ckpt
