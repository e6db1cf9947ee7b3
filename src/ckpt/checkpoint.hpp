// Run-level crash-consistent checkpointing.
//
// A checkpoint is one binary file holding a versioned manifest of named
// component records (walker states, VAE weights, optimizer moments,
// pipeline phase, ...). Every component carries a CRC32 and the whole
// file ends in a CRC32 trailer, so truncation or bit-rot is detected on
// load rather than silently resumed from. Files are written
// crash-consistently: stream to <name>.tmp, fsync, then atomically rename
// into place -- a crash mid-save leaves the previous generation untouched
// and loadable.
//
// A CheckpointStore manages a directory of numbered generations
// (ckpt-000042.dtc): save() appends a new generation and prunes old
// ones, load_latest() returns the newest generation that validates,
// falling back to earlier generations when the newest is corrupt.
//
// The layer sits just above common/ (serialization, errors) and obs/
// (save size/latency metrics); samplers and models serialize themselves
// into component blobs via their own save_state/save methods.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <sstream>
#include <streambuf>
#include <string>
#include <string_view>
#include <vector>

#include "common/annotations.hpp"
#include "common/mutex.hpp"

namespace dt::ckpt {

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), slicing-by-8.
/// `seed` chains incremental computation: crc32(b, crc32(a)) == crc32(a + b).
[[nodiscard]] std::uint32_t crc32(std::span<const char> data,
                                  std::uint32_t seed = 0);

/// crc32(a + b) from crc32(a), crc32(b) and |b| alone, without touching
/// the bytes (zlib's crc32_combine).
[[nodiscard]] std::uint32_t crc32_combine(std::uint32_t crc_a,
                                          std::uint32_t crc_b,
                                          std::uint64_t len_b);

/// Component payload bytes as the builder holds them: the byte buffer
/// par::Communicator::gather_bytes moves between ranks without a copy.
using Blob = std::vector<std::byte>;

/// Unbuffered std::ostream that appends to a Blob: the Blob is current
/// after every write, so a writer can reserve a length field and patch it
/// once the bytes behind it are in.
class BlobStream : public std::ostream {
 public:
  explicit BlobStream(Blob& blob) : std::ostream(nullptr), buf_(blob) {
    rdbuf(&buf_);
  }
  BlobStream(const BlobStream&) = delete;
  BlobStream& operator=(const BlobStream&) = delete;

 private:
  class Appender : public std::streambuf {
   public:
    explicit Appender(Blob& blob) : blob_(blob) {}

   protected:
    int_type overflow(int_type ch) override {
      if (!traits_type::eq_int_type(ch, traits_type::eof()))
        blob_.push_back(static_cast<std::byte>(traits_type::to_char_type(ch)));
      return traits_type::not_eof(ch);
    }
    std::streamsize xsputn(const char* s, std::streamsize n) override {
      const auto* bytes = reinterpret_cast<const std::byte*>(s);
      blob_.insert(blob_.end(), bytes, bytes + n);
      return n;
    }

   private:
    Blob& blob_;
  };
  Appender buf_;
};

/// Accumulates named component blobs and encodes them into the on-disk
/// manifest format (see DESIGN.md "Checkpoint manifest format"). Each
/// payload's CRC is taken once, when it is added.
class CheckpointBuilder {
 public:
  /// Add one component; names must be unique within a checkpoint. The
  /// payload is moved in.
  void add(const std::string& name, Blob payload);
  /// Copying form, for bytes the caller keeps (e.g. weights it reuses).
  void add(const std::string& name, std::string_view payload);

  /// Convenience: serialize a component straight into its payload.
  ///   builder.component("rank0", [&](std::ostream& os) { w.save_state(os); });
  template <class Fn>
  void component(const std::string& name, Fn&& serialize) {
    Blob payload;
    BlobStream os(payload);
    serialize(os);
    add(name, std::move(payload));
  }

  [[nodiscard]] std::size_t size() const { return components_.size(); }

  /// Serialize the manifest: header, component directory + payloads
  /// (each CRC32-protected), file-level CRC32 trailer. The same bytes
  /// CheckpointStore::save streams to disk.
  [[nodiscard]] std::string encode(std::uint64_t generation) const;

 private:
  friend class CheckpointStore;

  struct Component {
    std::uint32_t crc = 0;
    std::string name;
    Blob payload;
  };

  /// Hands the manifest to `sink(std::span<const char>)` piece by piece in
  /// file order (small directory runs, then each payload in place) and
  /// returns the byte count. The file CRC is combined from the piece CRCs.
  template <class Sink>
  std::size_t write_pieces(std::uint64_t generation, Sink&& sink) const;

  std::vector<Component> components_;
};

/// A decoded, validated checkpoint.
class Checkpoint {
 public:
  /// Parse and validate `bytes`; throws dt::Error on bad magic, version
  /// mismatch, truncation or any CRC failure. Every length is checked
  /// against the bytes left before anything is allocated.
  static Checkpoint decode(const std::string& bytes);

  [[nodiscard]] std::uint64_t generation() const { return generation_; }
  [[nodiscard]] bool has(const std::string& name) const;
  /// Component payload; throws dt::Error when absent.
  [[nodiscard]] const std::string& blob(const std::string& name) const;
  /// Component payload as a binary istream (for load_state methods).
  [[nodiscard]] std::istringstream stream(const std::string& name) const;
  [[nodiscard]] std::vector<std::string> names() const;

 private:
  std::uint64_t generation_ = 0;
  std::vector<std::pair<std::string, std::string>> components_;
};

struct SaveReport {
  std::uint64_t generation = 0;
  std::size_t bytes = 0;
  double seconds = 0.0;   ///< write + fsync + rename
  std::string path;
};

/// Directory of checkpoint generations with atomic saves.
class CheckpointStore {
 public:
  /// Creates `dir` if needed. `keep_last` bounds retained generations
  /// (>= 1; older files are pruned after each successful save).
  explicit CheckpointStore(std::string dir, int keep_last = 3);

  [[nodiscard]] const std::string& dir() const { return dir_; }

  /// Write a new generation crash-consistently (tmp + fsync + rename),
  /// streaming the builder's pieces straight to the temp file; a save
  /// that fails before the rename removes its temp file and rethrows.
  /// Bumps metrics (ckpt.saves / ckpt.bytes_total / ckpt.last_*) and
  /// emits a "checkpoint" telemetry event when telemetry is enabled.
  SaveReport save(const CheckpointBuilder& builder);

  /// Newest generation that decodes and validates; corrupt/truncated
  /// files are skipped (with a warning) in favour of older generations.
  [[nodiscard]] std::optional<Checkpoint> load_latest() const;
  [[nodiscard]] std::optional<Checkpoint> load_generation(
      std::uint64_t generation) const;

  /// Sorted (ascending) generation numbers present on disk.
  [[nodiscard]] std::vector<std::uint64_t> generations() const;

  [[nodiscard]] static std::string filename(std::uint64_t generation);

 private:
  std::string dir_;
  int keep_last_;
  /// Serialises concurrent save() calls on one store: each claims a
  /// distinct generation number.
  Mutex mutex_;
  std::uint64_t next_generation_ DT_GUARDED_BY(mutex_) = 1;
};

}  // namespace dt::ckpt
