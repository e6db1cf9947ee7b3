// Tiny binary serialization helpers for checkpoint files.
//
// Fixed little-endian-as-host POD writes with size-prefixed vectors; the
// checkpoint format is an internal detail (same-build restore), not an
// interchange format, so no cross-endianness translation is attempted.
// Reads trust no length: a payload is read in growing chunks, so a stream
// that ends early fails as truncated before much is allocated.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <type_traits>
#include <vector>

#include "common/error.hpp"

namespace dt {

template <class T>
void write_pod(std::ostream& os, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  os.write(reinterpret_cast<const char*>(&value), sizeof(T));
  DT_CHECK_MSG(os.good(), "serialize: write failed");
}

template <class T>
T read_pod(std::istream& is) {
  static_assert(std::is_trivially_copyable_v<T>);
  T value;
  is.read(reinterpret_cast<char*>(&value), sizeof(T));
  DT_CHECK_MSG(is.good(), "serialize: truncated stream");
  return value;
}

template <class T>
void write_vector(std::ostream& os, const std::vector<T>& data) {
  static_assert(std::is_trivially_copyable_v<T>);
  write_pod<std::uint64_t>(os, data.size());
  if (!data.empty()) {
    os.write(reinterpret_cast<const char*>(data.data()),
             static_cast<std::streamsize>(data.size() * sizeof(T)));
    DT_CHECK_MSG(os.good(), "serialize: write failed");
  }
}

namespace detail {

/// First read of a size-prefixed payload, in bytes. Each later read is as
/// large as what has arrived so far, so the memory taken stays within a
/// small multiple of the bytes the stream really held: a corrupt length
/// on a short stream ends in "truncated stream", not in a huge
/// allocation.
inline constexpr std::size_t kFirstReadBytes = std::size_t{1} << 20;

/// Fills `out` (a vector or string) with n elements read from `is`.
template <class Container>
void read_elements(std::istream& is, std::uint64_t n, Container& out) {
  using T = typename Container::value_type;
  constexpr std::uint64_t kFirst =
      std::max<std::uint64_t>(1, kFirstReadBytes / sizeof(T));
  std::uint64_t done = 0;
  while (done < n) {
    const std::uint64_t step = std::min(n - done, std::max(kFirst, done));
    out.resize(static_cast<std::size_t>(done + step));
    is.read(reinterpret_cast<char*>(out.data() + done),
            static_cast<std::streamsize>(step * sizeof(T)));
    DT_CHECK_MSG(is.good(), "serialize: truncated stream");
    done += step;
  }
}

}  // namespace detail

template <class T>
std::vector<T> read_vector(std::istream& is) {
  static_assert(std::is_trivially_copyable_v<T>);
  std::vector<T> data;
  detail::read_elements(is, read_pod<std::uint64_t>(is), data);
  return data;
}

inline void write_string(std::ostream& os, const std::string& s) {
  write_pod<std::uint64_t>(os, s.size());
  if (!s.empty()) {
    os.write(s.data(), static_cast<std::streamsize>(s.size()));
    DT_CHECK_MSG(os.good(), "serialize: write failed");
  }
}

inline std::string read_string(std::istream& is) {
  std::string s;
  detail::read_elements(is, read_pod<std::uint64_t>(is), s);
  return s;
}

}  // namespace dt
