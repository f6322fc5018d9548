// Section codec: the one framing shared by every checksummed binary format —
// SPGE edges, SPFT features, SPLB labels, and the SPCK train state with its
// SPM2 parameter and SPO2 optimizer sections.
//
// A section is a fixed-size header followed by a payload. A header opens with
// a 4-byte magic and closes with the CRC-32 of all its preceding bytes; a
// section with a payload stores the payload's CRC-32 as the header field just
// before that. Only these checksummed layouts are read: every accepted byte
// is CRC-verified.
//
// Reading applies one rule set to every format:
//   - the header CRC is checked over the raw header bytes as read;
//   - a declared payload length is checked against the bytes left in the
//     stream BEFORE anything is allocated, so a forged count fails as
//     "truncated" instead of std::bad_alloc (a stream that cannot seek is
//     trusted up to its header);
//   - the payload CRC is verified before the caller interprets the payload;
//   - bytes past the end are rejected, naming their offset.
// Every defect is a FormatError "<format>: <defect>" naming the byte offset
// or the declared size.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "io/crc32.hpp"
#include "io/error.hpp"
#include "util/serialize.hpp"

namespace splpg::io {

/// Builds one section: header fields in order, then payload chunks.
class SectionWriter {
 public:
  /// Appends one header field.
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  SectionWriter& field(const T& value) {
    util::write_pod(header_, value);
    return *this;
  }

  /// Appends `size` payload bytes; the caller keeps them alive until write().
  SectionWriter& payload(const void* data, std::size_t size);

  /// Writes the header fields, the payload CRC-32 (only if payload() was
  /// called), the header CRC-32, then the payload. Call once.
  void write(std::ostream& out);

 private:
  std::ostringstream header_;
  std::vector<std::pair<const char*, std::size_t>> payload_;
};

/// Reads the sections of one format from a stream, tracking the absolute
/// byte offset for error messages.
class SectionReader {
 public:
  /// Starts at the stream's current position; offsets in errors are that
  /// position (0 when the stream cannot tell) plus `origin`.
  SectionReader(std::istream& in, std::string format, std::uint64_t origin = 0);

  /// Throws FormatError("<format>: <defect>").
  [[noreturn]] void fail(const std::string& defect) const;

  /// Opens a section: reads its magic and fails with "bad magic" unless it
  /// is `expected`.
  void magic(std::uint32_t expected, const char* name);

  /// Reads a version field; fails with "unsupported version" unless it is
  /// `expected`.
  void version(std::uint32_t expected);

  /// Reads one header field; a short read is "truncated header".
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  T field() {
    T value{};
    read_exact(&value, sizeof(T), "truncated header");
    header_crc_.update(&value, sizeof(T));
    return value;
  }

  /// Reads the stored CRC-32 that closes a header and checks it against the
  /// raw bytes since magic().
  void check_header_crc();

  /// Reads `count` values of payload. `what` names them in the truncation
  /// error ("90 edges"). The bytes fold into the payload CRC.
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  std::vector<T> payload(std::uint64_t count, const std::string& what) {
    const std::uint64_t size = expect_payload(count, sizeof(T), remaining(), what);
    std::vector<T> values(count);
    read_exact(values.data(), size, "truncated payload");
    payload_crc_.update(values.data(), size);
    return values;
  }

  /// The mmap path: the payload is already in memory as `available` bytes
  /// at the current offset, the rest of the file. Checks `size` against
  /// them, rejects any byte past it, and folds the payload into the CRC.
  void mapped_payload(const std::byte* data, std::uint64_t available, std::uint64_t size,
                      const std::string& what);

  /// Checks `stored` against every payload byte read since magic().
  void check_payload_crc(std::uint32_t stored) const;

  [[nodiscard]] bool at_end() const;
  /// Fails with "trailing garbage" naming the offset of the first stray byte.
  void expect_end() const;

  [[nodiscard]] std::uint64_t offset() const noexcept { return offset_; }
  [[nodiscard]] const std::string& format() const noexcept { return format_; }

 private:
  void read_exact(void* data, std::uint64_t size, const char* defect);
  [[noreturn]] void expect_end_at(std::uint64_t offset) const;
  /// count * width, checked for overflow and against `left`.
  std::uint64_t expect_payload(std::uint64_t count, std::size_t width, std::uint64_t left,
                               const std::string& what) const;
  /// Bytes left in the stream; UINT64_MAX when it cannot tell.
  [[nodiscard]] std::uint64_t remaining() const;

  std::istream& in_;
  std::string format_;
  std::uint64_t offset_ = 0;
  std::uint64_t payload_start_ = 0;
  Crc32 header_crc_;
  Crc32 payload_crc_;
};

}  // namespace splpg::io
