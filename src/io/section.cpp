#include "io/section.hpp"

#include <istream>
#include <limits>
#include <ostream>

namespace splpg::io {

namespace {

std::string hex(std::uint32_t value) {
  std::ostringstream out;
  out << "0x" << std::hex << value;
  return out.str();
}

}  // namespace

SectionWriter& SectionWriter::payload(const void* data, std::size_t size) {
  payload_.emplace_back(static_cast<const char*>(data), size);
  return *this;
}

void SectionWriter::write(std::ostream& out) {
  if (!payload_.empty()) {
    Crc32 crc;
    for (const auto& [data, size] : payload_) crc.update(data, size);
    field(crc.value());
  }
  const std::string head = header_.str();
  out.write(head.data(), static_cast<std::streamsize>(head.size()));
  util::write_pod(out, Crc32::of(head.data(), head.size()));
  for (const auto& [data, size] : payload_) out.write(data, static_cast<std::streamsize>(size));
  if (!out) throw FormatError("section write failed");
}

SectionReader::SectionReader(std::istream& in, std::string format, std::uint64_t origin)
    : in_(in), format_(std::move(format)) {
  const auto here = in_.tellg();
  offset_ = origin + (here >= 0 ? static_cast<std::uint64_t>(here) : 0);
}

void SectionReader::fail(const std::string& defect) const {
  throw FormatError(format_ + ": " + defect);
}

void SectionReader::magic(std::uint32_t expected, const char* name) {
  header_crc_ = Crc32();
  payload_crc_ = Crc32();
  if (const auto value = field<std::uint32_t>(); value != expected) {
    fail("bad magic " + hex(value) + " (not an " + name + " file)");
  }
}

void SectionReader::version(std::uint32_t expected) {
  if (const auto value = field<std::uint32_t>(); value != expected) {
    fail("unsupported version " + std::to_string(value) + " (expected " +
         std::to_string(expected) + ")");
  }
}

void SectionReader::check_header_crc() {
  const std::uint64_t at = offset_;
  const std::uint32_t computed = header_crc_.value();
  std::uint32_t stored = 0;
  read_exact(&stored, sizeof(stored), "truncated header");
  if (stored != computed) {
    fail("header checksum mismatch at offset " + std::to_string(at) + " (stored " +
         hex(stored) + ", computed " + hex(computed) + ")");
  }
  payload_start_ = offset_;
}

void SectionReader::mapped_payload(const std::byte* data, std::uint64_t available,
                                   std::uint64_t size, const std::string& what) {
  (void)expect_payload(size, 1, available, what);
  if (available > size) expect_end_at(offset_ + size);
  payload_crc_.update(data, size);
  offset_ += size;
}

void SectionReader::check_payload_crc(std::uint32_t stored) const {
  if (const std::uint32_t computed = payload_crc_.value(); stored != computed) {
    fail("payload checksum mismatch at offset " + std::to_string(payload_start_) +
         " (stored " + hex(stored) + ", computed " + hex(computed) + ")");
  }
}

bool SectionReader::at_end() const {
  return in_.peek() == std::char_traits<char>::eof();
}

void SectionReader::expect_end() const {
  if (!at_end()) expect_end_at(offset_);
}

void SectionReader::expect_end_at(std::uint64_t offset) const {
  fail("trailing garbage after the declared payload at offset " + std::to_string(offset));
}

void SectionReader::read_exact(void* data, std::uint64_t size, const char* defect) {
  in_.read(static_cast<char*>(data), static_cast<std::streamsize>(size));
  const auto got = static_cast<std::uint64_t>(in_.gcount());
  if (got != size) {
    fail(std::string(defect) + " at offset " + std::to_string(offset_ + got));
  }
  offset_ += size;
}

std::uint64_t SectionReader::expect_payload(std::uint64_t count, std::size_t width,
                                            std::uint64_t left,
                                            const std::string& what) const {
  if (count > std::numeric_limits<std::uint64_t>::max() / width) {
    fail("header declares " + what + ", more than a file can hold");
  }
  const std::uint64_t size = count * width;
  if (size > left) {
    fail("truncated — header declares " + std::to_string(size) + " payload bytes for " +
         what + " but only " + std::to_string(left) + " remain");
  }
  return size;
}

std::uint64_t SectionReader::remaining() const {
  const auto here = in_.tellg();
  if (here < 0) return std::numeric_limits<std::uint64_t>::max();
  in_.seekg(0, std::ios::end);
  const auto end = in_.tellg();
  in_.seekg(here);
  if (end < here) return std::numeric_limits<std::uint64_t>::max();
  return static_cast<std::uint64_t>(end - here);
}

}  // namespace splpg::io
