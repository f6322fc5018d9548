// Error types shared by every binary/text format in the io module.
//
// FormatError: the bytes are wrong — torn headers, checksum mismatches,
// trailing garbage, out-of-range ids. The message names the file (when read
// through a *_file wrapper), the section, and the byte offset so a corrupt
// artifact can be diagnosed without a hex dump.
//
// IoError: the operating system said no — open/write/rename/fsync failures.
// Carries the errno captured at the failure site; the message includes
// strerror(errno) and the full path.
#pragma once

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <string>

namespace splpg::io {

/// Raised on any malformed input; the message carries file/section/offset
/// context.
class FormatError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Raised when a filesystem operation fails; wraps the errno of the failure.
class IoError : public FormatError {
 public:
  IoError(const std::string& message, int error_number)
      : FormatError(message), error_number_(error_number) {}

  [[nodiscard]] int error_number() const noexcept { return error_number_; }

 private:
  int error_number_;
};

/// Throws IoError for a failed OS call: "<operation> <path>: <strerror>".
/// `error_number` defaults to the current errno.
[[noreturn]] inline void throw_errno(const std::string& operation, const std::string& path,
                                     int error_number = errno) {
  throw IoError(operation + " " + path + ": " + std::strerror(error_number), error_number);
}

/// Runs `fn`, prefixing any FormatError it raises with the file path (unless
/// the message already names it). IoErrors pass through untouched — they are
/// built with the path at the failure site and rethrowing would drop errno.
template <typename Fn>
decltype(auto) with_path(const std::string& path, Fn&& fn) {
  try {
    return fn();
  } catch (const IoError&) {
    throw;
  } catch (const FormatError& error) {
    const std::string what = error.what();
    if (what.find(path) != std::string::npos) throw;
    throw FormatError(path + ": " + what);
  }
}

}  // namespace splpg::io
