// Crash-consistent file writes: write-to-temp → fsync → rename → fsync-dir.
//
// An AtomicFile buffers everything written to stream() in memory, then
// commit() persists it under `<path>.tmp`, fsyncs, renames into place, and
// fsyncs the parent directory. The invariant every writer in this repo
// relies on: the final name either holds its previous complete contents or
// the new complete contents — never a torn mixture — no matter at which
// byte the machine (or the storage fault injector) kills the write.
//
// Destroying an uncommitted AtomicFile removes the temp file (RAII abort).
// A SimulatedCrash during commit (injected torn write) deliberately leaves
// the truncated temp behind, exactly like a real crash would; readers never
// look at `*.tmp` names and the checkpoint GC sweeps strays.
//
// On non-POSIX platforms the fsync steps degrade to flush+close; the
// temp-then-rename ordering is kept.
#pragma once

#include <functional>
#include <sstream>
#include <string>

namespace splpg::io {

class AtomicFile {
 public:
  /// Prepares an atomic write to `path` (nothing touches the disk yet).
  explicit AtomicFile(std::string path);

  /// Removes the temp file if commit() was never reached (or failed before
  /// the rename).
  ~AtomicFile();

  AtomicFile(const AtomicFile&) = delete;
  AtomicFile& operator=(const AtomicFile&) = delete;

  /// The in-memory buffer; write the file contents here.
  [[nodiscard]] std::ostream& stream() noexcept { return buffer_; }

  /// Persists the buffer: temp write, fsync, rename over `path()`, fsync of
  /// the parent directory. Throws IoError on any OS failure (temp removed,
  /// final name untouched) and SimulatedCrash on an injected torn write
  /// (truncated temp left behind, final name untouched). May be called once.
  void commit();

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
  std::string temp_path_;
  std::ostringstream buffer_;
  bool committed_ = false;
  bool temp_created_ = false;
};

/// Convenience wrapper: `writer` fills the stream, then the file is
/// committed. Any exception from `writer` aborts the write (no temp left).
void write_file_atomic(const std::string& path,
                       const std::function<void(std::ostream&)>& writer);

}  // namespace splpg::io
