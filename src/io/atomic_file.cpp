#include "io/atomic_file.hpp"

#include <cstdio>
#include <filesystem>

#include "io/error.hpp"
#include "io/storage_fault.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define SPLPG_HAS_FSYNC 1
#include <fcntl.h>
#include <unistd.h>
#else
#define SPLPG_HAS_FSYNC 0
#include <fstream>
#endif

namespace splpg::io {

namespace {

/// fsync the directory containing `path` so the rename itself is durable.
void fsync_parent_dir(const std::string& path) {
#if SPLPG_HAS_FSYNC
  const std::filesystem::path parent = std::filesystem::path(path).parent_path();
  const std::string dir = parent.empty() ? "." : parent.string();
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) throw_errno("cannot open directory for fsync", dir);
  if (::fsync(fd) != 0) {
    const int saved = errno;
    ::close(fd);
    throw_errno("cannot fsync directory", dir, saved);
  }
  ::close(fd);
#else
  (void)path;
#endif
}

/// Writes exactly `size` bytes of `data` to a fresh `path` and fsyncs it.
void write_and_sync(const std::string& path, const char* data, std::uint64_t size) {
#if SPLPG_HAS_FSYNC
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) throw_errno("cannot create", path);
  std::uint64_t written = 0;
  while (written < size) {
    const ::ssize_t n = ::write(fd, data + written, size - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int saved = errno;
      ::close(fd);
      throw_errno("cannot write", path, saved);
    }
    written += static_cast<std::uint64_t>(n);
  }
  if (::fsync(fd) != 0) {
    const int saved = errno;
    ::close(fd);
    throw_errno("cannot fsync", path, saved);
  }
  if (::close(fd) != 0) throw_errno("cannot close", path);
#else
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw_errno("cannot create", path);
  out.write(data, static_cast<std::streamsize>(size));
  out.flush();
  if (!out) throw_errno("cannot write", path);
#endif
}

}  // namespace

AtomicFile::AtomicFile(std::string path)
    : path_(std::move(path)), temp_path_(path_ + ".tmp") {}

AtomicFile::~AtomicFile() {
  if (!committed_ && temp_created_) {
    std::error_code ec;
    std::filesystem::remove(temp_path_, ec);  // best-effort abort cleanup
  }
}

void AtomicFile::commit() {
  if (committed_) throw std::logic_error("AtomicFile::commit: already committed " + path_);
  const std::string contents = buffer_.str();

  StorageFaultInjector::WriteOutcome outcome;
  outcome.persisted_bytes = contents.size();
  if (auto* injector = active_storage_faults(); injector != nullptr) {
    outcome = injector->on_write(path_, contents.size());
  }
  using Kind = StorageFaultInjector::WriteOutcome::Kind;

  temp_created_ = true;
  if (outcome.kind == Kind::kEnospc) {
    // Simulated full disk: only a prefix makes it to the temp file, then the
    // write fails. The dtor removes the temp; the final name is untouched.
    write_and_sync(temp_path_, contents.data(), outcome.persisted_bytes);
    throw_errno("cannot write (injected fault)", temp_path_, ENOSPC);
  }
  if (outcome.kind == Kind::kTorn) {
    // Simulated machine death mid-write: the truncated temp stays on disk
    // (a real crash leaves it too) and the process "dies" here — before the
    // rename, so the final name still holds its previous complete contents.
    write_and_sync(temp_path_, contents.data(), outcome.persisted_bytes);
    temp_created_ = false;  // a dead process runs no destructors: keep the wreckage
    throw SimulatedCrash("simulated crash: torn write of " + path_ + " after " +
                         std::to_string(outcome.persisted_bytes) + " of " +
                         std::to_string(contents.size()) + " bytes");
  }

  write_and_sync(temp_path_, contents.data(), contents.size());

  if (outcome.kind == Kind::kRenameFails) {
    throw_errno("cannot rename (injected fault)", temp_path_ + " -> " + path_, EIO);
  }
  if (std::rename(temp_path_.c_str(), path_.c_str()) != 0) {
    throw_errno("cannot rename into place", temp_path_ + " -> " + path_);
  }
  committed_ = true;
  fsync_parent_dir(path_);
}

void write_file_atomic(const std::string& path,
                       const std::function<void(std::ostream&)>& writer) {
  AtomicFile file(path);
  writer(file.stream());
  if (!file.stream()) {
    throw IoError("cannot buffer contents of " + path + ": stream failure", EIO);
  }
  file.commit();
}

}  // namespace splpg::io
