// Node-feature and label files.
//
// Feature file (magic "SPFT", version 2): a 32-byte header (magic, version,
// node count, feature dim, payload byte count, payload CRC-32, header CRC-32)
// followed by the row-major float32 matrix. The payload starts at a fixed,
// float-aligned offset so the whole file can be mmap'ed and served zero-copy
// through graph::FeatureStore's view backing — and the mmap path verifies the
// header, the exact file size, and the payload checksum BEFORE constructing
// the view, so a truncated file is a FormatError, never a SIGBUS mid-gather.
//
// Label file (magic "SPLB", version 2): header (magic, version, count,
// payload CRC-32, header CRC-32) then one uint32 label per node — the
// generator's ground-truth communities.
//
// Version-1 files (no checksums) of either format are rejected. File writers
// go through io::AtomicFile: a crash mid-write never leaves a torn file
// under the final name.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/features.hpp"
#include "io/error.hpp"

namespace splpg::io {

enum class FeatureBackend {
  kBuffered,  // read the matrix into an owned vector
  kMmap,      // map the file; rows are served zero-copy (falls back to
              // buffered when mmap is unavailable)
};

[[nodiscard]] std::string to_string(FeatureBackend backend);

void write_features(std::ostream& out, const graph::FeatureStore& features);
void write_features_file(const std::string& path, const graph::FeatureStore& features);

/// Loads a feature file. With kMmap the returned store is a zero-copy view
/// whose keepalive owns the mapping; with kBuffered (or when mapping fails)
/// it owns a heap copy. Both return bit-identical rows and verify the same
/// checksums.
[[nodiscard]] graph::FeatureStore read_features(std::istream& in);
[[nodiscard]] graph::FeatureStore read_features_file(const std::string& path,
                                                     FeatureBackend backend);

void write_labels_file(const std::string& path, const std::vector<std::uint32_t>& labels);
[[nodiscard]] std::vector<std::uint32_t> read_labels_file(const std::string& path);

}  // namespace splpg::io
