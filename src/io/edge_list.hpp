// OGB-style edge-list ingestion and the compact binary graph format.
//
// Text format: one "u v" (or "u v w" for weighted graphs) pair per line,
// '#' comment lines and blank lines ignored — the shape OGB and SNAP dumps
// come in. Binary format (magic "SPGE", version 2): a fixed header (magic,
// version, flags, node count, edge count, payload CRC-32, header CRC-32)
// followed by the canonical (u < v, sorted, deduplicated) edge array and an
// optional weight array; this is the format save_dataset writes and the one
// that round-trips a graph bit-exactly. Version-1 files (no checksums) are
// rejected.
//
// All parsers validate before they build: malformed input (truncated files,
// checksum mismatches, trailing bytes past the declared payload, bad
// magic/version, non-numeric tokens, out-of-range node ids, and — in strict
// mode — self-loops or duplicate edges) raises FormatError with a message
// naming the offending file, section, and line/edge/offset, never an assert
// or garbage reads. File-level writers go through io::AtomicFile, so a crash
// mid-write never leaves a torn file under the final name.
#pragma once

#include <iosfwd>
#include <string>

#include "graph/csr_graph.hpp"
#include "io/error.hpp"

namespace splpg::io {

struct EdgeListOptions {
  /// Declared node count: ids must lie in [0, expected_nodes). 0 = infer the
  /// count as max_id + 1 (text) or trust the header (binary).
  graph::NodeId expected_nodes = 0;
  /// Text only: renumber ids densely in first-seen order (for raw dumps whose
  /// id space is sparse). Incompatible with expected_nodes.
  bool renumber = false;
  /// Strict mode (default): self-loops and duplicate edges are errors.
  /// Relaxed: they are dropped/merged exactly like graph::GraphBuilder.
  bool strict = true;
};

[[nodiscard]] graph::CsrGraph read_edge_list_text(std::istream& in,
                                                  const EdgeListOptions& options = {});
[[nodiscard]] graph::CsrGraph read_edge_list_text_file(const std::string& path,
                                                       const EdgeListOptions& options = {});
void write_edge_list_text(std::ostream& out, const graph::CsrGraph& graph);
void write_edge_list_text_file(const std::string& path, const graph::CsrGraph& graph);

/// Binary readers verify the header and payload checksums.
[[nodiscard]] graph::CsrGraph read_edge_list_binary(std::istream& in,
                                                    const EdgeListOptions& options = {});
[[nodiscard]] graph::CsrGraph read_edge_list_binary_file(const std::string& path,
                                                         const EdgeListOptions& options = {});
void write_edge_list_binary(std::ostream& out, const graph::CsrGraph& graph);
void write_edge_list_binary_file(const std::string& path, const graph::CsrGraph& graph);

}  // namespace splpg::io
