#include "io/edge_list.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "io/atomic_file.hpp"
#include "io/section.hpp"
#include "io/storage_fault.hpp"

namespace splpg::io {

using graph::CsrGraph;
using graph::Edge;
using graph::EdgeId;
using graph::GraphBuilder;
using graph::NodeId;

namespace {

constexpr std::uint32_t kEdgeMagic = 0x53504745;  // "SPGE"
constexpr std::uint32_t kEdgeVersion = 2;         // v1 had no checksums
// Header: magic, version, flags, num_nodes (u32 each), num_edges (u64), then
// the payload and header CRCs (io/section). Payload: the u32 pairs, then the
// f32 weights of a weighted graph.
constexpr std::uint32_t kFlagWeighted = 1U << 0;

[[noreturn]] void fail(const std::string& message) { throw FormatError(message); }

/// Parsed but not yet validated text edge, with its source line for errors.
struct RawEdge {
  std::uint64_t u = 0;
  std::uint64_t v = 0;
  float weight = 1.0F;
  std::uint64_t line = 0;
};

const char* skip_spaces(const char* it, const char* end) {
  while (it != end && (*it == ' ' || *it == '\t' || *it == '\r')) ++it;
  return it;
}

std::uint64_t parse_id(const char*& it, const char* end, std::uint64_t line,
                       const char* what) {
  std::uint64_t value = 0;
  const auto [ptr, ec] = std::from_chars(it, end, value);
  if (ec != std::errc{} || ptr == it) {
    fail("edge list line " + std::to_string(line) + ": expected a numeric " + what +
         ", got '" + std::string(it, end) + "'");
  }
  it = ptr;
  return value;
}

/// Canonicalizes, range-checks, and (strict) rejects self-loops/duplicates,
/// then builds the graph. Shared by the text and binary readers.
CsrGraph build_checked(NodeId num_nodes, std::vector<RawEdge> raw, bool weighted,
                       const EdgeListOptions& options, const char* format) {
  const bool bounded = options.expected_nodes > 0 || num_nodes > 0;
  for (const auto& edge : raw) {
    const std::uint64_t limit =
        bounded ? num_nodes : static_cast<std::uint64_t>(graph::kInvalidNode);
    if (edge.u >= limit || edge.v >= limit) {
      fail(std::string(format) + " line " + std::to_string(edge.line) + ": node id " +
           std::to_string(std::max(edge.u, edge.v)) + " out of range [0, " +
           std::to_string(limit) + ")");
    }
    if (options.strict && edge.u == edge.v) {
      fail(std::string(format) + " line " + std::to_string(edge.line) + ": self-loop at node " +
           std::to_string(edge.u));
    }
  }
  if (options.strict) {
    std::vector<std::pair<Edge, std::uint64_t>> canonical;
    canonical.reserve(raw.size());
    for (const auto& edge : raw) {
      const auto u = static_cast<NodeId>(std::min(edge.u, edge.v));
      const auto v = static_cast<NodeId>(std::max(edge.u, edge.v));
      canonical.emplace_back(Edge{u, v}, edge.line);
    }
    std::sort(canonical.begin(), canonical.end());
    for (std::size_t i = 1; i < canonical.size(); ++i) {
      if (canonical[i].first == canonical[i - 1].first) {
        fail(std::string(format) + " line " + std::to_string(canonical[i].second) +
             ": duplicate edge (" + std::to_string(canonical[i].first.u) + ", " +
             std::to_string(canonical[i].first.v) + ") first seen on line " +
             std::to_string(canonical[i - 1].second));
      }
    }
  }
  GraphBuilder builder(num_nodes, weighted);
  for (const auto& edge : raw) {
    builder.add_edge(static_cast<NodeId>(edge.u), static_cast<NodeId>(edge.v), edge.weight);
  }
  return builder.build();
}

}  // namespace

CsrGraph read_edge_list_text(std::istream& in, const EdgeListOptions& options) {
  if (options.renumber && options.expected_nodes > 0) {
    fail("edge list: renumber and expected_nodes are mutually exclusive");
  }
  std::vector<RawEdge> raw;
  std::unordered_map<std::uint64_t, NodeId> remap;
  std::uint64_t max_id = 0;
  bool weighted = false;
  std::string line;
  std::uint64_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    const char* it = line.data();
    const char* end = line.data() + line.size();
    it = skip_spaces(it, end);
    if (it == end || *it == '#') continue;

    RawEdge edge;
    edge.line = line_number;
    edge.u = parse_id(it, end, line_number, "source id");
    it = skip_spaces(it, end);
    if (it == end) fail("edge list line " + std::to_string(line_number) + ": missing target id");
    edge.v = parse_id(it, end, line_number, "target id");
    it = skip_spaces(it, end);
    if (it != end) {
      // Optional third column: edge weight.
      const auto [ptr, ec] = std::from_chars(it, end, edge.weight);
      if (ec != std::errc{} || ptr == it) {
        fail("edge list line " + std::to_string(line_number) + ": expected a numeric weight, got '" +
             std::string(it, end) + "'");
      }
      it = skip_spaces(ptr, end);
      if (it != end) {
        fail("edge list line " + std::to_string(line_number) + ": trailing tokens '" +
             std::string(it, end) + "'");
      }
      weighted = true;
    }
    if (options.renumber) {
      for (std::uint64_t* id : {&edge.u, &edge.v}) {
        const auto [entry, inserted] = remap.emplace(*id, static_cast<NodeId>(remap.size()));
        (void)inserted;
        *id = entry->second;
      }
    }
    max_id = std::max({max_id, edge.u, edge.v});
    raw.push_back(edge);
  }
  if (in.bad()) fail("edge list: read failed");

  NodeId num_nodes = options.expected_nodes;
  if (num_nodes == 0 && !raw.empty()) {
    if (max_id >= graph::kInvalidNode) {
      fail("edge list: node id " + std::to_string(max_id) + " exceeds the supported maximum " +
           std::to_string(graph::kInvalidNode - 1));
    }
    num_nodes = static_cast<NodeId>(max_id) + 1;
  }
  return build_checked(num_nodes, std::move(raw), weighted, options, "edge list");
}

CsrGraph read_edge_list_text_file(const std::string& path, const EdgeListOptions& options) {
  storage_faults_on_read(path);
  std::ifstream in(path);
  if (!in) throw_errno("edge list: cannot open", path);
  return with_path(path, [&] { return read_edge_list_text(in, options); });
}

void write_edge_list_text(std::ostream& out, const CsrGraph& graph) {
  out << "# nodes=" << graph.num_nodes() << " edges=" << graph.num_edges()
      << (graph.is_weighted() ? " weighted=1" : "") << "\n";
  char weight_text[32];
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    const auto& [u, v] = graph.edges()[e];
    out << u << " " << v;
    if (graph.is_weighted()) {
      // %.9g round-trips any float exactly through strtof/from_chars.
      std::snprintf(weight_text, sizeof(weight_text), "%.9g",
                    static_cast<double>(graph.edge_weights()[e]));
      out << " " << weight_text;
    }
    out << "\n";
  }
  if (!out) fail("edge list: write failed");
}

void write_edge_list_text_file(const std::string& path, const CsrGraph& graph) {
  write_file_atomic(path, [&](std::ostream& out) { write_edge_list_text(out, graph); });
}

CsrGraph read_edge_list_binary(std::istream& in, const EdgeListOptions& options) {
  SectionReader reader(in, "binary edge list");
  reader.magic(kEdgeMagic, "SPGE");
  reader.version(kEdgeVersion);
  const auto flags = reader.field<std::uint32_t>();
  const auto num_nodes = reader.field<std::uint32_t>();
  const auto num_edges = reader.field<std::uint64_t>();
  const auto payload_crc = reader.field<std::uint32_t>();
  reader.check_header_crc();
  if ((flags & ~kFlagWeighted) != 0) {
    std::ostringstream hex;
    hex << std::hex << flags;
    reader.fail("unknown flags 0x" + hex.str());
  }
  if (options.expected_nodes > 0 && num_nodes != options.expected_nodes) {
    reader.fail("header declares " + std::to_string(num_nodes) + " nodes, expected " +
                std::to_string(options.expected_nodes));
  }
  const bool weighted = (flags & kFlagWeighted) != 0;
  const auto pairs = reader.payload<Edge>(num_edges, std::to_string(num_edges) + " edges");
  const auto weights = reader.payload<float>(weighted ? num_edges : 0,
                                             std::to_string(num_edges) + " edge weights");
  reader.check_payload_crc(payload_crc);
  reader.expect_end();

  std::vector<RawEdge> raw(num_edges);
  for (std::uint64_t e = 0; e < num_edges; ++e) {
    raw[e].u = pairs[e].u;
    raw[e].v = pairs[e].v;
    if (weighted) raw[e].weight = weights[e];
    raw[e].line = e;  // "line" doubles as the edge index in error messages
  }
  EdgeListOptions checked = options;
  checked.expected_nodes = num_nodes;
  return build_checked(num_nodes, std::move(raw), weighted, checked, "binary edge list");
}

CsrGraph read_edge_list_binary_file(const std::string& path, const EdgeListOptions& options) {
  storage_faults_on_read(path);
  std::ifstream in(path, std::ios::binary);
  if (!in) throw_errno("binary edge list: cannot open", path);
  return with_path(path, [&] { return read_edge_list_binary(in, options); });
}

void write_edge_list_binary(std::ostream& out, const CsrGraph& graph) {
  const auto edges = graph.edges();
  const auto weights = graph.edge_weights();
  SectionWriter()
      .field(kEdgeMagic)
      .field(kEdgeVersion)
      .field<std::uint32_t>(graph.is_weighted() ? kFlagWeighted : 0)
      .field<std::uint32_t>(graph.num_nodes())
      .field<std::uint64_t>(graph.num_edges())
      .payload(edges.data(), edges.size() * sizeof(Edge))
      .payload(weights.data(), weights.size() * sizeof(float))
      .write(out);
}

void write_edge_list_binary_file(const std::string& path, const CsrGraph& graph) {
  write_file_atomic(path, [&](std::ostream& out) { write_edge_list_binary(out, graph); });
}

}  // namespace splpg::io
