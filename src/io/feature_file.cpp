#include "io/feature_file.hpp"

#include <algorithm>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>

#include "io/atomic_file.hpp"
#include "io/error.hpp"
#include "io/mmap_file.hpp"
#include "io/section.hpp"
#include "io/storage_fault.hpp"

namespace splpg::io {

namespace {

constexpr std::uint32_t kFeatureMagic = 0x53504654;  // "SPFT"
constexpr std::uint32_t kFeatureVersion = 2;         // v1 had no checksums
// Header: magic, version, nodes, dim (u32 each), payload_bytes (u64) and the
// payload and header CRCs (io/section), 32 bytes in all. The payload starts
// at a fixed float-aligned offset so mmap stays zero-copy.
constexpr std::size_t kFeatureHeaderBytes = 32;

constexpr std::uint32_t kLabelMagic = 0x53504C42;  // "SPLB"
constexpr std::uint32_t kLabelVersion = 2;         // v1 had no checksums

struct FeatureHeader {
  std::uint32_t num_nodes = 0;
  std::uint32_t dim = 0;
  std::uint64_t payload_bytes = 0;
  std::uint32_t payload_crc = 0;

  [[nodiscard]] std::string what() const {
    return std::to_string(num_nodes) + "x" + std::to_string(dim) + " features";
  }
};

FeatureHeader read_feature_header(SectionReader& reader) {
  FeatureHeader header;
  reader.magic(kFeatureMagic, "SPFT");
  reader.version(kFeatureVersion);
  header.num_nodes = reader.field<std::uint32_t>();
  header.dim = reader.field<std::uint32_t>();
  header.payload_bytes = reader.field<std::uint64_t>();
  header.payload_crc = reader.field<std::uint32_t>();
  reader.check_header_crc();
  const std::uint64_t values = static_cast<std::uint64_t>(header.num_nodes) * header.dim;
  if (values > std::numeric_limits<std::uint64_t>::max() / sizeof(float)) {
    reader.fail("header declares " + header.what() + ", more than a file can hold");
  }
  const std::uint64_t expected = values * sizeof(float);
  if (header.payload_bytes != expected) {
    reader.fail("header declares " + std::to_string(header.payload_bytes) +
                " payload bytes but " + header.what() + " need " + std::to_string(expected));
  }
  return header;
}

}  // namespace

std::string to_string(FeatureBackend backend) {
  return backend == FeatureBackend::kMmap ? "mmap" : "buffered";
}

void write_features(std::ostream& out, const graph::FeatureStore& features) {
  const auto data = features.data();
  const std::uint64_t payload_bytes = data.size() * sizeof(float);
  SectionWriter()
      .field(kFeatureMagic)
      .field(kFeatureVersion)
      .field<std::uint32_t>(features.num_nodes())
      .field<std::uint32_t>(features.dim())
      .field(payload_bytes)
      .payload(data.data(), payload_bytes)
      .write(out);
}

void write_features_file(const std::string& path, const graph::FeatureStore& features) {
  write_file_atomic(path, [&](std::ostream& out) { write_features(out, features); });
}

graph::FeatureStore read_features(std::istream& in) {
  SectionReader reader(in, "feature file");
  const FeatureHeader header = read_feature_header(reader);
  auto data = reader.payload<float>(static_cast<std::uint64_t>(header.num_nodes) * header.dim,
                                    header.what());
  reader.check_payload_crc(header.payload_crc);
  reader.expect_end();
  return {header.num_nodes, header.dim, std::move(data)};
}

graph::FeatureStore read_features_file(const std::string& path, FeatureBackend backend) {
  storage_faults_on_read(path);
  if (backend == FeatureBackend::kMmap) {
    if (auto mapped = MappedFile::map(path); mapped.has_value()) {
      return with_path(path, [&]() -> graph::FeatureStore {
        // Check the header, the exact file size and the payload CRC against
        // the mapping BEFORE constructing the zero-copy view: a truncated or
        // padded file must be a FormatError here, never an out-of-bounds
        // read or SIGBUS on the first gather.
        std::istringstream head(
            std::string(reinterpret_cast<const char*>(mapped->data()),
                        std::min(mapped->size(), kFeatureHeaderBytes)));
        SectionReader reader(head, "feature file");
        const FeatureHeader header = read_feature_header(reader);
        const std::uint64_t header_bytes = reader.offset();
        reader.mapped_payload(mapped->data() + header_bytes, mapped->size() - header_bytes,
                              header.payload_bytes, header.what());
        reader.check_payload_crc(header.payload_crc);
        // Point the store straight at the mapped payload (zero-copy). The
        // shared_ptr keeps the mapping alive as long as any store copy does.
        auto owner = std::make_shared<MappedFile>(std::move(*mapped));
        const auto* rows = reinterpret_cast<const float*>(owner->data() + header_bytes);
        return {header.num_nodes, header.dim, rows, std::move(owner)};
      });
    }
    // Mapping unavailable (platform or I/O): fall back to a buffered read so
    // the backend choice never changes observable behavior.
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) throw_errno("feature file: cannot open", path);
  return with_path(path, [&] { return read_features(in); });
}

void write_labels_file(const std::string& path, const std::vector<std::uint32_t>& labels) {
  write_file_atomic(path, [&](std::ostream& out) {
    SectionWriter()
        .field(kLabelMagic)
        .field(kLabelVersion)
        .field<std::uint64_t>(labels.size())
        .payload(labels.data(), labels.size() * sizeof(std::uint32_t))
        .write(out);
  });
}

std::vector<std::uint32_t> read_labels_file(const std::string& path) {
  storage_faults_on_read(path);
  std::ifstream in(path, std::ios::binary);
  if (!in) throw_errno("label file: cannot open", path);
  return with_path(path, [&] {
    SectionReader reader(in, "label file");
    reader.magic(kLabelMagic, "SPLB");
    reader.version(kLabelVersion);
    const auto count = reader.field<std::uint64_t>();
    const auto payload_crc = reader.field<std::uint32_t>();
    reader.check_header_crc();
    auto labels = reader.payload<std::uint32_t>(count, std::to_string(count) + " labels");
    reader.check_payload_crc(payload_crc);
    reader.expect_end();
    return labels;
  });
}

}  // namespace splpg::io
