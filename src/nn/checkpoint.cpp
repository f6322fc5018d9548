#include "nn/checkpoint.hpp"

#include <algorithm>
#include <array>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "io/atomic_file.hpp"
#include "io/crc32.hpp"
#include "io/section.hpp"
#include "io/storage_fault.hpp"
#include "util/serialize.hpp"

namespace splpg::nn {

namespace fs = std::filesystem;

namespace {

constexpr std::uint32_t kStateMagic = 0x5350434B;  // "SPCK"
constexpr std::uint32_t kStateVersion = 2;         // v1 had no checksums

// The parameter and optimizer-state sections share one layout: magic, the
// section's u64 counters, then payload byte count, payload CRC, header CRC
// and a payload of shape-prefixed matrices (rows, cols as u64, row-major
// f32). Their unchecksummed predecessors had other magics ("SPLM", "SPOS"),
// which are rejected as bad magic.
struct MatrixLayout {
  std::uint32_t magic;
  const char* name;
  std::size_t counters;
};
constexpr MatrixLayout kParameters{0x53504D32, "SPM2", 1};      // count
constexpr MatrixLayout kOptimizerState{0x53504F32, "SPO2", 2};  // step, count

struct MatrixSection {
  std::array<std::uint64_t, 2> counters{};
  std::uint64_t payload_bytes = 0;
  std::uint32_t payload_crc = 0;
};

constexpr const char* kManifestFile = "MANIFEST";
constexpr const char* kStatePrefix = "state_epoch_";
constexpr const char* kModelPrefix = "model_epoch_";

void write_matrix_section(std::ostream& out, const MatrixLayout& layout,
                          std::initializer_list<std::uint64_t> counters,
                          const std::vector<const tensor::Matrix*>& matrices) {
  std::ostringstream payload;
  for (const auto* matrix : matrices) {
    util::write_pod<std::uint64_t>(payload, matrix->rows());
    util::write_pod<std::uint64_t>(payload, matrix->cols());
    const auto data = matrix->data();
    payload.write(reinterpret_cast<const char*>(data.data()),
                  static_cast<std::streamsize>(data.size() * sizeof(float)));
  }
  const std::string body = payload.str();
  io::SectionWriter section;
  section.field(layout.magic);
  for (const std::uint64_t counter : counters) section.field(counter);
  section.field<std::uint64_t>(body.size()).payload(body.data(), body.size()).write(out);
}

MatrixSection read_matrix_header(io::SectionReader& reader, const MatrixLayout& layout) {
  MatrixSection section;
  reader.magic(layout.magic, layout.name);
  for (std::size_t i = 0; i < layout.counters; ++i) {
    section.counters[i] = reader.field<std::uint64_t>();
  }
  section.payload_bytes = reader.field<std::uint64_t>();
  section.payload_crc = reader.field<std::uint32_t>();
  reader.check_header_crc();
  return section;
}

/// Reads one shape-prefixed matrix into `destination`, whose shape it must
/// match (the state_dict contract); without a destination it is only walked.
void read_matrix(io::SectionReader& reader, tensor::Matrix* destination) {
  const auto shape = reader.payload<std::uint64_t>(2, "a matrix shape");
  const std::uint64_t rows = shape[0];
  const std::uint64_t cols = shape[1];
  const std::string what = std::to_string(rows) + "x" + std::to_string(cols) + " matrix";
  if (destination != nullptr && (rows != destination->rows() || cols != destination->cols())) {
    throw std::invalid_argument(reader.format() + ": shape mismatch (file holds a " + what +
                                ")");
  }
  if (rows != 0 && cols > std::numeric_limits<std::uint64_t>::max() / rows) {
    reader.fail("implausible " + what);
  }
  const auto values = reader.payload<float>(rows * cols, what);
  if (destination != nullptr) std::copy(values.begin(), values.end(), destination->data().begin());
}

/// Reads a section's `count` matrices into `into` (or only walks them when
/// `into` is empty). The payload is verified whole before any of it is
/// interpreted, and must hold exactly these matrices.
void read_matrices(io::SectionReader& reader, const MatrixSection& section, std::uint64_t count,
                   std::span<tensor::Matrix* const> into) {
  const std::uint64_t payload_start = reader.offset();
  const auto body =
      reader.payload<char>(section.payload_bytes, std::to_string(count) + " matrices");
  reader.check_payload_crc(section.payload_crc);
  std::istringstream verified(std::string(body.begin(), body.end()));
  io::SectionReader payload(verified, reader.format(), payload_start);
  for (std::uint64_t i = 0; i < count; ++i) {
    read_matrix(payload, into.empty() ? nullptr : into[i]);
  }
  payload.expect_end();
}

void read_parameters(io::SectionReader& reader, Module& module) {
  const MatrixSection section = read_matrix_header(reader, kParameters);
  if (section.counters[0] != module.parameters().size()) {
    throw std::invalid_argument(reader.format() + ": parameter count mismatch");
  }
  std::vector<tensor::Matrix*> into;
  for (auto& p : module.parameters()) into.push_back(&p.mutable_value());
  read_matrices(reader, section, into.size(), into);
}

/// Reads the SPCK header; returns the checkpoint's epoch.
std::uint32_t read_state_header(io::SectionReader& reader) {
  reader.magic(kStateMagic, "SPCK");
  reader.version(kStateVersion);
  const auto epoch = reader.field<std::uint32_t>();
  reader.check_header_crc();
  return epoch;
}

/// Parses the epoch out of `<prefix><digits>.bin`; nullopt for other names.
std::optional<std::uint32_t> epoch_of(const std::string& filename, const char* prefix) {
  const std::string_view name(filename);
  const std::string_view pre(prefix);
  if (name.size() <= pre.size() + 4 || name.substr(0, pre.size()) != pre ||
      name.substr(name.size() - 4) != ".bin") {
    return std::nullopt;
  }
  const std::string_view digits = name.substr(pre.size(), name.size() - pre.size() - 4);
  std::uint64_t value = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') return std::nullopt;
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
    if (value > UINT32_MAX) return std::nullopt;
  }
  return static_cast<std::uint32_t>(value);
}

}  // namespace

void save_parameters(std::ostream& out, const Module& module) {
  std::vector<const tensor::Matrix*> matrices;
  for (const auto& p : module.parameters()) matrices.push_back(&p.value());
  write_matrix_section(out, kParameters, {matrices.size()}, matrices);
}

void save_parameters_file(const std::string& path, const Module& module) {
  io::write_file_atomic(path, [&](std::ostream& out) { save_parameters(out, module); });
}

void load_parameters(std::istream& in, Module& module) {
  io::SectionReader reader(in, "load_parameters");
  read_parameters(reader, module);
}

void load_parameters_file(const std::string& path, Module& module) {
  io::storage_faults_on_read(path);
  std::ifstream in(path, std::ios::binary);
  if (!in) io::throw_errno("load_parameters_file: cannot open", path);
  io::with_path(path, [&] {
    io::SectionReader reader(in, "load_parameters_file");
    read_parameters(reader, module);
    reader.expect_end();
  });
}

void save_optimizer_section(std::ostream& out, std::uint64_t step,
                            std::span<const tensor::Matrix> m,
                            std::span<const tensor::Matrix> v) {
  std::vector<const tensor::Matrix*> matrices;
  for (std::size_t i = 0; i < m.size(); ++i) {
    matrices.push_back(&m[i]);
    matrices.push_back(&v[i]);
  }
  write_matrix_section(out, kOptimizerState, {step, m.size()}, matrices);
}

std::uint64_t load_optimizer_section(std::istream& in, std::span<tensor::Matrix> m,
                                     std::span<tensor::Matrix> v) {
  io::SectionReader reader(in, "Adam::load_state");
  const MatrixSection section = read_matrix_header(reader, kOptimizerState);
  if (section.counters[1] != m.size()) {
    throw std::invalid_argument("Adam::load_state: moment count mismatch");
  }
  std::vector<tensor::Matrix*> into;
  for (std::size_t i = 0; i < m.size(); ++i) {
    into.push_back(&m[i]);
    into.push_back(&v[i]);
  }
  read_matrices(reader, section, into.size(), into);
  return section.counters[0];
}

void save_train_state(std::ostream& out, const Module& module, const Optimizer& optimizer,
                      std::uint32_t epoch) {
  io::SectionWriter().field(kStateMagic).field(kStateVersion).field(epoch).write(out);
  save_parameters(out, module);
  optimizer.save_state(out);
  if (!out) throw std::runtime_error("save_train_state: write failed");
}

void save_train_state_file(const std::string& path, const Module& module,
                           const Optimizer& optimizer, std::uint32_t epoch) {
  io::write_file_atomic(
      path, [&](std::ostream& out) { save_train_state(out, module, optimizer, epoch); });
}

std::uint32_t load_train_state(std::istream& in, Module& module, Optimizer& optimizer) {
  io::SectionReader reader(in, "load_train_state");
  const std::uint32_t epoch = read_state_header(reader);
  read_parameters(reader, module);
  optimizer.load_state(in);
  return epoch;
}

std::uint32_t load_train_state_file(const std::string& path, Module& module,
                                    Optimizer& optimizer) {
  io::storage_faults_on_read(path);
  std::ifstream in(path, std::ios::binary);
  if (!in) io::throw_errno("load_train_state_file: cannot open", path);
  return io::with_path(path, [&] {
    const std::uint32_t epoch = load_train_state(in, module, optimizer);
    io::SectionReader(in, "load_train_state_file").expect_end();
    return epoch;
  });
}

// ---- checkpoint directories ----

std::string checkpoint_model_file(const std::string& dir, std::uint32_t epoch) {
  return (fs::path(dir) / (kModelPrefix + std::to_string(epoch) + ".bin")).string();
}

std::string checkpoint_state_file(const std::string& dir, std::uint32_t epoch) {
  return (fs::path(dir) / (kStatePrefix + std::to_string(epoch) + ".bin")).string();
}

std::vector<CheckpointEntry> list_checkpoints(const std::string& dir) {
  std::vector<CheckpointEntry> entries;
  std::error_code ec;
  for (const auto& item : fs::directory_iterator(dir, ec)) {
    if (!item.is_regular_file()) continue;
    const auto epoch = epoch_of(item.path().filename().string(), kStatePrefix);
    if (!epoch.has_value()) continue;
    CheckpointEntry entry;
    entry.epoch = *epoch;
    entry.state_file = item.path().string();
    entry.model_file = checkpoint_model_file(dir, *epoch);
    entries.push_back(std::move(entry));
  }
  std::sort(entries.begin(), entries.end(),
            [](const CheckpointEntry& a, const CheckpointEntry& b) { return a.epoch > b.epoch; });
  return entries;
}

std::uint32_t validate_train_state_file(const std::string& path) {
  io::storage_faults_on_read(path);
  std::ifstream in(path, std::ios::binary);
  if (!in) io::throw_errno("validate_train_state: cannot open", path);
  return io::with_path(path, [&] {
    io::SectionReader reader(in, "validate_train_state");
    const std::uint32_t epoch = read_state_header(reader);
    const MatrixSection parameters = read_matrix_header(reader, kParameters);
    read_matrices(reader, parameters, parameters.counters[0], {});
    if (!reader.at_end()) {  // stateless optimizers (SGD) write no section
      const MatrixSection moments = read_matrix_header(reader, kOptimizerState);
      if (moments.counters[1] > std::numeric_limits<std::uint64_t>::max() / 2) {
        reader.fail("implausible moment count " + std::to_string(moments.counters[1]));
      }
      read_matrices(reader, moments, 2 * moments.counters[1], {});
    }
    reader.expect_end();
    return epoch;
  });
}

std::optional<CheckpointEntry> find_latest_valid_checkpoint(const std::string& dir,
                                                            std::uint32_t* skipped) {
  if (skipped != nullptr) *skipped = 0;
  for (const auto& entry : list_checkpoints(dir)) {
    try {
      (void)validate_train_state_file(entry.state_file);
      return entry;
    } catch (const std::exception&) {
      // Corrupt, truncated, or unreadable: recovery falls back to the next
      // older checkpoint instead of dying on the newest one.
      if (skipped != nullptr) ++*skipped;
    }
  }
  return std::nullopt;
}

void write_checkpoint_manifest(const std::string& dir) {
  std::ostringstream body;
  body << "# SpLPG checkpoint manifest (advisory; the directory scan is ground truth)\n";
  const auto entries = list_checkpoints(dir);
  for (auto it = entries.rbegin(); it != entries.rend(); ++it) {  // oldest first
    body << "epoch=" << it->epoch << " state=" << fs::path(it->state_file).filename().string()
         << " model=" << fs::path(it->model_file).filename().string() << "\n";
  }
  const std::string text = body.str();
  std::ostringstream crc;
  crc << "crc=0x" << std::hex << io::Crc32::of(text.data(), text.size()) << "\n";
  io::write_file_atomic((fs::path(dir) / kManifestFile).string(),
                        [&](std::ostream& out) { out << text << crc.str(); });
}

std::vector<CheckpointEntry> read_checkpoint_manifest(const std::string& dir) {
  std::ifstream in((fs::path(dir) / kManifestFile).string());
  if (!in) return {};
  std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  const auto crc_pos = text.rfind("crc=0x");
  if (crc_pos == std::string::npos) return {};
  const std::string body = text.substr(0, crc_pos);
  std::uint32_t stored = 0;
  try {
    stored = static_cast<std::uint32_t>(
        std::stoul(text.substr(crc_pos + 6), nullptr, 16));
  } catch (const std::exception&) {
    return {};
  }
  if (stored != io::Crc32::of(body.data(), body.size())) return {};
  std::vector<CheckpointEntry> entries;
  std::istringstream lines(body);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    CheckpointEntry entry;
    std::istringstream fields(line);
    std::string token;
    bool have_epoch = false;
    while (fields >> token) {
      const auto eq = token.find('=');
      if (eq == std::string::npos) continue;
      const std::string key = token.substr(0, eq);
      const std::string value = token.substr(eq + 1);
      try {
        if (key == "epoch") {
          entry.epoch = static_cast<std::uint32_t>(std::stoul(value));
          have_epoch = true;
        } else if (key == "state") {
          entry.state_file = (fs::path(dir) / value).string();
        } else if (key == "model") {
          entry.model_file = (fs::path(dir) / value).string();
        }
      } catch (const std::exception&) {
        return {};
      }
    }
    if (have_epoch) entries.push_back(std::move(entry));
  }
  std::sort(entries.begin(), entries.end(),
            [](const CheckpointEntry& a, const CheckpointEntry& b) { return a.epoch > b.epoch; });
  return entries;
}

std::size_t gc_checkpoints(const std::string& dir, std::uint32_t keep_last) {
  std::size_t removed = 0;
  std::error_code ec;
  // Epochs present as either artifact, newest first.
  std::vector<std::uint32_t> epochs;
  std::vector<fs::path> temps;
  for (const auto& item : fs::directory_iterator(dir, ec)) {
    if (!item.is_regular_file()) continue;
    const std::string name = item.path().filename().string();
    if (name.size() > 4 && name.substr(name.size() - 4) == ".tmp") {
      temps.push_back(item.path());
      continue;
    }
    for (const char* prefix : {kStatePrefix, kModelPrefix}) {
      if (const auto epoch = epoch_of(name, prefix); epoch.has_value()) {
        epochs.push_back(*epoch);
        break;
      }
    }
  }
  // Orphaned AtomicFile temporaries are wreckage from an interrupted write;
  // the completed artifact (if any) lives under the final name.
  for (const auto& temp : temps) {
    if (fs::remove(temp, ec)) ++removed;
  }
  if (keep_last == 0) return removed;
  std::sort(epochs.begin(), epochs.end(), std::greater<>());
  epochs.erase(std::unique(epochs.begin(), epochs.end()), epochs.end());
  for (std::size_t i = keep_last; i < epochs.size(); ++i) {
    for (const auto& path : {checkpoint_state_file(dir, epochs[i]),
                             checkpoint_model_file(dir, epochs[i])}) {
      if (fs::remove(path, ec)) ++removed;
    }
  }
  return removed;
}

void write_checkpoint(const std::string& dir, const Module& module, const Optimizer& optimizer,
                      std::uint32_t epoch, std::uint32_t keep_last) {
  fs::create_directories(dir);
  save_parameters_file(checkpoint_model_file(dir, epoch), module);
  save_train_state_file(checkpoint_state_file(dir, epoch), module, optimizer, epoch);
  if (keep_last > 0) (void)gc_checkpoints(dir, keep_last);
  write_checkpoint_manifest(dir);
}

}  // namespace splpg::nn
