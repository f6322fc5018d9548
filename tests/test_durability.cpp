// Durability & crash consistency: CRC-32 checksums, atomic file writes, the
// seeded storage fault injector, checkpoint-directory recovery machinery
// (manifest, keep-last-K GC, corruption-skipping discovery), rejection of v1
// (pre-checksum) files, a corruption-matrix property test over every binary
// format, and the chaos-recovery harness — kill training mid-checkpoint,
// corrupt a random artifact, resume via `resume_from = "auto"`, and require
// the result to be bit-identical to a run that never crashed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/trainer.hpp"
#include "data/dataset.hpp"
#include "data/generators.hpp"
#include "io/atomic_file.hpp"
#include "io/crc32.hpp"
#include "io/edge_list.hpp"
#include "io/error.hpp"
#include "io/feature_file.hpp"
#include "io/storage_fault.hpp"
#include "nn/checkpoint.hpp"
#include "nn/model.hpp"
#include "nn/optimizer.hpp"
#include "sampling/edge_split.hpp"
#include "tensor/matrix.hpp"
#include "tensor/vec.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"

namespace splpg {
namespace {

namespace fs = std::filesystem;
using core::Method;
using core::TrainConfig;
using core::TrainResult;

// ---- shared helpers ----

std::string read_file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(in)) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void write_file_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(static_cast<bool>(out)) << path;
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void flip_bit(const std::string& path, std::size_t byte_offset, unsigned bit) {
  std::string bytes = read_file_bytes(path);
  ASSERT_LT(byte_offset, bytes.size());
  bytes[byte_offset] = static_cast<char>(bytes[byte_offset] ^ (1U << (bit % 8)));
  write_file_bytes(path, bytes);
}

/// EXPECT_THROW + assert the message mentions `fragment` (descriptive errors
/// are part of the durability contract, not just the throw).
template <typename Callable>
void expect_format_error(Callable&& callable, const std::string& fragment) {
  try {
    (void)callable();
    FAIL() << "expected io::FormatError mentioning '" << fragment << "'";
  } catch (const io::FormatError& error) {
    EXPECT_NE(std::string(error.what()).find(fragment), std::string::npos)
        << "message was: " << error.what();
  }
}

io::StorageFault make_fault(io::StorageFaultKind kind, std::string path_contains,
                            std::uint64_t offset = io::StorageFault::kRandomOffset,
                            std::uint32_t skip_matches = 0) {
  io::StorageFault fault;
  fault.kind = kind;
  fault.path_contains = std::move(path_contains);
  fault.offset = offset;
  fault.skip_matches = skip_matches;
  return fault;
}

class DurabilityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("splpg_durability_" + std::string(::testing::UnitTest::GetInstance()
                                                  ->current_test_info()
                                                  ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  fs::path dir_;
};

// ---- CRC-32 ----

TEST(DurabilityCrc32, StandardCheckValue) {
  EXPECT_EQ(io::Crc32::of("123456789", 9), 0xCBF43926U);
  EXPECT_EQ(io::Crc32::of("", 0), 0x00000000U);
}

TEST(DurabilityCrc32, ChunkingIndependent) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  const std::uint32_t whole = io::Crc32::of(data.data(), data.size());
  for (std::size_t cut = 0; cut <= data.size(); cut += 7) {
    io::Crc32 crc;
    crc.update(data.data(), cut);
    crc.update(data.data() + cut, data.size() - cut);
    EXPECT_EQ(crc.value(), whole) << "cut at " << cut;
  }
}

TEST(DurabilityCrc32, DetectsEverySingleBitFlip) {
  std::string data = "durable bytes under test";
  const std::uint32_t clean = io::Crc32::of(data.data(), data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    for (unsigned bit = 0; bit < 8; ++bit) {
      data[i] = static_cast<char>(data[i] ^ (1U << bit));
      EXPECT_NE(io::Crc32::of(data.data(), data.size()), clean)
          << "byte " << i << " bit " << bit;
      data[i] = static_cast<char>(data[i] ^ (1U << bit));
    }
  }
}

// ---- AtomicFile ----

TEST_F(DurabilityTest, AtomicCommitWritesFileAndRemovesTemp) {
  const std::string target = path("out.bin");
  io::write_file_atomic(target, [](std::ostream& out) { out << "hello, disk"; });
  EXPECT_EQ(read_file_bytes(target), "hello, disk");
  EXPECT_FALSE(fs::exists(target + ".tmp"));
}

TEST_F(DurabilityTest, AtomicAbortLeavesNothingBehind) {
  const std::string target = path("never.bin");
  {
    io::AtomicFile file(target);
    file.stream() << "uncommitted";
  }  // destroyed without commit()
  EXPECT_FALSE(fs::exists(target));
  EXPECT_FALSE(fs::exists(target + ".tmp"));
}

TEST_F(DurabilityTest, EnospcFailsWithErrnoAndNeverTouchesFinalName) {
  const std::string target = path("full_disk.bin");
  io::StorageFaultPlan plan;
  plan.faults = {make_fault(io::StorageFaultKind::kEnospc, "full_disk", 3)};
  io::StorageFaultInjector injector(plan, /*seed=*/5);
  const io::StorageFaultScope scope(&injector);
  try {
    io::write_file_atomic(target, [](std::ostream& out) { out << "does not fit"; });
    FAIL() << "expected io::IoError";
  } catch (const io::IoError& error) {
    EXPECT_EQ(error.error_number(), ENOSPC);
    EXPECT_NE(std::string(error.what()).find(target + ".tmp"), std::string::npos)
        << error.what();
  }
  EXPECT_FALSE(fs::exists(target));
  EXPECT_FALSE(fs::exists(target + ".tmp")) << "temp must be cleaned up after ENOSPC";
  EXPECT_EQ(injector.stats().enospc_failures, 1U);
}

TEST_F(DurabilityTest, FailedRenameKeepsPreviousContents) {
  const std::string target = path("renamed.bin");
  io::write_file_atomic(target, [](std::ostream& out) { out << "old contents"; });
  io::StorageFaultPlan plan;
  plan.faults = {make_fault(io::StorageFaultKind::kFailedRename, "renamed")};
  io::StorageFaultInjector injector(plan, /*seed=*/5);
  const io::StorageFaultScope scope(&injector);
  try {
    io::write_file_atomic(target, [](std::ostream& out) { out << "new contents"; });
    FAIL() << "expected io::IoError";
  } catch (const io::IoError& error) {
    EXPECT_NE(error.error_number(), 0);
    EXPECT_NE(std::string(error.what()).find("rename"), std::string::npos) << error.what();
  }
  EXPECT_EQ(read_file_bytes(target), "old contents");
  EXPECT_FALSE(fs::exists(target + ".tmp"));
  EXPECT_EQ(injector.stats().failed_renames, 1U);
}

TEST_F(DurabilityTest, TornWriteLeavesTruncatedTempAndOldFinalContents) {
  const std::string target = path("torn.bin");
  io::write_file_atomic(target, [](std::ostream& out) { out << "previous complete"; });
  io::StorageFaultPlan plan;
  plan.faults = {make_fault(io::StorageFaultKind::kTornWrite, "torn", 5)};
  io::StorageFaultInjector injector(plan, /*seed=*/5);
  const io::StorageFaultScope scope(&injector);
  EXPECT_THROW(io::write_file_atomic(
                   target, [](std::ostream& out) { out << "replacement payload"; }),
               io::SimulatedCrash);
  // The crash-consistency invariant: final name holds the previous COMPLETE
  // contents; the wreckage is a truncated temp (a dead process cleans nothing).
  EXPECT_EQ(read_file_bytes(target), "previous complete");
  ASSERT_TRUE(fs::exists(target + ".tmp"));
  EXPECT_EQ(fs::file_size(target + ".tmp"), 5U);
  EXPECT_EQ(injector.stats().torn_writes, 1U);
}

TEST_F(DurabilityTest, FullyTornWriteNeverLeavesPartialFileUnderFinalName) {
  // Acceptance criterion: kill the commit at EVERY byte offset of the
  // payload; the final name must either not exist (fresh write) or still hold
  // the previous complete contents — never a torn mixture.
  const std::string payload = "crash-consistent checkpoint payload bytes";
  for (std::uint64_t cut = 0; cut <= payload.size(); ++cut) {
    const std::string fresh = path("fresh_" + std::to_string(cut) + ".bin");
    {
      io::StorageFaultPlan plan;
      plan.faults = {make_fault(io::StorageFaultKind::kTornWrite, "fresh_", cut)};
      io::StorageFaultInjector injector(plan, cut);
      const io::StorageFaultScope scope(&injector);
      EXPECT_THROW(io::write_file_atomic(
                       fresh, [&](std::ostream& out) { out << payload; }),
                   io::SimulatedCrash);
    }
    EXPECT_FALSE(fs::exists(fresh)) << "torn at byte " << cut;
    ASSERT_TRUE(fs::exists(fresh + ".tmp")) << "torn at byte " << cut;
    EXPECT_EQ(fs::file_size(fresh + ".tmp"), cut) << "torn at byte " << cut;

    const std::string overwrite = path("overwrite_" + std::to_string(cut) + ".bin");
    io::write_file_atomic(overwrite, [](std::ostream& out) { out << "intact old"; });
    {
      io::StorageFaultPlan plan;
      plan.faults = {make_fault(io::StorageFaultKind::kTornWrite, "overwrite_", cut)};
      io::StorageFaultInjector injector(plan, cut);
      const io::StorageFaultScope scope(&injector);
      EXPECT_THROW(io::write_file_atomic(
                       overwrite, [&](std::ostream& out) { out << payload; }),
                   io::SimulatedCrash);
    }
    EXPECT_EQ(read_file_bytes(overwrite), "intact old") << "torn at byte " << cut;
  }
}

// ---- errno + path in I/O errors ----

TEST_F(DurabilityTest, MissingFilesRaiseIoErrorWithEnoentAndPath) {
  const std::string missing = path("absent.bin");
  const auto expect_enoent = [&](auto&& callable) {
    try {
      (void)callable();
      FAIL() << "expected io::IoError for " << missing;
    } catch (const io::IoError& error) {
      EXPECT_EQ(error.error_number(), ENOENT);
      const std::string what = error.what();
      EXPECT_NE(what.find(missing), std::string::npos) << what;
      EXPECT_NE(what.find(std::strerror(ENOENT)), std::string::npos) << what;
    }
  };
  expect_enoent([&] { return io::read_edge_list_binary_file(missing); });
  expect_enoent([&] { return io::read_features_file(missing, io::FeatureBackend::kBuffered); });
  expect_enoent([&] { return io::read_labels_file(missing); });
  nn::LinkPredictionModel model([] {
    nn::ModelConfig config;
    config.in_dim = 4;
    config.hidden_dim = 6;
    config.num_layers = 2;
    return config;
  }(), 1);
  expect_enoent([&] { nn::load_parameters_file(missing, model); return 0; });
  expect_enoent([&] { return nn::validate_train_state_file(missing); });
}

// ---- corruption-matrix property test ----

nn::ModelConfig tiny_model_config() {
  nn::ModelConfig config;
  config.in_dim = 5;
  config.hidden_dim = 6;
  config.num_layers = 2;
  return config;
}

struct FormatCase {
  std::string name;
  std::size_t header_bytes = 0;           // v2 fixed-header size
  std::function<void(const std::string&)> write;
  std::function<void(const std::string&)> read;  // must fully parse + verify
};

std::vector<FormatCase> format_cases() {
  std::vector<FormatCase> cases;

  cases.push_back(
      {"edge-binary", 32,
       [](const std::string& p) {
         util::Rng rng(7);
         io::write_edge_list_binary_file(p, data::generate_erdos_renyi(40, 90, rng));
       },
       [](const std::string& p) { (void)io::read_edge_list_binary_file(p); }});

  const auto write_features = [](const std::string& p) {
    std::vector<float> data(12 * 5);
    for (std::size_t i = 0; i < data.size(); ++i) data[i] = 0.25F * static_cast<float>(i);
    io::write_features_file(p, graph::FeatureStore(12, 5, std::move(data)));
  };
  cases.push_back({"features-buffered", 32, write_features, [](const std::string& p) {
                     (void)io::read_features_file(p, io::FeatureBackend::kBuffered);
                   }});
  cases.push_back({"features-mmap", 32, write_features, [](const std::string& p) {
                     (void)io::read_features_file(p, io::FeatureBackend::kMmap);
                   }});

  cases.push_back({"labels", 24,
                   [](const std::string& p) {
                     std::vector<std::uint32_t> labels(17);
                     for (std::size_t i = 0; i < labels.size(); ++i) {
                       labels[i] = static_cast<std::uint32_t>(i * 3);
                     }
                     io::write_labels_file(p, labels);
                   },
                   [](const std::string& p) { (void)io::read_labels_file(p); }});

  cases.push_back({"parameters", 28,
                   [](const std::string& p) {
                     nn::LinkPredictionModel model(tiny_model_config(), 1);
                     nn::save_parameters_file(p, model);
                   },
                   [](const std::string& p) {
                     nn::LinkPredictionModel destination(tiny_model_config(), 2);
                     nn::load_parameters_file(p, destination);
                   }});

  const auto write_state = [](const std::string& p) {
    nn::LinkPredictionModel model(tiny_model_config(), 1);
    nn::Adam adam(model);
    nn::save_train_state_file(p, model, adam, 7);
  };
  cases.push_back({"train-state-load", 16, write_state, [](const std::string& p) {
                     nn::LinkPredictionModel destination(tiny_model_config(), 2);
                     nn::Adam adam(destination);
                     ASSERT_EQ(nn::load_train_state_file(p, destination, adam), 7U);
                   }});
  cases.push_back({"train-state-validate", 16, write_state, [](const std::string& p) {
                     ASSERT_EQ(nn::validate_train_state_file(p), 7U);
                   }});

  return cases;
}

TEST_F(DurabilityTest, CorruptionMatrixEveryBitFlipIsDetected) {
  // Property: in a v2 (checksummed) file, EVERY single-bit flip — magic,
  // header field, stored checksum, or payload — must surface as a FormatError
  // naming the defect, never a silent wrong parse, assert, or SIGBUS.
  for (const auto& format : format_cases()) {
    const std::string file = path(format.name + ".bin");
    format.write(file);
    format.read(file);  // sanity: the clean file parses
    const std::string clean = read_file_bytes(file);
    ASSERT_GT(clean.size(), format.header_bytes) << format.name;

    // Exhaustive over the magic + version words, seeded-random over the rest.
    std::vector<std::pair<std::size_t, unsigned>> flips;
    for (std::size_t byte = 0; byte < 8; ++byte) {
      for (unsigned bit = 0; bit < 8; ++bit) flips.emplace_back(byte, bit);
    }
    util::Rng rng = util::Rng(0xD00DULL).split(format.name);
    for (int draw = 0; draw < 24; ++draw) {
      flips.emplace_back(static_cast<std::size_t>(rng.uniform_u64(clean.size())),
                         static_cast<unsigned>(rng.uniform_u64(8)));
    }
    for (const auto& [byte, bit] : flips) {
      flip_bit(file, byte, bit);
      EXPECT_THROW(format.read(file), io::FormatError)
          << format.name << ": flip at byte " << byte << " bit " << bit
          << " was not detected";
      write_file_bytes(file, clean);
    }
  }
}

TEST_F(DurabilityTest, CorruptionMatrixPayloadFlipReportsChecksumMismatch) {
  // A payload flip must be reported as a checksum mismatch, not as whatever
  // bogus shape/id error the corrupted bytes happen to decode to — readers
  // verify BEFORE interpreting.
  for (const auto& format : format_cases()) {
    if (format.name == "train-state-load" || format.name == "train-state-validate") {
      continue;  // payload offsets land in embedded section headers; covered below
    }
    const std::string file = path(format.name + ".bin");
    format.write(file);
    const std::string clean = read_file_bytes(file);
    flip_bit(file, format.header_bytes + 1, 3);
    expect_format_error([&] { format.read(file); return 0; }, "checksum mismatch");
    write_file_bytes(file, clean);
  }
  // Train state: flip deep inside the parameter floats (past both embedded
  // headers) — still a checksum mismatch, by section.
  const std::string state = path("state_payload.bin");
  nn::LinkPredictionModel model(tiny_model_config(), 1);
  nn::Adam adam(model);
  nn::save_train_state_file(state, model, adam, 7);
  flip_bit(state, read_file_bytes(state).size() / 2, 5);
  expect_format_error([&] { return nn::validate_train_state_file(state); },
                      "checksum mismatch");
}

TEST_F(DurabilityTest, CorruptionMatrixTruncationIsDetectedAtEveryCut) {
  for (const auto& format : format_cases()) {
    const std::string file = path(format.name + ".bin");
    format.write(file);
    const std::string clean = read_file_bytes(file);
    std::vector<std::size_t> cuts = {0, 1, 3, format.header_bytes - 1, format.header_bytes,
                                     clean.size() - 1};
    util::Rng rng = util::Rng(0x7A7AULL).split(format.name);
    for (int draw = 0; draw < 6; ++draw) {
      cuts.push_back(static_cast<std::size_t>(rng.uniform_u64(clean.size())));
    }
    for (const std::size_t cut : cuts) {
      write_file_bytes(file, clean.substr(0, cut));
      // Every cut, even one straight through a length field, is a
      // FormatError: the section codec reads every field itself.
      EXPECT_THROW(format.read(file), io::FormatError)
          << format.name << ": truncation at byte " << cut << " was not detected";
    }
    write_file_bytes(file, clean);
    format.read(file);  // still intact after restore
  }
}

TEST_F(DurabilityTest, CorruptionMatrixTrailingGarbageIsRejectedWithOffset) {
  for (const auto& format : format_cases()) {
    const std::string file = path(format.name + ".bin");
    format.write(file);
    const std::string clean = read_file_bytes(file);
    write_file_bytes(file, clean + "X");
    expect_format_error([&] { format.read(file); return 0; }, "trailing garbage");
    // The offending offset (== the clean size) is named in the message.
    if (format.name != "train-state-load" && format.name != "train-state-validate" &&
        format.name != "parameters") {
      expect_format_error([&] { format.read(file); return 0; },
                          std::to_string(clean.size()));
    }
  }
}

// ---- forged sizes ----

constexpr std::uint64_t kForgedSize = std::uint64_t{1} << 40;

template <typename T>
void poke(std::string& bytes, std::size_t offset, T value) {
  ASSERT_LE(offset + sizeof(T), bytes.size());
  std::memcpy(bytes.data() + offset, &value, sizeof(T));
}

/// Recomputes the header CRC a v2 section stores at `crc_at` over its bytes
/// from `start`, so that a forged header still checks out.
void reseal_header(std::string& bytes, std::size_t start, std::size_t crc_at) {
  poke<std::uint32_t>(bytes, crc_at, io::Crc32::of(bytes.data() + start, crc_at - start));
}

/// Forges a size or count field of a clean `format_cases()` file to point far
/// past its end, keeping the header CRC valid. Returns the declared size the
/// error must name.
std::string forge_size(const std::string& format, std::string& bytes) {
  if (format == "edge-binary") {  // SPGE: num_edges @16, header CRC @28
    poke(bytes, 16, kForgedSize);
    reseal_header(bytes, 0, 28);
    return std::to_string(kForgedSize);
  }
  if (format.starts_with("features")) {  // SPFT: nodes @8, dim @12, bytes @16, CRC @28
    const std::uint64_t payload_bytes = std::uint64_t{1} << 32;
    poke<std::uint32_t>(bytes, 8, 1U << 20);
    poke<std::uint32_t>(bytes, 12, 1U << 10);
    poke(bytes, 16, payload_bytes);
    reseal_header(bytes, 0, 28);
    return std::to_string(payload_bytes);
  }
  if (format == "labels") {  // SPLB: count @8, header CRC @20
    poke(bytes, 8, kForgedSize);
    reseal_header(bytes, 0, 20);
    return std::to_string(kForgedSize);
  }
  if (format == "parameters") {  // SPM2: payload bytes @12, header CRC @24
    poke(bytes, 12, kForgedSize);
    reseal_header(bytes, 0, 24);
    return std::to_string(kForgedSize);
  }
  // Train state: a 16-byte SPCK header, the SPM2 section (28-byte header
  // declaring its payload bytes @12), then SPO2: payload bytes @20, CRC @32.
  std::uint64_t parameter_bytes = 0;
  std::memcpy(&parameter_bytes, bytes.data() + 16 + 12, sizeof(parameter_bytes));
  const std::size_t optimizer = 16 + 28 + parameter_bytes;
  poke(bytes, optimizer + 20, kForgedSize);
  reseal_header(bytes, optimizer, optimizer + 32);
  return std::to_string(kForgedSize);
}

TEST_F(DurabilityTest, CorruptionMatrixForgedSizeIsFormatErrorNamingIt) {
  // A size or count field that points far past the end of the file, under a
  // header CRC that still checks out, must fail as a FormatError naming the
  // declared size — checked against the bytes left before anything is
  // allocated, never std::bad_alloc.
  for (const auto& format : format_cases()) {
    const std::string file = path(format.name + ".bin");
    format.write(file);
    std::string bytes = read_file_bytes(file);
    const std::string declared = forge_size(format.name, bytes);
    write_file_bytes(file, bytes);
    expect_format_error([&] { format.read(file); return 0; }, declared);
  }

  // The parameter section inside a train state (SPM2 payload bytes @16+12).
  const std::string state = path("forged_state.bin");
  nn::LinkPredictionModel model(tiny_model_config(), 1);
  nn::Adam adam(model);
  nn::save_train_state_file(state, model, adam, 7);
  std::string bytes = read_file_bytes(state);
  poke(bytes, 16 + 12, kForgedSize);
  reseal_header(bytes, 16, 16 + 24);
  write_file_bytes(state, bytes);
  const std::string declared = std::to_string(kForgedSize);
  expect_format_error([&] { return nn::validate_train_state_file(state); }, declared);
  expect_format_error([&] { return nn::load_train_state_file(state, model, adam); }, declared);

  // SPFT: nodes x dim x 4 wraps to 0 bytes, which an empty payload would
  // match under valid CRCs.
  const std::string features = path("forged_features.bin");
  {
    std::ofstream out(features, std::ios::binary);
    std::ostringstream header;
    util::write_pod<std::uint32_t>(header, 0x53504654);  // "SPFT"
    util::write_pod<std::uint32_t>(header, 2);           // version
    util::write_pod<std::uint32_t>(header, 1U << 31);    // nodes
    util::write_pod<std::uint32_t>(header, 1U << 31);    // dim
    util::write_pod<std::uint64_t>(header, 0);           // payload bytes
    util::write_pod<std::uint32_t>(header, io::Crc32::of("", 0));
    const std::string head = header.str();
    out << head;
    util::write_pod<std::uint32_t>(out, io::Crc32::of(head.data(), head.size()));
  }
  for (const auto backend : {io::FeatureBackend::kBuffered, io::FeatureBackend::kMmap}) {
    expect_format_error([&] { return io::read_features_file(features, backend); },
                        "2147483648x2147483648 features");
  }
}

TEST_F(DurabilityTest, MmapTruncationIsFormatErrorBeforeTheViewExists) {
  // Satellite: the mmap path must reject a too-short file BEFORE constructing
  // the zero-copy view — reading through a short mapping would SIGBUS.
  std::vector<float> data(64 * 8);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<float>(i);
  const std::string file = path("features.bin");
  io::write_features_file(file, graph::FeatureStore(64, 8, std::move(data)));
  const auto full_size = fs::file_size(file);
  for (const std::uintmax_t size : {full_size - 1, full_size / 2, std::uintmax_t{33}}) {
    fs::resize_file(file, size);
    expect_format_error(
        [&] { return io::read_features_file(file, io::FeatureBackend::kMmap); },
        "truncated");
  }
}

// ---- v1 (pre-checksum) files are rejected ----
//
// Every reader accepts only the checksummed layouts, so a v1 file fails with
// a FormatError naming its version (or, for the SPLM/SPOS sections, which
// have no version field, its magic) instead of loading unverified bytes.

/// A shape-prefixed matrix as the v1 sections stored it inline.
void write_v1_matrix(std::ostream& out, const tensor::Matrix& matrix) {
  util::write_pod<std::uint64_t>(out, matrix.rows());
  util::write_pod<std::uint64_t>(out, matrix.cols());
  const auto data = matrix.data();
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size() * sizeof(float)));
}

/// "SPLM" parameter section: magic, parameter count, matrices.
void write_v1_parameters(std::ostream& out, const nn::Module& module) {
  util::write_pod<std::uint32_t>(out, 0x53504C4D);  // "SPLM"
  util::write_pod<std::uint64_t>(out, module.parameters().size());
  for (const auto& p : module.parameters()) write_v1_matrix(out, p.value());
}

/// "SPOS" Adam section with zero moments: magic, step, count, (m, v) pairs.
void write_v1_optimizer(std::ostream& out, const nn::Module& module) {
  util::write_pod<std::uint32_t>(out, 0x53504F53);  // "SPOS"
  util::write_pod<std::uint64_t>(out, 0);           // step
  util::write_pod<std::uint64_t>(out, module.parameters().size());
  for (const auto& p : module.parameters()) {
    const tensor::Matrix zero(p.value().rows(), p.value().cols());
    write_v1_matrix(out, zero);  // m
    write_v1_matrix(out, zero);  // v
  }
}

/// A pre-checksum SPCK: v1 header, SPLM parameters, SPOS optimizer state —
/// the byte layout shipped before v2.
void write_v1_train_state(const std::string& path, const nn::Module& module,
                          std::uint32_t epoch) {
  std::ofstream out(path, std::ios::binary);
  util::write_pod<std::uint32_t>(out, 0x5350434B);  // "SPCK"
  util::write_pod<std::uint32_t>(out, 1);           // version 1
  util::write_pod<std::uint32_t>(out, epoch);
  write_v1_parameters(out, module);
  write_v1_optimizer(out, module);
}

constexpr const char* kV1Rejected = "unsupported version 1 (expected 2)";

TEST_F(DurabilityTest, V1EdgeFileIsRejectedNamingTheVersion) {
  const std::string file = path("v1.spge");
  {
    std::ofstream out(file, std::ios::binary);
    util::write_pod<std::uint32_t>(out, 0x53504745);  // "SPGE"
    util::write_pod<std::uint32_t>(out, 1);           // version 1: no checksums
    util::write_pod<std::uint32_t>(out, 0);           // flags: unweighted
    util::write_pod<std::uint32_t>(out, 4);           // nodes
    util::write_pod<std::uint64_t>(out, 3);           // edges
    for (const auto& [u, v] : {std::pair{0U, 1U}, {1U, 2U}, {2U, 3U}}) {
      util::write_pod<std::uint32_t>(out, u);
      util::write_pod<std::uint32_t>(out, v);
    }
  }
  expect_format_error([&] { return io::read_edge_list_binary_file(file); }, kV1Rejected);
}

TEST_F(DurabilityTest, V1FeatureFileIsRejectedNamingTheVersion) {
  const std::string features = path("v1.spft");
  {
    std::ofstream out(features, std::ios::binary);
    util::write_pod<std::uint32_t>(out, 0x53504654);  // "SPFT"
    util::write_pod<std::uint32_t>(out, 1);
    util::write_pod<std::uint32_t>(out, 3);  // nodes
    util::write_pod<std::uint32_t>(out, 2);  // dim
    for (int i = 0; i < 6; ++i) util::write_pod<float>(out, 0.5F * static_cast<float>(i));
  }
  for (const auto backend : {io::FeatureBackend::kBuffered, io::FeatureBackend::kMmap}) {
    expect_format_error([&] { return io::read_features_file(features, backend); },
                        kV1Rejected);
  }
}

TEST_F(DurabilityTest, V1LabelFileIsRejectedNamingTheVersion) {
  const std::string labels = path("v1.splb");
  {
    std::ofstream out(labels, std::ios::binary);
    util::write_pod<std::uint32_t>(out, 0x53504C42);  // "SPLB"
    util::write_pod<std::uint32_t>(out, 1);
    util::write_pod<std::uint64_t>(out, 3);  // count
    for (const std::uint32_t label : {9U, 8U, 7U}) util::write_pod(out, label);
  }
  expect_format_error([&] { return io::read_labels_file(labels); }, kV1Rejected);
}

TEST_F(DurabilityTest, V1TrainStateIsRejectedNamingTheVersion) {
  const nn::LinkPredictionModel source(tiny_model_config(), 1);
  const std::string file = path("v1.spck");
  write_v1_train_state(file, source, 4);
  expect_format_error([&] { return nn::validate_train_state_file(file); }, kV1Rejected);
  nn::LinkPredictionModel destination(tiny_model_config(), 2);
  nn::Adam adam(destination);
  expect_format_error([&] { return nn::load_train_state_file(file, destination, adam); },
                      kV1Rejected);
}

TEST_F(DurabilityTest, LegacyParameterSectionIsRejectedNamingTheMagic) {
  const nn::LinkPredictionModel source(tiny_model_config(), 1);
  const std::string file = path("v1.splm");
  {
    std::ofstream out(file, std::ios::binary);
    write_v1_parameters(out, source);
  }
  nn::LinkPredictionModel destination(tiny_model_config(), 2);
  expect_format_error([&] { nn::load_parameters_file(file, destination); return 0; },
                      "bad magic 0x53504c4d");
}

TEST_F(DurabilityTest, LegacyOptimizerSectionIsRejectedNamingTheMagic) {
  const nn::LinkPredictionModel source(tiny_model_config(), 1);
  std::stringstream bytes;
  write_v1_optimizer(bytes, source);
  nn::LinkPredictionModel destination(tiny_model_config(), 2);
  nn::Adam adam(destination);
  expect_format_error([&] { adam.load_state(bytes); return 0; }, "bad magic 0x53504f53");
}

// ---- v2 layout fixtures ----
//
// Hand-rolled v2 bytes per format, compared with each writer's output byte
// for byte. The round-trip and corruption tests would pass a layout change
// made to a reader and its writer together; these would not.

std::uint32_t crc_of(const std::string& bytes) {
  return io::Crc32::of(bytes.data(), bytes.size());
}

/// A v2 section as laid out on disk: header fields, their CRC-32, payload.
std::string v2_section(const std::string& header, const std::string& payload = "") {
  std::ostringstream out;
  out << header;
  util::write_pod<std::uint32_t>(out, crc_of(header));
  out << payload;
  return out.str();
}

TEST_F(DurabilityTest, LayoutFixtureEdgeFileV2IsWrittenByteForByte) {
  graph::GraphBuilder builder(5, /*weighted=*/true);
  builder.add_edge(1, 2, 1.25F);
  builder.add_edge(4, 3, 2.0F);
  builder.add_edge(0, 1, 0.5F);
  std::ostringstream payload;  // canonical (u < v, sorted) pairs, then weights
  for (const std::uint32_t id : {0U, 1U, 1U, 2U, 3U, 4U}) util::write_pod(payload, id);
  for (const float weight : {0.5F, 1.25F, 2.0F}) util::write_pod(payload, weight);
  std::ostringstream header;
  util::write_pod<std::uint32_t>(header, 0x53504745);  // "SPGE"
  util::write_pod<std::uint32_t>(header, 2);           // version
  util::write_pod<std::uint32_t>(header, 1);           // flags: weighted
  util::write_pod<std::uint32_t>(header, 5);           // nodes
  util::write_pod<std::uint64_t>(header, 3);           // edges
  util::write_pod<std::uint32_t>(header, crc_of(payload.str()));

  io::write_edge_list_binary_file(path("edges.bin"), builder.build());
  EXPECT_EQ(read_file_bytes(path("edges.bin")), v2_section(header.str(), payload.str()));
}

TEST_F(DurabilityTest, LayoutFixtureFeatureFileV2IsWrittenByteForByte) {
  const std::vector<float> values = {0.5F, -1.0F, 2.25F, 0.0F, 3.5F, -0.125F};
  std::ostringstream payload;
  for (const float x : values) util::write_pod(payload, x);
  std::ostringstream header;
  util::write_pod<std::uint32_t>(header, 0x53504654);  // "SPFT"
  util::write_pod<std::uint32_t>(header, 2);           // version
  util::write_pod<std::uint32_t>(header, 2);           // nodes
  util::write_pod<std::uint32_t>(header, 3);           // dim
  util::write_pod<std::uint64_t>(header, 24);          // payload bytes
  util::write_pod<std::uint32_t>(header, crc_of(payload.str()));

  io::write_features_file(path("features.bin"), graph::FeatureStore(2, 3, values));
  EXPECT_EQ(read_file_bytes(path("features.bin")), v2_section(header.str(), payload.str()));
}

TEST_F(DurabilityTest, LayoutFixtureLabelFileV2IsWrittenByteForByte) {
  const std::vector<std::uint32_t> labels = {4, 1, 2};
  std::ostringstream payload;
  for (const std::uint32_t label : labels) util::write_pod(payload, label);
  std::ostringstream header;
  util::write_pod<std::uint32_t>(header, 0x53504C42);  // "SPLB"
  util::write_pod<std::uint32_t>(header, 2);           // version
  util::write_pod<std::uint64_t>(header, 3);           // count
  util::write_pod<std::uint32_t>(header, crc_of(payload.str()));

  io::write_labels_file(path("labels.bin"), labels);
  EXPECT_EQ(read_file_bytes(path("labels.bin")), v2_section(header.str(), payload.str()));
}

TEST_F(DurabilityTest, LayoutFixtureTrainStateV2IsWrittenByteForByte) {
  // One Adam step from known gradients. Replaying it through the same
  // kernel gives the expected moments; m and v differ, so their order is
  // pinned too.
  nn::LinkPredictionModel model(tiny_model_config(), 1);
  nn::Adam adam(model);
  std::vector<tensor::Matrix> m;
  std::vector<tensor::Matrix> v;
  const float bias1 = 1.0F - std::pow(0.9F, 1.0F);
  const float bias2 = 1.0F - std::pow(0.999F, 1.0F);
  for (auto& p : model.parameters()) {
    auto& grad = p.mutable_grad();
    grad.resize(p.value().rows(), p.value().cols());
    for (std::size_t j = 0; j < grad.size(); ++j) {
      grad.data()[j] = 0.01F * static_cast<float>(j % 5 + 1);
    }
    tensor::Matrix value = p.value();
    m.emplace_back(value.rows(), value.cols());
    v.emplace_back(value.rows(), value.cols());
    tensor::vec_kernels().adam_step_f32(value.data().data(), m.back().data().data(),
                                        v.back().data().data(), grad.data().data(),
                                        grad.size(), 0.9F, 0.999F, 1e-3F, bias1, bias2, 1e-8F);
  }
  adam.step();
  ASSERT_GT(tensor::max_abs_diff(m[0], v[0]), 0.0F);

  const auto write_matrix = [](std::ostream& out, const tensor::Matrix& matrix) {
    util::write_pod<std::uint64_t>(out, matrix.rows());
    util::write_pod<std::uint64_t>(out, matrix.cols());
    for (const float x : matrix.data()) util::write_pod(out, x);
  };
  std::ostringstream state_header;
  util::write_pod<std::uint32_t>(state_header, 0x5350434B);  // "SPCK"
  util::write_pod<std::uint32_t>(state_header, 2);           // version
  util::write_pod<std::uint32_t>(state_header, 3);           // epoch

  std::ostringstream parameters;
  for (const auto& p : model.parameters()) write_matrix(parameters, p.value());
  std::ostringstream parameters_header;
  util::write_pod<std::uint32_t>(parameters_header, 0x53504D32);  // "SPM2"
  util::write_pod<std::uint64_t>(parameters_header, model.parameters().size());
  util::write_pod<std::uint64_t>(parameters_header, parameters.str().size());
  util::write_pod<std::uint32_t>(parameters_header, crc_of(parameters.str()));

  std::ostringstream moments;
  for (std::size_t i = 0; i < m.size(); ++i) {
    write_matrix(moments, m[i]);
    write_matrix(moments, v[i]);
  }
  std::ostringstream moments_header;
  util::write_pod<std::uint32_t>(moments_header, 0x53504F32);  // "SPO2"
  util::write_pod<std::uint64_t>(moments_header, 1);           // step
  util::write_pod<std::uint64_t>(moments_header, m.size());
  util::write_pod<std::uint64_t>(moments_header, moments.str().size());
  util::write_pod<std::uint32_t>(moments_header, crc_of(moments.str()));

  nn::save_train_state_file(path("state.bin"), model, adam, 3);
  EXPECT_EQ(read_file_bytes(path("state.bin")),
            v2_section(state_header.str()) +
                v2_section(parameters_header.str(), parameters.str()) +
                v2_section(moments_header.str(), moments.str()));
}

// ---- checkpoint directory machinery ----

class CheckpointDirTest : public DurabilityTest {
 protected:
  CheckpointDirTest() : model_(tiny_model_config(), 1), adam_(model_) {}

  void write_epoch(std::uint32_t epoch) {
    nn::save_parameters_file(nn::checkpoint_model_file(dir_.string(), epoch), model_);
    nn::save_train_state_file(nn::checkpoint_state_file(dir_.string(), epoch), model_, adam_,
                              epoch);
  }

  nn::LinkPredictionModel model_;
  nn::Adam adam_;
};

TEST_F(CheckpointDirTest, ListCheckpointsIsNewestFirst) {
  for (const std::uint32_t epoch : {2U, 9U, 5U}) write_epoch(epoch);
  const auto entries = nn::list_checkpoints(dir_.string());
  ASSERT_EQ(entries.size(), 3U);
  EXPECT_EQ(entries[0].epoch, 9U);
  EXPECT_EQ(entries[1].epoch, 5U);
  EXPECT_EQ(entries[2].epoch, 2U);
  EXPECT_TRUE(fs::exists(entries[0].state_file));
  EXPECT_TRUE(nn::list_checkpoints(path("missing_subdir")).empty());
}

TEST_F(CheckpointDirTest, FindLatestValidSkipsCorruptAndTruncatedCheckpoints) {
  for (const std::uint32_t epoch : {1U, 2U, 3U}) write_epoch(epoch);
  flip_bit(nn::checkpoint_state_file(dir_.string(), 3), 40, 2);
  fs::resize_file(nn::checkpoint_state_file(dir_.string(), 2),
                  fs::file_size(nn::checkpoint_state_file(dir_.string(), 2)) / 2);
  std::uint32_t skipped = 0;
  const auto latest = nn::find_latest_valid_checkpoint(dir_.string(), &skipped);
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->epoch, 1U);
  EXPECT_EQ(skipped, 2U);
  // Nothing valid at all -> nullopt, every candidate counted.
  flip_bit(nn::checkpoint_state_file(dir_.string(), 1), 40, 2);
  skipped = 0;
  EXPECT_FALSE(nn::find_latest_valid_checkpoint(dir_.string(), &skipped).has_value());
  EXPECT_EQ(skipped, 3U);
}

TEST_F(CheckpointDirTest, ManifestRoundTripsAndCorruptManifestNeverBlocksRecovery) {
  for (const std::uint32_t epoch : {1U, 3U, 5U}) write_epoch(epoch);
  nn::write_checkpoint_manifest(dir_.string());
  ASSERT_TRUE(fs::exists(dir_ / "MANIFEST"));
  auto entries = nn::read_checkpoint_manifest(dir_.string());
  ASSERT_EQ(entries.size(), 3U);
  std::vector<std::uint32_t> epochs;
  for (const auto& entry : entries) epochs.push_back(entry.epoch);
  std::sort(epochs.begin(), epochs.end());
  EXPECT_EQ(epochs, (std::vector<std::uint32_t>{1, 3, 5}));

  // A corrupt manifest parses as empty — and recovery, which only trusts the
  // directory scan, still finds the newest valid checkpoint.
  flip_bit((dir_ / "MANIFEST").string(), 12, 1);
  EXPECT_TRUE(nn::read_checkpoint_manifest(dir_.string()).empty());
  const auto latest = nn::find_latest_valid_checkpoint(dir_.string());
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->epoch, 5U);
  // Missing manifest: also empty, no throw.
  fs::remove(dir_ / "MANIFEST");
  EXPECT_TRUE(nn::read_checkpoint_manifest(dir_.string()).empty());
}

TEST_F(CheckpointDirTest, GcKeepsNewestKAndSweepsAtomicFileTemps) {
  for (const std::uint32_t epoch : {1U, 2U, 3U, 4U, 5U}) write_epoch(epoch);
  write_file_bytes(path("state_epoch_9.bin.tmp"), "torn wreckage");
  write_file_bytes(path("model_epoch_2.bin.tmp"), "torn wreckage");
  // keep_last == 0: every epoch survives, temps are swept anyway.
  EXPECT_EQ(nn::gc_checkpoints(dir_.string(), 0), 2U);
  EXPECT_EQ(nn::list_checkpoints(dir_.string()).size(), 5U);
  // keep the newest 2: epochs 1-3 go (state + model each).
  EXPECT_EQ(nn::gc_checkpoints(dir_.string(), 2), 6U);
  const auto entries = nn::list_checkpoints(dir_.string());
  ASSERT_EQ(entries.size(), 2U);
  EXPECT_EQ(entries[0].epoch, 5U);
  EXPECT_EQ(entries[1].epoch, 4U);
  EXPECT_TRUE(fs::exists(nn::checkpoint_model_file(dir_.string(), 4)));
  EXPECT_FALSE(fs::exists(nn::checkpoint_model_file(dir_.string(), 3)));
}

TEST_F(CheckpointDirTest, ValidateTrainStateFileReturnsEpochAndRejectsDefects) {
  write_epoch(6);
  const std::string state = nn::checkpoint_state_file(dir_.string(), 6);
  EXPECT_EQ(nn::validate_train_state_file(state), 6U);
  const std::string clean = read_file_bytes(state);
  write_file_bytes(state, clean + "zz");
  expect_format_error([&] { return nn::validate_train_state_file(state); },
                      "trailing garbage");
  write_file_bytes(state, clean.substr(0, clean.size() / 3));
  EXPECT_THROW((void)nn::validate_train_state_file(state), io::FormatError);
}

// ---- storage fault injector determinism ----

TEST_F(DurabilityTest, InjectorIsDeterministicInItsSeed) {
  const auto run_once = [&](const std::string& tag, std::uint64_t seed) {
    const std::string file = path(tag + ".bin");
    std::vector<float> data(24 * 4);
    for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<float>(i);
    io::write_features_file(file, graph::FeatureStore(24, 4, std::move(data)));
    io::StorageFaultPlan plan;
    plan.faults = {make_fault(io::StorageFaultKind::kBitFlip, ".bin")};
    io::StorageFaultInjector injector(plan, seed);
    const io::StorageFaultScope scope(&injector);
    EXPECT_THROW((void)io::read_features_file(file, io::FeatureBackend::kBuffered),
                 io::FormatError);
    EXPECT_EQ(injector.stats().bit_flips, 1U);
    return read_file_bytes(file);  // the physically corrupted bytes
  };
  const std::string first = run_once("a", 42);
  const std::string second = run_once("b", 42);
  const std::string other_seed = run_once("c", 43);
  EXPECT_EQ(first, second) << "same seed must corrupt the same (byte, bit)";
  EXPECT_NE(first, other_seed) << "different seed should pick a different site";
}

TEST_F(DurabilityTest, ShortReadFaultTruncatesOnDiskDeterministically) {
  const std::string file = path("short.bin");
  io::write_labels_file(file, std::vector<std::uint32_t>(50, 7));
  io::StorageFaultPlan plan;
  plan.faults = {make_fault(io::StorageFaultKind::kShortRead, "short", 10)};
  io::StorageFaultInjector injector(plan, 1);
  const io::StorageFaultScope scope(&injector);
  EXPECT_THROW((void)io::read_labels_file(file), io::FormatError);
  EXPECT_EQ(fs::file_size(file), 10U);
  EXPECT_EQ(injector.stats().short_reads, 1U);
  // One-shot: the fault does not re-fire; the (now truncated) file still
  // fails its parse but the size is untouched.
  EXPECT_THROW((void)io::read_labels_file(file), io::FormatError);
  EXPECT_EQ(fs::file_size(file), 10U);
}

// ---- trainer integration: crash, self-heal, resume ----

struct TrainerProblem {
  data::Dataset dataset;
  sampling::LinkSplit split;
};

const TrainerProblem& trainer_problem() {
  static const TrainerProblem instance = [] {
    TrainerProblem p;
    p.dataset = data::make_dataset("cora", 0.12, 3);
    util::Rng rng = util::Rng(3).split("split");
    p.split = sampling::split_edges(p.dataset.graph, sampling::SplitOptions{}, rng);
    return p;
  }();
  return instance;
}

TrainConfig trainer_config(std::uint32_t epochs) {
  TrainConfig config;
  config.method = Method::kSplpg;
  config.model.hidden_dim = 32;
  config.model.num_layers = 2;
  config.epochs = epochs;
  config.batch_size = 128;
  config.num_partitions = 4;
  config.max_batches_per_epoch = 4;
  config.seed = 11;
  // Replica-identical optimizer state — the configuration under which resume
  // guarantees bit-identity (see TrainConfig::resume_from).
  config.sync = dist::SyncMode::kGradientAveraging;
  return config;
}

TrainResult run_trainer(const TrainConfig& config) {
  return core::train_link_prediction(trainer_problem().split, trainer_problem().dataset.features,
                                     config);
}

void expect_models_bit_identical(const TrainResult& a, const TrainResult& b) {
  ASSERT_NE(a.model, nullptr);
  ASSERT_NE(b.model, nullptr);
  const auto& want = a.model->parameters();
  const auto& got = b.model->parameters();
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(tensor::max_abs_diff(want[i].value(), got[i].value()), 0.0F)
        << "parameter " << i;
  }
}

class TrainerDurabilityTest : public DurabilityTest {
 protected:
  [[nodiscard]] std::string state_path(std::uint32_t epoch) const {
    return nn::checkpoint_state_file(dir_.string(), epoch);
  }
};

TEST_F(TrainerDurabilityTest, AutoResumeWithoutCheckpointDirThrows) {
  auto config = trainer_config(2);
  config.resume_from = "auto";
  EXPECT_THROW((void)run_trainer(config), std::invalid_argument);
}

TEST_F(TrainerDurabilityTest, AutoResumeOnEmptyDirStartsFreshAndMatchesPlainRun) {
  const TrainResult reference = run_trainer(trainer_config(2));
  auto config = trainer_config(2);
  config.checkpoint_every = 1;
  config.checkpoint_dir = dir_.string();
  config.resume_from = "auto";
  const TrainResult fresh = run_trainer(config);
  EXPECT_EQ(fresh.resumed_from_epoch, 0U);
  expect_models_bit_identical(reference, fresh);
  EXPECT_DOUBLE_EQ(reference.test_hits, fresh.test_hits);
}

TEST_F(TrainerDurabilityTest, TornCheckpointWriteCrashesThenAutoResumeIsBitIdentical) {
  const TrainResult reference = run_trainer(trainer_config(4));

  // Kill the run mid-checkpoint: the machine "dies" while state_epoch_2.bin
  // is being committed. The crash must propagate (never be self-healed).
  auto killed = trainer_config(4);
  killed.checkpoint_every = 1;
  killed.checkpoint_dir = dir_.string();
  killed.storage_faults.faults = {make_fault(io::StorageFaultKind::kTornWrite, "state_epoch_2")};
  EXPECT_THROW((void)run_trainer(killed), io::SimulatedCrash);

  // Post-crash disk: epochs 0..1 complete; epoch 2's model was committed but
  // its state write died — truncated temp only, NOTHING partial under the
  // final name.
  EXPECT_TRUE(fs::exists(state_path(0)));
  EXPECT_TRUE(fs::exists(state_path(1)));
  EXPECT_FALSE(fs::exists(state_path(2)));
  EXPECT_TRUE(fs::exists(state_path(2) + ".tmp"));
  EXPECT_TRUE(fs::exists(nn::checkpoint_model_file(dir_.string(), 2)));
  EXPECT_FALSE(fs::exists(state_path(3)))
      << "no worker may keep checkpointing after the simulated machine death";

  // Recover: auto-resume finds epoch 1 and the rerun of epochs 2..4 is
  // bit-identical to never having crashed.
  auto resumed_config = trainer_config(4);
  resumed_config.checkpoint_every = 1;
  resumed_config.checkpoint_dir = dir_.string();
  resumed_config.resume_from = "auto";
  const TrainResult resumed = run_trainer(resumed_config);
  EXPECT_EQ(resumed.resumed_from_epoch, 1U);
  ASSERT_EQ(resumed.history.size(), 3U);
  for (const auto& record : resumed.history) {
    const auto& ref = reference.history.at(record.epoch - 1);
    EXPECT_DOUBLE_EQ(ref.mean_loss, record.mean_loss) << "epoch " << record.epoch;
  }
  EXPECT_DOUBLE_EQ(reference.test_hits, resumed.test_hits);
  EXPECT_DOUBLE_EQ(reference.test_auc, resumed.test_auc);
  expect_models_bit_identical(reference, resumed);
}

TEST_F(TrainerDurabilityTest, CorruptNewestCheckpointIsSkippedOnAutoResume) {
  auto first = trainer_config(3);
  first.checkpoint_every = 1;
  first.checkpoint_dir = dir_.string();
  (void)run_trainer(first);
  ASSERT_TRUE(fs::exists(state_path(3)));
  flip_bit(state_path(3), 100, 4);  // a single flipped bit in the newest state

  const TrainResult reference = run_trainer(trainer_config(5));
  auto resumed_config = trainer_config(5);
  resumed_config.checkpoint_every = 1;
  resumed_config.checkpoint_dir = dir_.string();
  resumed_config.resume_from = "auto";
  const TrainResult resumed = run_trainer(resumed_config);
  EXPECT_EQ(resumed.resumed_from_epoch, 2U) << "corrupt epoch-3 state must be skipped";
  EXPECT_EQ(resumed.fault.checkpoints_skipped_invalid, 1U);
  expect_models_bit_identical(reference, resumed);
  EXPECT_DOUBLE_EQ(reference.test_hits, resumed.test_hits);
}

TEST_F(TrainerDurabilityTest, UnverifiedV1NewestCheckpointIsSkippedOnAutoResume) {
  auto first = trainer_config(3);
  first.checkpoint_every = 1;
  first.checkpoint_dir = dir_.string();
  (void)run_trainer(first);
  ASSERT_TRUE(fs::exists(state_path(3)));

  // A newer, pre-checksum state with a flipped payload bit: it carries no CRC
  // that could catch the flip, so it must not be trusted at all.
  auto model_config = first.model;
  model_config.in_dim = trainer_problem().dataset.features.dim();
  const nn::LinkPredictionModel stale(model_config, 99);
  write_v1_train_state(state_path(4), stale, 4);
  flip_bit(state_path(4), fs::file_size(state_path(4)) / 2, 2);

  const TrainResult reference = run_trainer(trainer_config(5));
  auto resumed_config = trainer_config(5);
  resumed_config.checkpoint_every = 1;
  resumed_config.checkpoint_dir = dir_.string();
  resumed_config.resume_from = "auto";
  const TrainResult resumed = run_trainer(resumed_config);
  EXPECT_EQ(resumed.resumed_from_epoch, 3U) << "the v1 epoch-4 state must be skipped";
  EXPECT_EQ(resumed.fault.checkpoints_skipped_invalid, 1U);
  expect_models_bit_identical(reference, resumed);
  EXPECT_DOUBLE_EQ(reference.test_hits, resumed.test_hits);
}

TEST_F(TrainerDurabilityTest, SurvivableWriteFaultsSelfHealWithoutChangingResults) {
  const TrainResult reference = run_trainer(trainer_config(3));
  auto faulty = trainer_config(3);
  faulty.checkpoint_every = 1;
  faulty.checkpoint_dir = dir_.string();
  faulty.storage_faults.faults = {
      make_fault(io::StorageFaultKind::kEnospc, "state_epoch_1"),
      make_fault(io::StorageFaultKind::kFailedRename, "model_epoch_2"),
  };
  const TrainResult healed = run_trainer(faulty);
  // Both failures were absorbed (training continued), counted, and the
  // model/metrics are bit-identical to the fault-free run.
  EXPECT_EQ(healed.fault.checkpoint_write_failures, 2U);
  EXPECT_EQ(healed.fault.storage_write_faults, 2U);
  expect_models_bit_identical(reference, healed);
  EXPECT_DOUBLE_EQ(reference.test_hits, healed.test_hits);
  EXPECT_DOUBLE_EQ(reference.test_auc, healed.test_auc);
  // The faulted epochs left gaps; later checkpoints are intact.
  EXPECT_FALSE(fs::exists(state_path(1)));
  EXPECT_TRUE(fs::exists(state_path(3)));
  EXPECT_EQ(nn::validate_train_state_file(state_path(3)), 3U);
}

TEST_F(TrainerDurabilityTest, KeepLastKRetentionIsAppliedDuringTraining) {
  auto config = trainer_config(4);
  config.checkpoint_every = 1;
  config.checkpoint_dir = dir_.string();
  config.keep_checkpoints = 2;
  (void)run_trainer(config);
  const auto entries = nn::list_checkpoints(dir_.string());
  ASSERT_EQ(entries.size(), 2U);
  EXPECT_EQ(entries[0].epoch, 4U);
  EXPECT_EQ(entries[1].epoch, 3U);
  EXPECT_FALSE(fs::exists(nn::checkpoint_model_file(dir_.string(), 2)));
  // The manifest names exactly the retained epochs.
  const auto manifest = nn::read_checkpoint_manifest(dir_.string());
  ASSERT_EQ(manifest.size(), 2U);
}

// ---- the chaos-recovery matrix ----

TEST_F(TrainerDurabilityTest, ChaosRecoveryMatrix) {
  // >= 20 seeded kill/corrupt/recover scenarios (SPLPG_CHAOS_SCENARIOS to
  // scale). Each: (1) torn-write crash at a seeded epoch, (2) verify nothing
  // partial survives under a final name, (3) flip a seeded bit in a seeded
  // surviving artifact, (4) resume via "auto", (5) require bit-identity with
  // the uninterrupted baseline.
  int scenarios = 20;
  if (const char* env = std::getenv("SPLPG_CHAOS_SCENARIOS")) {
    scenarios = std::max(1, std::atoi(env));
  }

  TrainConfig chaos = trainer_config(4);
  chaos.model.hidden_dim = 16;
  chaos.num_partitions = 2;
  chaos.max_batches_per_epoch = 3;
  const TrainResult reference = run_trainer(chaos);

  for (int s = 0; s < scenarios; ++s) {
    SCOPED_TRACE("scenario " + std::to_string(s));
    util::Rng rng = util::Rng(0xC7A05ULL).split("chaos", static_cast<std::uint64_t>(s));
    const auto kill_epoch = static_cast<std::uint32_t>(1 + rng.uniform_u64(3));  // 1..3
    const fs::path scenario_dir = dir_ / ("scenario_" + std::to_string(s));
    fs::create_directories(scenario_dir);

    // (1) the machine dies mid-commit of state_epoch_<kill_epoch>.
    auto killed = chaos;
    killed.checkpoint_every = 1;
    killed.checkpoint_dir = scenario_dir.string();
    killed.storage_faults.faults = {
        make_fault(io::StorageFaultKind::kTornWrite,
                   "state_epoch_" + std::to_string(kill_epoch))};
    EXPECT_THROW((void)run_trainer(killed), io::SimulatedCrash);

    // (2) every artifact under a final name is complete: state files
    // validate, and the killed epoch's state exists only as .tmp wreckage.
    EXPECT_FALSE(fs::exists(nn::checkpoint_state_file(scenario_dir.string(), kill_epoch)));
    std::vector<std::string> artifacts;
    for (const auto& entry : fs::directory_iterator(scenario_dir)) {
      const std::string name = entry.path().filename().string();
      if (name.size() >= 4 && name.substr(name.size() - 4) == ".tmp") continue;
      if (name == "MANIFEST") continue;
      artifacts.push_back(entry.path().string());
      if (name.rfind("state_epoch_", 0) == 0) {
        EXPECT_NO_THROW((void)nn::validate_train_state_file(entry.path().string()))
            << entry.path() << " is torn under its final name";
      }
    }
    ASSERT_FALSE(artifacts.empty());

    // (3) cosmic ray: one seeded bit flip in one seeded surviving artifact
    // (possibly the newest state file, possibly the only one).
    std::sort(artifacts.begin(), artifacts.end());
    const std::string& victim = artifacts[rng.uniform_u64(artifacts.size())];
    const auto victim_size = static_cast<std::uint64_t>(fs::file_size(victim));
    flip_bit(victim, static_cast<std::size_t>(rng.uniform_u64(victim_size)),
             static_cast<unsigned>(rng.uniform_u64(8)));

    // (4) + (5) recovery is exact: auto-resume skips whatever the flip broke
    // (worst case falling back to a fresh start) and converges to the same
    // bits as the run that never crashed.
    auto recovered_config = chaos;
    recovered_config.checkpoint_every = 1;
    recovered_config.checkpoint_dir = scenario_dir.string();
    recovered_config.resume_from = "auto";
    const TrainResult recovered = run_trainer(recovered_config);
    EXPECT_LT(recovered.resumed_from_epoch, kill_epoch);
    expect_models_bit_identical(reference, recovered);
    EXPECT_DOUBLE_EQ(reference.test_hits, recovered.test_hits);
    EXPECT_DOUBLE_EQ(reference.test_auc, recovered.test_auc);
    fs::remove_all(scenario_dir);
  }
}

}  // namespace
}  // namespace splpg
