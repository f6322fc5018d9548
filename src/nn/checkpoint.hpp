// Model checkpointing: (de)serialize a Module's parameter list, or the full
// training state (parameters + optimizer moments + epoch counter), plus the
// checkpoint-directory machinery the trainer's durability layer builds on
// (manifest, keep-last-K retention, corruption-skipping discovery).
//
// Every format here is framed by the io/section codec. Parameter section
// ("SPM2"): magic, parameter count, payload byte count, payload CRC-32,
// header CRC-32, then each parameter's shape + row-major float data. Loading
// requires an identically constructed module (same config), mirroring
// PyTorch's state_dict contract. Adam's optimizer-state section ("SPO2") has
// the same layout with the step count before the parameter count and one
// (m, v) moment pair per parameter.
//
// Train-state format ("SPCK", version 2): header (magic, version, epoch,
// header CRC-32), then the parameter section, then the optimizer's state
// section — each section carries its own checksums. Restoring both halves
// makes resumed training bit-identical to never having stopped (the
// exact-resume contract core::TrainConfig::resume_from relies on); restoring
// parameters alone would rebuild Adam moments from zero and diverge on the
// first step. Pre-checksum layouts (SPCK version 1, "SPLM"/"SPOS" sections)
// are rejected, so every accepted checkpoint is CRC-verified.
//
// Checkpoint directories: write_checkpoint puts `model_epoch_<e>.bin`
// (servable parameters) + `state_epoch_<e>.bin` (resumable train state) per
// checkpointed epoch, every file through io::AtomicFile. A MANIFEST text
// file names the retained epochs (advisory — the directory scan is ground
// truth, so a corrupt manifest never blocks recovery), and
// find_latest_valid_checkpoint powers `resume_from = "auto"`: newest state
// file whose structure and checksums validate, skipping corrupt ones.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "io/error.hpp"
#include "nn/module.hpp"
#include "nn/optimizer.hpp"
#include "tensor/matrix.hpp"

namespace splpg::nn {

void save_parameters(std::ostream& out, const Module& module);
void save_parameters_file(const std::string& path, const Module& module);

/// Throws io::FormatError (a std::runtime_error) on malformed bytes and
/// std::invalid_argument on arity/shape mismatches with the destination
/// module.
void load_parameters(std::istream& in, Module& module);
void load_parameters_file(const std::string& path, Module& module);

/// Adam's state section: the step count and one (m, v) moment pair per
/// parameter. Loading checks the pair count and every shape against `m`/`v`
/// (std::invalid_argument on a mismatch) and returns the step count.
void save_optimizer_section(std::ostream& out, std::uint64_t step,
                            std::span<const tensor::Matrix> m,
                            std::span<const tensor::Matrix> v);
std::uint64_t load_optimizer_section(std::istream& in, std::span<tensor::Matrix> m,
                                     std::span<tensor::Matrix> v);

void save_train_state(std::ostream& out, const Module& module, const Optimizer& optimizer,
                      std::uint32_t epoch);
void save_train_state_file(const std::string& path, const Module& module,
                           const Optimizer& optimizer, std::uint32_t epoch);

/// Restores parameters and optimizer state; returns the checkpoint's epoch.
/// Same exception contract as load_parameters.
std::uint32_t load_train_state(std::istream& in, Module& module, Optimizer& optimizer);
std::uint32_t load_train_state_file(const std::string& path, Module& module,
                                    Optimizer& optimizer);

// ---- checkpoint directories ----

/// One checkpointed epoch inside a checkpoint directory.
struct CheckpointEntry {
  std::uint32_t epoch = 0;
  std::string model_file;  // full path; may be missing on disk
  std::string state_file;  // full path; the resumable artifact
};

[[nodiscard]] std::string checkpoint_model_file(const std::string& dir, std::uint32_t epoch);
[[nodiscard]] std::string checkpoint_state_file(const std::string& dir, std::uint32_t epoch);

/// Newest-first list of `state_epoch_<e>.bin` checkpoints present in `dir`.
/// A missing directory yields an empty list.
[[nodiscard]] std::vector<CheckpointEntry> list_checkpoints(const std::string& dir);

/// Structurally validates a train-state file without needing a module: walks
/// the SPCK header and both sections, verifying every checksum and rejecting
/// pre-checksum layouts, truncation and trailing garbage. Returns the checkpoint's
/// epoch; throws io::FormatError / io::IoError on any defect.
std::uint32_t validate_train_state_file(const std::string& path);

/// The newest checkpoint in `dir` whose state file passes
/// validate_train_state_file. Corrupt or truncated checkpoints are skipped
/// (counted into *skipped when non-null); nullopt when none validates.
[[nodiscard]] std::optional<CheckpointEntry> find_latest_valid_checkpoint(
    const std::string& dir, std::uint32_t* skipped = nullptr);

/// Rewrites `dir`/MANIFEST (atomically) to name the checkpoints currently on
/// disk. The manifest is advisory — recovery always re-scans the directory —
/// but gives operators and tooling one self-checksummed place to look.
void write_checkpoint_manifest(const std::string& dir);

/// Parses `dir`/MANIFEST. Missing, unreadable, or checksum-mismatched
/// manifests yield an empty list (never an exception): the manifest must not
/// be able to block recovery.
[[nodiscard]] std::vector<CheckpointEntry> read_checkpoint_manifest(const std::string& dir);

/// Keep-last-K retention: deletes all but the newest `keep_last` checkpoint
/// epochs (model + state files) and sweeps orphaned AtomicFile temporaries.
/// `keep_last == 0` keeps every epoch (temps are still swept). Returns the
/// number of files removed.
std::size_t gc_checkpoints(const std::string& dir, std::uint32_t keep_last);

/// Checkpoints epoch `epoch` into `dir`: creates the directory, writes
/// `model_epoch_<e>.bin` and `state_epoch_<e>.bin` (each through
/// io::AtomicFile), runs gc_checkpoints when `keep_last > 0` (0 keeps every
/// epoch), and rewrites the MANIFEST. Any failure propagates; AtomicFile
/// guarantees every file already under a final name is complete.
void write_checkpoint(const std::string& dir, const Module& module, const Optimizer& optimizer,
                      std::uint32_t epoch, std::uint32_t keep_last);

}  // namespace splpg::nn
