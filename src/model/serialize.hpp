// Plain-text serialization of calibrated model state: the machine-dependent
// vector and fitted workload models round-trip through a simple
// `key = value` format so an expensive calibration pass can be saved and
// reloaded (e.g. by examples/calibrate).
//
// Format:
//   [machine]
//   name = SystemG
//   cpi = 0.5502
//   ...
//   [workload FT]
//   alpha = 0.89
//   ...
//
// Exactly one [machine] section and at most one [workload <NAME>] section per
// document (the CalibrationFile helpers bundle one of each).
//
// Both directions loop over the vector's `fields()` list (MachineParams in
// params.hpp, each workload in workloads.hpp): a new coefficient needs only
// one entry in that list, and a new workload type one more line in
// make_workload. Every key must name a field of its section ([machine] also
// takes `name`) and every value must be one complete, finite number; absent
// keys keep their defaults.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "model/params.hpp"
#include "model/workloads.hpp"

namespace isoee::model {

/// Serializes a machine vector as a [machine] section.
std::string serialize(const MachineParams& machine);

/// Parses a [machine] section; nullopt on malformed input, including an
/// unknown key and a cpi, f_ghz or base_ghz <= 0.
std::optional<MachineParams> parse_machine(const std::string& text);

/// Serializes any of the built-in workload models ([workload <NAME>]).
/// Throws std::invalid_argument for a model that lists no fields.
std::string serialize(const WorkloadModel& workload);

/// Parses a [workload ...] section into the matching model type; nullptr on
/// malformed input, an unknown key or an unknown workload name.
std::unique_ptr<WorkloadModel> parse_workload(const std::string& text);

/// A bundled calibration: machine vector + fitted workload.
struct CalibrationFile {
  MachineParams machine;
  std::unique_ptr<WorkloadModel> workload;
};

/// Writes machine + workload to `path`. Returns false on I/O failure.
bool save_calibration(const std::string& path, const MachineParams& machine,
                      const WorkloadModel& workload);

/// Loads a calibration bundle; nullopt on failure.
std::optional<CalibrationFile> load_calibration(const std::string& path);

}  // namespace isoee::model
