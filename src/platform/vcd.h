// VCD (value change dump) export of controlled-cycle step traces.
//
// Writes IEEE 1364-style VCD with three signals — the running action
// id, its quality level, and a busy flag — over virtual cycle time, so
// a controlled cycle can be inspected in GTKWave or any other waveform
// viewer next to real hardware traces.  This is the probe-effect-free
// observability story the paper's embedded setting calls for: the
// trace is reconstructed from the simulation, not instrumented into it.
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "qos/runner.h"

namespace qosctrl::platform {

struct VcdOptions {
  std::string module_name = "qosctrl";
  std::string timescale = "1ns";  ///< one virtual cycle per timescale unit
};

/// Writes the steps as a VCD document.  Steps must be in chronological
/// order (as qos::run_cycle records them).  Gaps between steps show as
/// busy = 0.
void write_vcd(std::ostream& os, const std::vector<qos::StepTrace>& trace,
               const VcdOptions& options = {});

/// Convenience: writes to a file; returns false on I/O failure.
bool write_vcd_file(const std::string& path,
                    const std::vector<qos::StepTrace>& trace,
                    const VcdOptions& options = {});

}  // namespace qosctrl::platform
