// Reporting for farm runs: a human-readable summary, a JSON document
// (fleet + per-processor + per-stream aggregates), and a CSV table
// (one row per offered stream).  All three are pure functions of
// FarmResult, so equal workloads export byte-identical documents.
#pragma once

#include <string>

#include "farm/simulator.h"

namespace qosctrl::farm {

/// The JSON document's tables as text: the build provenance line, then
/// one "<label>: name=value ..." row per table row, with the JSON's
/// member names, order and value text (docs/cli.md, "Text summary").
std::string summarize(const FarmResult& result);

/// JSON document with fleet aggregates, processors, and per-stream
/// aggregates (no per-frame records).
std::string to_json(const FarmResult& result);

/// CSV with one row per offered stream (admitted or not).
std::string to_csv(const FarmResult& result);

}  // namespace qosctrl::farm
