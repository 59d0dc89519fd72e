// Textual system specification — the input format of the qosc command
// line front-end to the prototype tool.
//
// Line-based, order-insensitive except that actions must be declared
// before they are referenced.  `#` starts a comment.
//
//   action <name>             declare an action (id = declaration order)
//   edge <from> <to>          precedence: <from> must finish first
//   levels <q0> <q1> ...      the quality level set (sorted integers)
//   times <action> <q|*> <avg> <wc>
//                             execution time estimates; '*' = all levels
//   iterations <N>            body iterations per cycle (default 1)
//   budget <cycles>           cycle budget; deadlines are evenly paced
//
// Numbers must stay inside the model's range: a budget below
// rt::kNoDeadline (2^60), iterations x the summed worst case at the top
// level at most rt::kNoDeadline, and iterations x actions within
// rt::ActionId (toolgen::range_error).
//
// Example:
//   action grab
//   action process
//   edge grab process
//   levels 0 1
//   times grab * 100 150
//   times process 0 200 400
//   times process 1 500 1200
//   iterations 8
//   budget 16000
#pragma once

#include <iosfwd>
#include <string>

#include "toolgen/tool.h"

namespace qosctrl::toolgen {

/// Result of parsing a specification.
struct ParsedSpec {
  ToolInput input;          ///< ready for run_tool (deadline filled)
  rt::Cycles budget = 0;    ///< the declared cycle budget
  bool ok = false;
  std::string error;        ///< first problem, with a line number
};

/// Parses a specification from a stream.
ParsedSpec parse_spec(std::istream& in);

/// Parses a specification from a string (convenience for tests).
ParsedSpec parse_spec_string(const std::string& text);

}  // namespace qosctrl::toolgen
