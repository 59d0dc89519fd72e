#include "toolgen/spec_parser.h"

#include <algorithm>
#include <charconv>
#include <istream>
#include <map>
#include <sstream>
#include <vector>

namespace qosctrl::toolgen {
namespace {

struct TimesDirective {
  rt::ActionId action;
  bool all_levels;
  rt::QualityLevel level;
  rt::Cycles average;
  rt::Cycles worst_case;
};

std::string at_line(int line, const std::string& what) {
  std::ostringstream os;
  os << "line " << line << ": " << what;
  return os.str();
}

/// Reads `token` whole as a base-10 integer: false on trailing text
/// ("9x", "20.5") or a value outside T.
template <typename T>
bool parse_whole(const std::string& token, T* out) {
  const char* last = token.data() + token.size();
  const auto [end, ec] = std::from_chars(token.data(), last, *out);
  return ec == std::errc() && end == last;
}

}  // namespace

ParsedSpec parse_spec(std::istream& in) {
  ParsedSpec spec;
  std::map<std::string, rt::ActionId> actions;
  std::vector<TimesDirective> times;
  bool have_levels = false;
  bool have_budget = false;
  spec.input.iterations = 1;

  auto fail = [&spec](int line, const std::string& what) -> ParsedSpec& {
    spec.ok = false;
    spec.error = at_line(line, what);
    return spec;
  };

  std::string raw;
  int line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    const std::size_t hash = raw.find('#');
    if (hash != std::string::npos) raw.erase(hash);
    std::istringstream line(raw);
    std::vector<std::string> args;
    for (std::string token; line >> token;) args.push_back(token);
    if (args.empty()) continue;  // blank line
    const std::string keyword = args.front();
    args.erase(args.begin());

    if (keyword == "action") {
      if (args.size() != 1) return fail(line_no, "action needs one name");
      const std::string& name = args[0];
      if (actions.count(name) != 0) {
        return fail(line_no, "duplicate action '" + name + "'");
      }
      actions[name] = spec.input.body.add_action(name);
    } else if (keyword == "edge") {
      if (args.size() != 2) return fail(line_no, "edge needs <from> <to>");
      const std::string& from = args[0];
      const std::string& to = args[1];
      const auto fi = actions.find(from);
      const auto ti = actions.find(to);
      if (fi == actions.end()) {
        return fail(line_no, "unknown action '" + from + "'");
      }
      if (ti == actions.end()) {
        return fail(line_no, "unknown action '" + to + "'");
      }
      if (fi->second == ti->second) {
        return fail(line_no, "self-loop on '" + from + "'");
      }
      spec.input.body.add_edge(fi->second, ti->second);
    } else if (keyword == "levels") {
      if (have_levels) return fail(line_no, "levels declared twice");
      for (const std::string& token : args) {
        rt::QualityLevel q;
        if (!parse_whole(token, &q)) {
          return fail(line_no, "bad quality level '" + token + "'");
        }
        spec.input.qualities.push_back(q);
      }
      if (spec.input.qualities.empty()) {
        return fail(line_no, "levels needs at least one integer");
      }
      if (!std::is_sorted(spec.input.qualities.begin(),
                          spec.input.qualities.end()) ||
          std::adjacent_find(spec.input.qualities.begin(),
                             spec.input.qualities.end()) !=
              spec.input.qualities.end()) {
        return fail(line_no, "levels must be strictly increasing");
      }
      have_levels = true;
    } else if (keyword == "times") {
      rt::Cycles avg, wc;
      if (args.size() != 4 || !parse_whole(args[2], &avg) ||
          !parse_whole(args[3], &wc)) {
        return fail(line_no, "times needs <action> <q|*> <avg> <wc>");
      }
      const std::string& name = args[0];
      const std::string& level_token = args[1];
      const auto it = actions.find(name);
      if (it == actions.end()) {
        return fail(line_no, "unknown action '" + name + "'");
      }
      if (avg < 0 || wc < avg) {
        return fail(line_no, "need 0 <= avg <= wc");
      }
      TimesDirective d;
      d.action = it->second;
      d.all_levels = level_token == "*";
      d.level = 0;
      if (!d.all_levels && !parse_whole(level_token, &d.level)) {
        return fail(line_no, "bad quality level '" + level_token + "'");
      }
      d.average = avg;
      d.worst_case = wc;
      times.push_back(d);
    } else if (keyword == "iterations") {
      int n;
      if (args.size() != 1 || !parse_whole(args[0], &n) || n < 1) {
        return fail(line_no, "iterations needs a positive integer");
      }
      spec.input.iterations = n;
    } else if (keyword == "budget") {
      rt::Cycles b;
      if (args.size() != 1 || !parse_whole(args[0], &b) || b <= 0) {
        return fail(line_no, "budget needs a positive cycle count");
      }
      if (b >= rt::kNoDeadline) {
        return fail(line_no, "budget must be below " +
                                 std::to_string(rt::kNoDeadline) +
                                 " cycles (no deadline)");
      }
      spec.budget = b;
      have_budget = true;
    } else {
      return fail(line_no, "unknown keyword '" + keyword + "'");
    }
  }

  // Semantic checks.
  if (actions.empty()) return fail(line_no, "no actions declared");
  if (!have_levels) return fail(line_no, "missing 'levels' directive");
  if (!have_budget) return fail(line_no, "missing 'budget' directive");
  if (!spec.input.body.is_acyclic()) {
    return fail(line_no, "precedence graph has a cycle");
  }

  // Materialize the time tables; every (action, level) must be covered.
  const std::size_t m = spec.input.body.num_actions();
  const std::size_t nq = spec.input.qualities.size();
  std::vector<std::vector<bool>> covered(nq, std::vector<bool>(m, false));
  spec.input.times.assign(nq, std::vector<TimeEntry>(m));
  for (const TimesDirective& d : times) {
    for (std::size_t qi = 0; qi < nq; ++qi) {
      if (!d.all_levels && spec.input.qualities[qi] != d.level) continue;
      spec.input.times[qi][static_cast<std::size_t>(d.action)] =
          TimeEntry{d.average, d.worst_case};
      covered[qi][static_cast<std::size_t>(d.action)] = true;
    }
  }
  for (std::size_t qi = 0; qi < nq; ++qi) {
    for (std::size_t a = 0; a < m; ++a) {
      if (!covered[qi][a]) {
        return fail(line_no, "no times for action '" +
                                 spec.input.body.name(
                                     static_cast<rt::ActionId>(a)) +
                                 "' at level " +
                                 std::to_string(spec.input.qualities[qi]));
      }
    }
  }
  // Monotonicity in q (Definition 2.3).
  for (std::size_t qi = 1; qi < nq; ++qi) {
    for (std::size_t a = 0; a < m; ++a) {
      if (spec.input.times[qi][a].average <
              spec.input.times[qi - 1][a].average ||
          spec.input.times[qi][a].worst_case <
              spec.input.times[qi - 1][a].worst_case) {
        return fail(
            line_no,
            "times for '" +
                spec.input.body.name(static_cast<rt::ActionId>(a)) +
                "' decrease between level " +
                std::to_string(spec.input.qualities[qi - 1]) + " and " +
                std::to_string(spec.input.qualities[qi]));
      }
    }
  }

  const std::string range = range_error(spec.input);
  if (!range.empty()) return fail(line_no, range);

  spec.input.deadline =
      evenly_paced_deadlines(spec.budget, spec.input.iterations);
  spec.ok = true;
  return spec;
}

ParsedSpec parse_spec_string(const std::string& text) {
  std::istringstream in(text);
  return parse_spec(in);
}

}  // namespace qosctrl::toolgen
