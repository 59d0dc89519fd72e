// qosreport — renders a qosfarm JSON export into one self-contained
// HTML dashboard.
//
// The farm already serialises everything observability needs (fleet
// totals, per-processor outcomes, the windowed time series and the SLO
// verdicts — docs/timeseries-slo.md); this tool turns that JSON back
// into something a human can scan: an SLO verdict table, an inline-SVG
// sparkline per time-series track, a per-processor utilization heatmap
// from the busy_cycles/cpu<p> tracks, and a processor table with each
// trace buffer's drops.  The tables are the JSON's objects, headed
// with their member names.  The output is a single HTML file with no
// external assets or scripts, so it can be archived as a CI artifact
// and opened anywhere.
//
//   qosreport render --in PATH --out PATH [--title T]
//
// docs/cli.md documents the flags.  Exit codes: 2 usage, 1 an
// unreadable or unparsable input, or an unwritable output.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "cli_util.h"
#include "obs/buildinfo.h"
#include "util/json.h"

namespace {

using qosctrl::util::JsonKind;
using qosctrl::util::JsonValue;

std::string html_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

std::string format_number(double v) {
  // Integers print exactly; everything else gets enough digits to be
  // useful without the scientific-notation noise of max precision.
  // The range test comes first: casting a double outside the int64
  // range to long long is undefined behaviour.
  std::ostringstream os;
  if (std::abs(v) < 1e15 && v == std::trunc(v)) {
    os << static_cast<long long>(v);
  } else {
    os.precision(4);
    os << v;
  }
  return os.str();
}

/// One parsed time-series window: [w, count, sum, min, max, p50, p95,
/// p99] in the JSON array order (obs/timeseries.cpp to_json).
struct WindowPoint {
  long long window = 0;
  double count = 0, sum = 0, min = 0, max = 0, p50 = 0, p95 = 0, p99 = 0;
};

using Track = std::vector<WindowPoint>;

bool parse_track(const JsonValue& arr, Track* out) {
  out->clear();
  if (!arr.is_array()) return false;
  for (const JsonValue& row : arr.items()) {
    if (!row.is_array() || row.items().size() != 8) return false;
    for (const JsonValue& cell : row.items()) {
      if (!cell.is_number()) return false;
    }
    const auto& c = row.items();
    if (!c[0].is_int()) return false;
    WindowPoint p;
    p.window = c[0].as_int();
    p.count = c[1].as_number();
    p.sum = c[2].as_number();
    p.min = c[3].as_number();
    p.max = c[4].as_number();
    p.p50 = c[5].as_number();
    p.p95 = c[6].as_number();
    p.p99 = c[7].as_number();
    out->push_back(p);
  }
  return true;
}

/// Inline-SVG sparkline: faint count bars underneath, p50 and p99
/// polylines on top, scaled to the track's own ranges over
/// [0, last_window].
std::string render_sparkline(const Track& track, long long last_window) {
  const int kW = 640, kH = 72, kPad = 2;
  std::ostringstream os;
  os << "<svg viewBox=\"0 0 " << kW << ' ' << kH
     << "\" class=\"spark\" preserveAspectRatio=\"none\">";
  if (!track.empty() && last_window >= 0) {
    double max_value = 0, max_count = 0;
    for (const WindowPoint& p : track) {
      max_value = std::max(max_value, p.p99);
      max_count = std::max(max_count, p.count);
    }
    const double span = static_cast<double>(last_window) + 1.0;
    const double bar_w = std::max(1.0, (kW - 2.0 * kPad) / span);
    auto x_of = [&](long long w) {
      return kPad + (kW - 2.0 * kPad) * (static_cast<double>(w) / span);
    };
    auto y_of = [&](double v, double max_v) {
      if (max_v <= 0) return static_cast<double>(kH - kPad);
      return kH - kPad - (kH - 2.0 * kPad) * (v / max_v);
    };
    for (const WindowPoint& p : track) {
      os << "<rect x=\"" << x_of(p.window) << "\" y=\""
         << y_of(p.count, max_count) << "\" width=\"" << bar_w
         << "\" height=\"" << (kH - kPad - y_of(p.count, max_count))
         << "\" class=\"bar\"/>";
    }
    const char* const kSeries[] = {"p50", "p99"};
    for (const char* which : kSeries) {
      os << "<polyline class=\"" << which << "\" points=\"";
      bool first = true;
      for (const WindowPoint& p : track) {
        const double v = std::strcmp(which, "p50") == 0 ? p.p50 : p.p99;
        os << (first ? "" : " ") << x_of(p.window) + bar_w / 2 << ','
           << y_of(v, max_value);
        first = false;
      }
      os << "\"/>";
    }
  }
  os << "</svg>";
  return os.str();
}

/// Per-processor utilization heatmap from the busy_cycles/cpu<p>
/// tracks: one row per processor, one cell per window, intensity =
/// busy cycles in the window / window width (clamped to 1).
std::string render_heatmap(const std::map<int, Track>& cpu_tracks,
                           double window, long long last_window) {
  const int kRowH = 18, kLabelW = 64, kW = 640, kPad = 2;
  const int rows = static_cast<int>(cpu_tracks.size());
  const int height = rows * kRowH + 2 * kPad;
  const double span = static_cast<double>(last_window) + 1.0;
  const double cell_w = std::max(1.0, (kW - kLabelW - kPad) / span);
  std::ostringstream os;
  os << "<svg viewBox=\"0 0 " << kW << ' ' << height
     << "\" class=\"heatmap\">";
  int row = 0;
  for (const auto& [cpu, track] : cpu_tracks) {
    const double y = kPad + row * kRowH;
    os << "<text x=\"" << kPad << "\" y=\"" << y + kRowH - 5
       << "\" class=\"hlabel\">cpu" << cpu << "</text>";
    for (const WindowPoint& p : track) {
      double util = window > 0 ? p.sum / window : 0.0;
      util = std::min(1.0, std::max(0.0, util));
      // Cold grey-blue through hot orange-red.
      const int r = static_cast<int>(40 + 215 * util);
      const int g = static_cast<int>(80 + 60 * (1 - util));
      const int b = static_cast<int>(200 * (1 - util) + 30);
      os << "<rect x=\""
         << kLabelW + cell_w * static_cast<double>(p.window) << "\" y=\""
         << y << "\" width=\"" << cell_w << "\" height=\"" << kRowH - 2
         << "\" fill=\"rgb(" << r << ',' << g << ',' << b << ")\"/>";
    }
    ++row;
  }
  os << "</svg>";
  return os.str();
}

/// A table cell's text: a number as format_number() prints it, a string
/// or a bool as its text, an array as its item count, and "-" for a
/// member the row lacks (or null, or an object).
std::string cell_text(const JsonValue* v) {
  switch (v != nullptr ? v->kind() : JsonKind::kNull) {
    case JsonKind::kNumber:
      return format_number(v->as_number());
    case JsonKind::kString:
      return html_escape(v->as_string());
    case JsonKind::kBool:
      return v->as_bool() ? "true" : "false";
    case JsonKind::kArray:
      return std::to_string(v->items().size());
    case JsonKind::kNull:
    case JsonKind::kObject:
      break;
  }
  return "-";
}

/// A table of JSON objects under a heading: one row per object, one
/// column per member of the first, headed with the member's JSON name.
void render_table(const char* title, const std::vector<JsonValue>& rows,
                  std::ostringstream& html) {
  if (rows.empty() || !rows.front().is_object()) return;
  const auto& columns = rows.front().members();
  html << "<h2>" << title << "</h2>\n<table>\n<tr>";
  for (const auto& column : columns) {
    html << "<th>" << html_escape(column.first) << "</th>";
  }
  html << "</tr>\n";
  for (const JsonValue& row : rows) {
    html << "<tr>";
    for (const auto& column : columns) {
      html << "<td>" << cell_text(row.find(column.first)) << "</td>";
    }
    html << "</tr>\n";
  }
  html << "</table>\n";
}

/// The SLO verdicts: one row per objective, then whether all were met.
void render_slo(const JsonValue& slo, std::ostringstream& html) {
  const JsonValue* objectives = slo.find("objectives", JsonKind::kArray);
  if (objectives == nullptr) return;
  render_table("Service-level objectives", objectives->items(), html);
  const char* const kAllMet = "all_met";
  if (const JsonValue* all_met = slo.find(kAllMet, JsonKind::kBool)) {
    const bool ok = all_met->as_bool();
    html << "<p class=\"" << (ok ? "met" : "missed") << "\">" << kAllMet
         << ' ' << (ok ? "true" : "false") << "</p>\n";
  }
}

void render_fleet_header(const JsonValue& doc, std::ostringstream& html) {
  const JsonValue* fleet = doc.find("fleet", JsonKind::kObject);
  const JsonValue* build = doc.find("build", JsonKind::kObject);
  html << "<p class=\"meta\">";
  if (build != nullptr) {
    // The seed is a uint64: print its digits, not the rounded double.
    const JsonValue* seed = build->find("farm_seed", JsonKind::kNumber);
    if (seed != nullptr && !seed->integer_token().empty()) {
      html << "seed " << seed->integer_token() << " &middot; ";
    }
  }
  if (fleet != nullptr) {
    const JsonValue* policy = fleet->find("policy", JsonKind::kString);
    if (policy != nullptr) {
      html << "policy " << html_escape(policy->as_string()) << " &middot; ";
    }
    auto count = [&](const char* key) {
      const JsonValue* v = fleet->find(key, JsonKind::kNumber);
      return v != nullptr && v->is_int() ? v->as_int() : 0LL;
    };
    html << count("admitted") << " admitted / " << count("rejected")
         << " rejected &middot; " << count("encoded_frames")
         << " frames encoded &middot; " << count("display_misses")
         << " display misses &middot; " << count("total_concealed")
         << " concealed";
  }
  html << "</p>\n";
}

/// The per-processor objects, each with its trace buffer's drop count
/// when the run was traced.  The control plane's buffer rides at index
/// num_processors; its row shows "control" in the first column.
std::vector<JsonValue> processor_rows(const JsonValue& doc) {
  const JsonValue* procs = doc.find("processors", JsonKind::kArray);
  if (procs == nullptr) return {};
  const char* const kDropped = "trace_dropped_per_buffer";
  const JsonValue* dropped = doc.find(kDropped, JsonKind::kArray);
  const std::size_t drops = dropped != nullptr ? dropped->items().size() : 0;
  std::vector<JsonValue> rows;
  for (std::size_t p = 0; p < procs->items().size(); ++p) {
    if (!procs->items()[p].is_object()) continue;
    auto members = procs->items()[p].members();
    if (p < drops) members.emplace_back(kDropped, dropped->items()[p]);
    rows.push_back(JsonValue::make_object(std::move(members)));
  }
  if (drops == procs->items().size() + 1 && !rows.empty() &&
      !rows.front().members().empty()) {
    rows.push_back(JsonValue::make_object(
        {{rows.front().members().front().first,
          JsonValue::make_string("control")},
         {kDropped, dropped->items().back()}}));
  }
  return rows;
}

void render_timeseries(const JsonValue& doc, std::ostringstream& html) {
  const JsonValue* ts = doc.find("timeseries", JsonKind::kObject);
  if (ts == nullptr) {
    html << "<p class=\"meta\">No time series in this report — rerun "
            "qosfarm with <code>--ts-window</code>.</p>\n";
    return;
  }
  const JsonValue* window_v = ts->find("window", JsonKind::kNumber);
  const JsonValue* tracks_v = ts->find("tracks", JsonKind::kObject);
  if (window_v == nullptr || tracks_v == nullptr) return;
  const double window = window_v->as_number();

  // Split the heatmap tracks out and find the global window extent so
  // every sparkline shares one x axis.
  std::map<int, Track> cpu_tracks;
  std::vector<std::pair<std::string, Track>> spark_tracks;
  long long last_window = -1;
  for (const auto& [name, value] : tracks_v->members()) {
    Track track;
    if (!parse_track(value, &track)) continue;
    if (!track.empty()) {
      last_window = std::max(last_window, track.back().window);
    }
    const std::string kCpuPrefix = "busy_cycles/cpu";
    if (name.compare(0, kCpuPrefix.size(), kCpuPrefix) == 0) {
      int cpu = 0;
      if (qosctrl::cli::parse_int(name.c_str() + kCpuPrefix.size(), &cpu)) {
        cpu_tracks.emplace(cpu, std::move(track));
        continue;
      }
    }
    spark_tracks.emplace_back(name, std::move(track));
  }

  html << "<h2>Time series</h2>\n<p class=\"meta\">window = "
       << format_number(window) << " cycles &middot; "
       << (last_window + 1) << " windows</p>\n";
  if (!cpu_tracks.empty()) {
    html << "<h3>Utilization heatmap</h3>\n"
         << render_heatmap(cpu_tracks, window, last_window) << "\n";
  }
  for (const auto& [name, track] : spark_tracks) {
    long long total = 0;
    double peak_p99 = 0;
    for (const WindowPoint& p : track) {
      total += static_cast<long long>(p.count);
      peak_p99 = std::max(peak_p99, p.p99);
    }
    html << "<div class=\"trackrow\"><div class=\"trackname\"><code>"
         << html_escape(name) << "</code><br/><span class=\"meta\">n="
         << total << " peak p99=" << format_number(peak_p99)
         << "</span></div>" << render_sparkline(track, last_window)
         << "</div>\n";
  }
}

const char kStyle[] =
    "body{font-family:system-ui,sans-serif;margin:2em auto;max-width:60em;"
    "color:#222}"
    "h1{border-bottom:2px solid #444}"
    "table{border-collapse:collapse;margin:0.5em 0}"
    "th,td{border:1px solid #bbb;padding:0.25em 0.6em;text-align:right}"
    "th{background:#eee}td:first-child,th:first-child{text-align:left}"
    ".met{color:#0a7b24;font-weight:bold}"
    ".missed{color:#c0182b;font-weight:bold}"
    ".meta{color:#666;font-size:0.9em}"
    ".spark{width:100%;height:72px;background:#fafafa;"
    "border:1px solid #ddd}"
    ".spark .bar{fill:#d0d8e8}"
    ".spark .p99{fill:none;stroke:#c0182b;stroke-width:1.5}"
    ".spark .p50{fill:none;stroke:#3465a4;stroke-width:1}"
    ".heatmap{width:100%;background:#fafafa;border:1px solid #ddd}"
    ".hlabel{font-size:11px;fill:#444}"
    ".trackrow{display:flex;align-items:center;gap:1em;margin:0.4em 0}"
    ".trackname{flex:0 0 16em}";

}  // namespace

int main(int argc, char** argv) {
  const char* in_path = nullptr;
  const char* out_path = nullptr;
  const char* title = nullptr;
  const qosctrl::cli::CommandLine cl{"qosreport", "render", {
      qosctrl::cli::text("--in", "PATH", &in_path),
      qosctrl::cli::text("--out", "PATH", &out_path),
      qosctrl::cli::text("--title", "T", &title),
  }};
  if (const int rc = cl.parse(argc, argv); rc >= 0) return rc;
  if (in_path == nullptr || out_path == nullptr) {
    std::fputs("qosreport: render needs --in and --out\n", stderr);
    return cl.usage_error();
  }

  std::ifstream in(in_path);
  if (!in) {
    std::fprintf(stderr, "qosreport: cannot read %s\n", in_path);
    return 1;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();

  JsonValue doc;
  std::string error;
  if (!qosctrl::util::parse_json(buffer.str(), &doc, &error)) {
    std::fprintf(stderr, "qosreport: %s: %s\n", in_path, error.c_str());
    return 1;
  }
  if (!doc.is_object()) {
    std::fprintf(stderr, "qosreport: %s: not a JSON report object\n",
                 in_path);
    return 1;
  }

  const std::string heading = title != nullptr ? title : in_path;
  std::ostringstream html;
  html << "<!doctype html>\n<html><head><meta charset=\"utf-8\"/>\n"
       << "<title>" << html_escape(heading) << "</title>\n<style>"
       << kStyle << "</style></head>\n<body>\n<h1>"
       << html_escape(heading) << "</h1>\n";
  render_fleet_header(doc, html);
  const JsonValue* slo = doc.find("slo", JsonKind::kObject);
  if (slo != nullptr) render_slo(*slo, html);
  render_timeseries(doc, html);
  render_table("Processors", processor_rows(doc), html);
  html << "<p class=\"meta\">"
       << html_escape(qosctrl::obs::version_line("qosreport"))
       << "</p>\n</body></html>";

  if (!qosctrl::cli::write_file("qosreport", out_path, html.str())) {
    return 1;
  }
  return 0;
}
