// farmbench — the farm benchmark's harness binary (perfbench/run.py
// drives it; see perfbench/README.md).
//
//   farmbench job   --workload W --seed N --workers K --out DIR
//       one timed job in a fresh process: set-up (preset compile plus
//       fault/SLO spec parsing), run_farm, and the reports the workload
//       writes.  Prints one JSON line with host timings, peak RSS, the
//       report digest and the shape-guard verdict.
//   farmbench trace --workload W --seed N --workers K --out DIR
//       the traced run (replay.h): prints the layer table on stderr and
//       one JSON line with every per-layer metric.
//   farmbench info
//       build provenance as one JSON line.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>
#include <vector>

#include "obs/buildinfo.h"
#include "replay.h"
#include "workloads.h"

namespace {

using namespace qosctrl;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Minimal JSON string escaping for error messages.
std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n') ? ' ' : c;
  }
  return out + "\"";
}

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream f(path, std::ios::binary);
  f << content;
  return static_cast<bool>(f);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int run_job(const perfbench::Workload& w, std::uint64_t seed, int workers,
            const std::string& out_dir) {
  // job_s spans exactly one set-up: the last of the repeats.
  std::vector<double> setups;
  perfbench::JobInput in;
  Clock::time_point job_start;
  for (int i = 0; i < perfbench::kSetupRepeats; ++i) {
    job_start = Clock::now();
    in = perfbench::set_up(w, seed, workers);
    setups.push_back(seconds_since(job_start));
  }
  const auto run_start = Clock::now();
  const farm::FarmResult r = farm::run_farm(in.scenario, in.config);
  const double run_s = seconds_since(run_start);
  std::string error;
  perfbench::Reports reports;
  if (w.reports) {
    reports = perfbench::render_reports(w, r);
    const std::string base = out_dir + "/" + w.name;
    if (!write_file(base + "-report.json", reports.json) ||
        !write_file(base + "-report.csv", reports.csv) ||
        !write_file(base + "-trace.json", reports.trace)) {
      error = "cannot write reports under " + out_dir;
    }
  }
  const double job_s = seconds_since(job_start);
  if (!w.reports) reports = perfbench::render_reports(w, r);
  if (error.empty()) error = perfbench::check_shape(w, r);

  std::sort(setups.begin(), setups.end());
  std::printf(
      "{\"setup_s\":%.9g,\"run_s\":%.9g,\"job_s\":%.9g,\"frames\":%lld,"
      "\"frames_per_s\":%.9g,\"peak_rss_mb\":%.6f,\"workers\":%d,"
      "\"digest\":\"%s\",\"error\":%s}\n",
      setups[setups.size() / 2], run_s, job_s, r.total_frames,
      static_cast<double>(r.total_frames) / run_s, peak_rss_mb(),
      in.config.workers, hex(perfbench::report_digest(reports)).c_str(),
      quoted(error).c_str());
  return error.empty() ? 0 : 1;
}

int run_trace(const perfbench::Workload& w, std::uint64_t seed, int workers,
              const std::string& out_dir) {
  const perfbench::Profile p = perfbench::profile_workload(
      w, seed, workers, out_dir + "/" + w.name + "-spans.json");
  std::fputs(p.table.c_str(), stderr);
  std::printf("{\"digest\":\"%s\",\"error\":%s,\"metrics\":{",
              hex(p.digest).c_str(), quoted(p.error).c_str());
  for (std::size_t i = 0; i < p.metrics.size(); ++i) {
    std::printf("%s\"%s\":{\"value\":%.9g,\"unit\":\"%s\"}", i ? "," : "",
                p.metrics[i].name.c_str(), p.metrics[i].value,
                p.metrics[i].unit);
  }
  std::printf("}}\n");
  return p.error.empty() ? 0 : 1;
}

int usage() {
  std::fputs(
      "usage: farmbench job|trace --workload W --seed N --workers K "
      "--out DIR\n"
      "       farmbench info\n",
      stderr);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::fputs("farmbench: refusing to run an assert-enabled build\n", stderr);
  return 2;
#endif
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "farmbench: refusing a %s build; configure Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  if (mode == "info") {
    const obs::BuildInfo b = obs::build_info();
    std::printf(
        "{\"version\":\"%s\",\"compiler\":\"%s\",\"simd_backend\":\"%s\","
        "\"build_type\":\"%s\"}\n",
        b.version, b.compiler, b.simd_backend, PERFBENCH_BUILD_TYPE);
    return 0;
  }
  if (mode != "job" && mode != "trace") return usage();

  std::string workload, out_dir = ".";
  std::uint64_t seed = 0;
  int workers = 1;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      workload = value;
    } else if (key == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--workers") {
      workers = std::max(1, std::atoi(value));
    } else if (key == "--out") {
      out_dir = value;
    } else {
      return usage();
    }
  }
  const perfbench::Workload* w = perfbench::find_workload(workload);
  if (w == nullptr) {
    std::fprintf(stderr, "farmbench: unknown workload '%s'\n",
                 workload.c_str());
    return 2;
  }
  try {
    return mode == "job" ? run_job(*w, seed, workers, out_dir)
                         : run_trace(*w, seed, workers, out_dir);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "farmbench: %s\n", e.what());
    return 1;
  }
}
