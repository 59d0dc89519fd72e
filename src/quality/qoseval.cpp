#include "quality/qoseval.h"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <sstream>

#include "util/check.h"
#include "util/json.h"
#include "util/parallel.h"

namespace qosctrl::quality {
namespace {

/// Normalizes a mean PSNR to a [0, 1] support: 20 dB (badly degraded)
/// .. 45 dB (visually transparent for this synthetic source).
double psnr_support(double mean_psnr) {
  return std::clamp((mean_psnr - 20.0) / 25.0, 0.0, 1.0);
}

/// PCR5 combination of two simple support functions on {good, bad}:
/// the conjunctive mass plus the partial-conflict masses redistributed
/// proportionally to the sources that produced them (Martin & Osswald
/// style), instead of Dempster's global renormalization.
double pcr5_good(double q1, double q2) {
  double m = q1 * q2;
  const double d1 = q1 + (1.0 - q2);
  const double d2 = q2 + (1.0 - q1);
  if (d1 > 0.0) m += q1 * q1 * (1.0 - q2) / d1;
  if (d2 > 0.0) m += q2 * q2 * (1.0 - q1) / d2;
  return std::clamp(m, 0.0, 1.0);
}

/// The scenario under one quality policy: every stream decides quality
/// the same way, so the axis isolates the controller's contribution.
farm::FarmScenario apply_quality_policy(farm::FarmScenario scenario,
                                        QualityPolicy policy,
                                        rt::QualityLevel constant_quality) {
  for (farm::StreamSpec& s : scenario.streams) {
    switch (policy) {
      case QualityPolicy::kControlled:
        s.mode = pipe::ControlMode::kControlled;
        break;
      case QualityPolicy::kConstant:
        s.mode = pipe::ControlMode::kConstantQuality;
        s.constant_quality = constant_quality;
        break;
    }
  }
  return scenario;
}

CellResult measure_cell(const farm::FarmResult& r, double latency_discount) {
  CellResult c;
  c.offered = r.total_streams;
  c.admitted = r.admitted;
  c.rejected = r.rejected;
  c.total_frames = r.total_frames;
  c.skips = r.total_skips;
  c.display_misses = r.total_display_misses;
  c.internal_misses = r.total_internal_misses;
  c.concealed = r.total_concealed;
  c.mean_psnr = r.fleet_mean_psnr;
  c.mean_ssim = r.fleet_mean_ssim;
  c.miss_rate =
      r.total_frames > 0
          ? static_cast<double>(r.total_skips + r.total_display_misses +
                                r.total_concealed) /
                static_cast<double>(r.total_frames)
          : 0.0;
  double fused = 0.0;
  double worst_p5 = 99.0;
  bool any_admitted = false;
  for (const farm::StreamOutcome& so : r.streams) {
    if (!so.placement.admitted) continue;  // contributes 0 to the mean
    any_admitted = true;
    worst_p5 = std::min(worst_p5, so.result.psnr_stats.p5);
    const long long frames =
        static_cast<long long>(so.result.frames.size());
    // A concealed frame was not delivered any more than a skipped one
    // was: the viewer saw stale output either way.
    const double delivered =
        frames > 0 ? 1.0 -
                         static_cast<double>(so.result.total_skips +
                                             so.display_misses +
                                             so.result.total_concealed) /
                             static_cast<double>(frames)
                   : 0.0;
    const rt::Cycles window = farm::latency_of(so.spec);
    const double lag_fraction =
        window > 0 ? static_cast<double>(so.start_lag_p95) /
                         static_cast<double>(window)
                   : 0.0;
    fused += fuse_stream_quality(so.result.mean_psnr, so.result.mean_ssim,
                                 std::clamp(delivered, 0.0, 1.0),
                                 lag_fraction, latency_discount);
  }
  c.psnr_p5 = any_admitted ? worst_p5 : 0.0;
  c.fused_quality =
      c.offered > 0 ? fused / static_cast<double>(c.offered) : 0.0;
  // SLO verdicts reduce to the tightest objective: total violations,
  // the minimum remaining error budget, and its worst window.
  c.slo_met = r.slo.all_met();
  for (const obs::SloOutcome& o : r.slo.objectives) {
    c.slo_violations += o.violations;
    if (o.budget_remaining < c.slo_budget_remaining ||
        c.slo_worst_window < 0) {
      c.slo_budget_remaining = std::min(c.slo_budget_remaining,
                                        o.budget_remaining);
      if (o.worst_window >= 0) c.slo_worst_window = o.worst_window;
    }
  }
  return c;
}

/// One grid cell's row, in the CSV's column order: to_csv writes it
/// as a CSV line and summarize as a "cell <i>:" text row.
constexpr auto cell_columns = [](const CellResult& c, auto&& column) {
  column("scenario", c.scenario);
  column("scenario_name", c.scenario_name);
  column("quality_policy", quality_policy_name(c.quality_policy));
  column("sched_policy", sched::policy_name(c.sched.kind));
  column("renegotiate", c.renegotiate);
  column("faulted", c.faulted);
  column("offered", c.offered);
  column("admitted", c.admitted);
  column("rejected", c.rejected);
  column("total_frames", c.total_frames);
  column("skips", c.skips);
  column("display_misses", c.display_misses);
  column("internal_misses", c.internal_misses);
  column("concealed", c.concealed);
  column("miss_rate", c.miss_rate);
  column("mean_psnr", c.mean_psnr);
  column("mean_ssim", c.mean_ssim);
  column("psnr_p5", c.psnr_p5);
  column("fused_quality", c.fused_quality);
  column("slo_violations", c.slo_violations);
  column("slo_worst_window", c.slo_worst_window);
  column("slo_budget_remaining", c.slo_budget_remaining);
  column("slo_met", c.slo_met);
};

}  // namespace

const char* quality_policy_name(QualityPolicy p) {
  switch (p) {
    case QualityPolicy::kControlled:
      return "controlled";
    case QualityPolicy::kConstant:
      return "constant";
  }
  return "?";
}

double fuse_stream_quality(double mean_psnr, double mean_ssim,
                           double delivered_fraction, double lag_fraction,
                           double latency_discount) {
  const double q1 = psnr_support(mean_psnr);
  const double q2 = std::clamp(mean_ssim, 0.0, 1.0);
  const double reliability =
      std::clamp(delivered_fraction, 0.0, 1.0) *
      (1.0 - std::clamp(latency_discount, 0.0, 1.0) *
                 std::clamp(lag_fraction, 0.0, 1.0));
  return reliability * pcr5_good(q1, q2);
}

SweepResult run_sweep(const SweepConfig& config) {
  QC_EXPECT(!config.scenarios.empty(), "sweep needs at least one scenario");
  QC_EXPECT(!config.sched_policies.empty(),
            "sweep needs at least one scheduling policy");
  QC_EXPECT(!config.renegotiate.empty(),
            "sweep needs the renegotiation axis non-empty");
  QC_EXPECT(!config.fault_axis.empty(),
            "sweep needs the fault axis non-empty");

  const std::size_t nq = kQualityPolicies.size();
  const std::size_t np = config.sched_policies.size();
  const std::size_t nr = config.renegotiate.size();
  const std::size_t nf = config.fault_axis.size();
  const std::size_t ns = config.scenarios.size();
  const std::size_t n_cells = ns * nq * np * nr * nf;

  SweepResult result;
  result.cells.resize(n_cells);

  // Cells are independent; workers pull the next grid index and write
  // only their own slot, so any worker count produces the same bytes.
  util::parallel_for(n_cells, config.workers, [&](std::size_t i) {
    const std::size_t fi = i % nf;
    const std::size_t ri = (i / nf) % nr;
    const std::size_t pi = (i / (nf * nr)) % np;
    const std::size_t qi = (i / (nf * nr * np)) % nq;
    const std::size_t si = i / (nf * nr * np * nq);

    farm::FarmScenario scenario =
        apply_quality_policy(config.scenarios[si].scenario,
                             kQualityPolicies[qi],
                             config.constant_quality);
    scenario.sched.policy = config.sched_policies[pi];
    scenario.sched.renegotiate = config.renegotiate[ri];
    scenario.sched.restore = config.renegotiate[ri];
    scenario.sched.split = config.split;
    if (config.fault_axis[fi]) scenario.faults = config.faults;

    farm::FarmConfig fc;
    fc.num_processors = config.num_processors;
    fc.shards = config.shards;
    fc.workers = 1;  // determinism is per-cell; parallelism is across
    fc.seed = config.farm_seed;
    fc.ts_window = config.ts_window;
    fc.slos = config.slos;

    CellResult cell = measure_cell(farm::run_farm(scenario, fc),
                                   config.latency_discount);
    cell.scenario = static_cast<int>(si);
    cell.scenario_name = config.scenarios[si].name;
    cell.quality_policy = kQualityPolicies[qi];
    cell.sched = config.sched_policies[pi];
    cell.renegotiate = config.renegotiate[ri];
    cell.faulted = config.fault_axis[fi];
    result.cells[i] = cell;
  });

  // One frontier point per policy combination, averaged over scenarios.
  for (std::size_t qi = 0; qi < nq; ++qi) {
    for (std::size_t pi = 0; pi < np; ++pi) {
      for (std::size_t ri = 0; ri < nr; ++ri) {
        for (std::size_t fi = 0; fi < nf; ++fi) {
          PolicyFrontierPoint pt;
          pt.quality_policy = kQualityPolicies[qi];
          pt.sched = config.sched_policies[pi];
          pt.renegotiate = config.renegotiate[ri];
          pt.faulted = config.fault_axis[fi];
          int offered = 0, rejected = 0;
          for (std::size_t si = 0; si < ns; ++si) {
            const CellResult& c =
                result.cells[(((si * nq + qi) * np + pi) * nr + ri) * nf +
                             fi];
            pt.fused_quality += c.fused_quality;
            pt.miss_rate += c.miss_rate;
            pt.mean_psnr += c.mean_psnr;
            pt.mean_ssim += c.mean_ssim;
            offered += c.offered;
            rejected += c.rejected;
          }
          const double count = static_cast<double>(ns);
          pt.fused_quality /= count;
          pt.miss_rate /= count;
          pt.mean_psnr /= count;
          pt.mean_ssim /= count;
          pt.rejection_rate =
              offered > 0 ? static_cast<double>(rejected) / offered : 0.0;
          result.ranking.push_back(pt);
        }
      }
    }
  }

  // Pareto dominance on (fused quality up, miss rate down): `a`
  // dominates `b` when it is no worse on both and better on one.
  const auto dominates = [](const PolicyFrontierPoint& a,
                            const PolicyFrontierPoint& b) {
    return a.fused_quality >= b.fused_quality && a.miss_rate <= b.miss_rate &&
           (a.fused_quality > b.fused_quality || a.miss_rate < b.miss_rate);
  };
  for (PolicyFrontierPoint& a : result.ranking) {
    for (const PolicyFrontierPoint& b : result.ranking) {
      if (&a == &b) continue;
      if (dominates(b, a)) a.dominated = true;
      if (dominates(a, b)) ++a.dominates;
    }
  }
  std::stable_sort(result.ranking.begin(), result.ranking.end(),
                   [](const PolicyFrontierPoint& a,
                      const PolicyFrontierPoint& b) {
                     if (a.dominated != b.dominated) return !a.dominated;
                     if (a.fused_quality != b.fused_quality) {
                       return a.fused_quality > b.fused_quality;
                     }
                     return a.miss_rate < b.miss_rate;
                   });
  return result;
}

std::string summarize(const SweepResult& result) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(4);
  os << "policy ranking (quality/miss frontier; * = non-dominated):\n";
  int rank = 1;
  for (const PolicyFrontierPoint& pt : result.ranking) {
    os << (pt.dominated ? "  " : " *") << rank++ << ". "
       << quality_policy_name(pt.quality_policy) << " + "
       << sched::policy_name(pt.sched.kind)
       << (pt.renegotiate ? " + renegotiate" : "")
       << (pt.faulted ? " + faults" : "")
       << ": fused_quality=" << pt.fused_quality
       << " miss_rate=" << pt.miss_rate
       << " mean_psnr=" << std::setprecision(2) << pt.mean_psnr
       << std::setprecision(4) << " mean_ssim=" << pt.mean_ssim
       << " rejection_rate=" << std::setprecision(2) << pt.rejection_rate
       << std::setprecision(4) << " dominates=" << pt.dominates << "\n";
  }
  util::JsonWriter w;
  w.raw(os.str()).raw("cells (scenario-major):\n");
  for (std::size_t i = 0; i < result.cells.size(); ++i) {
    w.raw("  cell ").raw_unsigned(i).raw(':');
    util::text_row(w, cell_columns, result.cells[i]);
  }
  return w.take();
}

std::string to_csv(const SweepResult& result) {
  util::JsonWriter w;
  util::csv_table(w, CellResult{}, result.cells, cell_columns);
  return w.take();
}

}  // namespace qosctrl::quality
