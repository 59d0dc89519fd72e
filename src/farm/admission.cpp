#include "farm/admission.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "util/check.h"

namespace qosctrl::farm {

TableCache::TableCache(platform::CostTable costs) : costs_(std::move(costs)) {
  wc_frame_per_mb_.resize(costs_.num_levels(), 0);
  for (std::size_t qi = 0; qi < costs_.num_levels(); ++qi) {
    rt::Cycles wc = 0;
    for (std::size_t a = 0; a < costs_.num_actions(); ++a) {
      wc += costs_.at(static_cast<rt::ActionId>(a), qi).worst_case;
    }
    wc_frame_per_mb_[qi] = wc;
  }
}

const std::shared_ptr<const enc::EncoderSystem>& TableCache::get(
    int macroblocks, rt::Cycles budget) {
  const auto key = std::make_pair(macroblocks, budget);
  auto it = cache_.find(key);
  if (it != cache_.end()) return it->second;
  auto sys = std::make_shared<const enc::EncoderSystem>(
      enc::build_encoder_system(macroblocks, budget, costs_));
  // Map nodes are stable, so the returned reference outlives later
  // insertions; callers that keep a system copy the shared_ptr.
  return cache_.emplace(key, std::move(sys)).first->second;
}

rt::Cycles TableCache::min_budget(int macroblocks) const {
  return static_cast<rt::Cycles>(macroblocks) * wc_frame_per_mb_.front();
}

rt::Cycles TableCache::worst_case_frame_cost(int macroblocks,
                                             std::size_t qi) const {
  QC_EXPECT(qi < wc_frame_per_mb_.size(),
            "quality index out of range for cost table");
  return static_cast<rt::Cycles>(macroblocks) * wc_frame_per_mb_[qi];
}

AdmissionController::AdmissionController(int num_processors,
                                         AdmissionConfig config,
                                         TableCache* tables,
                                         SchedulingSpec sched)
    : config_(std::move(config)),
      sched_(sched),
      policy_(sched.policy),
      tables_(tables) {
  QC_EXPECT(num_processors >= 1, "farm needs at least one processor");
  QC_EXPECT(tables_ != nullptr, "admission needs a table cache");
  QC_EXPECT(config_.utilization_cap > 0.0 && config_.utilization_cap <= 1.0,
            "utilization cap must be in (0, 1]");
  QC_EXPECT(config_.max_stream_share > 0.0 && config_.max_stream_share <= 1.0,
            "max stream share must be in (0, 1]");
  for (const std::vector<double>* ladder :
       {&config_.budget_fractions, &config_.min_budget_multiples}) {
    for (const double x : *ladder) {
      QC_EXPECT(std::isfinite(x) && x > 0.0,
                "budget ladder entries must be finite and positive");
    }
  }
  committed_.resize(static_cast<std::size_t>(num_processors));
  failed_.resize(static_cast<std::size_t>(num_processors), false);
  demand_.resize(static_cast<std::size_t>(num_processors));
}

AdmissionController::CachedDemand& AdmissionController::demand(
    int p) const {
  CachedDemand& d = demand_[static_cast<std::size_t>(p)];
  if (d.dirty) {
    const auto& cs = committed_[static_cast<std::size_t>(p)];
    d.tasks.clear();
    d.tasks.reserve(cs.size() + 1);
    d.util = 0.0;
    for (const Commitment& c : cs) {
      d.tasks.push_back(c.task);
      // Same left-fold addition order as a fresh np_utilization scan
      // over the same task order: cap comparisons stay bit-identical.
      d.util += static_cast<double>(c.task.cost) /
                static_cast<double>(c.task.period);
    }
    d.busy_hint = 0;
    d.dirty = false;
  }
  return d;
}

void AdmissionController::demand_invalidate(int p) {
  demand_[static_cast<std::size_t>(p)].dirty = true;
  unpreferred_dirty_ = true;
}

void AdmissionController::demand_append(int p,
                                        const sched::NpTask& task) {
  CachedDemand& d = demand_[static_cast<std::size_t>(p)];
  if (!d.dirty) {
    d.tasks.push_back(task);
    d.util += static_cast<double>(task.cost) /
              static_cast<double>(task.period);
  }
  // The admitting test ran over exactly the new committed set, so its
  // busy length is this set's true busy length — the best warm seed.
  d.busy_hint = last_test_busy_;
  unpreferred_dirty_ = true;
}

void AdmissionController::fail_processor(int processor) {
  failed_.at(static_cast<std::size_t>(processor)) = true;
}

bool AdmissionController::processor_failed(int processor) const {
  return failed_.at(static_cast<std::size_t>(processor));
}

std::vector<int> AdmissionController::resident_stream_ids(
    int processor) const {
  std::vector<int> ids;
  for (const Commitment& c :
       committed_.at(static_cast<std::size_t>(processor))) {
    ids.push_back(c.stream_id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::vector<CertifiedRung> AdmissionController::certified_ladder(
    int macroblocks, rt::Cycles latency, rt::Cycles period) {
  std::vector<CertifiedRung> ladder;
  for (const rt::Cycles b :
       controlled_candidates(macroblocks, latency, period)) {
    auto system = tables_->get(macroblocks, b);
    if (system->tables->max_initial_delay() < 0) continue;
    ladder.push_back(CertifiedRung{b, std::move(system)});
  }
  return ladder;
}

double AdmissionController::committed_utilization(int processor) const {
  const auto& cs = committed_.at(static_cast<std::size_t>(processor));
  double u = 0.0;
  for (const Commitment& c : cs) {
    u += static_cast<double>(c.task.cost) /
         static_cast<double>(c.task.period);
  }
  return u;
}

int AdmissionController::committed_streams(int processor) const {
  return static_cast<int>(
      committed_.at(static_cast<std::size_t>(processor)).size());
}

bool AdmissionController::fits(int p, const sched::NpTask& candidate) const {
  if (failed_[static_cast<std::size_t>(p)]) return false;
  CachedDemand& d = demand(p);
  // Candidate last, exactly where the old full rebuild put it.
  const double util =
      d.util + static_cast<double>(candidate.cost) /
                   static_cast<double>(candidate.period);
  if (util > config_.utilization_cap) return false;
  d.tasks.push_back(candidate);
  last_test_busy_ = 0;
  const sched::DemandQuery query{&scan_stats_, d.busy_hint,
                                 &last_test_busy_};
  const bool ok = policy_.schedulable(d.tasks, query);
  d.tasks.pop_back();
  return ok;
}

const std::vector<rt::Cycles>& AdmissionController::controlled_candidates(
    int macroblocks, rt::Cycles latency, rt::Cycles period) const {
  if (macroblocks == cand_mb_ && latency == cand_latency_ &&
      period == cand_period_) {
    return cand_cache_;
  }
  // Candidate service budgets, richest first; rounded down to a
  // multiple of the macroblock count so the evenly paced deadlines
  // divide exactly, with the qmin-minimal budget as last resort.
  const rt::Cycles min_budget = tables_->min_budget(macroblocks);
  std::vector<rt::Cycles> candidates;
  const double share_cap =
      config_.max_stream_share * static_cast<double>(period);
  auto add_candidate = [&](double cycles) {
    // Past the window whatever the rounding; checked in double so a
    // huge ladder entry never reaches the integer cast.
    if (cycles >= static_cast<double>(latency) + 1.0) return;
    const rt::Cycles b =
        (static_cast<rt::Cycles>(cycles) / macroblocks) * macroblocks;
    if (b >= min_budget && b <= latency &&
        static_cast<double>(b) <= share_cap) {
      candidates.push_back(b);
    }
  };
  for (const double f : config_.budget_fractions) {
    add_candidate(static_cast<double>(latency) * f);
  }
  for (const double m : config_.min_budget_multiples) {
    add_candidate(static_cast<double>(min_budget) * m);
  }
  if (min_budget <= latency) candidates.push_back(min_budget);
  std::sort(candidates.begin(), candidates.end(),
            std::greater<rt::Cycles>());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  cand_mb_ = macroblocks;
  cand_latency_ = latency;
  cand_period_ = period;
  cand_cache_ = std::move(candidates);
  return cand_cache_;
}

void AdmissionController::commit_and_fill(
    const StreamSpec& spec, const sched::NpTask& task,
    rt::Cycles table_budget, int p, int preferred,
    std::shared_ptr<const enc::EncoderSystem> system, Placement* out) {
  Commitment c;
  c.stream_id = spec.id;
  c.task = task;
  c.controlled = spec.mode == pipe::ControlMode::kControlled;
  c.macroblocks = macroblocks_of(spec);
  c.table_budget = table_budget;
  c.min_budget = tables_->min_budget(c.macroblocks);
  c.desired_budget = table_budget;
  c.migration_surcharge = p != preferred ? config_.migration_cost : 0;
  committed_[static_cast<std::size_t>(p)].push_back(std::move(c));
  host_of_[spec.id].push_back(p);
  demand_append(p, task);
  out->admitted = true;
  out->processor = p;
  out->committed_cost = task.cost;
  out->table_budget = table_budget;
  out->migrated = p != preferred;
  out->initial_quality = system->tables->initial_quality();
  out->system = std::move(system);
}

const std::vector<int>& AdmissionController::unpreferred_order() const {
  if (!unpreferred_dirty_) return unpreferred_cache_;
  std::vector<std::pair<double, int>> keyed;
  keyed.reserve(static_cast<std::size_t>(num_processors()));
  for (int p = 0; p < num_processors(); ++p) {
    keyed.emplace_back(committed_utilization(p), p);
  }
  std::sort(keyed.begin(), keyed.end());
  unpreferred_cache_.clear();
  unpreferred_cache_.reserve(keyed.size());
  for (const auto& [u, p] : keyed) unpreferred_cache_.push_back(p);
  unpreferred_dirty_ = false;
  return unpreferred_cache_;
}

template <typename Place>
bool AdmissionController::sweep(int preferred, Place&& place) {
  // Bound once per sweep: shrinks inside a renegotiating sweep dirty
  // the cached order, but nothing re-reads it until the next sweep.
  static const std::vector<int> kNoOrder;
  const std::vector<int>& unpreferred =
      preferred < 0 ? unpreferred_order() : kNoOrder;
  for (int k = 0; k < num_processors(); ++k) {
    const int p = preferred < 0
                      ? unpreferred[static_cast<std::size_t>(k)]
                      : (k == 0 ? preferred
                                : (k - 1 < preferred ? k - 1 : k));
    if (place(p)) return true;
  }
  return false;
}

bool AdmissionController::try_place(const StreamSpec& spec,
                                    rt::Cycles table_budget, rt::Cycles cost,
                                    int preferred, Placement* out) {
  // Certify the budget against the stream's compiled slack tables:
  // paced over table_budget from service start, the qmin worst case
  // must be schedulable (max_initial_delay >= 0).  Processor-
  // independent, so check it once before any demand test.
  const auto& system = tables_->get(macroblocks_of(spec), table_budget);
  if (system->tables->max_initial_delay() < 0) return false;

  return sweep(preferred, [&](int p) {
    // An off-preferred host charges the migration surcharge on top of
    // the stream's own worst case.
    const sched::NpTask task{
        cost + (p != preferred ? config_.migration_cost : 0),
        latency_of(spec), period_of(spec)};
    if (!fits(p, task)) return false;
    commit_and_fill(spec, task, table_budget, p, preferred, system, out);
    return true;
  });
}

bool AdmissionController::try_place_renegotiating(const StreamSpec& spec,
                                                  rt::Cycles table_budget,
                                                  rt::Cycles cost,
                                                  int preferred,
                                                  Placement* out) {
  const auto& system = tables_->get(macroblocks_of(spec), table_budget);
  if (system->tables->max_initial_delay() < 0) return false;

  return sweep(preferred, [&](int p) {
    const sched::NpTask task{
        cost + (p != preferred ? config_.migration_cost : 0),
        latency_of(spec), period_of(spec)};
    auto& cs = committed_[static_cast<std::size_t>(p)];
    const std::vector<Commitment> saved = cs;

    // Shrink incumbents until the newcomer fits: pick the controlled
    // commitment with the largest budget headroom (ties to the lowest
    // stream id) and move it one certified ladder step down.  Every
    // step strictly lowers a budget, so the loop terminates; shrinking
    // only removes demand, so the surviving set stays schedulable.
    bool ok = fits(p, task);
    while (!ok) {
      Commitment* victim = nullptr;
      for (Commitment& c : cs) {
        if (!c.controlled || c.table_budget <= c.min_budget) continue;
        if (victim == nullptr ||
            c.table_budget - c.min_budget >
                victim->table_budget - victim->min_budget ||
            (c.table_budget - c.min_budget ==
                 victim->table_budget - victim->min_budget &&
             c.stream_id < victim->stream_id)) {
          victim = &c;
        }
      }
      if (victim == nullptr) break;  // all headroom exhausted

      rt::Cycles next = victim->min_budget;
      for (const rt::Cycles b : controlled_candidates(
               victim->macroblocks, victim->task.deadline,
               victim->task.period)) {
        if (b >= victim->table_budget) continue;
        if (tables_->get(victim->macroblocks, b)
                ->tables->max_initial_delay() < 0) {
          continue;  // uncertifiable rung: keep descending
        }
        next = b;
        break;
      }
      victim->table_budget = next;
      victim->task.cost = next + victim->migration_surcharge;
      demand_invalidate(p);
      ok = fits(p, task);
    }
    if (!ok) {
      cs = saved;  // roll back this processor's shrinks
      demand_invalidate(p);
      return false;
    }

    // Record one shrink per incumbent whose budget actually moved.
    for (std::size_t i = 0; i < cs.size(); ++i) {
      if (cs[i].table_budget == saved[i].table_budget) continue;
      BudgetRenegotiation r;
      r.stream_id = cs[i].stream_id;
      r.effective_time = spec.join_time;
      r.table_budget = cs[i].table_budget;
      r.committed_cost = cs[i].task.cost;
      r.system = tables_->get(cs[i].macroblocks, cs[i].table_budget);
      pending_renegotiations_.push_back(std::move(r));
    }

    commit_and_fill(spec, task, table_budget, p, preferred, system, out);
    out->via_renegotiation = true;
    return true;
  });
}

bool AdmissionController::try_place_split(const StreamSpec& spec,
                                          rt::Cycles table_budget,
                                          rt::Cycles cost, Placement* out) {
  if (!sched_.split || num_processors() < 2 || cost < 2) return false;
  const int mb = macroblocks_of(spec);
  const auto& system = tables_->get(mb, table_budget);
  if (system->tables->max_initial_delay() < 0) return false;

  const rt::Cycles latency = latency_of(spec);
  const rt::Cycles period = period_of(spec);
  for (int a = 0; a + 1 < num_processors(); ++a) {
    if (failed_[static_cast<std::size_t>(a)]) continue;
    // Largest zero-slack head piece processor `a` admits.  The
    // schedulability of (C1, D = C1, T = P) is not monotone in C1 in
    // general, so the binary search is a heuristic for picking C1 —
    // but every kept midpoint passed the real demand test, so the
    // chosen head is always genuinely admissible.
    rt::Cycles lo = 1;
    rt::Cycles hi = cost - 1;  // head < cost: a genuine split
    rt::Cycles head = 0;
    while (lo <= hi) {
      const rt::Cycles mid = lo + (hi - lo) / 2;
      if (fits(a, sched::NpTask{mid, mid, period})) {
        head = mid;
        lo = mid + 1;
      } else {
        hi = mid - 1;
      }
    }
    if (head <= 0) continue;

    // Shrinking the head moves cost and deadline of the tail by the
    // same amount (its slack is the constant K*P - C - migration), so
    // there is nothing to search on the tail side: try the remainder
    // on every higher-indexed processor.  The index order — head
    // below tail — is what lets the data plane simulate handoff
    // sources before sinks.
    const sched::NpTask tail{cost - head + config_.migration_cost,
                             latency - head, period};
    for (int b = a + 1; b < num_processors(); ++b) {
      if (failed_[static_cast<std::size_t>(b)]) continue;
      if (!fits(b, tail)) continue;

      const sched::NpTask head_task{head, head, period};
      Commitment piece;
      piece.stream_id = spec.id;
      piece.task = head_task;
      piece.controlled = false;  // split pieces never renegotiate
      piece.macroblocks = mb;
      piece.table_budget = table_budget;
      piece.min_budget = tables_->min_budget(mb);
      piece.desired_budget = table_budget;
      piece.migration_surcharge = 0;
      committed_[static_cast<std::size_t>(a)].push_back(piece);
      demand_invalidate(a);
      piece.task = tail;
      piece.migration_surcharge = config_.migration_cost;
      committed_[static_cast<std::size_t>(b)].push_back(piece);
      demand_invalidate(b);
      auto& hosts = host_of_[spec.id];
      hosts.push_back(a);
      hosts.push_back(b);
      ++split_count_;

      out->admitted = true;
      out->processor = a;
      out->tail_processor = b;
      out->split = true;
      out->head_cost = head;
      out->tail_cost = tail.cost;
      out->committed_cost = head + tail.cost;
      out->table_budget = table_budget;
      out->migrated = true;  // the frame crosses processors each period
      out->initial_quality = system->tables->initial_quality();
      out->system = system;
      return true;
    }
  }
  return false;
}

Placement AdmissionController::admit(const StreamSpec& spec,
                                     int preferred_processor) {
  QC_EXPECT(preferred_processor >= -1 &&
                preferred_processor < num_processors(),
            "preferred processor out of range");
  QC_EXPECT(macroblocks_of(spec) >= 1,
            "stream geometry must cover at least one macroblock");
  Placement out;

  const int mb = macroblocks_of(spec);
  const rt::Cycles latency = latency_of(spec);
  const rt::Cycles min_budget = tables_->min_budget(mb);

  if (spec.mode == pipe::ControlMode::kControlled) {
    const std::vector<rt::Cycles> candidates =
        controlled_candidates(mb, latency, period_of(spec));
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      if (try_place(spec, candidates[i], candidates[i], preferred_processor,
                    &out)) {
        out.degraded = i > 0;
        return out;
      }
      // C=D semi-partitioning before degradation: a budget no single
      // processor can host whole may still fit as head + tail pieces,
      // keeping the stream at this quality instead of dropping to the
      // next candidate.
      if (try_place_split(spec, candidates[i], candidates[i], &out)) {
        out.degraded = i > 0;
        return out;
      }
    }
    // Renegotiation is a last resort: the newcomer enters at its
    // cheapest budget — the qmin minimum, always last in the ladder
    // and always certifiable — which minimizes the shrink imposed on
    // incumbents.  Schedulability is monotone in the newcomer's cost,
    // so if that fails, every richer candidate fails too.
    if (sched_.renegotiate && !candidates.empty() &&
        try_place_renegotiating(spec, candidates.back(), candidates.back(),
                                preferred_processor, &out)) {
      out.degraded = candidates.size() > 1;
      return out;
    }
    out.reason = candidates.empty()
                     ? "latency window below the qmin worst case"
                     : "no processor can host any candidate budget";
    return out;
  }

  // Uncontrolled streams have no compiled occupancy bound below their
  // level's full worst case; commit that.  Feedback control may pick
  // any level, so it must be assumed to run at qmax.
  if (spec.mode == pipe::ControlMode::kConstantQuality &&
      (spec.constant_quality < 0 ||
       static_cast<std::size_t>(spec.constant_quality) >=
           tables_->num_quality_levels())) {
    // Reject here rather than clamp: the data plane's controller
    // would refuse the level anyway.
    out.reason = "constant quality level outside the system's Q";
    return out;
  }
  const std::size_t qi =
      spec.mode == pipe::ControlMode::kConstantQuality
          ? static_cast<std::size_t>(spec.constant_quality)
          : tables_->num_quality_levels() - 1;
  const rt::Cycles cost = tables_->worst_case_frame_cost(mb, qi);
  const rt::Cycles table_budget = std::max((latency / mb) * mb, min_budget);
  if (cost > latency) {
    out.reason = "worst-case frame cost exceeds the latency window";
    return out;
  }
  if (try_place(spec, table_budget, cost, preferred_processor, &out) ||
      try_place_split(spec, table_budget, cost, &out) ||
      (sched_.renegotiate &&
       try_place_renegotiating(spec, table_budget, cost,
                               preferred_processor, &out))) {
    // The slack-table prediction does not apply: an uncontrolled
    // stream encodes at its fixed level (resp. wherever feedback
    // drives it), not at what the tables would grant.
    out.initial_quality = qi;
    return out;
  }
  out.reason = "no processor can host the worst-case frame cost";
  return out;
}

std::vector<BudgetRenegotiation> AdmissionController::take_renegotiations() {
  return std::exchange(pending_renegotiations_, {});
}

void AdmissionController::release(int stream_id, rt::Cycles now) {
  // The host index narrows the sweep to the 1-2 processors actually
  // holding the stream; processing them in ascending index order keeps
  // restore_pass's renegotiation records in the same order the old
  // whole-fleet sweep produced.
  const auto hit = host_of_.find(stream_id);
  if (hit == host_of_.end()) return;  // unknown stream: no-op
  std::vector<int> procs = std::move(hit->second);
  host_of_.erase(hit);
  std::sort(procs.begin(), procs.end());
  procs.erase(std::unique(procs.begin(), procs.end()), procs.end());
  for (const int p : procs) {
    auto& cs = committed_[static_cast<std::size_t>(p)];
    const auto it = std::remove_if(cs.begin(), cs.end(),
                                   [stream_id](const Commitment& c) {
                                     return c.stream_id == stream_id;
                                   });
    if (it == cs.end()) continue;
    cs.erase(it, cs.end());
    demand_invalidate(p);
    if (sched_.restore) restore_pass(p, now);
  }
}

bool AdmissionController::set_schedulable(int p) const {
  CachedDemand& d = demand(p);
  if (d.util > config_.utilization_cap) return false;
  last_test_busy_ = 0;
  const sched::DemandQuery query{&scan_stats_, d.busy_hint,
                                 &last_test_busy_};
  return policy_.schedulable(d.tasks, query);
}

void AdmissionController::restore_pass(int p, rt::Cycles now) {
  // A dead processor serves nothing: growing its residents' budgets
  // would only inflate commitments the failure handler is about to
  // release.
  if (failed_[static_cast<std::size_t>(p)]) return;
  // Inverse of the shrink loop in try_place_renegotiating: grow the
  // incumbent with the largest deficit below the budget it was
  // admitted at (ties to the lowest stream id) one certified ladder
  // rung, keep it if the processor stays schedulable, and stop
  // considering a stream whose next rung does not fit (larger rungs
  // only demand more).  Each iteration either raises a budget or
  // retires a stream, so the loop terminates.
  auto& cs = committed_[static_cast<std::size_t>(p)];
  std::vector<bool> retired(cs.size(), false);
  std::vector<rt::Cycles> grown_from(cs.size(), 0);
  std::vector<bool> grown(cs.size(), false);
  for (;;) {
    std::size_t victim = cs.size();
    for (std::size_t i = 0; i < cs.size(); ++i) {
      const Commitment& c = cs[i];
      if (retired[i] || !c.controlled ||
          c.table_budget >= c.desired_budget) {
        continue;
      }
      if (victim == cs.size() ||
          c.desired_budget - c.table_budget >
              cs[victim].desired_budget - cs[victim].table_budget ||
          (c.desired_budget - c.table_budget ==
               cs[victim].desired_budget - cs[victim].table_budget &&
           c.stream_id < cs[victim].stream_id)) {
        victim = i;
      }
    }
    if (victim == cs.size()) break;  // nothing left below its target

    Commitment& c = cs[victim];
    // Smallest certified rung strictly above the current budget (the
    // candidate ladder is sorted richest first), capped at the budget
    // the stream was admitted with.
    rt::Cycles next = c.desired_budget;
    for (const rt::Cycles b :
         controlled_candidates(c.macroblocks, c.task.deadline,
                               c.task.period)) {
      if (b <= c.table_budget || b > c.desired_budget) continue;
      if (tables_->get(c.macroblocks, b)->tables->max_initial_delay() <
          0) {
        continue;  // uncertifiable rung
      }
      next = b;
    }
    const rt::Cycles saved_budget = c.table_budget;
    const rt::Cycles saved_cost = c.task.cost;
    c.table_budget = next;
    c.task.cost = next + c.migration_surcharge;
    demand_invalidate(p);
    if (!set_schedulable(p)) {
      c.table_budget = saved_budget;
      c.task.cost = saved_cost;
      demand_invalidate(p);
      retired[victim] = true;
      continue;
    }
    if (!grown[victim]) {
      grown[victim] = true;
      grown_from[victim] = saved_budget;
    }
  }

  // One grow record per stream whose budget actually moved.
  for (std::size_t i = 0; i < cs.size(); ++i) {
    if (!grown[i] || cs[i].table_budget == grown_from[i]) continue;
    BudgetRenegotiation r;
    r.stream_id = cs[i].stream_id;
    r.effective_time = now;
    r.table_budget = cs[i].table_budget;
    r.committed_cost = cs[i].task.cost;
    r.grow = true;
    r.system = tables_->get(cs[i].macroblocks, cs[i].table_budget);
    pending_renegotiations_.push_back(std::move(r));
  }
}

}  // namespace qosctrl::farm
