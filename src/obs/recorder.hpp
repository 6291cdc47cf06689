// Recorder: the per-Simulator observability hub every SUVTM_OBS_HOOK calls
// into. Owns one Tracer and one Metrics registry, caches the scheduler's
// current cycle (structures like the conflict manager and the redirect
// table have no clock of their own), and drives the periodic occupancy
// sampler. One Recorder per Simulator keeps parallel experiment runs fully
// isolated, which is what makes traces submission-order deterministic.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/types.hpp"
#include "htm/abort_cause.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/config.hpp"

namespace suvtm::obs {

class Recorder {
 public:
  Recorder(const sim::ObsParams& params, std::uint32_t num_cores);

  /// Occupancy gauges are sampled every this many scheduler events.
  static constexpr std::uint32_t kSampleIntervalEvents = 8192;

  bool tracing() const { return trace_on_; }
  Metrics& metrics() { return metrics_; }
  const Metrics& metrics() const { return metrics_; }
  const TraceData& trace() const { return tracer_.data(); }
  TraceData take_trace() { return tracer_.take(); }

  /// Gauge sampler, invoked every kSampleIntervalEvents scheduler events.
  /// Installed by the Simulator (it knows which structures exist).
  using Sampler = std::function<void(Metrics&, Cycle)>;
  void set_sampler(Sampler s) { sampler_ = std::move(s); }

  // ---- sim/scheduler ------------------------------------------------------
  /// One call per drained bucket: advances the cycle cache once for the
  /// whole batch and pays the sampler countdown `n` events at a time.
  void on_batch(Cycle t, std::uint64_t n) {
    now_ = t;
    while (n >= sample_countdown_) {
      n -= sample_countdown_;
      sample_countdown_ = kSampleIntervalEvents;
      if (sampler_) sampler_(metrics_, now_);
    }
    sample_countdown_ -= static_cast<std::uint32_t>(n);
  }

  /// A fast-path event completed without a scheduler round trip; it still
  /// advances the sampler deadline (the cycle cache is already current).
  void on_inline_event() {
    if (--sample_countdown_ == 0) {
      sample_countdown_ = kSampleIntervalEvents;
      if (sampler_) sampler_(metrics_, now_);
    }
  }

  // ---- sim/thread_context: txn lifecycle ----------------------------------
  void on_txn_begin(CoreId c, Cycle t, std::uint32_t site,
                    std::uint64_t attempt);
  void on_commit_window(CoreId c, Cycle t, Cycle window);
  void on_txn_commit(CoreId c, Cycle t, std::uint64_t write_lines);
  void on_abort_window(CoreId c, Cycle t, Cycle window, htm::AbortCause cause);
  void on_txn_abort(CoreId c, Cycle t);
  void on_stall(CoreId c, Cycle t, CoreId holder, LineAddr line, Cycle wait);
  void on_access_granted(CoreId c, Cycle t) {
    if (cores_[c].stall_open) close_stall(c, t);
  }
  void on_backoff(CoreId c, Cycle t, Cycle wait);

  // ---- htm/htm_system -----------------------------------------------------
  void on_suspend(CoreId c);
  void on_resume(CoreId c);

  // ---- htm/conflict_manager, vm/dyntm: conflict edges ---------------------
  void on_conflict_edge(CoreId aborter, CoreId victim, LineAddr line,
                        std::uint32_t victim_site, htm::AbortCause cause);

  // ---- vm schemes ---------------------------------------------------------
  void on_degeneration(CoreId c);
  void on_undo_walk(std::uint64_t entries);
  void on_suv_flash(CoreId c, bool commit, std::uint64_t entries);

  // ---- suv structures -----------------------------------------------------
  void on_table_spill(LineAddr line, CoreId owner);
  void on_pool_page(CoreId owner);
  void on_summary_add();
  void on_summary_remove(bool stale);

  // ---- mem ----------------------------------------------------------------
  void on_l1_miss(Cycle latency);
  void on_cache_evict(bool l2, LineAddr victim);
  void on_dir_drop();
  void on_spec_eviction(CoreId c, LineAddr line);

 private:
  void emit(const TraceEvent& e) {
    if (trace_on_) tracer_.emit(e);
  }
  void close_stall(CoreId c, Cycle t);

  /// Per-core open-span state; spans are emitted on close so the event log
  /// stays append-only.
  struct CoreSpans {
    Cycle txn_start = 0;
    std::uint32_t site = 0;
    std::uint32_t attempt = 0;
    htm::AbortCause pending_cause = htm::AbortCause::kNone;
    bool txn_open = false;
    Cycle stall_start = 0;
    CoreId stall_holder = kNoCore;
    LineAddr stall_line = 0;
    bool stall_open = false;
  };

  bool trace_on_ = false;
  std::uint32_t sample_countdown_ = kSampleIntervalEvents;
  Cycle now_ = 0;
  Tracer tracer_;
  Metrics metrics_;
  std::vector<CoreSpans> cores_;
  Sampler sampler_;
};

}  // namespace suvtm::obs
