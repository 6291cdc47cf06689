// Simulation configuration. Defaults reproduce the paper's Table III.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace suvtm::sim {

/// Which version-management scheme the HTM runs. The paper's comparison set.
enum class Scheme {
  kLogTmSe,    ///< undo log, in-place update, software abort walk
  kFasTm,      ///< new values in L1, fast abort, degenerates on overflow
  kSuv,        ///< single-update redirection (this paper's contribution)
  kDynTm,      ///< history-selected eager/lazy, FasTM version management
  kDynTmSuv,   ///< DynTM with SUV as its version-management scheme
};

/// One row of the scheme table: the single source of truth for how a scheme
/// is spelled everywhere (reports, traces, CLI flags, equivalence output).
struct SchemeInfo {
  Scheme scheme;
  const char* name;      ///< display name, e.g. "SUV-TM"
  const char* cli_name;  ///< flag-friendly spelling, e.g. "suv"
};

/// All schemes, in enum order (defined next to the factory in vm/factory.cpp
/// so adding a scheme touches exactly one file).
const std::vector<SchemeInfo>& scheme_table();
const std::vector<Scheme>& all_schemes();
const char* scheme_name(Scheme s);
const char* scheme_cli_name(Scheme s);
/// Accepts either spelling from the table (case-sensitive). Returns false
/// and leaves `*out` untouched on an unknown name.
bool scheme_from_string(std::string_view s, Scheme* out);

/// Memory-hierarchy parameters (paper Table III).
///
/// Geometry: core c sits on mesh tile c, and tiles fill `mesh_dim`-wide
/// rows (tile t is at column t % mesh_dim, row t / mesh_dim). L2 banks
/// interleave by line address over the first mesh_dim^2 tiles. num_cores
/// may exceed mesh_dim^2: the extra cores occupy further rows below the
/// square that holds the banks (the 32-core sharded machine does this on
/// the default 4-wide mesh).
struct MemParams {
  std::uint32_t num_cores = 16;        // 4x4 mesh
  std::uint32_t mesh_dim = 4;

  std::uint32_t l1_bytes = 32 * 1024;  // 32 KB
  std::uint32_t l1_assoc = 4;
  Cycle l1_latency = 1;

  std::uint32_t l2_bytes = 8 * 1024 * 1024;  // 8 MB shared
  std::uint32_t l2_assoc = 8;
  Cycle l2_latency = 15;

  Cycle directory_latency = 6;
  Cycle memory_latency = 150;

  Cycle mesh_wire_latency = 2;   // per hop
  Cycle mesh_route_latency = 1;  // per hop

  std::uint32_t tlb_entries = 64;
  Cycle tlb_miss_latency = 30;
};

/// How a detected conflict is resolved (paper Section III).
enum class ConflictPolicy {
  /// LogTM Stall policy: the requester stalls; deadlock cycles abort the
  /// youngest transaction. The paper's default for all experiments.
  kRequesterStalls,
  /// The paper's stated alternative: "make the receiving core stall or
  /// abort its transaction to guarantee the execution of the requester's
  /// transaction". The holder is doomed; the requester proceeds after the
  /// holder's isolation clears.
  kRequesterWins,
};

/// HTM-wide parameters (signatures, conflict handling, scheme cost knobs).
struct HtmParams {
  std::uint32_t signature_bits = 2048;  // 2 Kbit Bloom filters
  std::uint32_t signature_hashes = 2;
  ConflictPolicy conflict_policy = ConflictPolicy::kRequesterStalls;

  Cycle stall_retry_interval = 20;   // re-issue a NACKed request
  Cycle backoff_base = 40;           // exponential backoff after abort
  Cycle backoff_cap = 4096;
  Cycle checkpoint_latency = 1;      // register snapshot / restore

  // LogTM-SE cost model: each first transactional store to a word performs
  // one extra load (old value) and one store (log append); every 8th log
  // entry opens a new log cache line.
  Cycle log_store_extra = 2;
  Cycle log_new_line_extra = 16;
  // Software abort handler: trap entry plus a per-entry restore walk.
  Cycle abort_trap_latency = 200;
  Cycle abort_per_entry = 8;

  // FasTM: first write to an L1-dirty line writes the old line back to L2.
  Cycle fastm_writeback_extra = 21;  // dir(6) + L2(15)
  Cycle fastm_begin_extra = 10;      // write back shared dirty data at begin
  Cycle fastm_flash_abort = 8;       // flash-invalidate SM lines
  Cycle fastm_flash_commit = 4;      // flash-clear SM bits

  // DynTM lazy mode.
  Cycle dyntm_arbitration = 30;      // commit-token acquisition
  Cycle dyntm_publish_per_line = 21; // per write-set line publication (FasTM VM)
  Cycle dyntm_lazy_abort = 10;       // discard redo buffer
  std::uint32_t dyntm_selector_bits = 2;
};

/// SUV parameters (paper Sections III-IV, Table III).
struct SuvParams {
  std::uint32_t l1_table_entries = 512;   // fully associative, zero latency
  Cycle l1_table_latency = 0;
  std::uint32_t l2_table_entries = 16384; // 8-way shared
  std::uint32_t l2_table_assoc = 8;
  Cycle l2_table_latency = 10;
  Cycle misspeculation_penalty = 100;     // wrong speculative use of original

  std::uint32_t summary_signature_bits = 2048;
  std::uint32_t summary_signature_hashes = 2;

  Cycle redirect_copy_latency = 1;  // in-cache line copy on (re)direction
  Cycle flash_commit = 2;           // flip transient entries + sig update
  Cycle flash_abort = 2;
};

/// Env-var gate for the check and observability switches: set (non-empty,
/// not "0") means enabled. Lets the same binary serve both the plain and
/// the `_checked` ctest variants.
inline bool env_flag(const char* var) {
  // lint: allow(wallclock-entropy): deliberate config gate -- selects
  // which subsystems run, never a simulated value
  const char* e = std::getenv(var);
  return e != nullptr && *e != '\0' && !(e[0] == '0' && e[1] == '\0');
}

/// Runtime knobs for the correctness-checking subsystem (src/check). Only
/// consulted when the hooks were compiled in (-DSUVTM_CHECK=ON); with the
/// hooks compiled out this block is inert.
struct CheckParams {
  /// Master switch: record the access history, run the serializability
  /// oracle at end of run, and audit structural invariants while running.
  /// Defaults from the SUVTM_CHECK env var.
  bool enabled = env_flag("SUVTM_CHECK");
  /// Sampling period for the full structural audits: run them every this
  /// many commit completions (0 disables sampling; they always run once
  /// more at end of run). Sampling trades detection *latency*, not
  /// soundness: structural corruption is persistent state, so it is caught
  /// at the next sampled boundary or at finalize -- within N commits of
  /// its first observable effect. Mutation/negative tests pin this to 1 so
  /// a corrupted state can never slip through a sampled window.
  std::uint32_t audit_period = 512;
  /// Audit the abort-touched structures (signatures + SUV tables) after
  /// every abort, independent of the sampling period: aborts are where
  /// version-management bugs surface and they are rare enough to afford it.
  bool audit_on_abort = true;
  /// Differential-testing baseline: retain the whole history and replay it
  /// only at finalize() instead of streaming at the serialization horizon.
  /// Slower and unbounded in memory; used by the equivalence suite to prove
  /// the incremental oracle's verdicts identical.
  bool reference = false;
};

/// Runtime knobs for the observability subsystem (src/obs). Only consulted
/// when the hooks were compiled in (-DSUVTM_OBS=ON); with the hooks compiled
/// out this block is inert. A Recorder is created iff trace or metrics is
/// set, so the default-off config costs one never-taken branch per hook.
struct ObsParams {
  /// Record lifecycle spans, conflict edges and structure events for the
  /// Chrome-trace exporter. Defaults from the SUVTM_TRACE env var.
  bool trace = env_flag("SUVTM_TRACE");
  /// Fill the metrics registry and harvest a MetricsSnapshot into the
  /// RunResult. Defaults from the SUVTM_METRICS env var.
  bool metrics = env_flag("SUVTM_METRICS");
  /// Hard cap on recorded trace events per run (overflow counts `dropped`).
  std::uint64_t max_trace_events = 1ull << 20;

  bool enabled() const { return trace || metrics; }
};

/// Sharded conservative-PDES parameters (DESIGN.md section 14).
///
/// `shards` is a *semantic* knob: it declares the simulated machine as a
/// partitioned one (each shard owns a contiguous block of cores plus its
/// own slice of the memory hierarchy and HTM state, the way a tablet cell
/// owns its key range in a distributed store). shards == 1 is exactly the
/// classic monolithic machine. `host_threads` is a pure *execution* knob:
/// at a fixed shard count, every RunResult/trace/metrics byte is identical
/// for any host_threads value -- domains are simulated independently and
/// merged in fixed shard order, so host threading can never reorder events.
struct PdesParams {
  /// Simulated-machine shards. Must divide mem.num_cores. Workloads built
  /// for a sharded machine must keep transactions and stores shard-local;
  /// cross-shard traffic is limited to non-transactional reads, which
  /// travel through window-boundary mailboxes (checked builds throw
  /// check::CheckFailure on violations).
  std::uint32_t shards = 1;
  /// Host threads driving the shard schedulers (--sim-threads /
  /// SUVTM_SIM_THREADS). Clamped to `shards`; ignored when shards == 1.
  /// No semantic effect by construction.
  std::uint32_t host_threads = 1;
};

struct SimConfig {
  Scheme scheme = Scheme::kSuv;
  MemParams mem;
  HtmParams htm;
  SuvParams suv;
  PdesParams pdes;
  CheckParams check;
  ObsParams obs;
  std::uint64_t seed = 1;
  /// Safety valve: abort the simulation if it exceeds this many cycles.
  Cycle max_cycles = 5'000'000'000ull;
};

/// The one place that decides whether a config can run. Throws
/// std::invalid_argument whose message starts with the offending field's
/// path (e.g. "mem.l1_assoc = 3 ..."); returns normally otherwise. The
/// Simulator constructor calls it, so every run is checked. The rules are
/// listed in DESIGN.md ("Configuration").
void validate(const SimConfig& cfg);

}  // namespace suvtm::sim
