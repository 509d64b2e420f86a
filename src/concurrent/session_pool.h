#ifndef PROCSIM_CONCURRENT_SESSION_POOL_H_
#define PROCSIM_CONCURRENT_SESSION_POOL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "concurrent/engine.h"
#include "sim/workload.h"
#include "util/status.h"

namespace procsim::concurrent {

/// \brief N client sessions driving one shared Engine, each replaying a
/// seeded per-session workload stream of accesses and update transactions.
/// Every op is one transaction on the Engine's txn::TxnEngine.
///
/// Two execution modes:
///
///  - **Deterministic** (`deterministic = true`): worker threads execute
///    real ops on real threads, but a seeded coordinator hands out turns
///    one at a time — a barrier-stepped round-robin whose schedule is a
///    pure function of the seed.  The coordinator records the merged op
///    order and the canonical result bytes of every access; replaying the
///    merged stream through the single-threaded differential oracle
///    (audit::RunOpStream) must produce byte-identical digests.  This is
///    the equivalence proof between the concurrent engine and the paper's
///    single-user semantics.
///  - **Free-running** (`deterministic = false`): sessions run full speed
///    with no coordination beyond the TxnEngine's locks and latches.
///    Interleaving is whatever the scheduler gives; correctness is checked
///    per access (all strategies agree) and by a full oracle sweep at
///    quiesce.  This mode is what the TSan-gated stress test exercises.
class SessionPool {
 public:
  struct Options {
    Engine::Options engine;
    /// Number of worker sessions.
    std::size_t sessions = 4;
    /// Ops each session executes.
    std::size_t ops_per_session = 64;
    /// Per-op mix for each session's workload stream.
    sim::WorkloadMix mix;
    bool deterministic = false;
  };

  /// What a completed run observed.
  struct RunResult {
    /// Ops in executed order.  Free-running mode: per-session streams
    /// concatenated (the true interleaving is not recorded).
    /// Deterministic mode: the merged schedule, suitable for replay
    /// through audit::RunOpStream.
    std::vector<sim::WorkloadOp> executed;
    /// Canonical result bytes of each access, in `executed` order
    /// (deterministic mode only).
    std::vector<std::string> access_digests;
    std::size_t accesses = 0;
    std::size_t mutations = 0;
    /// Metered cost of the whole run (all sessions, all strategies).
    double total_cost_ms = 0;
    /// Cache-budget state at quiesce: bytes held and evictions performed.
    std::size_t budget_accounted_bytes = 0;
    uint64_t budget_evictions = 0;
  };

  /// Builds the engine, runs all sessions to completion, joins, and
  /// validates at quiesce.  Per-session streams are derived from
  /// options.engine.seed, so a run is reproducible given its options.
  static Result<RunResult> Run(const Options& options);
};

}  // namespace procsim::concurrent

#endif  // PROCSIM_CONCURRENT_SESSION_POOL_H_
