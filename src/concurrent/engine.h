#ifndef PROCSIM_CONCURRENT_ENGINE_H_
#define PROCSIM_CONCURRENT_ENGINE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "sim/workload.h"
#include "txn/engine.h"
#include "util/status.h"

namespace procsim::concurrent {

/// \brief The session layer: many client sessions serve procedures and
/// apply updates through one shared txn::TxnEngine.
///
/// The paper's engine is single-user; the TxnEngine below adds the
/// latching a real procedure cache needs when several sessions read and
/// update at once, without changing any answer.  Accesses take its
/// database latch SHARED and then the procedure's slot stripe EXCLUSIVE;
/// the group-flush apply takes the database latch EXCLUSIVE.  Latch order
/// follows LatchRank (latch_rank_test plants an inversion to prove the
/// checker would catch one).
///
/// Each call is one transaction: Access is Begin → TxnEngine::Access →
/// Commit; Mutate is Begin → Queue → Commit.  Every session transaction
/// locks R1 once, so the engine runs the kBlock deadlock policy — blocking
/// cannot cycle, and wound-wait would abort sessions that did nothing
/// wrong.  With the default group_commit_size of 1 a mutation is applied
/// inside Mutate; larger groups defer it to the group flush (sessions
/// observe the committed prefix, the trade fig21 measures).  The
/// TxnEngine mirrors CacheInvalidate's validity transitions into the WAL,
/// so the log this engine leaves behind recovers with TxnEngine::Recover.
class Engine {
 public:
  struct Options {
    cost::Params params;
    cost::ProcModel model = cost::ProcModel::kModel1;
    uint64_t seed = 42;
    /// One sharding dimension for the whole engine: slot stripes (capped by
    /// procedure count), i-lock shards and cache-budget shards all flow
    /// from `config.shards`; `config.cache_budget_bytes` caps the cached
    /// results (0 = unlimited).
    proc::EngineConfig config;
  };

  /// Builds the database and all six strategies (single-threaded).
  static Result<std::unique_ptr<Engine>> Create(const Options& options);

  /// Serves procedure `access_id % procedure_count`: every strategy answers
  /// and all answers must agree byte-for-byte; returns the canonical result
  /// bytes (sim::CanonicalResultBytes).  Safe to call from many sessions.
  Result<std::string> Access(uint64_t access_id);

  /// Commits one mutation op, applied under `mix` at the group flush.
  /// Op-seeded ops only (value != 0): the engine has no inline RNG because
  /// interleaving across sessions is nondeterministic.
  Status Mutate(const sim::WorkloadOp& op, const sim::WorkloadMix& mix);

  /// Single-threaded quiescent sweep: flushes the last commit group, checks
  /// the WAL, compares every strategy's answer for every procedure against
  /// the from-scratch oracle and runs the structure validators.  Call only
  /// when no session is in flight (checked: aborts if the calling thread
  /// holds any latch).
  Status ValidateAtQuiesce();

  /// Latch-free: the procedure set is fixed at Create() time.
  std::size_t procedure_count() const { return engine_->procedure_count(); }

  /// Quiescent-only (setup/teardown escape hatch).
  sim::Database* database() { return engine_->database(); }

  /// The shared cache budget (quiescent-only, same escape hatch as
  /// database()).
  proc::CacheBudget* cache_budget() {
    return engine_->strategies().budget.get();
  }

  /// The engine's write-ahead log (safe concurrently: the WAL has its own
  /// latch).
  const storage::WriteAheadLog& wal() const { return engine_->wal(); }

 private:
  explicit Engine(std::unique_ptr<txn::TxnEngine> engine)
      : engine_(std::move(engine)) {}

  const std::unique_ptr<txn::TxnEngine> engine_;
};

}  // namespace procsim::concurrent

#endif  // PROCSIM_CONCURRENT_ENGINE_H_
