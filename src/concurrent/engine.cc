#include "concurrent/engine.h"

#include <algorithm>
#include <utility>

#include "audit/validate.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "proc/cache_invalidate.h"
#include "proc/strategy.h"
#include "proc/update_cache_rvm.h"
#include "storage/disk.h"
#include "util/logging.h"

namespace procsim::concurrent {
namespace {

obs::Counter* const g_accesses =
    obs::GlobalMetrics().RegisterCounter("concurrent.engine.accesses");
obs::Counter* const g_mutations =
    obs::GlobalMetrics().RegisterCounter("concurrent.engine.mutations");
obs::Histogram* const g_access_cost = obs::GlobalMetrics().RegisterHistogram(
    "concurrent.engine.access_cost_ms", obs::DefaultCostBuckets());

}  // namespace

Result<std::unique_ptr<Engine>> Engine::Create(const Options& options) {
  auto engine = std::unique_ptr<Engine>(new Engine());
  Result<std::unique_ptr<sim::Database>> built =
      sim::BuildDatabase(options.params, options.model, options.seed);
  if (!built.ok()) return built.status();
  engine->db_ = built.TakeValueOrDie();
  Result<sim::StrategySet> strategies = sim::MakeAllStrategies(
      engine->db_.get(), options.params, options.model, options.config);
  if (!strategies.ok()) return strategies.status();
  engine->strategies_ = strategies.TakeValueOrDie();
  const std::size_t stripes = std::max<std::size_t>(
      1, std::min(options.config.shards, engine->db_->procedures.size()));
  engine->slot_stripes_ = std::make_unique<util::LatchStripes>(
      util::LatchRank::kStrategySlot, "Engine::slot", stripes);
  engine->wal_ = std::make_unique<storage::WriteAheadLog>(
      &engine->db_->meter, options.config.wal_force_cost_ms);
  // kBlock: every session transaction locks exactly one granule (R1) once,
  // so plain blocking is provably deadlock-free here.
  engine->locks_ =
      std::make_unique<txn::LockManager>(txn::LockManager::DeadlockPolicy::kBlock);
  engine->txns_ = std::make_unique<txn::TxnManager>(
      engine->wal_.get(), engine->locks_.get(), &engine->db_->meter,
      txn::TxnManager::Options{options.config.group_commit_size});
  return engine;
}

std::size_t Engine::procedure_count() const { return db_->procedures.size(); }

Result<std::string> Engine::Access(uint64_t access_id) {
  const txn::TxnId txn = txns_->Begin();
  Status lock = locks_->Acquire(txn, txn::Granule::Relation("R1"),
                                txn::LockMode::kShared);
  if (!lock.ok()) {
    txns_->Abort(txn);
    return lock;
  }
  Result<std::string> result = [&]() -> Result<std::string> {
    const auto id =
        static_cast<proc::ProcId>(access_id % db_->procedures.size());
    g_accesses->Add();
    obs::TraceSpan span("concurrent.engine.access", "concurrent");
    util::RankedSharedLockGuard db_guard(db_latch_);
    // The slot stripe serializes concurrent refreshes of the same cache
    // slot (e.g. two sessions both finding CacheInvalidate's entry
    // invalid).
    util::RankedLockGuard slot_guard(slot_stripes_->For(id));

    // Metered cost of this access across all six strategies (total_ms is
    // an atomic, so concurrent sessions perturb each other's deltas only
    // by their own charges — the histogram is exact in barrier-stepped
    // mode).
    const double before_ms = db_->meter.total_ms();
    std::string expected;
    bool first = true;
    for (const std::unique_ptr<proc::Strategy>& strategy : strategies_.all) {
      Result<std::vector<rel::Tuple>> answer = strategy->Access(id);
      if (!answer.ok()) {
        return Status::Internal(strategy->name() + " failed accessing " +
                                db_->procedures[id].name + ": " +
                                answer.status().ToString());
      }
      std::string digest = sim::CanonicalResultBytes(answer.ValueOrDie());
      if (first) {
        expected = std::move(digest);
        first = false;
      } else if (digest != expected) {
        return Status::Internal(strategy->name() + " diverged on " +
                                db_->procedures[id].name +
                                " under concurrent access");
      }
    }
    g_access_cost->Observe(db_->meter.total_ms() - before_ms);
    return expected;
  }();
  // Session latches are released; the read-only commit just retires the
  // transaction (its lock was released at commit-enqueue).
  if (!result.ok()) {
    txns_->Abort(txn);
    return result;
  }
  PROCSIM_RETURN_IF_ERROR(txns_->Commit(txn, nullptr));
  return result;
}

Status Engine::Mutate(const sim::WorkloadOp& op, const sim::WorkloadMix& mix) {
  PROCSIM_CHECK(op.value != 0)
      << "engine mutations must be op-seeded (value != 0)";
  g_mutations->Add();
  const txn::TxnId txn = txns_->Begin();
  Status st = locks_->Acquire(txn, txn::Granule::Relation("R1"),
                              txn::LockMode::kExclusive);
  if (!st.ok()) {
    txns_->Abort(txn);
    return st;
  }
  st = txns_->QueueOp(txn, op);
  if (!st.ok()) {
    txns_->Abort(txn);
    return st;
  }
  // The apply hook runs at the group flush — immediately with the default
  // group_commit_size of 1, batched otherwise.
  return txns_->Commit(
      txn, [this, mix](txn::TxnId, const std::vector<sim::WorkloadOp>& ops) {
        return ApplyOps(ops, mix);
      });
}

Status Engine::ApplyOps(const std::vector<sim::WorkloadOp>& ops,
                        const sim::WorkloadMix& mix) {
  obs::TraceSpan span("concurrent.engine.mutate", "concurrent");
  util::RankedLockGuard db_guard(db_latch_);
  return sim::ApplyTransaction(db_.get(), ops, mix, /*inline_rng=*/nullptr,
                               strategies_.List())
      .status();
}

Status Engine::ValidateAtQuiesce() {
  PROCSIM_CHECK_EQ(util::internal::HeldCount(), 0u)
      << "quiescent validation with latches held";
  // Retire any partially filled commit group so the validated state is the
  // fully committed one, then check the log's own invariants.
  PROCSIM_RETURN_IF_ERROR(txns_->Flush());
  PROCSIM_RETURN_IF_ERROR(wal_->CheckConsistency());
  for (proc::ProcId id = 0; id < db_->procedures.size(); ++id) {
    std::string expected;
    {
      storage::MeteringGuard guard(db_->disk.get());
      Result<std::vector<rel::Tuple>> oracle =
          db_->executor->Execute(db_->procedures[id].query);
      PROCSIM_RETURN_IF_ERROR(oracle.status());
      expected = sim::CanonicalResultBytes(oracle.ValueOrDie());
    }
    for (const std::unique_ptr<proc::Strategy>& strategy : strategies_.all) {
      Result<std::vector<rel::Tuple>> answer = strategy->Access(id);
      PROCSIM_RETURN_IF_ERROR(answer.status());
      if (sim::CanonicalResultBytes(answer.ValueOrDie()) != expected) {
        return Status::Internal(strategy->name() + " diverged on " +
                                db_->procedures[id].name +
                                " at quiesce after concurrent run");
      }
    }
  }
  PROCSIM_RETURN_IF_ERROR(audit::ValidateCatalog(*db_->catalog));
  if (strategies_.rvm->network() != nullptr) {
    PROCSIM_RETURN_IF_ERROR(
        audit::ValidateReteNetwork(*strategies_.rvm->network()));
  }
  PROCSIM_RETURN_IF_ERROR(audit::ValidateILockTable(
      strategies_.cache_invalidate->lock_table(), db_->procedures.size()));
  PROCSIM_RETURN_IF_ERROR(audit::ValidateInvalidationLog(
      strategies_.cache_invalidate->validity_log()));
  PROCSIM_RETURN_IF_ERROR(
      audit::ValidateCacheBudget(*strategies_.budget));
  return Status::OK();
}

}  // namespace procsim::concurrent
