#include "concurrent/engine.h"

#include <utility>

#include "audit/validate.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/latch.h"
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
  txn::TxnEngine::Options txn_options;
  txn_options.params = options.params;
  txn_options.model = options.model;
  txn_options.seed = options.seed;
  txn_options.config = options.config;
  txn_options.deadlock_policy = txn::LockManager::DeadlockPolicy::kBlock;
  Result<std::unique_ptr<txn::TxnEngine>> built =
      txn::TxnEngine::Create(txn_options);
  if (!built.ok()) return built.status();
  return std::unique_ptr<Engine>(new Engine(built.TakeValueOrDie()));
}

Result<std::string> Engine::Access(uint64_t access_id) {
  g_accesses->Add();
  obs::TraceSpan span("concurrent.engine.access", "concurrent");
  const txn::TxnId txn = engine_->Begin();
  // Metered cost of this access across all six strategies (total_ms is an
  // atomic, so concurrent sessions perturb each other's deltas only by
  // their own charges — the histogram is exact in barrier-stepped mode).
  const CostMeter& meter = engine_->database()->meter;
  const double before_ms = meter.total_ms();
  Result<std::string> result = engine_->Access(txn, access_id);
  if (!result.ok()) {
    engine_->Abort(txn);
    return result;
  }
  g_access_cost->Observe(meter.total_ms() - before_ms);
  // A read-only commit applies nothing, so the mix is never read.
  PROCSIM_RETURN_IF_ERROR(engine_->Commit(txn, engine_->options().mix));
  return result;
}

Status Engine::Mutate(const sim::WorkloadOp& op, const sim::WorkloadMix& mix) {
  PROCSIM_CHECK(op.value != 0)
      << "engine mutations must be op-seeded (value != 0)";
  g_mutations->Add();
  obs::TraceSpan span("concurrent.engine.mutate", "concurrent");
  const txn::TxnId txn = engine_->Begin();
  if (Status queued = engine_->Queue(txn, op); !queued.ok()) {
    engine_->Abort(txn);
    return queued;
  }
  return engine_->Commit(txn, mix);
}

Status Engine::ValidateAtQuiesce() {
  PROCSIM_CHECK_EQ(util::internal::HeldCount(), 0u)
      << "quiescent validation with latches held";
  PROCSIM_RETURN_IF_ERROR(engine_->Flush());
  PROCSIM_RETURN_IF_ERROR(engine_->wal().CheckConsistency());
  PROCSIM_RETURN_IF_ERROR(engine_->CompareAllAgainstOracle());
  return audit::ValidateStructures(*engine_->database(),
                                   engine_->strategies());
}

}  // namespace procsim::concurrent
