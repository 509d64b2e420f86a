#include "sim/workload.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <string>

#include "proc/strategy.h"
#include "util/logging.h"

namespace procsim::sim {
namespace {

cost::Params TinyParams() {
  cost::Params p;
  p.N = 1000;
  p.N1 = 8;
  p.N2 = 8;
  p.f = 0.02;   // 20-key intervals
  p.f2 = 0.25;
  p.SF = 0.5;
  return p;
}

TEST(WorkloadBuilderTest, RelationSizesMatchParameters) {
  Result<std::unique_ptr<Database>> built =
      BuildDatabase(TinyParams(), cost::ProcModel::kModel1, 1);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  Database& db = *built.ValueOrDie();
  EXPECT_EQ(db.catalog->GetRelation("R1").ValueOrDie()->tuple_count(), 1000u);
  EXPECT_EQ(db.catalog->GetRelation("R2").ValueOrDie()->tuple_count(), 100u);
  EXPECT_EQ(db.catalog->GetRelation("R3").ValueOrDie()->tuple_count(), 100u);
  EXPECT_EQ(db.r1_rids.size(), 1000u);
  // Clustered: 1000 tuples at 40/page = 25 heap pages.
  EXPECT_EQ(db.catalog->GetRelation("R1").ValueOrDie()->heap_page_count(),
            25u);
}

TEST(WorkloadBuilderTest, ProcedurePopulationAndShapes) {
  Result<std::unique_ptr<Database>> built =
      BuildDatabase(TinyParams(), cost::ProcModel::kModel1, 2);
  ASSERT_TRUE(built.ok());
  Database& db = *built.ValueOrDie();
  ASSERT_EQ(db.procedures.size(), 16u);
  std::size_t selections = 0;
  std::size_t joins = 0;
  for (const auto& procedure : db.procedures) {
    // Ids are dense and match positions after the shuffle.
    EXPECT_EQ(procedure.id, static_cast<std::size_t>(&procedure - db.procedures.data()));
    if (procedure.IsSelectionOnly()) {
      ++selections;
    } else {
      ++joins;
      EXPECT_EQ(procedure.query.joins.size(), 1u);
      EXPECT_EQ(procedure.query.joins[0].relation, "R2");
    }
    // Interval width = f*N.
    EXPECT_EQ(procedure.query.base.hi - procedure.query.base.lo + 1, 20);
  }
  EXPECT_EQ(selections, 8u);
  EXPECT_EQ(joins, 8u);
}

TEST(WorkloadBuilderTest, Model2AddsThirdRelationStage) {
  Result<std::unique_ptr<Database>> built =
      BuildDatabase(TinyParams(), cost::ProcModel::kModel2, 2);
  ASSERT_TRUE(built.ok());
  for (const auto& procedure : built.ValueOrDie()->procedures) {
    if (!procedure.IsSelectionOnly()) {
      ASSERT_EQ(procedure.query.joins.size(), 2u);
      EXPECT_EQ(procedure.query.joins[1].relation, "R3");
    }
  }
}

TEST(WorkloadBuilderTest, SharingFactorCreatesVerbatimIntervalReuse) {
  cost::Params params = TinyParams();
  params.SF = 1.0;
  params.N1 = 10;
  params.N2 = 10;
  Result<std::unique_ptr<Database>> built =
      BuildDatabase(params, cost::ProcModel::kModel1, 3);
  ASSERT_TRUE(built.ok());
  std::set<std::pair<int64_t, int64_t>> p1_intervals;
  for (const auto& procedure : built.ValueOrDie()->procedures) {
    if (procedure.IsSelectionOnly()) {
      p1_intervals.emplace(procedure.query.base.lo, procedure.query.base.hi);
    }
  }
  for (const auto& procedure : built.ValueOrDie()->procedures) {
    if (!procedure.IsSelectionOnly()) {
      EXPECT_TRUE(p1_intervals.contains(
          {procedure.query.base.lo, procedure.query.base.hi}))
          << procedure.name << " does not share a P1 interval at SF=1";
    }
  }
}

TEST(WorkloadBuilderTest, ZeroSharingProducesDistinctResiduals) {
  cost::Params params = TinyParams();
  params.SF = 0.0;
  Result<std::unique_ptr<Database>> built =
      BuildDatabase(params, cost::ProcModel::kModel1, 4);
  ASSERT_TRUE(built.ok());
  // Each P2 gets its own C_f2 interval; widths all equal f2 * domain.
  for (const auto& procedure : built.ValueOrDie()->procedures) {
    if (procedure.IsSelectionOnly()) continue;
    const auto& terms = procedure.query.joins[0].residual.terms();
    ASSERT_EQ(terms.size(), 2u);
    const int64_t lo = terms[0].constant.AsInt64();
    const int64_t hi = terms[1].constant.AsInt64();
    EXPECT_EQ(hi - lo + 1,
              static_cast<int64_t>(params.f2 * kSelectivityDomain));
  }
}

TEST(WorkloadBuilderTest, DeterministicForSeed) {
  const auto a = BuildDatabase(TinyParams(), cost::ProcModel::kModel1, 9);
  const auto b = BuildDatabase(TinyParams(), cost::ProcModel::kModel1, 9);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  const auto& pa = a.ValueOrDie()->procedures;
  const auto& pb = b.ValueOrDie()->procedures;
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(pa[i].name, pb[i].name);
    EXPECT_EQ(pa[i].query.base.lo, pb[i].query.base.lo);
  }
}

TEST(WorkloadBuilderTest, BuildIsUnmetered) {
  Result<std::unique_ptr<Database>> built =
      BuildDatabase(TinyParams(), cost::ProcModel::kModel1, 5);
  ASSERT_TRUE(built.ok());
  EXPECT_DOUBLE_EQ(built.ValueOrDie()->meter.total_ms(), 0.0);
}

TEST(WorkloadBuilderTest, ExpectedProcedureCardinalities) {
  // P1 procedures should contain ~f*N tuples; P2 ~f*f2*N in expectation.
  cost::Params params = TinyParams();
  Result<std::unique_ptr<Database>> built =
      BuildDatabase(params, cost::ProcModel::kModel1, 6);
  ASSERT_TRUE(built.ok());
  Database& db = *built.ValueOrDie();
  double p1_total = 0;
  double p2_total = 0;
  std::size_t p1_count = 0;
  std::size_t p2_count = 0;
  for (const auto& procedure : db.procedures) {
    storage::MeteringGuard guard(db.disk.get());
    const auto rows = db.executor->Execute(procedure.query).ValueOrDie();
    if (procedure.IsSelectionOnly()) {
      p1_total += static_cast<double>(rows.size());
      ++p1_count;
    } else {
      p2_total += static_cast<double>(rows.size());
      ++p2_count;
    }
  }
  EXPECT_DOUBLE_EQ(p1_total / static_cast<double>(p1_count),
                   params.f * params.N);  // exact: interval of f*N keys
  // Join selectivity is stochastic; expect within 3x of f*f2*N.
  const double expected_p2 = params.f * params.f2 * params.N;
  const double avg_p2 = p2_total / static_cast<double>(p2_count);
  EXPECT_GT(avg_p2, expected_p2 / 3.0);
  EXPECT_LT(avg_p2, expected_p2 * 3.0);
}

TEST(UpdateTransactionTest, ModifiesRequestedTupleCountInPlace) {
  Result<std::unique_ptr<Database>> built =
      BuildDatabase(TinyParams(), cost::ProcModel::kModel1, 7);
  ASSERT_TRUE(built.ok());
  Database& db = *built.ValueOrDie();
  Rng rng(1);
  Result<std::vector<std::pair<rel::Tuple, rel::Tuple>>> changes =
      ApplyUpdateTransaction(&db, 5, &rng);
  ASSERT_TRUE(changes.ok()) << changes.status().ToString();
  EXPECT_EQ(changes.ValueOrDie().size(), 5u);
  // Table cardinality unchanged (in-place modification).
  EXPECT_EQ(db.catalog->GetRelation("R1").ValueOrDie()->tuple_count(), 1000u);
  // The write path is unmetered.
  EXPECT_DOUBLE_EQ(db.meter.total_ms(), 0.0);
  // New keys stay in the key domain.
  for (const auto& [old_tuple, new_tuple] : changes.ValueOrDie()) {
    const int64_t key = new_tuple.value(R1Columns::kKey).AsInt64();
    EXPECT_GE(key, 0);
    EXPECT_LT(key, 1000);
  }
}

TEST(WorkloadOpTest, TxnMarkersAreNeitherMutationsNorAccesses) {
  // The classifiers partition the op kinds: markers vs mutations vs access.
  EXPECT_TRUE(IsTxnMarker(WorkloadOp::Kind::kBegin));
  EXPECT_TRUE(IsTxnMarker(WorkloadOp::Kind::kCommit));
  EXPECT_TRUE(IsTxnMarker(WorkloadOp::Kind::kAbort));
  EXPECT_FALSE(IsTxnMarker(WorkloadOp::Kind::kAccess));
  EXPECT_FALSE(IsTxnMarker(WorkloadOp::Kind::kUpdate));

  EXPECT_FALSE(IsMutationOp(WorkloadOp::Kind::kBegin));
  EXPECT_FALSE(IsMutationOp(WorkloadOp::Kind::kCommit));
  EXPECT_FALSE(IsMutationOp(WorkloadOp::Kind::kAbort));
  EXPECT_FALSE(IsMutationOp(WorkloadOp::Kind::kAccess));
  EXPECT_TRUE(IsMutationOp(WorkloadOp::Kind::kUpdate));
  EXPECT_TRUE(IsMutationOp(WorkloadOp::Kind::kInsert));
  EXPECT_TRUE(IsMutationOp(WorkloadOp::Kind::kDelete));
  EXPECT_TRUE(IsMutationOp(WorkloadOp::Kind::kSilentUpdate));
}

TEST(WorkloadOpTest, MarkerKindsHaveNames) {
  EXPECT_STREQ(WorkloadOpKindName(WorkloadOp::Kind::kBegin), "kBegin");
  EXPECT_STREQ(WorkloadOpKindName(WorkloadOp::Kind::kCommit), "kCommit");
  EXPECT_STREQ(WorkloadOpKindName(WorkloadOp::Kind::kAbort), "kAbort");
}

TEST(WorkloadOpTest, MarkerOpsAreRejectedByApplyMutationOp) {
  Result<std::unique_ptr<Database>> built =
      BuildDatabase(TinyParams(), cost::ProcModel::kModel1, 7);
  ASSERT_TRUE(built.ok());
  WorkloadMix mix;
  // Markers are the stream executor's business, exactly like accesses.
  for (const WorkloadOp::Kind kind :
       {WorkloadOp::Kind::kBegin, WorkloadOp::Kind::kCommit,
        WorkloadOp::Kind::kAbort, WorkloadOp::Kind::kAccess}) {
    Result<MutationResult> applied = ApplyMutationOp(
        built.ValueOrDie().get(), WorkloadOp{kind, 0}, mix, nullptr);
    EXPECT_FALSE(applied.ok()) << WorkloadOpKindName(kind);
  }
}

/// A strategy that records what ApplyTransaction tells it.
class RecordingStrategy : public proc::Strategy {
 public:
  explicit RecordingStrategy(Database* db)
      : Strategy(db->catalog.get(), db->executor.get(), &db->meter, 100) {}

  std::string name() const override { return "Recording"; }
  Status Prepare() override { return Status::OK(); }
  Result<std::vector<rel::Tuple>> Access(proc::ProcId) override {
    return std::vector<rel::Tuple>{};
  }

  Status OnBatch(const std::string& relation,
                 const ivm::ChangeBatch& changes) override {
    ++batches;
    for (std::size_t i = 0; i < changes.size(); ++i) {
      events.push_back((changes.is_insert(i) ? "+" : "-") + relation +
                       changes.RowAt(i).ToString());
    }
    return batch_status;
  }

  Status OnTransactionEnd() override {
    ++ends;
    return Status::OK();
  }

  Status batch_status;  ///< what OnBatch returns
  std::vector<std::string> events;
  int batches = 0;
  int ends = 0;
};

std::unique_ptr<Database> TinyDatabase() {
  Result<std::unique_ptr<Database>> built =
      BuildDatabase(TinyParams(), cost::ProcModel::kModel1, 7);
  PROCSIM_CHECK(built.ok()) << built.status().ToString();
  return built.TakeValueOrDie();
}

TEST(ApplyTransactionTest, ModificationArrivesAsDeleteOldThenInsertNew) {
  WorkloadMix mix;
  mix.update_batch = 2;
  const std::vector<WorkloadOp> ops = {{WorkloadOp::Kind::kUpdate, 11},
                                       {WorkloadOp::Kind::kInsert, 12},
                                       {WorkloadOp::Kind::kDelete, 13}};
  // The same ops applied to an identical database give the expected
  // stream: per change, the old tuple as a delete, then the new one as an
  // insert, in op order.
  std::unique_ptr<Database> twin = TinyDatabase();
  std::vector<std::string> expected;
  for (const WorkloadOp& op : ops) {
    Result<MutationResult> mutation =
        ApplyMutationOp(twin.get(), op, mix, nullptr);
    ASSERT_TRUE(mutation.ok()) << mutation.status().ToString();
    for (const auto& [old_tuple, new_tuple] : mutation.ValueOrDie().changes) {
      if (old_tuple.has_value()) {
        expected.push_back("-R1" + old_tuple->ToString());
      }
      if (new_tuple.has_value()) {
        expected.push_back("+R1" + new_tuple->ToString());
      }
    }
  }
  ASSERT_EQ(expected.size(), 6u);  // two modifications, an insert, a delete

  std::unique_ptr<Database> db = TinyDatabase();
  RecordingStrategy strategy(db.get());
  Result<std::vector<WorkloadOp>> applied =
      ApplyTransaction(db.get(), ops, mix, nullptr, {&strategy});
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(applied.ValueOrDie().size(), 3u);
  EXPECT_EQ(strategy.batches, 1);
  EXPECT_EQ(strategy.ends, 1);
  EXPECT_EQ(strategy.events, expected);
}

TEST(ApplyTransactionTest, UnnotifiedTransactionsCallNoStrategy) {
  std::unique_ptr<Database> db = TinyDatabase();
  RecordingStrategy strategy(db.get());
  WorkloadMix mix;
  mix.min_r1_tuples = db->r1_rids.size();  // every delete is skipped

  Result<std::vector<WorkloadOp>> silent = ApplyTransaction(
      db.get(), {{WorkloadOp::Kind::kSilentUpdate, 21}}, mix, nullptr,
      {&strategy});
  ASSERT_TRUE(silent.ok()) << silent.status().ToString();
  EXPECT_EQ(silent.ValueOrDie().size(), 1u);  // applied, not reported

  Result<std::vector<WorkloadOp>> skipped = ApplyTransaction(
      db.get(), {{WorkloadOp::Kind::kDelete, 22}}, mix, nullptr, {&strategy});
  ASSERT_TRUE(skipped.ok()) << skipped.status().ToString();
  EXPECT_TRUE(skipped.ValueOrDie().empty());

  EXPECT_EQ(strategy.batches, 0);
  EXPECT_EQ(strategy.ends, 0);
}

TEST(ApplyTransactionTest, OnBatchErrorIsReturnedBeforeAnyTransactionEnd) {
  std::unique_ptr<Database> db = TinyDatabase();
  RecordingStrategy failing(db.get());
  RecordingStrategy later(db.get());
  failing.batch_status = Status::Internal("planted OnBatch failure");
  WorkloadMix mix;

  Result<std::vector<WorkloadOp>> applied =
      ApplyTransaction(db.get(), {{WorkloadOp::Kind::kUpdate, 31}}, mix,
                       nullptr, {&failing, &later});
  ASSERT_FALSE(applied.ok());
  EXPECT_EQ(applied.status().code(), StatusCode::kInternal);
  EXPECT_EQ(applied.status().message(), "planted OnBatch failure");
  EXPECT_EQ(failing.batches, 1);
  EXPECT_EQ(later.batches, 0);
  EXPECT_EQ(failing.ends, 0);
  EXPECT_EQ(later.ends, 0);
}

}  // namespace
}  // namespace procsim::sim
