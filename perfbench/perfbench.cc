// perfbench: procsim's wall-clock benchmark.
//
// Runs one workload through procsim's public calls only, checks the
// answers, and prints one JSON object on the last line of standard output:
// end-to-end metrics, per-layer metrics, sample counts, the exact count
// totals the determinism test compares, and the machine.  run.py builds
// this binary and turns that object into the benchmark's result line.
//
//   perfbench --workload read_recompute|update_maintain|engine_sessions
//             --seed N --seconds S --trace 0|1 [--ops N] [--trace-out FILE]
//
// A run is a sequence of short episodes.  Each episode sets the workload
// up afresh (timed as setup_s), then runs a fixed number of ops in a
// closed loop: each client sends its next op only after the previous one
// returned, as callers of an embedded library do.  Episodes repeat while
// one more, at the mean episode length so far (set-up, loop and checks),
// still fits in --seconds, so a run's length stays close to what its
// caller budgeted however fast the machine is.  Updates grow the tables
// and the structures over them, so per-op cost drifts upward as an
// episode goes on; a fixed op count per episode keeps that drift the same
// however fast the program is.  Each timing is the median over the run's
// episodes of that episode's value, so a stall of the shared machine that
// slows a few episodes does not move it.  --ops runs exactly one episode
// of that many ops, which makes the count metrics of the single-client
// workloads repeat exactly.
//
// With --trace 1, blocks of kTraceBlock ops alternate between untraced and
// traced; spans are recorded around every call into a layer and the two
// kinds of block give trace.overhead_ratio.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "concurrent/engine.h"
#include "cost/params.h"
#include "ivm/delta.h"
#include "obs/metrics.h"
#include "proc/cache_budget.h"
#include "proc/strategy.h"
#include "sim/simulator.h"
#include "sim/workload.h"
#include "span_trace.h"
#include "storage/disk.h"
#include "util/locality.h"
#include "util/rng.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using procsim::LocalityGenerator;
using procsim::Rng;
namespace cost = procsim::cost;
namespace obs = procsim::obs;
namespace proc = procsim::proc;
namespace sim = procsim::sim;
namespace concurrent = procsim::concurrent;

// Every workload runs on one fixed database; --seed draws the op stream.
// Which procedures are hot, and how costly each is, depends on the
// database, so a per-seed database would move the metrics by more than
// the run-to-run noise they are meant to resolve.
constexpr uint64_t kDatabaseSeed = 42;
// A p99 needs at least 1000 samples to have ten beyond it.  Every episode
// of every workload yields more (its op count is set for 1200 samples of
// the rarer kind); a timed run with fewer fails.
constexpr std::size_t kMinSamples = 1000;
// Ops per block of a traced run; blocks alternate untraced and traced.
constexpr uint64_t kTraceBlock = 64;
// Every kCheckEvery-th access of the single-client workloads is compared
// with an un-metered fresh execution of the procedure's query.
constexpr uint64_t kCheckEvery = 4;

// engine_sessions: clients, group commit, and the cache budget.  The budget
// is about a quarter of the cached results' resident footprint: with an
// unlimited budget, one episode of seeds 1-5 ends with 766,500 to 821,000
// bytes accounted.  So evictions and reloads happen throughout the run.
constexpr int kEngineClients = 3;
constexpr std::size_t kEngineGroupCommit = 8;
constexpr std::size_t kEngineBudgetBytes = 200'000;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  uint64_t ops = 0;  ///< 0 = episodes of the workload's own length
  std::string trace_out;
};

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }
double Micros(int64_t ns) { return static_cast<double>(ns) / 1e3; }

double Ratio(double numerator, double denominator) {
  return denominator > 0 ? numerator / denominator : 0.0;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : (values[mid - 1] + values[mid]) / 2;
}

/// The process's peak resident set so far, in MiB.
double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// True when a timed run has room for one more episode of the mean length
/// of the `episodes` it has run since `run_start_ns`.
bool AnotherEpisodeFits(const Args& args, int64_t run_start_ns, int episodes) {
  if (args.ops > 0) return false;
  const int64_t spent = NowNs() - run_start_ns;
  return Seconds(spent + spent / episodes) <= args.seconds;
}

/// In a traced run, blocks of kTraceBlock ops alternate between untraced
/// and traced.
bool Traced(const Args& args, uint64_t op_index) {
  return args.trace && (op_index / kTraceBlock) % 2 == 1;
}

/// Latency samples of one kind of call, in nanoseconds, summarized per
/// episode.  A reported percentile is the median over episodes of each
/// episode's percentile.  On a shared machine the speed of memory varies
/// by up to 2x over seconds; a pooled percentile or a mean over episodes
/// follows every slow stretch, a p99 most of all, while the median over
/// a run's episodes moves only when most of them ran slow.
class Samples {
 public:
  void Add(int64_t ns) {
    episode_.push_back(ns);
    sum_ += ns;
  }
  /// Moves `other`'s samples of the current episode into this one.
  void Absorb(Samples* other) {
    episode_.insert(episode_.end(), other->episode_.begin(),
                    other->episode_.end());
    sum_ += other->sum_;
    other->episode_.clear();
    other->sum_ = 0;
  }
  /// Closes the current episode, keeping its p50 and p99 (nearest rank).
  void EndEpisode() {
    if (episode_.empty()) return;
    std::sort(episode_.begin(), episode_.end());
    p50_us_.push_back(Rank(0.50));
    p99_us_.push_back(Rank(0.99));
    fewest_ = closed_ == 0 ? episode_.size()
                           : std::min(fewest_, episode_.size());
    closed_ += episode_.size();
    episode_.clear();
  }
  double P50Us() const { return Median(p50_us_); }
  double P99Us() const { return Median(p99_us_); }
  std::size_t size() const { return closed_ + episode_.size(); }
  /// Samples in the closed episode that had the fewest.
  std::size_t fewest_per_episode() const { return fewest_; }
  int64_t sum() const { return sum_; }

 private:
  double Rank(double p) const {
    const auto rank = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(episode_.size())));
    return Micros(episode_[std::max<std::size_t>(rank, 1) - 1]);
  }

  std::vector<int64_t> episode_;
  std::vector<double> p50_us_, p99_us_;
  std::size_t closed_ = 0;
  std::size_t fewest_ = 0;
  int64_t sum_ = 0;
};

/// Wall time per op, split by op kind and by whether the op was traced,
/// for trace.overhead_ratio.  Traced and untraced blocks alternate, so
/// both see the same machine and the same part of the run; comparing per
/// kind keeps the ratio independent of each block's op mix.
class OverheadMeter {
 public:
  void Add(bool traced, sim::WorkloadOp::Kind kind, int64_t ns) {
    Cell& cell = cells_[traced ? 1 : 0][static_cast<std::size_t>(kind)];
    cell.ns += ns;
    ++cell.ops;
  }
  void Merge(const OverheadMeter& other) {
    for (std::size_t t = 0; t < 2; ++t) {
      for (std::size_t k = 0; k < kKinds; ++k) {
        cells_[t][k].ns += other.cells_[t][k].ns;
        cells_[t][k].ops += other.cells_[t][k].ops;
      }
    }
  }
  /// Traced over untraced time, each kind's mean weighted by its op count
  /// (0 when no kind was seen both ways).
  double Ratio() const {
    double traced = 0, untraced = 0;
    for (std::size_t k = 0; k < kKinds; ++k) {
      const Cell& u = cells_[0][k];
      const Cell& t = cells_[1][k];
      if (u.ops == 0 || t.ops == 0) continue;
      const auto weight = static_cast<double>(u.ops + t.ops);
      traced += weight * static_cast<double>(t.ns) / static_cast<double>(t.ops);
      untraced +=
          weight * static_cast<double>(u.ns) / static_cast<double>(u.ops);
    }
    return perfbench::Ratio(traced, untraced);
  }

 private:
  static constexpr std::size_t kKinds = 8;  // sim::WorkloadOp::Kind values
  struct Cell {
    int64_t ns = 0;
    uint64_t ops = 0;
  };
  Cell cells_[2][kKinds];
};

/// obs counter totals over the timed loops only: each loop adds the
/// difference between snapshots taken around it.
class CounterTotals {
 public:
  void Begin() { before_ = obs::GlobalMetrics().TakeSnapshot(); }
  void End() {
    const obs::MetricsSnapshot after = obs::GlobalMetrics().TakeSnapshot();
    for (const auto& [name, value] : after.counters) {
      auto it = before_.counters.find(name);
      totals_[name] += value - (it == before_.counters.end() ? 0 : it->second);
    }
  }
  double operator()(const std::string& name) const {
    auto it = totals_.find(name);
    return it == totals_.end() ? 0.0 : static_cast<double>(it->second);
  }

 private:
  obs::MetricsSnapshot before_;
  std::map<std::string, uint64_t> totals_;
};

/// CostMeter totals over the timed loops only.
struct MeterTotals {
  double total_ms = 0;
  uint64_t reads = 0, writes = 0, screens = 0;

  void Add(const procsim::CostMeter& meter) {
    total_ms += meter.total_ms();
    reads += meter.disk_reads();
    writes += meter.disk_writes();
    screens += meter.screens();
  }
};

/// Everything one run measured, printed as the final JSON line.
struct Report {
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics;
  std::map<std::string, uint64_t> samples;
  std::map<std::string, double> counts;  ///< exact totals (determinism test)
  std::vector<std::string> errors;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t op_digest = 14695981039346656037ull;  ///< FNV-1a of the op stream
  std::size_t cache_accounted_bytes = 0;
  double peak_rss_mb = 0;       ///< after the first episode
  std::vector<double> setup_s;  ///< every episode's set-up time
  int episodes = 0;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Fail(const std::string& what) {
    ++failed;
    if (errors.size() < 20) errors.push_back(what);
  }
  void HashOp(const sim::WorkloadOp& op) {
    for (uint64_t word : {static_cast<uint64_t>(op.kind), op.value}) {
      for (int byte = 0; byte < 8; ++byte) {
        op_digest ^= (word >> (8 * byte)) & 0xff;
        op_digest *= 1099511628211ull;
      }
    }
  }
};

/// Per-layer ratios from obs counters, common to every workload; a layer
/// that a workload does not reach reports 0.
void AddCounterMetrics(const CounterTotals& v, double accesses,
                       double updates, Report* report) {
  report->Add("proc.ci.recompute_ratio",
              Ratio(v("proc.cache_invalidate.recomputes"),
                    v("proc.cache_invalidate.accesses")),
              "ratio");
  report->Add("proc.ci.false_invalidation_ratio",
              Ratio(v("proc.cache_invalidate.false_invalidations"),
                    v("proc.cache_invalidate.false_invalidations") +
                        v("proc.cache_invalidate.true_invalidations")),
              "ratio");
  report->Add("proc.cache.evictions_per_access",
              Ratio(v("cache.evictions.count"), accesses), "count");
  report->Add("proc.cache.reloads_per_access",
              Ratio(v("cache.entries.reloaded"), accesses), "count");
  const double delta_rows = v("ivm.delta.inserts") + v("ivm.delta.deletes");
  report->Add("ivm.delta_rows_per_update", Ratio(delta_rows, updates),
              "count");
  report->Add("ivm.annihilation_ratio",
              Ratio(v("ivm.delta.annihilations"), delta_rows), "ratio");
  report->Add("rete.tokens_per_update",
              Ratio(v("rete.network.tokens_submitted"), updates), "count");
  report->Add("rete.and_probes_per_update",
              Ratio(v("rete.and.probes"), updates), "count");
  report->Add("rete.tconst_pass_ratio",
              Ratio(v("rete.tconst.passed"), v("rete.tconst.tokens")),
              "ratio");
  report->Add("rete.batch_selected_ratio",
              Ratio(v("exec.batch.rows_selected"),
                    v("exec.batch.rows_submitted")),
              "ratio");
  const double commits = v("txn.manager.commits");
  report->Add("txn.wal_forces_per_commit", Ratio(v("wal.log.forces"), commits),
              "count");
  report->Add("txn.wal_records_per_commit",
              Ratio(v("wal.records.appended"), commits), "count");
  report->Add("txn.lock_waits_per_txn",
              Ratio(v("txn.lock.waits"), v("txn.manager.begins")), "count");
  report->Add("concurrent.latch_contended_ratio",
              Ratio(v("concurrent.latch.contended"),
                    v("concurrent.latch.acquisitions")),
              "ratio");
  for (const char* name : {"rete.network.tokens_submitted",
                           "cache.evictions.count",
                           "txn.manager.group_commits"}) {
    report->counts[name] = v(name);
  }
}

void AddSpanMetrics(const std::vector<const Tracer*>& tracers, Report* report) {
  const std::map<std::string, LayerTotals> totals = SummarizeSpans(tracers);
  // Layer spans first, then the op spans that parent them; an op span's
  // self time is the benchmark's own work between the calls it wraps.
  for (const char* name :
       {"sim.build_database", "proc.prepare", "sim.apply_mutation",
        "proc.on_batch", "proc.txn_end", "proc.access", "rel.execute",
        "concurrent.create", "concurrent.access", "concurrent.mutate",
        "op.setup", "op.access", "op.update", "op.mutate"}) {
    auto it = totals.find(name);
    const LayerTotals layer = it == totals.end() ? LayerTotals{} : it->second;
    const std::string prefix = std::string("span.") + name;
    report->Add(prefix + ".count", static_cast<double>(layer.count), "count");
    report->Add(prefix + ".busy_ms", static_cast<double>(layer.busy_ns) / 1e6,
                "ms");
    report->Add(prefix + ".self_ms", static_cast<double>(layer.self_ns) / 1e6,
                "ms");
  }
}

void WriteTrace(const Args& args, const std::vector<const Tracer*>& tracers) {
  if (args.trace_out.empty()) return;
  std::ofstream out(args.trace_out);
  WriteChromeTrace(tracers, out);
}

// ---------------------------------------------------------------------------
// Single-strategy workloads: read_recompute and update_maintain.

struct SingleSpec {
  cost::ProcModel model;
  cost::Strategy strategy;
  double update_probability;
  uint64_t episode_ops;  ///< about two seconds of loop on a 4-core box
};

/// The paper's op stream: an update transaction of l tuples with
/// probability P, otherwise an access drawn by the two-class locality
/// model.  Mutations carry their own RNG seed (value != 0).
class PaperOpSource {
 public:
  PaperOpSource(uint64_t seed, std::size_t procedures, double z, double p)
      : rng_(seed), locality_(procedures, z), p_(p) {}

  sim::WorkloadOp Next() {
    sim::WorkloadOp op;
    if (rng_.NextDouble() < p_) {
      op.kind = sim::WorkloadOp::Kind::kUpdate;
      op.value = rng_.Next() | 1;
    } else {
      op.kind = sim::WorkloadOp::Kind::kAccess;
      op.value = locality_.NextReference(&rng_);
    }
    return op;
  }

 private:
  Rng rng_;
  LocalityGenerator locality_;
  double p_;
};

/// One episode's database and strategy.  The strategy refers into the
/// database, so it is declared last and destroyed first.
struct SingleSetup {
  std::unique_ptr<sim::Database> db;
  std::unique_ptr<proc::Strategy> strategy;
};

/// The timed ops of a single-client workload and what they measure,
/// accumulated over every episode.
class SingleLoop {
 public:
  SingleLoop(const sim::WorkloadMix& mix, Tracer* tracer, Report* report)
      : mix_(mix), tracer_(tracer), report_(report) {}

  void Bind(const SingleSetup& setup) {
    db_ = setup.db.get();
    strategy_ = setup.strategy.get();
  }

  /// An update transaction: apply to the base tables, then notify the
  /// strategy with one change batch and end the transaction.
  void RunUpdate(const sim::WorkloadOp& op) {
    ScopedSpan op_span(tracer_, "op.update");
    const uint64_t io_before = PageIo();
    const int64_t t0 = NowNs();
    procsim::Result<sim::MutationResult> mutation = [&] {
      ScopedSpan span(tracer_, "sim.apply_mutation");
      return sim::ApplyMutationOp(db_, op, mix_, /*inline_rng=*/nullptr);
    }();
    const int64_t t1 = NowNs();
    if (!mutation.ok()) {
      report_->Fail("apply: " + mutation.status().ToString());
      return;
    }
    procsim::ivm::ChangeBatch changes;
    for (const auto& [old_tuple, new_tuple] : mutation.ValueOrDie().changes) {
      if (old_tuple.has_value()) changes.AddDelete(*old_tuple);
      if (new_tuple.has_value()) changes.AddInsert(*new_tuple);
    }
    const int64_t t2 = NowNs();
    if (!changes.empty()) {
      ScopedSpan span(tracer_, "proc.on_batch");
      strategy_->OnBatch("R1", changes);
    }
    const int64_t t3 = NowNs();
    procsim::Status ended = [&] {
      ScopedSpan span(tracer_, "proc.txn_end");
      return strategy_->OnTransactionEnd();
    }();
    const int64_t t4 = NowNs();
    update_io += PageIo() - io_before;
    if (!ended.ok()) {
      report_->Fail("transaction end: " + ended.ToString());
      return;
    }
    update_lat.Add(t4 - t0);
    apply_lat.Add(t1 - t0);
    on_batch_lat.Add(t3 - t2);
    txn_end_lat.Add(t4 - t3);
  }

  /// A procedure access; every kCheckEvery-th answer is then compared,
  /// outside the timed call, with an un-metered fresh execution.
  void RunAccess(const sim::WorkloadOp& op) {
    ScopedSpan op_span(tracer_, "op.access");
    const auto id = static_cast<proc::ProcId>(op.value);
    const uint64_t reads_before = db_->meter.disk_reads();
    const uint64_t screens_before = db_->meter.screens();
    const int64_t t0 = NowNs();
    procsim::Result<std::vector<procsim::rel::Tuple>> answer = [&] {
      ScopedSpan span(tracer_, "proc.access");
      return strategy_->Access(id);
    }();
    const int64_t t1 = NowNs();
    access_reads += db_->meter.disk_reads() - reads_before;
    access_screens += db_->meter.screens() - screens_before;
    if (!answer.ok()) {
      report_->Fail("access: " + answer.status().ToString());
      return;
    }
    access_lat.Add(t1 - t0);
    if ((access_lat.size() - 1) % kCheckEvery != 0) return;
    const int64_t c0 = NowNs();
    procsim::Result<std::vector<procsim::rel::Tuple>> expected = [&] {
      procsim::storage::MeteringGuard guard(db_->disk.get());
      ScopedSpan span(tracer_, "rel.execute");
      return db_->executor->Execute(db_->procedures[id].query);
    }();
    execute_lat.Add(NowNs() - c0);
    if (!expected.ok()) {
      report_->Fail("oracle: " + expected.status().ToString());
    } else if (sim::CanonicalResultBytes(answer.ValueOrDie()) !=
               sim::CanonicalResultBytes(expected.ValueOrDie())) {
      report_->Fail("wrong answer for " + db_->procedures[id].name);
    }
    check_ns += NowNs() - c0;
  }

  void EndEpisode() {
    for (Samples* samples : {&access_lat, &update_lat, &apply_lat,
                             &on_batch_lat, &txn_end_lat, &execute_lat}) {
      samples->EndEpisode();
    }
  }

  Samples access_lat, update_lat, apply_lat, on_batch_lat, txn_end_lat,
      execute_lat;
  int64_t check_ns = 0;  ///< answer checks, excluded from ops_per_s
  uint64_t access_reads = 0, access_screens = 0, update_io = 0;

 private:
  uint64_t PageIo() const {
    return db_->meter.disk_reads() + db_->meter.disk_writes();
  }

  const sim::WorkloadMix& mix_;
  Tracer* tracer_;
  Report* report_;
  sim::Database* db_ = nullptr;
  proc::Strategy* strategy_ = nullptr;
};

int RunSingle(const Args& args, const SingleSpec& spec, Report* report) {
  const cost::Params params;  // the paper's figure-2 defaults
  Tracer tracer(0);
  sim::WorkloadMix mix;
  mix.update_batch = static_cast<std::size_t>(params.l);
  PaperOpSource source(args.seed,
                       static_cast<std::size_t>(params.TotalProcedures()),
                       params.Z, spec.update_probability);
  SingleLoop loop(mix, &tracer, report);
  OverheadMeter overhead;
  CounterTotals counters;
  MeterTotals meter;
  std::vector<double> build_s, prepare_s;
  std::vector<double> rates;  ///< each episode's completed ops per second
  const uint64_t episode_ops = args.ops > 0 ? args.ops : spec.episode_ops;
  const int64_t run_start = NowNs();
  uint64_t op_index = 0;
  SingleSetup setup;

  do {
    // Free the previous episode first: only one database is resident.
    setup.strategy.reset();
    setup.db.reset();
    tracer.set_enabled(args.trace);
    {
      // Set-up: build, Prepare, and a warm-up access of every procedure so
      // that lazy set-up is paid here and not in the timed loop.
      ScopedSpan op_span(&tracer, "op.setup");
      const int64_t t0 = NowNs();
      {
        ScopedSpan span(&tracer, "sim.build_database");
        procsim::Result<std::unique_ptr<sim::Database>> built =
            sim::BuildDatabase(params, spec.model, kDatabaseSeed);
        if (!built.ok()) {
          std::cerr << "build failed: " << built.status().ToString() << "\n";
          return 1;
        }
        setup.db = built.TakeValueOrDie();
      }
      const int64_t t1 = NowNs();
      procsim::Status prepared = [&] {
        ScopedSpan span(&tracer, "proc.prepare");
        setup.strategy = sim::Simulator::MakeStrategy(
            spec.strategy, setup.db.get(), params);
        for (const proc::DatabaseProcedure& procedure : setup.db->procedures) {
          PROCSIM_RETURN_IF_ERROR(setup.strategy->AddProcedure(procedure));
        }
        return setup.strategy->Prepare();
      }();
      const int64_t t2 = NowNs();
      for (const proc::DatabaseProcedure& procedure : setup.db->procedures) {
        if (!prepared.ok()) break;
        prepared = setup.strategy->Access(procedure.id).status();
      }
      if (!prepared.ok()) {
        std::cerr << "set-up failed: " << prepared.ToString() << "\n";
        return 1;
      }
      report->setup_s.push_back(Seconds(NowNs() - t0));
      build_s.push_back(Seconds(t1 - t0));
      prepare_s.push_back(Seconds(t2 - t1));
    }
    loop.Bind(setup);

    setup.db->meter.Reset();
    counters.Begin();
    const std::size_t done_before =
        loop.access_lat.size() + loop.update_lat.size();
    const int64_t checks_before = loop.check_ns;
    const int64_t start = NowNs();
    for (uint64_t k = 0; k < episode_ops; ++k, ++op_index) {
      const bool traced = Traced(args, op_index);
      tracer.set_enabled(traced);
      const sim::WorkloadOp op = source.Next();
      report->HashOp(op);
      ++report->attempted;
      const int64_t w0 = NowNs();
      if (op.kind == sim::WorkloadOp::Kind::kUpdate) {
        loop.RunUpdate(op);
      } else {
        loop.RunAccess(op);
      }
      overhead.Add(traced, op.kind, NowNs() - w0);
    }
    const int64_t elapsed = NowNs() - start;
    tracer.set_enabled(false);
    const std::size_t done =
        loop.access_lat.size() + loop.update_lat.size() - done_before;
    rates.push_back(Ratio(static_cast<double>(done),
                          Seconds(elapsed - (loop.check_ns - checks_before))));
    loop.EndEpisode();
    counters.End();
    meter.Add(setup.db->meter);
    if (++report->episodes == 1) report->peak_rss_mb = PeakRssMb();
  } while (AnotherEpisodeFits(args, run_start, report->episodes));

  const double n_access = static_cast<double>(loop.access_lat.size());
  const double n_update = static_cast<double>(loop.update_lat.size());
  const double update_sum = static_cast<double>(loop.update_lat.sum());

  report->Add("setup_s", Median(report->setup_s), "s");
  report->Add("ops_per_s", Median(rates), "1/s");
  report->Add("access_p50_us", loop.access_lat.P50Us(), "us");
  report->Add("access_p99_us", loop.access_lat.P99Us(), "us");
  report->Add("update_p50_us", loop.update_lat.P50Us(), "us");
  report->Add("update_p99_us", loop.update_lat.P99Us(), "us");
  report->Add("sim_cost_ms_per_query", Ratio(meter.total_ms, n_access), "ms");

  report->Add("sim.build_database_s", Median(build_s), "s");
  report->Add("sim.apply_mutation_us_p50", loop.apply_lat.P50Us(), "us");
  report->Add("sim.apply_mutation_share",
              Ratio(static_cast<double>(loop.apply_lat.sum()), update_sum),
              "ratio");
  report->Add("storage.page_reads_per_access",
              Ratio(static_cast<double>(loop.access_reads), n_access),
              "count");
  report->Add("storage.page_io_per_update",
              Ratio(static_cast<double>(loop.update_io), n_update), "count");
  report->Add("storage.pages_allocated",
              static_cast<double>(setup.db->disk->page_count()), "count");
  report->Add("rel.execute_us_p50", loop.execute_lat.P50Us(), "us");
  report->Add("rel.screens_per_access",
              Ratio(static_cast<double>(loop.access_screens), n_access),
              "count");
  report->Add("proc.prepare_s", Median(prepare_s), "s");
  report->Add("proc.on_batch_us_p50", loop.on_batch_lat.P50Us(), "us");
  report->Add("proc.txn_end_us_p50", loop.txn_end_lat.P50Us(), "us");
  report->Add("concurrent.create_s", 0, "s");
  AddCounterMetrics(counters, n_access, n_update, report);
  report->Add("trace.overhead_ratio", overhead.Ratio(), "ratio");
  AddSpanMetrics({&tracer}, report);

  report->samples = {{"setup", report->setup_s.size()},
                     {"access", loop.access_lat.size()},
                     {"update", loop.update_lat.size()},
                     {"access_fewest_per_episode",
                      loop.access_lat.fewest_per_episode()},
                     {"update_fewest_per_episode",
                      loop.update_lat.fewest_per_episode()},
                     {"apply_mutation", loop.apply_lat.size()},
                     {"on_batch", loop.on_batch_lat.size()},
                     {"txn_end", loop.txn_end_lat.size()},
                     {"answer_checks", loop.execute_lat.size()}};
  report->counts["accesses"] = n_access;
  report->counts["updates"] = n_update;
  report->counts["access_page_reads"] = static_cast<double>(loop.access_reads);
  report->counts["access_screens"] = static_cast<double>(loop.access_screens);
  report->counts["update_page_io"] = static_cast<double>(loop.update_io);
  report->counts["sim_total_ms"] = meter.total_ms;
  WriteTrace(args, {&tracer});
  return 0;
}

// ---------------------------------------------------------------------------
// engine_sessions: concurrent::Engine under kEngineClients closed-loop
// clients.

constexpr uint64_t kEngineEpisodeOps = 4000;  // about three seconds

concurrent::Engine::Options EngineOptions() {
  concurrent::Engine::Options options;
  options.params.N = 20000;  // scaled as in bench/sim_vs_analytic
  options.params.N1 = 20;
  options.params.N2 = 20;
  options.params.f = 0.005;
  options.model = cost::ProcModel::kModel1;
  options.seed = kDatabaseSeed;
  options.config.cache_budget_bytes = kEngineBudgetBytes;
  options.config.group_commit_size = kEngineGroupCommit;
  return options;
}

/// One closed-loop client of the engine: its own op stream, tracer and
/// samples, kept across episodes.  Clients share only the engine and the
/// episode's op counter.
class Client {
 public:
  Client(uint32_t thread, std::size_t procedures, const sim::WorkloadMix& mix,
         uint64_t stream_seed)
      : tracer(thread), mix_(mix), workload_(mix, procedures, stream_seed) {}

  /// Runs one op against `engine`; a failure lands in `errors`.
  void RunOp(concurrent::Engine* engine, bool traced) {
    tracer.set_enabled(traced);
    const sim::WorkloadOp op = workload_.Next();
    ++attempted;
    const int64_t t0 = NowNs();
    if (op.kind == sim::WorkloadOp::Kind::kAccess) {
      ScopedSpan op_span(&tracer, "op.access");
      procsim::Result<std::string> answer = [&] {
        ScopedSpan span(&tracer, "concurrent.access");
        return engine->Access(op.value);
      }();
      if (answer.ok()) {
        access_lat.Add(NowNs() - t0);
      } else {
        errors.push_back("access: " + answer.status().ToString());
      }
    } else {
      ScopedSpan op_span(&tracer, "op.mutate");
      procsim::Status status = [&] {
        ScopedSpan span(&tracer, "concurrent.mutate");
        return engine->Mutate(op, mix_);
      }();
      if (!status.ok()) {
        errors.push_back("mutate: " + status.ToString());
      } else if (op.kind == sim::WorkloadOp::Kind::kUpdate) {
        update_lat.Add(NowNs() - t0);
      } else {
        other_mutation_lat.Add(NowNs() - t0);
      }
    }
    overhead.Add(traced, op.kind, NowNs() - t0);
    tracer.set_enabled(false);
  }

  Tracer tracer;
  Samples access_lat, update_lat, other_mutation_lat;
  OverheadMeter overhead;
  uint64_t attempted = 0;
  std::vector<std::string> errors;

 private:
  const sim::WorkloadMix& mix_;
  sim::Workload workload_;
};

int RunEngine(const Args& args, Report* report) {
  const concurrent::Engine::Options options = EngineOptions();
  Tracer setup_tracer(kEngineClients);

  // The traced run also times Engine::Create's two public halves on their
  // own, outside setup_s, to attribute set-up time to sim and proc.
  double build_s = 0, prepare_s = 0;
  if (args.trace) {
    setup_tracer.set_enabled(true);
    ScopedSpan op_span(&setup_tracer, "op.setup_split");
    const int64_t t0 = NowNs();
    procsim::Result<std::unique_ptr<sim::Database>> built = [&] {
      ScopedSpan span(&setup_tracer, "sim.build_database");
      return sim::BuildDatabase(options.params, options.model, options.seed);
    }();
    const int64_t t1 = NowNs();
    if (!built.ok()) return 1;
    std::unique_ptr<sim::Database> db = built.TakeValueOrDie();
    procsim::Result<sim::StrategySet> strategies = [&] {
      ScopedSpan span(&setup_tracer, "proc.prepare");
      return sim::MakeAllStrategies(db.get(), options.params, options.model,
                                    options.config);
    }();
    if (!strategies.ok()) return 1;
    build_s = Seconds(t1 - t0);
    prepare_s = Seconds(NowNs() - t1);
  }

  sim::WorkloadMix mix;  // 30% update, 10% insert, 10% delete, 50% access
  mix.update_batch = static_cast<std::size_t>(options.params.l);
  const auto procedures =
      static_cast<std::size_t>(options.params.TotalProcedures());
  std::vector<std::unique_ptr<Client>> clients;
  for (int i = 0; i < kEngineClients; ++i) {
    clients.push_back(std::make_unique<Client>(
        static_cast<uint32_t>(i), procedures, mix,
        (args.seed << 8) + static_cast<uint64_t>(i) + 1));
  }
  CounterTotals counters;
  MeterTotals meter;
  Samples access_lat, update_lat, other_mutation_lat;
  std::vector<double> create_s;
  std::vector<double> rates;  ///< each episode's ops per second
  const uint64_t episode_ops = args.ops > 0 ? args.ops : kEngineEpisodeOps;
  const int64_t run_start = NowNs();
  uint64_t op_base = 0;
  std::unique_ptr<concurrent::Engine> engine;

  do {
    engine.reset();  // only one engine is resident
    setup_tracer.set_enabled(args.trace);
    {
      ScopedSpan op_span(&setup_tracer, "op.setup");
      const int64_t t0 = NowNs();
      procsim::Result<std::unique_ptr<concurrent::Engine>> created = [&] {
        ScopedSpan span(&setup_tracer, "concurrent.create");
        return concurrent::Engine::Create(options);
      }();
      const int64_t t1 = NowNs();
      if (!created.ok()) {
        std::cerr << "set-up failed: " << created.status().ToString() << "\n";
        return 1;
      }
      engine = created.TakeValueOrDie();
      for (uint64_t id = 0; id < engine->procedure_count(); ++id) {
        procsim::Result<std::string> warm = engine->Access(id);
        if (!warm.ok()) {
          std::cerr << "warm-up failed: " << warm.status().ToString() << "\n";
          return 1;
        }
      }
      report->setup_s.push_back(Seconds(NowNs() - t0));
      create_s.push_back(Seconds(t1 - t0));
    }
    setup_tracer.set_enabled(false);

    engine->database()->meter.Reset();
    counters.Begin();
    std::atomic<uint64_t> next_op{0};
    auto client_main = [&](Client* client) {
      for (uint64_t index = next_op.fetch_add(1); index < episode_ops;
           index = next_op.fetch_add(1)) {
        client->RunOp(engine.get(), Traced(args, op_base + index));
      }
    };
    const int64_t start = NowNs();
    std::vector<std::thread> threads;
    for (const std::unique_ptr<Client>& client : clients) {
      threads.emplace_back(client_main, client.get());
    }
    for (std::thread& thread : threads) thread.join();
    const int64_t elapsed = NowNs() - start;
    rates.push_back(Ratio(static_cast<double>(episode_ops), Seconds(elapsed)));
    op_base += episode_ops;
    for (const std::unique_ptr<Client>& client : clients) {
      access_lat.Absorb(&client->access_lat);
      update_lat.Absorb(&client->update_lat);
      other_mutation_lat.Absorb(&client->other_mutation_lat);
    }
    for (Samples* samples : {&access_lat, &update_lat, &other_mutation_lat}) {
      samples->EndEpisode();
    }
    counters.End();
    meter.Add(engine->database()->meter);

    // Answer check at quiesce: every strategy against the fresh
    // oracle, plus the engine's structure validators.  (Each Access already
    // compared the six strategies' digests.)
    const procsim::Status validated = engine->ValidateAtQuiesce();
    if (!validated.ok()) {
      report->Fail("ValidateAtQuiesce: " + validated.ToString());
    }
    if (++report->episodes == 1) report->peak_rss_mb = PeakRssMb();
  } while (AnotherEpisodeFits(args, run_start, report->episodes));
  report->cache_accounted_bytes = engine->cache_budget()->accounted_bytes();

  OverheadMeter overhead;
  for (const std::unique_ptr<Client>& client : clients) {
    overhead.Merge(client->overhead);
    report->attempted += client->attempted;
    for (const std::string& error : client->errors) report->Fail(error);
  }

  const double n_access = static_cast<double>(access_lat.size());
  const double n_update = static_cast<double>(update_lat.size());

  report->Add("setup_s", Median(report->setup_s), "s");
  report->Add("ops_per_s", Median(rates), "1/s");
  report->Add("access_p50_us", access_lat.P50Us(), "us");
  report->Add("access_p99_us", access_lat.P99Us(), "us");
  report->Add("update_p50_us", update_lat.P50Us(), "us");
  report->Add("update_p99_us", update_lat.P99Us(), "us");
  report->Add("sim_cost_ms_per_query", Ratio(meter.total_ms, n_access), "ms");

  // The clients share one meter, so storage and rel counts cover the whole
  // loop, not just the accesses or the updates.
  report->Add("sim.build_database_s", build_s, "s");
  report->Add("sim.apply_mutation_us_p50", 0, "us");
  report->Add("sim.apply_mutation_share", 0, "ratio");
  report->Add("storage.page_reads_per_access",
              Ratio(static_cast<double>(meter.reads), n_access), "count");
  report->Add("storage.page_io_per_update",
              Ratio(static_cast<double>(meter.reads + meter.writes), n_update),
              "count");
  report->Add("storage.pages_allocated",
              static_cast<double>(engine->database()->disk->page_count()),
              "count");
  report->Add("rel.execute_us_p50", 0, "us");
  report->Add("rel.screens_per_access",
              Ratio(static_cast<double>(meter.screens), n_access), "count");
  report->Add("proc.prepare_s", prepare_s, "s");
  report->Add("proc.on_batch_us_p50", 0, "us");
  report->Add("proc.txn_end_us_p50", 0, "us");
  report->Add("concurrent.create_s", Median(create_s), "s");
  AddCounterMetrics(counters, n_access, n_update, report);
  report->Add("trace.overhead_ratio", overhead.Ratio(), "ratio");
  std::vector<const Tracer*> tracers = {&setup_tracer};
  for (const std::unique_ptr<Client>& client : clients) {
    tracers.push_back(&client->tracer);
  }
  AddSpanMetrics(tracers, report);

  report->samples = {{"setup", report->setup_s.size()},
                     {"access", access_lat.size()},
                     {"update", update_lat.size()},
                     {"access_fewest_per_episode",
                      access_lat.fewest_per_episode()},
                     {"update_fewest_per_episode",
                      update_lat.fewest_per_episode()},
                     {"insert_or_delete", other_mutation_lat.size()},
                     {"clients", kEngineClients}};
  report->counts["accesses"] = n_access;
  report->counts["updates"] = n_update;
  report->counts["sim_total_ms"] = meter.total_ms;
  WriteTrace(args, tracers);
  return 0;
}

// ---------------------------------------------------------------------------

/// Fails a run whose percentiles rest on too few samples, or that did not
/// reach the layer its workload exists to exercise (the vacuity guard).
void CheckRun(const Args& args, Report* report) {
  auto fail = [&](const std::string& why) {
    report->errors.push_back(why);
    ++report->failed;
  };
  for (const char* kind : {"access", "update"}) {
    if (args.ops == 0 &&
        report->samples.at(std::string(kind) + "_fewest_per_episode") <
            kMinSamples) {
      fail(std::string("too few ") + kind + " samples for an episode's p99");
    }
  }
  const std::map<std::string, double>& c = report->counts;
  const std::string& workload = args.workload;
  if (workload == "update_maintain" &&
      c.at("rete.network.tokens_submitted") == 0) {
    fail("vacuous workload: update_maintain submitted no Rete tokens");
  }
  if (workload == "read_recompute" &&
      c.at("rete.network.tokens_submitted") != 0) {
    fail("vacuous workload: read_recompute submitted Rete tokens");
  }
  if (workload == "engine_sessions" && c.at("cache.evictions.count") == 0) {
    fail("vacuous workload: engine_sessions evicted no cached result");
  }
  if (workload == "engine_sessions" && c.at("txn.manager.group_commits") == 0) {
    fail("vacuous workload: engine_sessions flushed no commit group");
  }
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char ch : text) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  std::ostringstream out;
  out.precision(17);
  out << value;
  return out.str();
}

void PrintReport(const Args& args, const Report& report) {
  std::ostringstream out;
  out << "{\"workload\": " << JsonString(args.workload)
      << ", \"seed\": " << args.seed << ", \"seconds\": "
      << JsonNumber(args.seconds) << ", \"ops_limit\": " << args.ops
      << ", \"trace\": " << (args.trace ? 1 : 0)
      << ", \"machine\": {\"nproc\": " << std::thread::hardware_concurrency()
      << ", \"compiler\": " << JsonString(std::string("g++ ") + __VERSION__)
      << ", \"build_type\": " << JsonString(PERFBENCH_BUILD_TYPE) << "}"
      << ", \"correct\": " << (report.failed == 0 ? "true" : "false")
      << ", \"attempted\": " << report.attempted
      << ", \"failed\": " << report.failed << ", \"episodes\": "
      << report.episodes << ", \"op_stream_digest\": \"" << std::hex
      << report.op_digest << std::dec << "\""
      << ", \"cache_accounted_bytes\": " << report.cache_accounted_bytes
      << ", \"setup_runs_s\": [";
  for (std::size_t i = 0; i < report.setup_s.size(); ++i) {
    out << (i ? ", " : "") << JsonNumber(report.setup_s[i]);
  }
  out << "], \"errors\": [";
  for (std::size_t i = 0; i < report.errors.size(); ++i) {
    out << (i ? ", " : "") << JsonString(report.errors[i]);
  }
  out << "], \"samples\": {";
  bool first = true;
  for (const auto& [name, n] : report.samples) {
    out << (first ? "" : ", ") << JsonString(name) << ": " << n;
    first = false;
  }
  out << "}, \"counts\": {";
  first = true;
  for (const auto& [name, value] : report.counts) {
    out << (first ? "" : ", ") << JsonString(name) << ": " << JsonNumber(value);
    first = false;
  }
  out << "}, \"metrics\": {";
  std::vector<Report::Metric> metrics = report.metrics;
  metrics.push_back({"peak_rss_mb", report.peak_rss_mb, "MB"});
  metrics.push_back({"failed_op_ratio",
                     Ratio(static_cast<double>(report.failed),
                           static_cast<double>(report.attempted)),
                     "ratio"});
  first = true;
  for (const Report::Metric& metric : metrics) {
    out << (first ? "" : ", ") << JsonString(metric.name)
        << ": {\"value\": " << JsonNumber(metric.value)
        << ", \"unit\": " << JsonString(metric.unit) << "}";
    first = false;
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args->workload = value;
      } else if (flag == "--seed") {
        args->seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args->seconds = std::stod(value);
      } else if (flag == "--trace") {
        args->trace = std::stoi(value) != 0;
      } else if (flag == "--ops") {
        args->ops = std::stoull(value);
      } else if (flag == "--trace-out") {
        args->trace_out = value;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--ops N] [--trace-out FILE]\n";
    return 2;
  }
  Report report;
  int status = 0;
  if (args.workload == "read_recompute") {
    status = RunSingle(args,
                       {cost::ProcModel::kModel2,
                        cost::Strategy::kAlwaysRecompute, 0.1, 12000},
                       &report);
  } else if (args.workload == "update_maintain") {
    status = RunSingle(args,
                       {cost::ProcModel::kModel1,
                        cost::Strategy::kUpdateCacheRvm, 0.7, 4000},
                       &report);
  } else if (args.workload == "engine_sessions") {
    status = RunEngine(args, &report);
  } else {
    std::cerr << "unknown workload " << args.workload << "\n";
    return 2;
  }
  if (status != 0) return status;
  CheckRun(args, &report);
  PrintReport(args, report);
  for (const std::string& error : report.errors) std::cerr << error << "\n";
  return report.failed == 0 ? 0 : 1;
}
