// batch_churn: job turnover in the durable batch scheduler.
//
// 1,024 nodes and a fixed window of 4,096 live jobs. Each op steps the
// simulator until the next job completes, then submits one job to refill
// the window. The per-job DELETE costs O(queue) today, so the window is held
// constant to keep every op's expected cost the same. This is high-rate
// point INSERT and DELETE on a queue table of fixed size; no kickstart,
// services, replication or flow-allocator code runs.
#include <memory>
#include <string>
#include <vector>

#include "batch/accounting.hpp"
#include "batch/scheduler.hpp"
#include "harness.hpp"
#include "netsim/engine.hpp"
#include "sqldb/engine.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"
#include "vfs/filesystem.hpp"

namespace perfbench {
namespace {

using namespace rocks;
using strings::cat;

constexpr std::size_t kNodes = 1024;
constexpr std::size_t kWindow = 4096;
/// Warm-up turnovers: the initial window drains into a steady mix of
/// running and queued jobs before the first timed op.
constexpr std::size_t kWarmup = 4096;

class BatchChurn final : public Workload {
 public:
  BatchChurn(std::uint64_t seed, std::size_t ops) : seed_(seed) {
    Rng rng(seed ^ 0x6261746368ULL);
    const std::size_t jobs = kWindow + kWarmup + ops;
    specs_.reserve(jobs);
    for (std::size_t j = 0; j < jobs; ++j) {
      batch::JobSpec spec;
      spec.name = cat("job-", j);
      spec.nodes = 1 + rng.next_below(4);
      spec.walltime_seconds = 20.0 + static_cast<double>(rng.next_below(100));
      specs_.push_back(std::move(spec));
    }
  }

  void setup() override {
    disk_ = std::make_unique<vfs::FileSystem>();
    sim_ = std::make_unique<netsim::Simulator>();
    db_ = std::make_unique<sqldb::Database>();
    db_->open_durable(*disk_, "/state/db");
    db_->set_wal_group_commit(1);
    scheduler_ = std::make_unique<batch::Scheduler>(
        *db_, *sim_, batch::SchedulerConfig{.rng_seed = seed_});
    for (std::size_t i = 0; i < kNodes; ++i) scheduler_->register_node(cat("c", i));
    scheduler_->resume();
    scheduler_->submit_batch(
        std::vector<batch::JobSpec>(specs_.begin(), specs_.begin() + kWindow));
    submitted_ = kWindow;
    for (std::size_t i = 0; i < kWarmup; ++i)
      if (!turnover(nullptr)) throw StateError("batch_churn warm-up turnover failed");
  }

  bool op(std::size_t, Tracer* tracer) override { return turnover(tracer); }

  Values counters() override {
    const batch::SchedulerStats& stats = scheduler_->stats();
    return {
        {"steps", static_cast<double>(steps_)},
        {"cycles", static_cast<double>(stats.cycles)},
        {"started", static_cast<double>(stats.started)},
        {"backfilled", static_cast<double>(stats.backfilled)},
        {"wal_records", static_cast<double>(db_->wal_records_appended())},
        {"wal_flushes", static_cast<double>(db_->wal_flushes())},
        {"writes", static_cast<double>(db_->exclusive_lock_acquisitions())},
        {"stmt_hits", static_cast<double>(db_->statement_cache_hits())},
        {"stmt_misses", static_cast<double>(db_->statement_cache_misses())},
    };
  }

  Values count_metrics(const Values& delta, double ops, const Values&) const override {
    const double lookups = delta.at("stmt_hits") + delta.at("stmt_misses");
    const double started = delta.at("started");
    return {
        {"batch.steps_per_op", delta.at("steps") / ops},
        {"batch.cycles_per_op", delta.at("cycles") / ops},
        {"batch.backfill_ratio", started > 0 ? delta.at("backfilled") / started : 0.0},
        {"sqldb.wal_records_per_op", delta.at("wal_records") / ops},
        {"sqldb.wal_flushes_per_op", delta.at("wal_flushes") / ops},
        {"sqldb.writes_per_op", delta.at("writes") / ops},
        {"sqldb.stmt_cache_hit_ratio", lookups > 0 ? delta.at("stmt_hits") / lookups : 0.0},
    };
  }

  Values gauges() override {
    return {
        {"live_jobs", static_cast<double>(scheduler_->live_count())},
        {"sched_jobs_rows",
         static_cast<double>(db_->execute("SELECT id FROM sched_jobs").row_count())},
        {"nodes", static_cast<double>(scheduler_->registered_nodes())},
    };
  }

  std::vector<std::string> check() override {
    std::vector<std::string> failures;
    const batch::SchedulerStats& stats = scheduler_->stats();
    const batch::AccountingTotals totals = batch::Accounting::totals(*db_);
    if (totals.completed != stats.completed || totals.duplicate_ids != 0)
      failures.push_back(cat("ledger holds ", totals.completed, " completions (",
                             totals.duplicate_ids, " duplicate ids); the scheduler completed ",
                             stats.completed));
    if (stats.completed != turnovers_)
      failures.push_back(cat(stats.completed, " jobs completed in ", turnovers_, " turnovers"));
    if (stats.requeued != 0 || stats.cancelled != 0 || totals.cancelled != 0)
      failures.push_back(cat(stats.requeued, " requeues and ", stats.cancelled,
                             " cancels; a healthy cluster has none"));
    if (scheduler_->live_count() != kWindow)
      failures.push_back(cat(scheduler_->live_count(), " live jobs, window is ", kWindow));
    return failures;
  }

 private:
  /// One job turnover: step until the next completion, then refill.
  bool turnover(Tracer* tracer) {
    const std::uint64_t completed = scheduler_->stats().completed;
    const bool finished = timed(tracer, "batch.complete", [&] {
      while (scheduler_->stats().completed == completed) {
        if (!sim_->step()) return false;  // stalled: nothing left to run
        ++steps_;
      }
      return true;
    });
    if (!finished) return false;
    ++turnovers_;
    while (scheduler_->live_count() < kWindow && submitted_ < specs_.size())
      timed(tracer, "batch.submit", [&] { scheduler_->submit(specs_[submitted_++]); });
    return scheduler_->live_count() == kWindow;
  }

  std::uint64_t seed_;
  std::vector<batch::JobSpec> specs_;
  std::size_t submitted_ = 0;
  std::uint64_t turnovers_ = 0;
  std::uint64_t steps_ = 0;
  std::unique_ptr<vfs::FileSystem> disk_;
  std::unique_ptr<netsim::Simulator> sim_;
  std::unique_ptr<sqldb::Database> db_;
  std::unique_ptr<batch::Scheduler> scheduler_;
};

}  // namespace

std::unique_ptr<Workload> make_batch_churn(std::uint64_t seed, std::size_t ops) {
  return std::make_unique<BatchChurn>(seed, ops);
}

}  // namespace perfbench
