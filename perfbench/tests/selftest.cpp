// The benchmark's own checks on itself:
//   - a deliberately unsynced follower trips the node_churn replica check;
//   - a wrong reference outcome trips the swarm_wave check;
//   - a traced run of every workload, repeated with the same seed, gives
//     identical per-layer counts;
//   - a known extra cost injected into every op survives the scaling to the
//     reference host speed: the scaled ops_per_s falls by about that cost.
//
//   perfbench_selftest        (exit 0 = all passed)
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "harness.hpp"
#include "node_churn.hpp"
#include "replication/control_plane.hpp"
#include "swarm_wave.hpp"

namespace {

int failures = 0;

void expect(bool condition, const std::string& what) {
  std::printf("%s %s\n", condition ? "ok  " : "FAIL", what.c_str());
  if (!condition) ++failures;
}

void unsynced_follower_trips_node_churn_check() {
  perfbench::NodeChurn churn(7, 8);
  churn.setup();
  bool all_ok = true;
  for (std::size_t i = 0; i < 8; ++i) all_ok = churn.op(i, nullptr) && all_ok;
  expect(all_ok, "node_churn ops succeed");
  expect(churn.check().empty(), "node_churn check passes on a synced follower");

  // An async-mode commit the control plane never pumps: the leader moves
  // on, the follower does not.
  churn.control_plane().set_mode(rocks::replication::CommitMode::kAsync);
  churn.frontend().db().execute("INSERT INTO site (name, value) VALUES ('unsynced', 'yes')");
  expect(!churn.check().empty(), "node_churn check fails on an unsynced follower");
}

void wrong_reference_trips_swarm_check() {
  const perfbench::WaveOutcome wave{2748.5, 100, 870};
  expect(perfbench::check_waves({wave, wave}, wave, 100).empty(),
         "swarm_wave check passes when every wave matches the reference");
  perfbench::WaveOutcome wrong = wave;
  wrong.events += 1;
  expect(!perfbench::check_waves({wave, wave}, wrong, 100).empty(),
         "swarm_wave check fails on a wrong reference event count");
  wrong = wave;
  wrong.makespan += 1e-9;
  expect(!perfbench::check_waves({wave}, wrong, 100).empty(),
         "swarm_wave check fails on a wrong reference makespan");
}

/// Counts, not times: everything but wall-clock microseconds, rates and
/// the trace's own ratios.
bool is_count(const std::string& name, const std::string& unit) {
  return unit != "us" && unit != "1/s" && name.rfind("trace.", 0) != 0;
}

void same_seed_gives_same_counts() {
  for (const perfbench::WorkloadInfo& info : perfbench::workloads()) {
    perfbench::RunOptions options;
    options.seed = 11;
    options.trace = true;
    // Four blocks: two traced, two untraced.
    options.seconds = static_cast<double>(4 * info.budget.block) / info.budget.ops_per_second;
    const perfbench::RunResult first = perfbench::run(info, options);
    const perfbench::RunResult second = perfbench::run(info, options);
    expect(first.correct && second.correct, info.name + " traced runs pass their checks");
    bool same = true;
    for (const auto& [name, metric] : first.metrics)
      if (is_count(name, metric.second) && second.metrics.at(name).first != metric.first) {
        std::printf("     %s: %.17g vs %.17g\n", name.c_str(), metric.first,
                    second.metrics.at(name).first);
        same = false;
      }
    expect(same, info.name + " per-layer counts repeat exactly with the same seed");
  }
}

/// A fixed extra cost per op of the kinds the scaling could hide: heap
/// allocations that replace older live ones (a churning, fragmented heap)
/// and writes strided across a buffer larger than a core's L2.
class Burden {
 public:
  Burden() : live_(4096), sweep_(4 << 20) {}

  void operator()() {
    for (int i = 0; i < 32; ++i) {
      auto& slot = live_[next() % live_.size()];
      slot = std::make_unique<char[]>(16 + next() % 2048);
      slot[0] = static_cast<char>(i);
    }
    for (std::size_t at = 0; at < sweep_.size(); at += 256) ++sweep_[at];
  }

 private:
  std::uint64_t next() {
    state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
    return state_ >> 33;
  }

  std::vector<std::unique_ptr<char[]>> live_;
  std::vector<char> sweep_;
  std::uint64_t state_ = 1;
};

class Burdened final : public perfbench::Workload {
 public:
  explicit Burdened(std::unique_ptr<perfbench::Workload> inner) : inner_(std::move(inner)) {}

  void setup() override { inner_->setup(); }
  bool op(std::size_t index, perfbench::Tracer* tracer) override {
    const bool ok = inner_->op(index, tracer);
    burden_();
    return ok;
  }
  perfbench::Values counters() override { return inner_->counters(); }
  perfbench::Values count_metrics(const perfbench::Values& delta, double ops,
                                  const perfbench::Values& self_us) const override {
    return inner_->count_metrics(delta, ops, self_us);
  }
  perfbench::Values gauges() override { return inner_->gauges(); }
  std::vector<std::string> check() override { return inner_->check(); }

 private:
  std::unique_ptr<perfbench::Workload> inner_;
  Burden burden_;
};

/// The burden's own cost in microseconds, scaled the way run() scales a block.
double burden_us() {
  Burden burden;
  constexpr int kCalls = 4000;
  for (int i = 0; i < kCalls / 4; ++i) burden();  // warm-up
  const double before = perfbench::calibration_us();
  const std::int64_t start = perfbench::now_ns();
  for (int i = 0; i < kCalls; ++i) burden();
  const auto elapsed_us = static_cast<double>(perfbench::now_ns() - start) / 1e3;
  const double after = perfbench::calibration_us();
  return elapsed_us / kCalls * perfbench::host_scale(before, after);
}

void injected_cost_survives_scaling() {
  const perfbench::WorkloadInfo& base = *perfbench::find_workload("kickstart_storm");
  perfbench::WorkloadInfo burdened = base;
  burdened.make = [&base](std::uint64_t seed, std::size_t ops) {
    return std::make_unique<Burdened>(base.make(seed, ops));
  };
  perfbench::RunOptions options;
  options.seed = 13;
  options.seconds = 1.0;
  const perfbench::RunResult plain = perfbench::run(base, options);
  const perfbench::RunResult loaded = perfbench::run(burdened, options);
  const double expected_us = burden_us();
  const double slowdown_us = 1e6 / loaded.metrics.at("ops_per_s").first -
                             1e6 / plain.metrics.at("ops_per_s").first;
  std::printf("     burden %.2f us per op alone, scaled op time grew by %.2f us\n", expected_us,
              slowdown_us);
  expect(plain.correct && loaded.correct, "burdened kickstart_storm runs pass their checks");
  // The sweep also evicts the program's own data, so the op may slow by
  // more than the burden alone; it must not slow by clearly less.
  expect(slowdown_us > 0.8 * expected_us && slowdown_us < 3.0 * expected_us,
         "an injected per-op cost shows in the scaled ops_per_s");
}

}  // namespace

int main() {
  wrong_reference_trips_swarm_check();
  unsynced_follower_trips_node_churn_check();
  same_seed_gives_same_counts();
  injected_cost_survives_scaling();
  std::printf("%s: %d failure(s)\n", failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}
