// The benchmark harness: workloads, the closed-loop runner, and the span
// tracer behind the per-layer metrics.
//
// One process runs one workload with one client: the runner issues op i+1
// only after op i returns. Every op sequence is a pure function of the
// seed, and the op count is fixed before the first op (see Budget), so two
// runs with one seed do identical work and every count repeats exactly.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

using Values = std::map<std::string, double>;

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One timed interval. Spans of one op share `op`; `parent` indexes the
/// enclosing span in the tracer's list (-1 for the op's root span).
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
  std::uint32_t op = 0;
};

/// Records spans in memory; they are written out once, after the run.
class Tracer {
 public:
  class Scope {
   public:
    Scope(Tracer& tracer, std::int32_t index) : tracer_(tracer), index_(index) {}
    ~Scope() { tracer_.close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::int32_t index_;
  };

  /// Opens a span under the innermost open one; it closes with the Scope.
  [[nodiscard]] Scope span(const char* name);
  void set_op(std::uint32_t op) { op_ = op; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// CSV: op,name,start_ns,end_ns,parent (times relative to the first span).
  void write_csv(const std::string& path) const;

 private:
  void close(std::int32_t index);

  std::vector<Span> spans_;
  std::int32_t open_ = -1;
  std::uint32_t op_ = 0;
};

/// Runs `call` inside a span named `name` when tracing, bare otherwise.
template <class F>
decltype(auto) timed(Tracer* tracer, const char* name, F&& call) {
  if (tracer == nullptr) return call();
  const Tracer::Scope scope = tracer->span(name);
  return call();
}

/// One workload: the system under test, its generated inputs, and the
/// checks on its outputs. Construction generates the inputs from the seed;
/// setup() builds and warms the system (that is what setup_s times).
class Workload {
 public:
  virtual ~Workload() = default;

  virtual void setup() = 0;
  /// One closed-loop op. False when the program failed or refused it.
  virtual bool op(std::size_t index, Tracer* tracer) = 0;
  /// Cumulative program counters; the runner takes deltas around traced ops.
  [[nodiscard]] virtual Values counters() = 0;
  /// Per-layer count metrics from counter deltas over `ops` traced ops;
  /// `self_us` holds the per-layer self times already derived from spans.
  [[nodiscard]] virtual Values count_metrics(const Values& delta, double ops,
                                             const Values& self_us) const = 0;
  /// Sizes that must read the same at the start and end of the measured
  /// phase (the stationarity check).
  [[nodiscard]] virtual Values gauges() = 0;
  /// Output checks, run after the timed phase; one string per failure.
  [[nodiscard]] virtual std::vector<std::string> check() = 0;
};

/// How much work one run does and how the runner slices it.
struct Budget {
  double ops_per_second = 0.0;  // nominal rate: ops = seconds x this
  std::size_t block = 1;        // ops per calibration interval
  std::size_t min_ops = 1;
};

struct WorkloadInfo {
  std::string name;
  Budget budget;
  std::function<std::unique_ptr<Workload>(std::uint64_t seed, std::size_t ops)> make;
};

[[nodiscard]] const std::vector<WorkloadInfo>& workloads();
[[nodiscard]] const WorkloadInfo* find_workload(const std::string& name);

std::unique_ptr<Workload> make_kickstart_storm(std::uint64_t seed, std::size_t ops);
std::unique_ptr<Workload> make_node_churn(std::uint64_t seed, std::size_t ops);
std::unique_ptr<Workload> make_batch_churn(std::uint64_t seed, std::size_t ops);
std::unique_ptr<Workload> make_swarm_wave(std::uint64_t seed, std::size_t ops);

/// Every per-layer metric name with its unit, in report order. A traced run
/// reports all of them; a layer the workload never calls reads 0.
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;   // ops = seconds x the workload's nominal rate
  bool trace = false;
  std::string spans_path;  // where a traced run writes its spans ("" = nowhere)
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  /// name -> (value, unit)
  std::map<std::string, std::pair<double, std::string>> metrics;
};

[[nodiscard]] RunResult run(const WorkloadInfo& info, const RunOptions& options);
[[nodiscard]] std::string to_json(const RunResult& result);

/// Peak resident set of this process in MiB (VmHWM).
[[nodiscard]] double peak_rss_mb();

/// Speeds are reported at the reference host speed: the speed at which
/// calibration_us() reads this many microseconds.
inline constexpr double kReferenceCalibrationUs = 4000.0;

/// How much more the workloads slow down than the calibration kernel when
/// the host changes speed: the slope of log(block time) against
/// log(kernel time), measured at 1.3-1.7 on the SQL workloads and 1.1-1.2
/// on swarm_wave (see README.md, Host).
inline constexpr double kHostSensitivity = 1.5;

/// The factor that takes a time measured between two calibration readings
/// to the reference host speed.
[[nodiscard]] double host_scale(double calibration_before_us, double calibration_after_us);

/// Time of a fixed calibration kernel, in microseconds. The kernel works on
/// static buffers only: it allocates nothing and shares no container with
/// the program, so the program's heap state cannot reach it.
[[nodiscard]] double calibration_us();

}  // namespace perfbench
