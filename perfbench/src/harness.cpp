#include "harness.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace perfbench {

Tracer::Scope Tracer::span(const char* name) {
  const auto index = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(Span{name, now_ns(), 0, open_, op_});
  open_ = index;
  return Scope(*this, index);
}

void Tracer::close(std::int32_t index) {
  Span& span = spans_[static_cast<std::size_t>(index)];
  span.end_ns = now_ns();
  open_ = span.parent;
}

void Tracer::write_csv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write spans to " + path);
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "op,name,start_ns,end_ns,parent\n";
  for (const Span& span : spans_)
    out << span.op << ',' << span.name << ',' << span.start_ns - origin << ','
        << span.end_ns - origin << ',' << span.parent << '\n';
}

const std::vector<WorkloadInfo>& workloads() {
  // Nominal rates are this workload's ops per second on a 4-core x86 VM;
  // they only size the run (ops = seconds x rate), the metrics are measured.
  // A block is one calibration interval (see run()), about 0.1-0.2 s of work.
  static const std::vector<WorkloadInfo> list = {
      {"kickstart_storm", {22000.0, 4096, 8192}, &make_kickstart_storm},
      {"node_churn", {130.0, 16, 64}, &make_node_churn},
      {"batch_churn", {5000.0, 1024, 2048}, &make_batch_churn},
      {"swarm_wave", {1.5, 1, 4}, &make_swarm_wave},
  };
  return list;
}

const WorkloadInfo* find_workload(const std::string& name) {
  for (const WorkloadInfo& info : workloads())
    if (info.name == name) return &info;
  return nullptr;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> list = {
      // kickstart_storm
      {"kickstart.resolve_us", "us"},
      {"kickstart.generate_us", "us"},
      {"kickstart.render_us", "us"},
      {"kickstart.bytes_per_op", "bytes"},
      {"sqldb.index_probes_per_op", "count"},
      {"sqldb.scans_per_op", "count"},
      {"sqldb.stmt_cache_hit_ratio", "ratio"},
      // node_churn
      {"sqldb.retire_us", "us"},
      {"cluster.insert_ethers_us", "us"},
      {"services.flush_us", "us"},
      {"replication.barrier_us", "us"},
      {"sqldb.wal_records_per_op", "count"},
      {"sqldb.wal_bytes_per_op", "bytes"},
      {"sqldb.wal_flushes_per_op", "count"},
      {"services.restarts_per_op", "count"},
      {"replication.shipped_bytes_per_op", "bytes"},
      {"replication.shipped_groups_per_op", "count"},
      // batch_churn
      {"batch.submit_us", "us"},
      {"batch.complete_us", "us"},
      {"batch.steps_per_op", "count"},
      {"batch.cycles_per_op", "count"},
      {"batch.backfill_ratio", "ratio"},
      {"sqldb.writes_per_op", "count"},
      // swarm_wave
      {"netsim.wave_us", "us"},
      {"netsim.us_per_event", "us"},
      {"netsim.events_per_wave", "count"},
      {"netsim.makespan_s", "s"},
      {"netsim.peer_share", "ratio"},
      {"netsim.chunk_fetches_per_wave", "count"},
      {"netsim.waits_per_wave", "count"},
      // every workload
      {"op.first_quarter_us", "us"},
      {"op.last_quarter_us", "us"},
      {"trace.coverage", "ratio"},
      {"trace.overhead", "ratio"},
      {"host.calibration_us", "us"},
      {"host.wall_ops_per_s", "1/s"},
  };
  return list;
}

namespace {

/// The calibration kernel's buffers: static, so the kernel never touches
/// the heap. 256 KB in all, which stays resident in a core's L2 once warm.
constexpr std::size_t kSortWords = 8192;    // 32 KB, sorted 4 times
constexpr std::size_t kChaseWords = 49152;  // 192 KB, one random cycle
std::array<std::uint32_t, kSortWords> sort_source;
std::array<std::uint32_t, kSortWords> sort_work;
std::array<std::uint32_t, kChaseWords> chase_next;

void fill_calibration_buffers() {
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<std::uint32_t>(state >> 33);
  };
  for (std::uint32_t& word : sort_source) word = next();
  // A single cycle through every slot in shuffled order (Sattolo), so the
  // chase is a dependent load per step with no pattern to prefetch.
  for (std::size_t i = 0; i < kChaseWords; ++i) chase_next[i] = static_cast<std::uint32_t>(i);
  for (std::size_t i = kChaseWords - 1; i > 0; --i)
    std::swap(chase_next[i], chase_next[next() % i]);
}

/// Branchy comparisons (sorting), dependent loads (the chase) and hashing:
/// the mix of work the program does, on fixed data.
std::uint64_t calibration_kernel() {
  std::uint64_t hash = 0xcbf29ce484222325ULL;  // FNV-1a
  for (int round = 0; round < 4; ++round) {
    sort_work = sort_source;
    sort_work[static_cast<std::size_t>(round)] ^= static_cast<std::uint32_t>(hash);
    std::sort(sort_work.begin(), sort_work.end());
    for (const std::uint32_t word : sort_work) hash = (hash ^ word) * 0x100000001b3ULL;
  }
  std::uint32_t at = 0;
  for (std::size_t step = 0; step < 2 * kChaseWords; ++step) {
    at = chase_next[at];
    hash = (hash ^ at) * 0x100000001b3ULL;
  }
  return hash;
}

/// Linear-interpolated quantile, q in [0, 1].
double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto low = static_cast<std::size_t>(std::floor(rank));
  const std::size_t high = std::min(low + 1, values.size() - 1);
  return values[low] + (values[high] - values[low]) * (rank - static_cast<double>(low));
}

double median(const std::vector<double>& values) { return quantile(values, 0.5); }

/// Per-layer self times and coverage from the recorded spans; `scale[op]`
/// converts the op's times to the reference host speed.
void span_metrics(const Tracer& tracer, const std::vector<double>& scale, double traced_ops,
                  Values& out) {
  const std::vector<Span>& spans = tracer.spans();
  std::vector<std::int64_t> children(spans.size(), 0);
  for (const Span& span : spans)
    if (span.parent >= 0)
      children[static_cast<std::size_t>(span.parent)] += span.end_ns - span.start_ns;
  double root_ns = 0.0;
  double covered_ns = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    const auto duration = static_cast<double>(span.end_ns - span.start_ns);
    if (span.parent < 0) {
      root_ns += duration;
      covered_ns += static_cast<double>(children[i]);
      continue;
    }
    out[std::string(span.name) + "_us"] +=
        (duration - static_cast<double>(children[i])) * scale[span.op] / 1e3 / traced_ops;
  }
  out["trace.coverage"] = root_ns > 0.0 ? covered_ns / root_ns : 0.0;
}

}  // namespace

double calibration_us() {
  static const bool filled = (fill_calibration_buffers(), true);
  static volatile std::uint64_t sink = 0;
  (void)filled;
  // One untimed pass loads the buffers into the cache, so what the program
  // left in the cache does not reach the timed pass either.
  sink = sink + calibration_kernel();
  const std::int64_t start = now_ns();
  sink = sink + calibration_kernel();
  return static_cast<double>(now_ns() - start) / 1e3;
}

double host_scale(double calibration_before_us, double calibration_after_us) {
  return std::pow(2.0 * kReferenceCalibrationUs / (calibration_before_us + calibration_after_us),
                  kHostSensitivity);
}

RunResult run(const WorkloadInfo& info, const RunOptions& options) {
  const Budget& budget = info.budget;
  std::size_t ops = std::max(
      budget.min_ops, static_cast<std::size_t>(std::llround(options.seconds * budget.ops_per_second)));
  ops = (ops + budget.block - 1) / budget.block * budget.block;  // whole blocks

  // The host's speed drifts between states for stretches of 0.1 s to tens
  // of seconds. The calibration kernel runs before and after every timed
  // interval, and host_scale() of the two readings takes the interval's
  // times to the reference host speed.
  double calibration = 0.0;  // the reading before the current interval
  std::vector<double> calibrations;
  auto rescale = [&] {
    const double next = calibration_us();
    const double scale = host_scale(calibration, next);
    calibration = next;
    calibrations.push_back(next);
    return scale;
  };

  // Set-up, several times: setup_s is the median, the last instance runs.
  constexpr int kSetups = 5;
  std::vector<double> setup_seconds;
  std::unique_ptr<Workload> workload;
  for (int i = 0; i < kSetups; ++i) {
    workload.reset();
    workload = info.make(options.seed, ops);
    calibration = calibration_us();
    const std::int64_t start = now_ns();
    workload->setup();
    const auto seconds = static_cast<double>(now_ns() - start) / 1e9;
    setup_seconds.push_back(seconds * rescale());
  }

  // The measured phase. A traced run alternates traced and untraced blocks
  // over the same op sequence: traced blocks give the per-layer numbers,
  // untraced ones the reference for trace.overhead.
  RunResult result;
  Tracer tracer;
  std::vector<std::int64_t> latency_ns(ops);
  std::vector<double> scale(ops);      // per op: to the reference host speed
  double busy_s[2] = {0.0, 0.0};   // [untraced, traced] scaled seconds
  double wall_s[2] = {0.0, 0.0};   // [untraced, traced] unscaled seconds
  std::size_t done[2] = {0, 0};    // [untraced, traced] ops
  Values counter_delta;
  std::size_t traced_ops = 0;
  const Values gauges_before = workload->gauges();
  calibration = calibration_us();
  for (std::size_t block = 0; block * budget.block < ops; ++block) {
    const bool traced = options.trace && block % 2 == 0;
    if (traced)
      for (const auto& [name, value] : workload->counters()) counter_delta[name] -= value;
    const std::size_t first = block * budget.block;
    const std::int64_t block_start = now_ns();
    for (std::size_t i = first; i < first + budget.block; ++i) {
      const std::int64_t start = now_ns();
      bool ok = false;
      if (traced) {
        tracer.set_op(static_cast<std::uint32_t>(i));
        const Tracer::Scope root = tracer.span("op");
        ok = workload->op(i, &tracer);
      } else {
        ok = workload->op(i, nullptr);
      }
      latency_ns[i] = now_ns() - start;
      ++result.attempted;
      if (!ok) ++result.failed;
    }
    const auto block_ns = static_cast<double>(now_ns() - block_start);
    const double block_scale = rescale();
    std::fill(scale.begin() + static_cast<std::ptrdiff_t>(first),
              scale.begin() + static_cast<std::ptrdiff_t>(first + budget.block), block_scale);
    busy_s[traced ? 1 : 0] += block_ns * block_scale / 1e9;
    wall_s[traced ? 1 : 0] += block_ns / 1e9;
    done[traced ? 1 : 0] += budget.block;
    if (traced) {
      for (const auto& [name, value] : workload->counters()) counter_delta[name] += value;
      traced_ops += budget.block;
    }
  }
  const Values gauges_after = workload->gauges();
  // Read before the checks, which are not part of the measured workload.
  const double peak_mb = peak_rss_mb();

  result.failures = workload->check();
  for (const auto& [name, before] : gauges_before) {
    const double after = gauges_after.at(name);
    if (after != before)
      result.failures.push_back("gauge " + name + " moved during the measured phase: " +
                                std::to_string(before) + " -> " + std::to_string(after));
  }
  result.correct = result.failures.empty() && result.failed == 0;

  auto latencies_us = [&](std::size_t begin, std::size_t end) {
    std::vector<double> out;
    out.reserve(end - begin);
    for (std::size_t i = begin; i < end; ++i)
      out.push_back(static_cast<double>(latency_ns[i]) * scale[i] / 1e3);
    return out;
  };
  if (!options.trace) {
    // Latency quantiles are taken per block and averaged over the blocks. A
    // quantile over all ops at once would jump between the host's two
    // speed states whenever about half the blocks ran in each.
    double p50_sum = 0.0;
    double p90_sum = 0.0;
    for (std::size_t first = 0; first < ops; first += budget.block) {
      const std::vector<double> block_us = latencies_us(first, first + budget.block);
      p50_sum += quantile(block_us, 0.50);
      p90_sum += quantile(block_us, 0.90);
    }
    const auto blocks = static_cast<double>(ops / budget.block);
    result.metrics["ops_per_s"] = {static_cast<double>(done[0]) / busy_s[0], "1/s"};
    result.metrics["op_p50_us"] = {p50_sum / blocks, "us"};
    result.metrics["op_p90_us"] = {p90_sum / blocks, "us"};
    result.metrics["setup_s"] = {median(setup_seconds), "s"};
    result.metrics["peak_rss_mb"] = {peak_mb, "MB"};
    return result;
  }

  Values layer;
  span_metrics(tracer, scale, static_cast<double>(traced_ops), layer);
  for (const auto& [name, value] :
       workload->count_metrics(counter_delta, static_cast<double>(traced_ops), layer))
    layer[name] = value;
  const std::size_t quarter = std::max<std::size_t>(1, ops / 4);
  layer["op.first_quarter_us"] = median(latencies_us(0, quarter));
  layer["op.last_quarter_us"] = median(latencies_us(ops - quarter, ops));
  layer["trace.overhead"] = done[0] == 0 || done[1] == 0
                                ? 0.0
                                : (busy_s[1] / static_cast<double>(done[1])) /
                                          (busy_s[0] / static_cast<double>(done[0])) -
                                      1.0;
  layer["host.calibration_us"] = median(calibrations);
  layer["host.wall_ops_per_s"] = done[0] == 0 ? 0.0 : static_cast<double>(done[0]) / wall_s[0];
  for (const auto& [name, unit] : per_layer_metrics()) {
    const auto found = layer.find(name);
    result.metrics[name] = {found == layer.end() ? 0.0 : found->second, unit};
    if (found != layer.end()) layer.erase(found);
  }
  for (const auto& [name, value] : layer)
    result.failures.push_back("per-layer metric " + name + " is not declared");
  result.correct = result.correct && layer.empty();
  if (!options.spans_path.empty()) tracer.write_csv(options.spans_path);
  return result;
}

namespace {

std::string number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  const auto [end, error] = std::to_chars(buffer, buffer + sizeof buffer, value);
  if (error != std::errc()) return "null";
  return std::string(buffer, end);
}

std::string quoted(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

std::string to_json(const RunResult& result) {
  std::string out = "{\"correct\": ";
  out += result.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : result.metrics) {
    if (!first) out += ", ";
    first = false;
    out += quoted(name) + ": {\"value\": " + number(metric.first) +
           ", \"unit\": " + quoted(metric.second) + "}";
  }
  return out + "}}";
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  return 0.0;
}

}  // namespace perfbench
