#include "swarm_wave.hpp"

#include <memory>

#include "harness.hpp"
#include "netsim/peer.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"

namespace perfbench {

using namespace rocks;
using strings::cat;

std::vector<std::string> check_waves(const std::vector<WaveOutcome>& waves,
                                     const WaveOutcome& reference, std::size_t nodes) {
  std::vector<std::string> failures;
  if (reference.completed != nodes)
    failures.push_back(cat("reference wave installed ", reference.completed, " of ", nodes));
  for (std::size_t i = 0; i < waves.size(); ++i) {
    const WaveOutcome& wave = waves[i];
    if (wave.completed != nodes)
      failures.push_back(cat("wave ", i, " installed ", wave.completed, " of ", nodes));
    if (wave.makespan != reference.makespan || wave.events != reference.events)
      failures.push_back(cat("wave ", i, " (makespan ", wave.makespan, " s, ", wave.events,
                             " events) differs from the reference allocator (",
                             reference.makespan, " s, ", reference.events, " events)"));
  }
  return failures;
}

namespace {

constexpr double kMB = 1024.0 * 1024.0;

class SwarmWave final : public Workload {
 public:
  SwarmWave(std::uint64_t seed, std::size_t ops) {
    params_.nodes = 10000;
    params_.payload_bytes = 225.0 * kMB;  // the Table I install payload
    params_.demand_cap = 1.0 * kMB;       // install-pipeline consume rate
    params_.seed_capacity = 7.0 * kMB;    // the paper's frontend
    params_.peer.mode = netsim::DistMode::kSwarm;
    params_.peer.seed_fanout = 8;
    params_.topology.nodes_per_rack = 32;
    params_.topology.rack_capacity = 12.0 * kMB;
    params_.topology.uplink_capacity = 12.0 * kMB;
    // The seed picks the power-on stagger (0-5 ms between nodes) and the
    // retry jitter stream; every wave of a run is the same wave.
    Rng rng(seed ^ 0x737761726dULL);
    params_.stagger_seconds = static_cast<double>(rng.next_below(6)) * 1e-3;
    params_.peer.rescue_seed = rng.next_u64();
    waves_.reserve(ops);
  }

  void setup() override {
    // Warm-up: one untimed wave faults in the allocator's memory.
    last_ = netsim::run_install_wave(params_);
    if (last_.completed != params_.nodes) throw StateError("swarm_wave warm-up wave failed");
  }

  bool op(std::size_t, Tracer* tracer) override {
    last_ = timed(tracer, "netsim.wave", [&] { return netsim::run_install_wave(params_); });
    waves_.push_back({last_.makespan, last_.completed, last_.events_fired});
    events_ += last_.events_fired;
    makespan_s_ += last_.makespan;
    peer_bytes_ += last_.peer_stats.peer_bytes;
    seed_bytes_ += last_.peer_stats.seed_bytes;
    chunk_fetches_ += last_.peer_stats.chunk_fetches;
    waits_ += last_.peer_stats.waits;
    return last_.completed == params_.nodes;
  }

  Values counters() override {
    return {
        {"events", static_cast<double>(events_)},
        {"makespan_s", makespan_s_},
        {"peer_bytes", peer_bytes_},
        {"seed_bytes", seed_bytes_},
        {"chunk_fetches", static_cast<double>(chunk_fetches_)},
        {"waits", static_cast<double>(waits_)},
    };
  }

  Values count_metrics(const Values& delta, double ops, const Values& self_us) const override {
    // us_per_event comes from the scaled wave span, like every other time.
    const double events = delta.at("events");
    const double bytes = delta.at("peer_bytes") + delta.at("seed_bytes");
    return {
        {"netsim.us_per_event", events > 0 ? self_us.at("netsim.wave_us") * ops / events : 0.0},
        {"netsim.events_per_wave", events / ops},
        {"netsim.makespan_s", delta.at("makespan_s") / ops},
        {"netsim.peer_share", bytes > 0 ? delta.at("peer_bytes") / bytes : 0.0},
        {"netsim.chunk_fetches_per_wave", delta.at("chunk_fetches") / ops},
        {"netsim.waits_per_wave", delta.at("waits") / ops},
    };
  }

  // Every wave builds a fresh simulator; nothing carries over between ops.
  Values gauges() override { return {}; }

  std::vector<std::string> check() override {
    netsim::InstallWaveParams reference = params_;
    reference.allocator = netsim::Allocator::kReference;
    const netsim::InstallWaveResult replay = netsim::run_install_wave(reference);
    return check_waves(waves_, {replay.makespan, replay.completed, replay.events_fired},
                       params_.nodes);
  }

 private:
  netsim::InstallWaveParams params_;
  netsim::InstallWaveResult last_;
  std::vector<WaveOutcome> waves_;
  std::uint64_t events_ = 0;
  double makespan_s_ = 0.0;
  double peer_bytes_ = 0.0;
  double seed_bytes_ = 0.0;
  std::uint64_t chunk_fetches_ = 0;
  std::uint64_t waits_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_swarm_wave(std::uint64_t seed, std::size_t ops) {
  return std::make_unique<SwarmWave>(seed, ops);
}

}  // namespace perfbench
