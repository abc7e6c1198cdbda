// swarm_wave: one peer-assisted reinstall of a 10,000-node cluster per op.
//
// Each op is one netsim::run_install_wave: a swarm wave with the Table I
// payload of 225 MB, 32-node racks and seed fanout 8 (about 87k simulator
// events). It covers only netsim and never touches sqldb. Per-event cost
// grows with cluster size, which makes this the swarm hot spot's workload.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// What one install wave produced, as the check compares it.
struct WaveOutcome {
  double makespan = 0.0;
  std::size_t completed = 0;
  std::uint64_t events = 0;
};

/// Every wave must install all `nodes` and reproduce the reference
/// allocator's (makespan, events) exactly. One string per failure.
[[nodiscard]] std::vector<std::string> check_waves(const std::vector<WaveOutcome>& waves,
                                                   const WaveOutcome& reference,
                                                   std::size_t nodes);

}  // namespace perfbench
