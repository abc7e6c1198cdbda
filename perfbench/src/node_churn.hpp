// node_churn: the paper's Section 6.4 loop, insert-ethers -> SQL ->
// regenerated configuration files, behind a replicated control plane.
//
// Each op replaces one node while the cluster stays at 1,024 compute nodes:
// it deletes the oldest node, injects the new node's DHCPDISCOVER into the
// syslog bus for insert-ethers (auto_flush off), and calls
// Frontend::flush_services(), whose commit barrier is a quorum
// ControlPlane::commit_barrier() with one serving follower. Leader and
// follower keep durable stores with WAL group commit 1.
//
// Declared here (not only behind make_node_churn) so the self-test can
// reach the leader and the control plane to desynchronise the follower.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "cluster/frontend.hpp"
#include "cluster/insert_ethers.hpp"
#include "harness.hpp"
#include "netsim/engine.hpp"
#include "netsim/syslog.hpp"
#include "replication/control_plane.hpp"
#include "rpm/synth.hpp"
#include "vfs/filesystem.hpp"

namespace perfbench {

/// The byte-identity contract between a leader frontend and its follower:
/// equal dump_state() and equal generated /etc/hosts, /etc/dhcpd.conf and
/// PBS nodes files. Returns one string per difference.
[[nodiscard]] std::vector<std::string> compare_replica(rocks::cluster::Frontend& leader,
                                                       rocks::replication::Follower& follower);

class NodeChurn final : public Workload {
 public:
  static constexpr std::size_t kNodes = 1024;
  /// Warm-up replacements: every cache and the per-op work reach their
  /// steady state before the first timed op.
  static constexpr std::size_t kWarmup = 64;

  NodeChurn(std::uint64_t seed, std::size_t ops);
  ~NodeChurn() override;

  void setup() override;
  bool op(std::size_t index, Tracer* tracer) override;
  Values counters() override;
  [[nodiscard]] Values count_metrics(const Values& delta, double ops,
                                     const Values& self_us) const override;
  Values gauges() override;
  std::vector<std::string> check() override;

  [[nodiscard]] rocks::cluster::Frontend& frontend() { return *frontend_; }
  [[nodiscard]] rocks::replication::ControlPlane& control_plane() { return *control_plane_; }

 private:
  /// Replaces the oldest node with the node carrying new_macs_[serial].
  bool replace(std::size_t serial, Tracer* tracer);
  [[nodiscard]] std::size_t compute_rows();

  std::vector<rocks::Mac> initial_macs_;
  std::vector<rocks::Mac> new_macs_;  // warm-up first, then one per op
  std::size_t replaced_ = 0;
  std::int64_t first_id_ = 0;  // id of the oldest compute node after set-up
  std::uint64_t restarts_ = 0;
  Tracer* tracer_ = nullptr;  // the op in flight, for the barrier hook

  std::unique_ptr<rocks::rpm::SynthDistro> distro_;
  std::unique_ptr<rocks::netsim::Simulator> sim_;
  std::unique_ptr<rocks::netsim::SyslogBus> syslog_;
  std::unique_ptr<rocks::vfs::FileSystem> disk_;
  std::unique_ptr<rocks::cluster::Frontend> frontend_;
  std::unique_ptr<rocks::replication::ControlPlane> control_plane_;
  std::unique_ptr<rocks::cluster::InsertEthers> insert_ethers_;
};

}  // namespace perfbench
