#include "node_churn.hpp"

#include <set>

#include "kickstart/server.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"

namespace perfbench {

using namespace rocks;
using strings::cat;

namespace {

constexpr Ipv4 kFrontendIp{10, 1, 1, 1};
constexpr Ipv4 kCeiling{10, 255, 255, 254};  // insert-ethers' default ceiling
/// Set-up ranks start here so every hostname keeps four rank digits and
/// each op writes the same number of bytes.
constexpr int kFirstRank = 1000;
/// One statement group per set-up registration fills the ship log to this
/// cap before the first op; from then on each commit evicts one group, so
/// the log the pump walks never grows.
constexpr std::size_t kShipLogGroups = NodeChurn::kNodes;

constexpr const char* kGeneratedFiles[] = {"/etc/hosts", "/etc/dhcpd.conf",
                                           "/var/spool/pbs/server_priv/nodes"};

}  // namespace

std::vector<std::string> compare_replica(cluster::Frontend& leader,
                                         replication::Follower& follower) {
  std::vector<std::string> failures;
  if (follower.db().dump_state() != leader.db().dump_state())
    failures.push_back(cat("follower ", follower.name(), " dump_state() differs from the leader's"));
  for (const char* path : kGeneratedFiles) {
    if (!follower.disk().is_file(path) || !leader.fs().is_file(path)) {
      failures.push_back(cat("generated file ", path, " is missing"));
    } else if (follower.disk().read_file(path) != leader.fs().read_file(path)) {
      failures.push_back(cat("follower's ", path, " differs from the leader's"));
    }
  }
  return failures;
}

NodeChurn::NodeChurn(std::uint64_t seed, std::size_t ops) {
  Rng rng(seed ^ 0x636875726eULL);
  std::set<std::uint64_t> used;
  auto fresh_mac = [&] {
    for (;;) {
      // Locally administered unicast addresses, unique within the run.
      const std::uint64_t value = (rng.next_u64() & 0xFCFFFFFFFFFFULL) | 0x020000000000ULL;
      if (used.insert(value).second) return Mac(value);
    }
  };
  for (std::size_t i = 0; i < kNodes; ++i) initial_macs_.push_back(fresh_mac());
  for (std::size_t i = 0; i < kWarmup + ops; ++i) new_macs_.push_back(fresh_mac());
}

NodeChurn::~NodeChurn() = default;

void NodeChurn::setup() {
  distro_ = std::make_unique<rpm::SynthDistro>(rpm::make_redhat_release());
  sim_ = std::make_unique<netsim::Simulator>();
  syslog_ = std::make_unique<netsim::SyslogBus>();
  disk_ = std::make_unique<vfs::FileSystem>();
  frontend_ = std::make_unique<cluster::Frontend>(
      *sim_, *syslog_, *distro_,
      cluster::FrontendConfig{.state_fs = disk_.get(), .wal_group_commit = 1});

  sqldb::Database& db = frontend_->db();
  for (std::size_t i = 0; i < kNodes; ++i) {
    const int rank = kFirstRank + static_cast<int>(i);
    kickstart::insert_node_row(db, initial_macs_[i].to_string(), cat("compute-0-", rank), 2, 0,
                               rank, Ipv4(kCeiling.value() - static_cast<std::uint32_t>(i)).to_string(),
                               "i386", "Compute node");
  }
  first_id_ = db.execute(cat("SELECT id FROM nodes WHERE mac = '", initial_macs_[0].to_string(), "'"))
                  .at(0, 0)
                  .as_int();
  frontend_->flush_services();

  control_plane_ = std::make_unique<replication::ControlPlane>(
      *sim_, replication::ControlPlaneConfig{.mode = replication::CommitMode::kQuorum,
                                             .max_log_groups = kShipLogGroups});
  control_plane_->lead(db, frontend_->config().name);
  // The follower answers on the leader's address (a hot standby), so its
  // generated files are byte-comparable with the leader's.
  control_plane_->add_follower(
      replication::FollowerConfig{.name = "frontend-1", .ip = kFrontendIp}, distro_.get());
  control_plane_->pump();  // snapshot bootstrap
  frontend_->set_commit_barrier([this] {
    timed(tracer_, "replication.barrier", [this] { control_plane_->commit_barrier(); });
  });

  insert_ethers_ = std::make_unique<cluster::InsertEthers>(
      *frontend_, *syslog_, cluster::InsertEthersOptions{.auto_flush = false});
  insert_ethers_->start();

  for (std::size_t i = 0; i < kWarmup; ++i)
    if (!replace(i, nullptr)) throw StateError("node_churn warm-up replacement failed");
}

bool NodeChurn::replace(std::size_t serial, Tracer* tracer) {
  tracer_ = tracer;
  sqldb::Database& db = frontend_->db();
  const std::int64_t oldest = first_id_ + static_cast<std::int64_t>(replaced_);
  const int inserted = insert_ethers_->nodes_inserted();
  try {
    timed(tracer, "sqldb.retire", [&] { db.execute(cat("DELETE FROM nodes WHERE id = ", oldest)); });
    netsim::SyslogMessage discover{
        sim_->now(), "dhcpd", frontend_->config().name,
        cat("DHCPDISCOVER from ", new_macs_[serial].to_string(),
            " via eth0: network 10.0.0.0/8: no free leases")};
    timed(tracer, "cluster.insert_ethers", [&] { syslog_->publish(std::move(discover)); });
    const services::ServiceManager::Report report =
        timed(tracer, "services.flush", [&] { return frontend_->flush_services(); });
    restarts_ += report.restarted.size();
    ++replaced_;
    return report.failed.empty() && insert_ethers_->nodes_inserted() == inserted + 1;
  } catch (const Error&) {
    ++replaced_;
    return false;
  }
}

bool NodeChurn::op(std::size_t index, Tracer* tracer) { return replace(kWarmup + index, tracer); }

Values NodeChurn::counters() {
  const sqldb::Database& db = frontend_->db();
  const replication::ControlPlaneStatus status = control_plane_->status();
  return {
      {"wal_records", static_cast<double>(db.wal_records_appended())},
      {"wal_bytes", static_cast<double>(db.wal_bytes_written())},
      {"wal_flushes", static_cast<double>(db.wal_flushes())},
      {"restarts", static_cast<double>(restarts_)},
      {"shipped_bytes", static_cast<double>(status.shipped_bytes)},
      {"shipped_groups", static_cast<double>(status.shipped_groups)},
      {"stmt_hits", static_cast<double>(db.statement_cache_hits())},
      {"stmt_misses", static_cast<double>(db.statement_cache_misses())},
  };
}

Values NodeChurn::count_metrics(const Values& delta, double ops, const Values&) const {
  const double lookups = delta.at("stmt_hits") + delta.at("stmt_misses");
  return {
      {"sqldb.wal_records_per_op", delta.at("wal_records") / ops},
      {"sqldb.wal_bytes_per_op", delta.at("wal_bytes") / ops},
      {"sqldb.wal_flushes_per_op", delta.at("wal_flushes") / ops},
      {"services.restarts_per_op", delta.at("restarts") / ops},
      {"replication.shipped_bytes_per_op", delta.at("shipped_bytes") / ops},
      {"replication.shipped_groups_per_op", delta.at("shipped_groups") / ops},
      {"sqldb.stmt_cache_hit_ratio", lookups > 0 ? delta.at("stmt_hits") / lookups : 0.0},
  };
}

std::size_t NodeChurn::compute_rows() {
  return frontend_->db().execute("SELECT id FROM nodes WHERE membership = 2").row_count();
}

Values NodeChurn::gauges() {
  const replication::ControlPlaneStatus status = control_plane_->status();
  return {
      {"compute_rows", static_cast<double>(compute_rows())},
      // Evictions start once the ship log reaches its cap; it stays there.
      {"ship_log_at_cap", status.log_evictions > 0 ? 1.0 : 0.0},
      {"follower_lag_lsn",
       static_cast<double>(status.leader_lsn - status.followers.at(0).acked_lsn)},
      {"pending_sim_events", static_cast<double>(sim_->pending_events())},
  };
}

std::vector<std::string> NodeChurn::check() {
  std::vector<std::string> failures =
      compare_replica(*frontend_, control_plane_->follower(0));
  if (compute_rows() != kNodes)
    failures.push_back(cat("nodes table holds ", compute_rows(), " compute rows, expected ", kNodes));
  const std::int64_t oldest = first_id_ + static_cast<std::int64_t>(replaced_);
  const auto survivors = frontend_->db().execute(
      cat("SELECT id FROM nodes WHERE membership = 2 AND id < ", oldest));
  if (survivors.row_count() != 0)
    failures.push_back(cat(survivors.row_count(), " replaced nodes are still registered"));
  return failures;
}

std::unique_ptr<Workload> make_node_churn(std::uint64_t seed, std::size_t ops) {
  return std::make_unique<NodeChurn>(seed, ops);
}

}  // namespace perfbench
