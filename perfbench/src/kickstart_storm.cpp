// kickstart_storm: installing nodes asking the kickstart CGI for their
// files (paper Section 6.1), one request at a time.
//
// 4,096 registered requesters, drawn seeded-uniform. About 1% are NFS or
// web appliances; compute nodes are split between i386 and ia64. The
// request path is read-only: no WAL, services, replication, batch or
// netsim code runs. 4,096 distinct requesters overflow the 256-entry
// statement LRU (each resolve builds its SQL text with the requester's IP),
// while the 4 (appliance, arch) profile keys fit the profile cache.
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"
#include "kickstart/defaults.hpp"
#include "kickstart/server.hpp"
#include "rpm/synth.hpp"
#include "sqldb/engine.hpp"
#include "support/ip.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"

namespace perfbench {
namespace {

using namespace rocks;

constexpr std::size_t kRequesters = 4096;
constexpr Ipv4 kFrontendIp{10, 1, 1, 1};
constexpr Ipv4 kFirstIp{10, 255, 255, 254};
constexpr const char* kDistributionUrl = "http://10.1.1.1/install/rocks-dist";
constexpr std::size_t kCheckSample = 256;

struct Requester {
  int membership = 2;  // 2 compute, 7 NFS server, 8 web server (Table II)
  std::string arch;
  Ipv4 ip;
};

class KickstartStorm final : public Workload {
 public:
  KickstartStorm(std::uint64_t seed, std::size_t ops) : seed_(seed) {
    Rng rng(seed ^ 0x6b69636bULL);
    for (std::size_t i = 0; i < kRequesters; ++i) {
      Requester requester;
      const std::uint64_t draw = rng.next_below(1000);
      if (draw < 5) {
        requester.membership = 7;
      } else if (draw < 10) {
        requester.membership = 8;
      }
      requester.arch = rng.next_below(2) == 0 ? "i386" : "ia64";
      if (requester.membership != 2) requester.arch = "i386";
      requester.ip = Ipv4(kFirstIp.value() - static_cast<std::uint32_t>(i));
      requesters_.push_back(std::move(requester));
    }
    sequence_.reserve(ops);
    for (std::size_t i = 0; i < ops; ++i)
      sequence_.push_back(static_cast<std::uint32_t>(rng.next_below(kRequesters)));
  }

  void setup() override {
    distro_ = std::make_unique<rpm::SynthDistro>(rpm::make_redhat_release());
    configuration_ = std::make_unique<kickstart::DefaultConfiguration>(
        kickstart::make_default_configuration(*distro_));
    db_ = std::make_unique<sqldb::Database>();
    kickstart::ensure_cluster_schema(*db_);
    kickstart::insert_node_row(*db_, "00:30:c1:d8:ac:80", "frontend-0", 1, 0, 0,
                               kFrontendIp.to_string());
    for (std::size_t i = 0; i < requesters_.size(); ++i) {
      const Requester& requester = requesters_[i];
      const char* base = requester.membership == 7   ? "nfs"
                         : requester.membership == 8 ? "web"
                                                     : "compute";
      const int rack = static_cast<int>(i / 32);
      const int rank = static_cast<int>(i % 32);
      kickstart::insert_node_row(*db_, Mac(0x00508B000000ULL + i).to_string(),
                                 strings::cat(base, "-", rack, "-", rank), requester.membership,
                                 rack, rank, requester.ip.to_string(), requester.arch);
    }
    server_ = make_server();
    // Warm-up: one request per requester fills the profile cache and
    // brings the statement cache to its steady state.
    for (const Requester& requester : requesters_)
      static_cast<void>(server_->handle_request(requester.ip));
  }

  bool op(std::size_t index, Tracer* tracer) override {
    const Ipv4 ip = requesters_[sequence_[index]].ip;
    if (tracer == nullptr) {
      bytes_ += server_->handle_request(ip).size();
      return true;
    }
    // handle_request() is generate(resolve(ip)).render(); the traced run
    // makes the same three calls one by one.
    const kickstart::NodeConfig config =
        timed(tracer, "kickstart.resolve", [&] { return server_->resolve(ip); });
    const kickstart::KickstartFile file = timed(
        tracer, "kickstart.generate", [&] { return server_->generator().generate(config); });
    bytes_ += timed(tracer, "kickstart.render", [&] { return file.render(); }).size();
    return true;
  }

  Values counters() override {
    return {
        {"bytes", static_cast<double>(bytes_)},
        {"index_probes",
         static_cast<double>(db_->plans_index_probe() + db_->plans_index_join())},
        {"scans", static_cast<double>(db_->plans_scan() + db_->plans_hash_join())},
        {"stmt_hits", static_cast<double>(db_->statement_cache_hits())},
        {"stmt_misses", static_cast<double>(db_->statement_cache_misses())},
    };
  }

  Values count_metrics(const Values& delta, double ops, const Values&) const override {
    const double lookups = delta.at("stmt_hits") + delta.at("stmt_misses");
    return {
        {"kickstart.bytes_per_op", delta.at("bytes") / ops},
        {"sqldb.index_probes_per_op", delta.at("index_probes") / ops},
        {"sqldb.scans_per_op", delta.at("scans") / ops},
        {"sqldb.stmt_cache_hit_ratio", lookups > 0 ? delta.at("stmt_hits") / lookups : 0.0},
    };
  }

  Values gauges() override {
    return {{"nodes", static_cast<double>(db_->table("nodes").live_size())}};
  }

  std::vector<std::string> check() override {
    std::vector<std::string> failures;
    // A second server with a cold profile cache renders every requester
    // once; the timed phase must have served exactly those bytes, and a
    // seeded sample must match the warm server byte for byte.
    const std::unique_ptr<kickstart::KickstartServer> cold = make_server();
    std::vector<std::size_t> sizes(requesters_.size());
    for (std::size_t i = 0; i < requesters_.size(); ++i)
      sizes[i] = cold->handle_request(requesters_[i].ip).size();
    std::uint64_t expected = 0;
    for (const std::uint32_t requester : sequence_) expected += sizes[requester];
    if (expected != bytes_)
      failures.push_back(strings::cat("kickstart_storm served ", bytes_,
                                      " bytes; a cold server renders ", expected));
    Rng rng(seed_ ^ 0x636865636bULL);
    for (std::size_t i = 0; i < kCheckSample; ++i) {
      const Ipv4 ip = requesters_[rng.next_below(requesters_.size())].ip;
      if (server_->handle_request(ip) != cold->handle_request(ip))
        failures.push_back(strings::cat("kickstart file for ", ip.to_string(),
                                        " differs between warm and cold servers"));
    }
    return failures;
  }

 private:
  std::unique_ptr<kickstart::KickstartServer> make_server() {
    return std::make_unique<kickstart::KickstartServer>(*db_, configuration_->files,
                                                        configuration_->graph, kFrontendIp,
                                                        kDistributionUrl, &distro_->repo);
  }

  std::uint64_t seed_;
  std::vector<Requester> requesters_;
  std::vector<std::uint32_t> sequence_;  // requester index per op
  std::unique_ptr<rpm::SynthDistro> distro_;
  std::unique_ptr<kickstart::DefaultConfiguration> configuration_;
  std::unique_ptr<sqldb::Database> db_;
  std::unique_ptr<kickstart::KickstartServer> server_;
  std::uint64_t bytes_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_kickstart_storm(std::uint64_t seed, std::size_t ops) {
  return std::make_unique<KickstartStorm>(seed, ops);
}

}  // namespace perfbench
