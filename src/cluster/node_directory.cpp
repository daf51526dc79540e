#include "cluster/node_directory.hpp"

#include <limits>

#include "common/log.hpp"
#include "obs/metric_names.hpp"
#include "obs/metrics.hpp"

namespace gpuvm::cluster {

using transport::Message;
using transport::Opcode;

namespace {

obs::Counter& hysteresis_rejections_counter() {
  static obs::Counter& c = obs::metrics().counter(obs::names::kClusterOffloadHysteresisRejections);
  return c;
}

obs::Counter& stale_reports_counter() {
  static obs::Counter& c = obs::metrics().counter(obs::names::kClusterDirectoryStaleReports);
  return c;
}

}  // namespace

NodeDirectory::NodeDirectory(vt::Domain& dom, DirectoryConfig config)
    : dom_(&dom), config_(config) {}

NodeDirectory::~NodeDirectory() { stop(); }

void NodeDirectory::watch(Node& node, transport::ChannelCosts costs) {
  std::shared_ptr<transport::MessageChannel> channel =
      node.runtime().connect_with(costs);
  if (channel == nullptr) return;

  // Protocol handshake as any frontend: the daemon decides whether load
  // telemetry survived capability negotiation.
  transport::HelloPayload hello;  // defaults advertise caps::kAll
  Message msg;
  msg.op = Opcode::Hello;
  msg.payload = transport::encode_hello(hello);
  u32 negotiated = 0;
  if (channel->send(std::move(msg))) {
    if (auto reply = channel->receive();
        reply.has_value() && ok(transport::reply_status(*reply))) {
      if (auto hr = transport::decode_hello_reply(transport::reply_payload(*reply))) {
        negotiated = hr->caps;
      }
    }
  }

  Entry entry;
  entry.node = &node;
  entry.subscribed = (negotiated & protocol::caps::kQueryLoad) != 0;
  if (!entry.subscribed) {
    // Protocol-v2 peer (or handshake failure): keep it dispatchable with no
    // load data; dispatch policies fall back to round-robin for it.
    channel->close();
    log::info("directory: node %llu has no load telemetry, watching blind",
              static_cast<unsigned long long>(node.id().value));
    std::scoped_lock lock(mu_);
    entries_[node.id().value] = std::move(entry);
    return;
  }

  // Subscribe: the reply carries the first snapshot, then the daemon pushes
  // LoadReport frames every interval on this channel.
  Message sub;
  sub.op = Opcode::QueryLoad;
  sub.payload = transport::encode_query_load(config_.heartbeat_interval.count());
  if (channel->send(std::move(sub))) {
    if (auto reply = channel->receive();
        reply.has_value() && ok(transport::reply_status(*reply))) {
      if (auto load = transport::decode_load(transport::reply_payload(*reply))) {
        entry.has_load = true;
        entry.last = std::move(load.value());
        entry.last_report = dom_->now();
        entry.reports = 1;
      }
    }
  }
  entry.channel = channel;
  {
    std::scoped_lock lock(mu_);
    entries_[node.id().value] = std::move(entry);
  }
  collectors_.emplace_back(*dom_, [this, id = node.id(), channel] {
    collector_loop(id, channel);
  });
}

void NodeDirectory::collector_loop(NodeId id,
                                   std::shared_ptr<transport::MessageChannel> channel) {
  while (auto msg = channel->receive()) {
    if (msg->op != Opcode::LoadReport) continue;
    auto load = transport::decode_load(msg->payload);
    if (!load) continue;
    std::scoped_lock lock(mu_);
    auto it = entries_.find(id.value);
    if (it == entries_.end()) return;
    Entry& entry = it->second;
    if (entry.has_load && load->seq != 0 && load->seq <= entry.last.seq) {
      // Heartbeats are ordered on one channel; a non-advancing seq would
      // mean a daemon restart mid-subscription. Count, keep the newer view.
      stale_reports_counter().add(1);
      continue;
    }
    entry.has_load = true;
    entry.last = std::move(load.value());
    entry.last_report = dom_->now();
    ++entry.reports;
  }
}

void NodeDirectory::stop() {
  std::vector<vt::Thread> collectors;
  {
    std::scoped_lock lock(mu_);
    if (stopped_) return;
    stopped_ = true;
    // Closing the client ends wakes the collectors (receive returns
    // nullopt) and lets the daemon-side heartbeat pumps exit.
    for (auto& [id, entry] : entries_) {
      if (entry.channel != nullptr) entry.channel->close();
    }
    collectors.swap(collectors_);
  }
  collectors.clear();  // vt::Thread dtors join
}

const NodeDirectory::Entry* NodeDirectory::entry_locked(NodeId id) const {
  const auto it = entries_.find(id.value);
  return it != entries_.end() ? &it->second : nullptr;
}

bool NodeDirectory::suspect_locked(const Entry& e) const {
  if (!e.subscribed || !e.has_load) return false;
  const vt::Duration age = dom_->now() - e.last_report;
  return age > config_.heartbeat_interval * config_.suspect_after_missed;
}

bool NodeDirectory::dark_locked(const Entry& e) const {
  return e.has_load && e.last.vgpu_count == 0;
}

bool NodeDirectory::suspect(NodeId id) const {
  std::scoped_lock lock(mu_);
  const Entry* e = entry_locked(id);
  return e != nullptr && suspect_locked(*e);
}

bool NodeDirectory::dark(NodeId id) const {
  std::scoped_lock lock(mu_);
  const Entry* e = entry_locked(id);
  return e != nullptr && dark_locked(*e);
}

bool NodeDirectory::dispatchable(NodeId id) const {
  std::scoped_lock lock(mu_);
  const Entry* e = entry_locked(id);
  if (e == nullptr) return true;  // unwatched: no data is not bad news
  return !suspect_locked(*e) && !dark_locked(*e);
}

std::optional<transport::LoadSnapshot> NodeDirectory::snapshot_of(NodeId id) const {
  std::scoped_lock lock(mu_);
  const Entry* e = entry_locked(id);
  if (e == nullptr || !e->has_load) return std::nullopt;
  return e->last;
}

u64 NodeDirectory::report_count(NodeId id) const {
  std::scoped_lock lock(mu_);
  const Entry* e = entry_locked(id);
  return e != nullptr ? e->reports : 0;
}

bool NodeDirectory::subscribed(NodeId id) const {
  std::scoped_lock lock(mu_);
  const Entry* e = entry_locked(id);
  return e != nullptr && e->subscribed;
}

Node* NodeDirectory::pick_offload_target(NodeId self, double self_score) {
  std::scoped_lock lock(mu_);
  if (self_score < config_.high_watermark) {
    // Shedding below the high watermark would thrash: refuse.
    hysteresis_rejections_counter().add(1);
    return nullptr;
  }
  Node* best = nullptr;
  double best_score = std::numeric_limits<double>::infinity();
  for (const auto& [id, entry] : entries_) {
    if (id == self.value || entry.node == nullptr) continue;
    if (suspect_locked(entry) || dark_locked(entry)) continue;
    // Candidates without load data (v2 peers) are skipped for offload:
    // blind shedding could pile onto a busier node.
    if (!entry.subscribed || !entry.has_load) continue;
    const double score = entry.last.load_score();
    if (score < best_score) {
      best_score = score;
      best = entry.node;
    }
  }
  if (best == nullptr || best_score > config_.low_watermark) {
    hysteresis_rejections_counter().add(1);
    return nullptr;
  }
  return best;
}

}  // namespace gpuvm::cluster
