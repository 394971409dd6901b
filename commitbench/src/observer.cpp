#include "observer.hpp"

#include <unordered_set>

namespace commitbench {

namespace net = setchain::net;

namespace {
constexpr std::uint64_t kMaxEpochJump = 1'000'000;

const char* rpc_span_name(net::wire::MsgType t) {
  switch (t) {
    case net::wire::MsgType::kEpochRequest: return "rpc.epoch";
    case net::wire::MsgType::kProofsRequest: return "rpc.proofs";
    case net::wire::MsgType::kSnapshotRequest: return "rpc.snapshot";
    default: return "rpc.other";
  }
}
}  // namespace

std::optional<net::wire::Frame> TimedChannel::call(net::wire::MsgType type,
                                                   setchain::codec::ByteView payload,
                                                   std::chrono::milliseconds timeout) {
  RpcSample s;
  s.type = type;
  s.start = Clock::now();
  auto reply = inner_->call(type, payload, timeout);
  s.end = Clock::now();
  s.ok = reply.has_value();
  s.bytes = reply ? reply->payload.size() : 0;
  spans_.add(rpc_span_name(type), samples_.size() + 1, 0, s.start, s.end);
  samples_.push_back(s);
  return reply;
}

Observer::Observer(const setchain::load::Target& target, std::uint64_t cluster,
                   setchain::crypto::ProcessId client_id,
                   setchain::crypto::ProcessId node_id, std::uint32_t f,
                   std::chrono::milliseconds poll_interval, SpanLog& spans)
    : f_(f), poll_(poll_interval) {
  net::TcpRpcChannel::Config cc;
  cc.host = target.host;
  cc.port = target.port;
  cc.client_id = client_id;
  cc.cluster = cluster;
  auto channel =
      std::make_unique<TimedChannel>(std::make_unique<net::TcpRpcChannel>(cc), spans);
  channel_ = channel.get();
  node_ = std::make_unique<net::RemoteNode>(std::move(channel), node_id);
}

Observer::~Observer() {
  settle(std::chrono::milliseconds(0), Clock::now());
}

void Observer::start() {
  last_new_epoch_ = Clock::now();
  thread_ = std::thread([this] { run(); });
}

bool Observer::settle(std::chrono::milliseconds quiet, Clock::time_point deadline) {
  if (!thread_.joinable()) return went_quiet_;
  quiet_ = quiet;
  deadline_ = deadline;
  settling_.store(true, std::memory_order_release);
  thread_.join();
  return went_quiet_;
}

void Observer::run() {
  for (;;) {
    poll_once();
    if (settling_.load(std::memory_order_acquire)) {
      const auto now = Clock::now();
      if (next_uncommitted_ == epochs_.size() && now - last_new_epoch_ >= quiet_) {
        went_quiet_ = true;
        return;
      }
      if (now >= deadline_) return;
    }
    std::this_thread::sleep_for(poll_);
  }
}

void Observer::poll_once() {
  const std::uint64_t e = node_->epoch();
  // A reply far past anything a run can produce is a bad reply, not
  // growth: it must not size the epoch table.
  if (e > epochs_.size() && e - epochs_.size() <= kMaxEpochJump) {
    const std::size_t old = epochs_.size();
    const Clock::time_point seen = channel_->last_end();
    epochs_.resize(e);
    for (std::size_t i = old; i < e; ++i) epochs_[i].seen = seen;
    last_new_epoch_ = seen;
  }
  // Oldest uncommitted epochs first; proofs land roughly in epoch order, so
  // one look past the first epoch still short of f+1 is enough.
  int misses = 0;
  for (std::size_t i = next_uncommitted_; i < epochs_.size() && misses < 2; ++i) {
    if (epochs_[i].is_committed()) continue;
    const auto& proofs = node_->proofs_for_epoch(i + 1);
    std::unordered_set<setchain::crypto::ProcessId> signers;
    for (const auto& p : proofs) {
      if (p.epoch == i + 1) signers.insert(p.server);
    }
    if (signers.size() >= f_ + 1) {
      epochs_[i].committed = channel_->last_end();
      epochs_[i].proofs = proofs;
    } else {
      ++misses;
    }
  }
  while (next_uncommitted_ < epochs_.size() && epochs_[next_uncommitted_].is_committed()) {
    ++next_uncommitted_;
  }
}

std::vector<setchain::core::EpochRecord> Observer::final_history() {
  const auto snap = node_->snapshot();
  if (snap.history == nullptr) return {};
  return *snap.history;
}

}  // namespace commitbench
