#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "core/epoch_record.hpp"
#include "core/proofs.hpp"
#include "load/fleet.hpp"
#include "net/remote_node.hpp"
#include "spans.hpp"

namespace commitbench {

/// One client RPC as seen from outside the node: which frame type, how long
/// the round trip took, and how many payload bytes came back.
struct RpcSample {
  setchain::net::wire::MsgType type{};
  Clock::time_point start{};
  Clock::time_point end{};
  std::size_t bytes = 0;
  bool ok = false;
};

/// IRpcChannel decorator that times every call and records it as a sample
/// and a span. Owned by one thread at a time.
class TimedChannel final : public setchain::net::IRpcChannel {
 public:
  TimedChannel(std::unique_ptr<setchain::net::IRpcChannel> inner, SpanLog& spans)
      : inner_(std::move(inner)), spans_(spans) {}

  std::optional<setchain::net::wire::Frame> call(
      setchain::net::wire::MsgType type, setchain::codec::ByteView payload,
      std::chrono::milliseconds timeout) override;

  const std::vector<RpcSample>& samples() const { return samples_; }
  Clock::time_point last_end() const {
    return samples_.empty() ? Clock::time_point{} : samples_.back().end;
  }

 private:
  std::unique_ptr<setchain::net::IRpcChannel> inner_;
  SpanLog& spans_;
  std::vector<RpcSample> samples_;
};

/// What the observer learned about one epoch of the observed node.
struct EpochObs {
  Clock::time_point seen{};       ///< first epoch() reply that covered it
  Clock::time_point committed{};  ///< first reply with f+1 distinct signers
  std::vector<setchain::core::EpochProof> proofs;  ///< that reply's proofs
  bool is_committed() const { return committed != Clock::time_point{}; }
};

/// Follows one node from outside through its public client RPCs only.
/// During load it polls the cheap reads: epoch() stamps when each epoch
/// number first appears (consolidation), and proofs_for_epoch() on the
/// oldest epochs still short of f+1 signers stamps commit. It never takes a
/// snapshot while polling: a snapshot copies and sorts the node's whole
/// state on its event loop and would disturb what is measured.
class Observer {
 public:
  Observer(const setchain::load::Target& target, std::uint64_t cluster,
           setchain::crypto::ProcessId client_id, setchain::crypto::ProcessId node_id,
           std::uint32_t f, std::chrono::milliseconds poll_interval, SpanLog& spans);
  ~Observer();
  Observer(const Observer&) = delete;
  Observer& operator=(const Observer&) = delete;

  void start();
  /// Keep polling until the node has been quiet for `quiet` (no new epoch,
  /// every seen epoch committed) or `deadline` passes; then join the poll
  /// thread. Returns true when the node went quiet before the deadline.
  bool settle(std::chrono::milliseconds quiet, Clock::time_point deadline);

  /// The run's single full-state read, after settle(): the observed node's
  /// history (empty on RPC failure).
  std::vector<setchain::core::EpochRecord> final_history();

  /// Valid only after settle().
  const std::vector<EpochObs>& epochs() const { return epochs_; }
  const std::vector<RpcSample>& rpcs() const { return channel_->samples(); }
  std::uint64_t rpc_failures() const { return node_->rpc_failures(); }

 private:
  void run();
  void poll_once();

  std::uint32_t f_;
  std::chrono::milliseconds poll_;
  TimedChannel* channel_ = nullptr;  ///< owned by node_
  std::unique_ptr<setchain::net::RemoteNode> node_;
  std::vector<EpochObs> epochs_;
  std::size_t next_uncommitted_ = 0;
  Clock::time_point last_new_epoch_{};

  std::chrono::milliseconds quiet_{0};
  Clock::time_point deadline_{};
  bool went_quiet_ = false;
  std::atomic<bool> settling_{false};
  std::thread thread_;
};

}  // namespace commitbench
