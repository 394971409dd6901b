#include "checker.hpp"

#include <algorithm>

namespace commitbench {

namespace core = setchain::core;

namespace {

/// Collects failures of one kind, keeping the first few messages verbatim
/// and the rest as a count, so a broken run does not print a million lines.
class FailureSink {
 public:
  FailureSink(std::vector<std::string>& out, std::string kind)
      : out_(out), kind_(std::move(kind)) {}
  ~FailureSink() {
    if (count_ > kKeep) {
      out_.push_back(kind_ + ": " + std::to_string(count_ - kKeep) + " more");
    }
  }
  FailureSink(const FailureSink&) = delete;
  FailureSink& operator=(const FailureSink&) = delete;

  void add(const std::string& what) {
    if (++count_ <= kKeep) out_.push_back(kind_ + ": " + what);
  }

 private:
  static constexpr std::size_t kKeep = 5;
  std::vector<std::string>& out_;
  std::string kind_;
  std::size_t count_ = 0;
};

bool same_record(const core::EpochRecord& a, const core::EpochRecord& b) {
  return a.number == b.number && a.hash == b.hash && a.ids == b.ids;
}

}  // namespace

CheckResult check_run(const RunRecord& run) {
  CheckResult r;
  {
    FailureSink numbering(r.failures, "history numbering");
    FailureSink dup(r.failures, "duplicate id");
    FailureSink unknown(r.failures, "unknown id");
    for (std::size_t i = 0; i < run.history.size(); ++i) {
      const core::EpochRecord& rec = run.history[i];
      if (rec.number != i + 1) {
        numbering.add("slot " + std::to_string(i + 1) + " holds epoch " +
                      std::to_string(rec.number));
      }
      for (const core::ElementId id : rec.ids) {
        const auto [it, fresh] = r.epoch_of.emplace(id, rec.number);
        if (!fresh) {
          dup.add(std::to_string(id) + " in epochs " + std::to_string(it->second) +
                  " and " + std::to_string(rec.number));
        }
        if (!run.sent.contains(id) && !run.artifacts.contains(id)) {
          unknown.add(std::to_string(id) + " in epoch " + std::to_string(rec.number));
        }
      }
    }
  }

  std::uint64_t missing = 0;
  core::ElementId first_missing = 0;
  for (const core::ElementId id : run.sent) {
    if (!r.epoch_of.contains(id)) {
      if (missing++ == 0 || id < first_missing) first_missing = id;
    }
  }
  if (run.settled && missing > run.not_accepted) {
    r.failures.push_back("missing from history: " + std::to_string(missing) +
                         " sent ids (only " + std::to_string(run.not_accepted) +
                         " were not accepted), e.g. " + std::to_string(first_missing));
  }

  std::uint64_t last_timed = 0;
  {
    FailureSink proofs(r.failures, "commit proofs");
    for (const auto& [epoch, ps] : run.commit_proofs) {
      last_timed = std::max(last_timed, epoch);
      if (epoch == 0 || epoch > run.history.size()) {
        proofs.add("epoch " + std::to_string(epoch) + " is not in the history");
        continue;
      }
      const core::EpochHash& hash = run.history[epoch - 1].hash;
      std::unordered_set<setchain::crypto::ProcessId> signers;
      for (const core::EpochProof& p : ps) {
        if (p.epoch == epoch &&
            core::valid_proof(p, hash, *run.pki, core::Fidelity::kFull)) {
          signers.insert(p.server);
        }
      }
      if (signers.size() < run.f + 1) {
        proofs.add("epoch " + std::to_string(epoch) + " has " +
                   std::to_string(signers.size()) + " valid distinct signers, needs " +
                   std::to_string(run.f + 1));
      }
    }
  }

  {
    FailureSink quorum(r.failures, "quorum view");
    if (run.quorum_history.size() < last_timed) {
      quorum.add("f+1 view ends at epoch " + std::to_string(run.quorum_history.size()) +
                 ", before the last timed epoch " + std::to_string(last_timed));
    }
    const std::size_t common = std::min(run.quorum_history.size(), run.history.size());
    for (std::size_t i = 0; i < common; ++i) {
      if (!same_record(run.quorum_history[i], run.history[i])) {
        quorum.add("epoch " + std::to_string(i + 1) +
                   " differs from the observed node's");
      }
    }
  }
  return r;
}

}  // namespace commitbench
