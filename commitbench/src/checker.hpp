#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/epoch_record.hpp"
#include "core/proofs.hpp"
#include "crypto/pki.hpp"

namespace commitbench {

/// Everything one run observed that its outputs are checked against.
struct RunRecord {
  std::uint32_t f = 1;
  const setchain::crypto::Pki* pki = nullptr;
  /// The observed node's history from the run's single final snapshot.
  std::vector<setchain::core::EpochRecord> history;
  /// QuorumClient::get() across every node, taken after the snapshot.
  std::vector<setchain::core::EpochRecord> quorum_history;
  /// Epoch -> the proofs whose f+1 distinct signers stamped its commit time.
  std::map<std::uint64_t, std::vector<setchain::core::EpochProof>> commit_proofs;
  /// Ids the load generator sent, and ids the rollup agents posted.
  std::unordered_set<setchain::core::ElementId> sent;
  std::unordered_set<setchain::core::ElementId> artifacts;
  /// Sent elements the nodes did not accept (refused or never acked): only
  /// these may be absent from the history.
  std::uint64_t not_accepted = 0;
  /// False when the settle window ended with the pipeline still busy: then
  /// a sent element missing from the history is late (a failed element),
  /// not lost.
  bool settled = true;
};

struct CheckResult {
  std::vector<std::string> failures;
  /// Element id -> epoch number, for every id in the history.
  std::unordered_map<setchain::core::ElementId, std::uint64_t> epoch_of;
  bool ok() const { return failures.empty(); }
};

/// The run's correctness checks; any failure fails the run.
/// - History epochs are numbered 1..k and every id appears exactly once.
/// - Every id is one the run sent or one its rollup agents posted.
/// - Every accepted element is in the history (once the run settled).
/// - Every epoch used for commit timing holds f+1 valid Ed25519 epoch-proofs
///   from distinct signers over the history's hash for that epoch.
/// - The quorum view agrees with the observed history, epoch for epoch, at
///   least up to the last epoch used for commit timing.
CheckResult check_run(const RunRecord& run);

}  // namespace commitbench
