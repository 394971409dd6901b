// Planted-fault cases for commitbench's correctness checker: a clean run
// passes, and each planted fault fails it.
#include <gtest/gtest.h>

#include <string>

#include "checker.hpp"
#include "core/element.hpp"
#include "core/proofs.hpp"

namespace {

using namespace setchain;

constexpr std::uint32_t kNodes = 4;

class CheckerTest : public ::testing::Test {
 protected:
  CheckerTest() : pki_(7) {
    for (crypto::ProcessId p = 0; p < kNodes; ++p) pki_.register_process(p);
    run_.f = 1;
    run_.pki = &pki_;
    // Three epochs of two elements each, proofs from signers 0 and 1.
    for (std::uint64_t e = 1; e <= 3; ++e) {
      core::EpochRecord rec;
      rec.number = e;
      rec.ids = {core::make_element_id(kNodes, 2 * e), core::make_element_id(kNodes, 2 * e + 1)};
      rec.count = rec.ids.size();
      rec.hash = core::epoch_hash(e, {{rec.ids[0], 1}, {rec.ids[1], 2}},
                                  core::Fidelity::kFull);
      for (const auto id : rec.ids) run_.sent.insert(id);
      run_.commit_proofs[e] = {proof(0, rec), proof(1, rec)};
      run_.history.push_back(rec);
    }
    run_.quorum_history = run_.history;
  }

  core::EpochProof proof(crypto::ProcessId server, const core::EpochRecord& rec) const {
    return core::make_epoch_proof(pki_, server, rec.number, rec.hash, core::Fidelity::kFull);
  }

  static bool has_failure(const commitbench::CheckResult& r, const std::string& kind) {
    for (const auto& f : r.failures) {
      if (f.rfind(kind, 0) == 0) return true;
    }
    return false;
  }

  crypto::Pki pki_;
  commitbench::RunRecord run_;
};

TEST_F(CheckerTest, CleanRunPasses) {
  const auto r = commitbench::check_run(run_);
  EXPECT_TRUE(r.ok()) << (r.failures.empty() ? "" : r.failures.front());
  EXPECT_EQ(r.epoch_of.size(), 6u);
  EXPECT_EQ(r.epoch_of.at(run_.history[1].ids[0]), 2u);
}

TEST_F(CheckerTest, DuplicatedIdFails) {
  run_.history[2].ids.push_back(run_.history[0].ids[0]);
  EXPECT_TRUE(has_failure(commitbench::check_run(run_), "duplicate id"));
}

TEST_F(CheckerTest, UnknownIdFails) {
  run_.history[1].ids.push_back(core::make_element_id(kNodes + 1, 99));
  EXPECT_TRUE(has_failure(commitbench::check_run(run_), "unknown id"));
}

TEST_F(CheckerTest, ArtifactIdIsKnown) {
  const auto artifact = core::make_element_id(kNodes + 2, 1);
  run_.history[1].ids.push_back(artifact);
  run_.artifacts.insert(artifact);
  run_.quorum_history = run_.history;
  EXPECT_TRUE(commitbench::check_run(run_).ok());
}

TEST_F(CheckerTest, ElementMissingFromHistoryFails) {
  run_.sent.insert(core::make_element_id(kNodes, 1000));
  EXPECT_TRUE(has_failure(commitbench::check_run(run_), "missing from history"));
}

TEST_F(CheckerTest, RefusedElementMayBeMissing) {
  run_.sent.insert(core::make_element_id(kNodes, 1000));
  run_.not_accepted = 1;
  EXPECT_TRUE(commitbench::check_run(run_).ok());
}

TEST_F(CheckerTest, LateElementIsNotLostWhenUnsettled) {
  run_.sent.insert(core::make_element_id(kNodes, 1000));
  run_.settled = false;
  EXPECT_TRUE(commitbench::check_run(run_).ok());
}

TEST_F(CheckerTest, ForgedProofFails) {
  auto& ps = run_.commit_proofs[2];
  ps[1].sig[5] ^= 0x01;
  EXPECT_TRUE(has_failure(commitbench::check_run(run_), "commit proofs"));
}

TEST_F(CheckerTest, ProofOverAnotherHashFails) {
  run_.commit_proofs[2][1] = proof(1, run_.history[0]);
  run_.commit_proofs[2][1].epoch = 2;
  EXPECT_TRUE(has_failure(commitbench::check_run(run_), "commit proofs"));
}

TEST_F(CheckerTest, TooFewSignersFails) {
  run_.commit_proofs[3] = {proof(0, run_.history[2])};
  EXPECT_TRUE(has_failure(commitbench::check_run(run_), "commit proofs"));
}

TEST_F(CheckerTest, RepeatedSignerCountsOnce) {
  run_.commit_proofs[3] = {proof(2, run_.history[2]), proof(2, run_.history[2])};
  EXPECT_TRUE(has_failure(commitbench::check_run(run_), "commit proofs"));
}

TEST_F(CheckerTest, ProofForEpochOutsideHistoryFails) {
  core::EpochRecord ghost;
  ghost.number = 4;
  run_.commit_proofs[4] = {proof(0, ghost), proof(1, ghost)};
  EXPECT_TRUE(has_failure(commitbench::check_run(run_), "commit proofs"));
}

TEST_F(CheckerTest, QuorumDisagreementFails) {
  run_.quorum_history[1].hash[0] ^= 0xFF;
  EXPECT_TRUE(has_failure(commitbench::check_run(run_), "quorum view"));
}

TEST_F(CheckerTest, ShortQuorumViewFails) {
  run_.quorum_history.resize(1);
  EXPECT_TRUE(has_failure(commitbench::check_run(run_), "quorum view"));
}

}  // namespace
