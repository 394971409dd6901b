// commitbench: commit latency, committed throughput and CPU per commit of a
// live 4-node Setchain cluster, where an element counts as committed once
// its epoch carries f+1 valid epoch-proofs.
//
// One run boots the in-process cluster (load::LocalCluster: the daemon's
// own NodeHost/TcpTransport stack, Hashchain on the consensus ledger, f=1),
// drives it open-loop with load::LoadFleet for --seconds, and follows every
// offered element to commit from outside the nodes, through client RPCs
// only.
//
//   commitbench --workload steady|busy|rollup --seed N --seconds S
//               --trace 0|1 [--out-dir DIR] [--git-commit SHA]
//
// Prints every metric as `metric <name> <value> <unit> n=<samples>`, then a
// single JSON result line: the end-to-end metrics with --trace 0, the
// per-layer metrics with --trace 1. --trace 1 also replays the run's
// inputs through single layers and writes one span per element stage,
// observer RPC and replayed call. Exit 0: every correctness check passed;
// 1: a check failed; 2: bad usage.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "api/quorum_client.hpp"
#include "checker.hpp"
#include "core/element.hpp"
#include "core/hashchain.hpp"
#include "crypto/pki.hpp"
#include "exec/token_tx.hpp"
#include "load/arrival.hpp"
#include "load/fleet.hpp"
#include "load/local_cluster.hpp"
#include "load/report.hpp"
#include "net/node_host.hpp"
#include "net/remote_node.hpp"
#include "observer.hpp"
#include "replay.hpp"
#include "spans.hpp"
#include "workload/arbitrum_like.hpp"
#include "workload/rollup.hpp"

namespace {

using namespace setchain;
using commitbench::Clock;

// ------------------------------------------------------------- workloads
// Why each exists: README.md. The rates are fixed per workload, never
// chosen per run.
struct Workload {
  const char* name;
  double rate;  ///< Poisson arrivals per second across the fleet
  bool rollup;
};
constexpr Workload kWorkloads[] = {
    {"steady", 1000, false},
    {"busy", 2500, false},
    {"rollup", 1000, true},
};

// ------------------------------------------- deployment (setchain_loadgen's)
constexpr std::uint32_t kNodes = 4;
constexpr std::uint64_t kPkiSeed = 42;
constexpr std::uint32_t kSessions = kNodes;  ///< one fleet session per node
/// Unacked adds per session. An ack can stall for ~100 ms on a busy node
/// event loop; a window that fills then queues arrivals in the generator,
/// and those still queued when load ends are never sent. This one covers
/// well over a second of a session's arrivals.
constexpr std::uint32_t kWindow = 1024;
constexpr std::uint32_t kObservedNode = 0;
constexpr auto kPollInterval = std::chrono::milliseconds(5);
/// Quiet period that ends the settle window: no new epoch and every seen
/// epoch committed for this long.
constexpr auto kSettleQuiet = std::chrono::milliseconds(500);
constexpr double kSettleMaxS = 30.0;
/// Mesh-dial allowance after boot, as setchain_loadgen waits.
constexpr auto kMeshDial = std::chrono::milliseconds(300);
/// Set-ups per run; the last one is measured, and setup_s is their median.
constexpr int kSetupRuns = 3;
/// kv elements are signed in this many chunks, one thread each.
constexpr std::size_t kSignChunks = 4;
/// The rollup as in BENCH_load.json: dishonest operator, 64-epoch window.
constexpr std::uint32_t kFraudWindow = 64;

net::NodeHostConfig deployment() {
  net::NodeHostConfig c;
  c.n = kNodes;
  c.f = (kNodes - 1) / 3;
  c.algorithm = runner::Algorithm::kHashchain;
  c.ledger_mode = runner::LedgerMode::kConsensus;
  c.seed = kPkiSeed;
  c.collector_limit = 64;
  c.collector_timeout = sim::from_millis(50);
  c.block_interval = sim::from_millis(50);
  c.sync_interval = sim::from_millis(400);
  return c;
}

// Client slots n .. n+client_slots-1: the last four belong to the
// benchmark's own readers and the rollup agents, the rest sign L2 txs.
crypto::ProcessId quorum_reader_client(const net::NodeHostConfig& c) {
  return c.n + c.client_slots - 4;
}
crypto::ProcessId observer_client(const net::NodeHostConfig& c) {
  return c.n + c.client_slots - 3;
}
crypto::ProcessId operator_client(const net::NodeHostConfig& c) {
  return c.n + c.client_slots - 2;
}
crypto::ProcessId verifier_client(const net::NodeHostConfig& c) {
  return c.n + c.client_slots - 1;
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
Clock::time_point after(Clock::time_point t, double s) {
  return t + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(s));
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) { return t.tv_sec + t.tv_usec / 1e6; };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

/// Percentile with linear interpolation between closest ranks.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// The p-th percentile of each one-second window of due time; `v[i]`
/// belongs to arrival i, due `due_s[i]` seconds into the load.
std::vector<double> per_second(const std::vector<double>& v, const std::vector<double>& due_s,
                               double p) {
  std::vector<std::vector<double>> seconds;
  for (std::size_t i = 0; i < v.size(); ++i) {
    const auto sec = static_cast<std::size_t>(due_s[i]);
    if (seconds.size() <= sec) seconds.resize(sec + 1);
    seconds[sec].push_back(v[i]);
  }
  std::vector<double> out;
  for (const auto& sec : seconds) {
    if (!sec.empty()) out.push_back(percentile(sec, p));
  }
  return out;
}

// ------------------------------------------------------------------ inputs
/// The run's generated inputs: pre-signed elements, element i offered as
/// the i-th arrival of the seeded schedule.
struct Inputs {
  std::vector<core::Element> kv;
  workload::rollup::TxPool tx;
  bool rollup = false;
  const std::vector<core::Element>& elements() const { return rollup ? tx.elements : kv; }
};

Inputs make_inputs(const Workload& w, std::uint64_t seed, std::size_t count,
                   crypto::Pki& pki, const net::NodeHostConfig& c) {
  Inputs in;
  in.rollup = w.rollup;
  if (w.rollup) {
    workload::rollup::TxPoolConfig pc;
    pc.sessions = kSessions;
    pc.budget = count;
    pc.first_client = c.n;
    pc.client_span = c.client_slots - 4;
    pc.seed = seed;
    in.tx = workload::rollup::build_tx_pool(pc, pki);
  } else {
    // Signing dominates set-up. A fixed number of chunks, each with its own
    // seeded generator, keeps the inputs a function of the seed alone
    // whatever the host's core count.
    in.kv.resize(count);
    std::vector<std::thread> signers;
    for (std::size_t chunk = 0; chunk < kSignChunks; ++chunk) {
      signers.emplace_back([&, chunk] {
        workload::ArbitrumLikeGenerator gen((seed ^ 0xBE7C4ULL) + chunk);
        core::ElementFactory factory(gen, pki, core::Fidelity::kFull);
        const std::size_t end = (chunk + 1) * count / kSignChunks;
        for (std::size_t s = chunk * count / kSignChunks; s < end; ++s) {
          in.kv[s] = factory.make(c.n, s);
        }
      });
    }
    for (auto& t : signers) t.join();
  }
  return in;
}

/// Wraps the fleet's element source to stamp when each element is sent.
/// The fleet assigns arrivals to sessions round-robin and each session
/// takes pool stripe s, s+S, ..., so pool index i is arrival i of the
/// schedule as long as every session stays up and nothing is shed (both
/// checked after the run).
class StampingSource final : public load::IElementSource {
 public:
  StampingSource(const std::vector<core::Element>& pool, std::uint32_t sessions)
      : pool_(pool), inner_(pool, sessions), sent_at_(pool.size()) {}

  const core::Element* next(std::uint32_t session) override {
    const core::Element* e = inner_.next(session);
    if (e != nullptr) sent_at_[static_cast<std::size_t>(e - pool_.data())] = Clock::now();
    return e;
  }
  /// Send time of pool element i; the epoch of the clock when never sent.
  Clock::time_point sent_at(std::size_t i) const { return sent_at_[i]; }
  bool sent(std::size_t i) const { return sent_at_[i] != Clock::time_point{}; }

 private:
  const std::vector<core::Element>& pool_;
  load::PooledElementSource inner_;
  std::vector<Clock::time_point> sent_at_;
};

/// One booted deployment: inputs signed, cluster up, fleet connected.
struct Deployment {
  Inputs inputs;
  std::unique_ptr<load::LocalCluster> cluster;
  std::unique_ptr<load::LoadFleet> fleet;
  std::uint32_t connected = 0;

  ~Deployment() {
    if (fleet) fleet->close();
    if (cluster) cluster->shutdown();
  }
};

std::unique_ptr<Deployment> set_up(const Workload& w, std::uint64_t seed,
                                   std::size_t count, crypto::Pki& pki,
                                   const net::NodeHostConfig& c) {
  auto d = std::make_unique<Deployment>();
  d->inputs = make_inputs(w, seed, count, pki, c);
  d->cluster = std::make_unique<load::LocalCluster>(c);
  d->cluster->start();
  std::this_thread::sleep_for(kMeshDial);
  load::FleetConfig fc;
  fc.targets = d->cluster->targets();
  fc.cluster = d->cluster->cluster_id();
  fc.sessions = kSessions;
  fc.window = kWindow;
  d->fleet = std::make_unique<load::LoadFleet>(fc);
  d->connected = d->fleet->connect();
  return d;
}

// ----------------------------------------------------------------- measure
/// Everything the measured deployment showed, from load start to its
/// cluster's shutdown. Per-element vectors are indexed by offered arrival.
struct Measurement {
  double run_s = 0;     ///< load start to end of settle
  double settle_s = 0;  ///< load end to end of settle
  double cpu_s = 0;     ///< process CPU over load and settle
  std::vector<double> commit_ms, l2_ms;                  ///< every offered element
  std::vector<double> consolidate_ms, prove_ms, lag_ms;  ///< committed / sent only
  std::uint64_t offered = 0, committed = 0, in_window = 0;
  load::PhaseStats phase;
  net::ITransport::Counters transport{};
  std::uint64_t heights = 0, fetches = 0, fetch_fails = 0, backlog = 0;
  std::vector<double> epoch_rpc_us;
  double snapshot_ms = 0, snapshot_bytes = 0;
  std::uint64_t rpc_epoch = 0, rpc_proofs = 0, rpc_snapshot = 0, rpc_failures = 0;
  std::uint64_t history_ids = 0;
  std::uint64_t fraud_detect_epochs = 0, fraud_missed = 0;
  workload::rollup::RollupReport rollup;
  load::ProcSample proc;
  std::vector<std::string> failures;
  std::vector<core::EpochRecord> history;  ///< the observed node's, at the end
};

void check_rollup(const workload::rollup::RollupReport& r,
                  const workload::rollup::CommitmentStatus* corrupted,
                  std::vector<std::string>& failures) {
  if (!r.roots_agree) failures.push_back("rollup: operator and verifier roots diverged");
  if (r.unknown_ids) failures.push_back("rollup: an adopted epoch held an unknown id");
  if (r.commitments_posted == 0 || r.commitments_consolidated != r.commitments_posted) {
    failures.push_back("rollup: " + std::to_string(r.commitments_consolidated) + " of " +
                       std::to_string(r.commitments_posted) + " commitments consolidated");
  }
  if (corrupted == nullptr || !corrupted->mismatch || r.mismatches != 1 ||
      r.commitments_ok + 1 != r.commitments_consolidated) {
    failures.push_back("rollup: honest commitments must all match and only the corrupted "
                       "one mismatch (mismatches " + std::to_string(r.mismatches) + ", ok " +
                       std::to_string(r.commitments_ok) + ")");
  }
  if (corrupted == nullptr || corrupted->fraud_consolidated_at == 0 ||
      r.fraud_proofs_consolidated != 1) {
    failures.push_back("rollup: the fraud proof did not consolidate");
  }
}

/// Drives the booted deployment for `seconds` on the seeded schedule whose
/// due times are `due_s`, settles, takes the final reads, shuts the cluster
/// down and checks what it saw.
Measurement measure(const Workload& w, Deployment& dep, const load::ArrivalConfig& arrival,
                    const std::vector<double>& due_s, double seconds, crypto::Pki& pki,
                    const net::NodeHostConfig& ncfg, commitbench::SpanLog& spans) {
  Measurement m;
  const auto& pool = dep.inputs.elements();
  const auto targets = dep.cluster->targets();
  const std::uint64_t cluster_id = dep.cluster->cluster_id();

  // ------------------------------------------------------ load + settle
  commitbench::Observer observer(targets[kObservedNode], cluster_id, observer_client(ncfg),
                                 kObservedNode, ncfg.f, kPollInterval, spans);
  observer.start();
  std::unique_ptr<workload::rollup::RollupHarness> harness;
  if (w.rollup) {
    workload::rollup::RollupConfig rc;
    rc.f = ncfg.f;
    rc.fraud_window = kFraudWindow;
    rc.dishonest = true;
    rc.operator_client = operator_client(ncfg);
    rc.verifier_client = verifier_client(ncfg);
    harness = std::make_unique<workload::rollup::RollupHarness>(targets, cluster_id, pki,
                                                                dep.inputs.tx, rc);
    harness->start();
  }

  StampingSource source(pool, kSessions);
  const double cpu0 = cpu_seconds();
  const Clock::time_point t0 = Clock::now();
  m.phase = dep.fleet->run_phase(source, arrival, seconds);
  const Clock::time_point t_load_end = after(t0, seconds);
  m.proc = load::sample_proc();
  if (harness) m.rollup = harness->finish();
  const bool settled = observer.settle(kSettleQuiet, after(Clock::now(), kSettleMaxS));
  m.cpu_s = cpu_seconds() - cpu0;
  const Clock::time_point t_settled = Clock::now();
  m.run_s = seconds_between(t0, t_settled);
  m.settle_s = seconds_between(t_load_end, t_settled);

  m.history = observer.final_history();
  std::vector<core::EpochRecord> quorum_history;
  {
    std::vector<std::unique_ptr<net::RemoteNode>> nodes;
    for (std::uint32_t i = 0; i < ncfg.n; ++i) {
      net::TcpRpcChannel::Config cc;
      cc.host = targets[i].host;
      cc.port = targets[i].port;
      cc.client_id = quorum_reader_client(ncfg);
      cc.cluster = cluster_id;
      nodes.push_back(std::make_unique<net::RemoteNode>(
          std::make_unique<net::TcpRpcChannel>(cc), i));
    }
    auto qc = api::make_quorum_client(nodes, pki, ncfg.f, core::Fidelity::kFull);
    quorum_history = qc.get().history;
  }

  dep.fleet->close();
  m.transport = dep.cluster->counters_total();
  dep.cluster->shutdown();
  m.heights = dep.cluster->host(kObservedNode).ledger().height();
  for (std::uint32_t i = 0; i < ncfg.n; ++i) {
    const auto* hc =
        dynamic_cast<const core::HashchainServer*>(&dep.cluster->host(i).server());
    if (hc == nullptr) continue;
    m.fetches += hc->fetches_started();
    m.fetch_fails += hc->fetches_failed();
    m.backlog += hc->consolidation_backlog();
  }

  // ------------------------------------------------------------- checks
  const load::PhaseStats& phase = m.phase;
  commitbench::RunRecord record;
  record.f = ncfg.f;
  record.pki = &pki;
  record.history = m.history;
  record.quorum_history = std::move(quorum_history);
  record.settled = settled;
  const auto& epochs = observer.epochs();
  for (std::size_t i = 0; i < epochs.size(); ++i) {
    if (epochs[i].is_committed()) record.commit_proofs.emplace(i + 1, epochs[i].proofs);
  }
  for (std::size_t i = 0; i < pool.size(); ++i) {
    if (source.sent(i)) record.sent.insert(pool[i].id);
  }
  for (const auto& cs : m.rollup.commitments) {
    record.artifacts.insert(cs.element);
    if (cs.fraud_element != 0) record.artifacts.insert(cs.fraud_element);
  }
  record.not_accepted = phase.sent - std::min(phase.sent, phase.accepted);
  const commitbench::CheckResult check = commitbench::check_run(record);
  m.failures = check.failures;

  if (dep.connected != kSessions || phase.sessions_alive != kSessions ||
      phase.io_errors != 0 || phase.decode_errors != 0) {
    m.failures.push_back("load generator lost sessions: connected " +
                         std::to_string(dep.connected) + ", alive " +
                         std::to_string(phase.sessions_alive) + ", io errors " +
                         std::to_string(phase.io_errors) + ", decode errors " +
                         std::to_string(phase.decode_errors));
  }
  if (phase.shed != 0) {
    m.failures.push_back("generator shed " + std::to_string(phase.shed) +
                         " arrivals: due times no longer map to elements, run invalid");
  }
  for (std::size_t i = 0; i < pool.size(); ++i) {
    if (source.sent(i) && source.sent_at(i) < after(t0, due_s[i])) {
      m.failures.push_back("element " + std::to_string(i) +
                           " was sent before its due time: arrival mapping broken");
      break;
    }
  }
  if (!settled) {
    std::printf("warning: the observed node did not go quiet within %.0f s of load end\n",
                kSettleMaxS);
  }

  std::map<std::uint64_t, const workload::rollup::CommitmentStatus*> commitment_for;
  if (w.rollup) {
    const workload::rollup::CommitmentStatus* corrupted = nullptr;
    for (const auto& cs : m.rollup.commitments) {
      if (cs.corrupted) corrupted = &cs;
      else commitment_for.emplace(cs.epoch, &cs);
    }
    check_rollup(m.rollup, corrupted, m.failures);
    if (corrupted != nullptr) {
      if (corrupted->fraud_consolidated_at >= corrupted->consolidated_at) {
        m.fraud_detect_epochs = corrupted->fraud_consolidated_at - corrupted->consolidated_at;
      }
      m.fraud_missed = corrupted->caught_in_window ? 0 : 1;
    }
  }

  // ----------------------------------------------------- element metrics
  m.offered = std::min<std::size_t>(phase.offered, due_s.size());
  for (std::size_t i = 0; i < m.offered; ++i) {
    const auto due = after(t0, due_s[i]);
    const double missed_ms = ms_between(due, t_settled);  // lower bound for a failure
    const commitbench::EpochObs* ob = nullptr;
    std::uint64_t epoch = 0;
    if (source.sent(i)) {
      m.lag_ms.push_back(ms_between(due, source.sent_at(i)));
      if (const auto it = check.epoch_of.find(pool[i].id); it != check.epoch_of.end()) {
        epoch = it->second;
        if (epoch >= 1 && epoch <= epochs.size() && epochs[epoch - 1].is_committed()) {
          ob = &epochs[epoch - 1];
        }
      }
    }
    if (ob == nullptr) {
      m.commit_ms.push_back(missed_ms);
      if (w.rollup) m.l2_ms.push_back(missed_ms);
      continue;
    }
    ++m.committed;
    if (ob->committed <= t_load_end) ++m.in_window;
    m.commit_ms.push_back(ms_between(due, ob->committed));
    m.consolidate_ms.push_back(ms_between(due, ob->seen));
    m.prove_ms.push_back(ms_between(ob->seen, ob->committed));
    spans.add("stage.consolidate", pool[i].id, 0, due, ob->seen);
    spans.add("stage.prove", pool[i].id, 0, ob->seen, ob->committed);
    if (w.rollup) {
      // L2 final: the honest commitment covering this epoch consolidated.
      const auto it = commitment_for.find(epoch);
      const std::uint64_t p = it == commitment_for.end() ? 0 : it->second->consolidated_at;
      m.l2_ms.push_back(p >= 1 && p <= epochs.size() ? ms_between(due, epochs[p - 1].seen)
                                                      : missed_ms);
    }
  }

  for (const auto& s : observer.rpcs()) {
    switch (s.type) {
      case net::wire::MsgType::kEpochRequest:
        ++m.rpc_epoch;
        if (s.ok) {
          m.epoch_rpc_us.push_back(
              std::chrono::duration<double, std::micro>(s.end - s.start).count());
        }
        break;
      case net::wire::MsgType::kProofsRequest: ++m.rpc_proofs; break;
      case net::wire::MsgType::kSnapshotRequest:
        ++m.rpc_snapshot;
        m.snapshot_ms = ms_between(s.start, s.end);
        m.snapshot_bytes = static_cast<double>(s.bytes);
        break;
      default: break;
    }
  }
  m.rpc_failures = observer.rpc_failures();
  for (const auto& rec : m.history) m.history_ids += rec.ids.size();
  return m;
}

// ----------------------------------------------------------------- output
struct Metric {
  std::string name;
  double value = 0;
  const char* unit = "";
  std::uint64_t n = 0;  ///< samples behind the value
};

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(ch) < 0x20) continue;
    out.push_back(ch);
  }
  return out + "\"";
}

std::string metrics_json(const std::vector<Metric>& ms, bool with_n) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(ms[i].name) + ": {\"value\": " + json_number(ms[i].value) +
           ", \"unit\": " + json_string(ms[i].unit);
    if (with_n) out += ", \"n\": " + std::to_string(ms[i].n);
    out += "}";
  }
  return out + "}";
}

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir;
  std::string git_commit = "unknown";
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload steady|busy|rollup --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR] [--git-commit SHA]\n",
               argv0);
  return 2;
}

std::optional<Options> parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return std::nullopt;
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        for (const Workload& w : kWorkloads) {
          if (v == w.name) o.workload = &w;
        }
        if (o.workload == nullptr) return std::nullopt;
      } else if (a == "--seed") {
        o.seed = std::stoull(v);
      } else if (a == "--seconds") {
        o.seconds = std::stod(v);
      } else if (a == "--trace") {
        if (v != "0" && v != "1") return std::nullopt;
        o.trace = v == "1";
      } else if (a == "--out-dir") {
        o.out_dir = v;
      } else if (a == "--git-commit") {
        o.git_commit = v;
      } else {
        return std::nullopt;
      }
    } catch (...) {
      return std::nullopt;
    }
  }
  if (o.workload == nullptr || !(o.seconds > 0) || o.seconds > 120) return std::nullopt;
  return o;
}

/// Layer replay on the run's inputs and history.
std::vector<commitbench::LayerCost> replay(const Workload& w, const Options& opt,
                                           crypto::Pki& pki, const net::NodeHostConfig& ncfg,
                                           const Inputs& inputs, const Measurement& m,
                                           commitbench::SpanLog& spans) {
  const auto& pool = inputs.elements();
  const double fill =
      m.history.empty() ? 1 : static_cast<double>(m.history_ids) / m.history.size();
  std::unordered_map<core::ElementId, std::size_t> by_id;
  for (std::size_t i = 0; i < pool.size(); ++i) by_id.emplace(pool[i].id, i);

  workload::ArbitrumLikeGenerator gen(opt.seed ^ 0x5167ULL);
  core::ElementFactory factory(gen, pki, core::Fidelity::kFull);
  commitbench::ReplayInput ri;
  ri.n = ncfg.n;
  ri.pki = &pki;
  ri.pool = &pool;
  ri.history = &m.history;
  ri.batch_size = std::clamp<std::size_t>(static_cast<std::size_t>(std::lround(fill)), 1,
                                          ncfg.collector_limit);
  ri.sign_element = [&](std::size_t k) {
    // Fresh sequence numbers, so no replayed element repeats a run's id.
    const std::uint64_t seq = (std::uint64_t{1} << 32) + k;
    if (!w.rollup) return factory.make(ncfg.n, seq);
    const core::Element& src = pool[k % pool.size()];
    const auto tx = exec::parse_token_tx(src.payload);
    return exec::make_token_element(pki, src.client, seq, tx.value_or(exec::TokenTx{}));
  };
  ri.genesis = [&](exec::EpochExecutor& ex) {
    if (w.rollup) inputs.tx.genesis_into(ex);
  };
  ri.lookup = [&](core::ElementId id) -> const core::Element* {
    const auto it = by_id.find(id);
    return it == by_id.end() ? nullptr : &pool[it->second];
  };
  return commitbench::replay_layers(ri, spans);
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt_parsed = parse(argc, argv);
  if (!opt_parsed) return usage(argv[0]);
  const Options& opt = *opt_parsed;
  const Workload& w = *opt.workload;
  const net::NodeHostConfig ncfg = deployment();
  const Clock::time_point origin = Clock::now();

  crypto::Pki pki(ncfg.seed);
  for (crypto::ProcessId p = 0; p < ncfg.n + ncfg.client_slots; ++p) {
    pki.register_process(p);
  }

  // The seeded schedule, replayed up front: its length sizes the input
  // pool, and its offsets are each element's due time.
  load::ArrivalConfig arrival;
  arrival.kind = load::ArrivalKind::kPoisson;
  arrival.rate = w.rate;
  arrival.seed = opt.seed;
  std::vector<double> due_s;
  {
    load::ArrivalProcess schedule(arrival);
    for (double t = schedule.next(); t < opt.seconds; t = schedule.next()) due_s.push_back(t);
  }

  // Set up kSetupRuns times and measure the last deployment; tearing down
  // the earlier ones is not set-up time.
  std::vector<double> setup_s;
  std::unique_ptr<Deployment> dep;
  for (int k = 0; k < kSetupRuns; ++k) {
    dep.reset();
    const auto t = Clock::now();
    dep = set_up(w, opt.seed, due_s.size(), pki, ncfg);
    setup_s.push_back(seconds_between(t, Clock::now()));
  }
  commitbench::SpanLog spans(opt.trace);
  const Measurement m = measure(w, *dep, arrival, due_s, opt.seconds, pki, ncfg, spans);
  const std::vector<std::string>& failures = m.failures;

  const std::uint64_t failed = m.offered - m.committed;
  const double per_commit = m.committed == 0 ? 0 : 1.0 / static_cast<double>(m.committed);
  const auto ratio = [](double a, double b) { return b == 0 ? 0 : a / b; };
  const std::uint64_t n = m.offered;
  const std::size_t epochs = m.history.size();
  const auto& ack = m.phase.latency_us;
  const auto& tc = m.transport;

  // Medians are pooled over every offered element. The gated p90 is the
  // median second's p90: latency here drifts by tens of percent over
  // seconds, and a p90 pooled over the whole run swings with its few worst
  // seconds (those stay visible in the pooled stage.commit_* tail).
  const double commit_p50 = percentile(m.commit_ms, 0.50);
  std::vector<Metric> e2e = {
      {"commit_p50_ms", commit_p50, "ms", n},
      {"commit_p90_ms", percentile(per_second(m.commit_ms, due_s, 0.90), 0.5), "ms", n},
      {"committed_per_s", m.in_window / opt.seconds, "el/s", m.in_window},
      {"commit_ok_ratio", ratio(m.committed, m.offered), "ratio", m.offered},
      {"cpu_us_per_commit", m.cpu_s * 1e6 * per_commit, "us", m.committed},
      {"setup_s", percentile(setup_s, 0.5), "s", setup_s.size()},
      // A kv element has no second layer: its application finality is its
      // commit, so kv workloads report the commit median here.
      {"l2_final_p50_ms", w.rollup ? percentile(m.l2_ms, 0.50) : commit_p50, "ms", n},
  };
  std::vector<Metric> layer = {
      {"stage.consolidate_p50_ms", percentile(m.consolidate_ms, 0.50), "ms",
       m.consolidate_ms.size()},
      {"stage.consolidate_p90_ms", percentile(m.consolidate_ms, 0.90), "ms",
       m.consolidate_ms.size()},
      {"stage.prove_p50_ms", percentile(m.prove_ms, 0.50), "ms", m.prove_ms.size()},
      {"stage.prove_p90_ms", percentile(m.prove_ms, 0.90), "ms", m.prove_ms.size()},
      {"stage.commit_p90_ms", percentile(m.commit_ms, 0.90), "ms", n},
      {"stage.commit_p99_ms", percentile(m.commit_ms, 0.99), "ms", n},
      {"stage.commit_p999_ms", percentile(m.commit_ms, 0.999), "ms", n},
      {"commit_fail_ratio", ratio(failed, m.offered), "ratio", m.offered},
      {"load.add_ack_p50_ms", ack.percentile(0.50) / 1000.0, "ms", ack.count()},
      {"load.add_ack_p99_ms", ack.percentile(0.99) / 1000.0, "ms", ack.count()},
      {"load.lag_p99_ms", percentile(m.lag_ms, 0.99), "ms", m.lag_ms.size()},
      {"load.shed", static_cast<double>(m.phase.shed), "count", m.phase.offered},
      {"load.queue_peak", static_cast<double>(m.phase.queue_peak), "count", kSessions},
      {"net.frames_per_commit", tc.frames_sent * per_commit, "count", m.committed},
      {"net.bytes_per_commit", tc.bytes_sent * per_commit, "B", m.committed},
      {"net.send_queue_peak", static_cast<double>(tc.send_queue_peak), "count", ncfg.n},
      {"net.send_drops", static_cast<double>(tc.send_drops), "count", ncfg.n},
      {"net.epoch_rpc_p50_us", percentile(m.epoch_rpc_us, 0.50), "us", m.epoch_rpc_us.size()},
      {"net.epoch_rpc_p99_us", percentile(m.epoch_rpc_us, 0.99), "us", m.epoch_rpc_us.size()},
      {"net.snapshot_ms", m.snapshot_ms, "ms", m.rpc_snapshot},
      {"net.snapshot_bytes", m.snapshot_bytes, "B", m.rpc_snapshot},
      {"ledger.heights_per_s", ratio(m.heights, m.run_s), "1/s", m.heights},
      {"core.elements_per_epoch", ratio(m.history_ids, epochs), "count", epochs},
      {"core.fetches_per_epoch", ratio(m.fetches, epochs), "count", m.fetches},
      {"core.fetch_fail_ratio", ratio(m.fetch_fails, m.fetches), "ratio", m.fetches},
      {"core.backlog_end", static_cast<double>(m.backlog), "count", ncfg.n},
  };
  if (opt.trace) {
    for (const auto& c : replay(w, opt, pki, ncfg, dep->inputs, m, spans)) {
      layer.push_back({c.name, c.median_us, "us", c.calls});
    }
  }
  const std::uint64_t rollups = w.rollup ? 1 : 0;
  layer.push_back({"rollup.fraud_detect_epochs", static_cast<double>(m.fraud_detect_epochs),
                   "count", rollups});
  layer.push_back(
      {"rollup.fraud_missed", static_cast<double>(m.fraud_missed), "count", rollups});
  layer.push_back({"proc.vm_hwm_mb", m.proc.vm_hwm_kb / 1024.0, "MB", 1});
  layer.push_back({"proc.threads", static_cast<double>(m.proc.threads), "count", 1});

  // -------------------------------------------------------------- report
  const bool correct = failures.empty();
  std::printf("provenance workload=%s seed=%" PRIu64 " seconds=%g trace=%d nproc=%u "
              "compiler=\"%s\" build=%s revision=%s\n",
              w.name, opt.seed, opt.seconds, opt.trace ? 1 : 0,
              std::thread::hardware_concurrency(), __VERSION__, COMMITBENCH_BUILD_TYPE,
              opt.git_commit.c_str());
  std::printf("deployment nodes=%u f=%u algo=hashchain ledger=consensus collector=%u/%" PRIu64
              "ms block_interval=%" PRIu64 "ms sessions=%u rate=%g arrivals=poisson\n",
              ncfg.n, ncfg.f, ncfg.collector_limit,
              static_cast<std::uint64_t>(ncfg.collector_timeout / sim::from_millis(1)),
              static_cast<std::uint64_t>(ncfg.block_interval / sim::from_millis(1)),
              kSessions, w.rate);
  std::printf("observer node=%u poll_ms=%lld rpcs epoch=%" PRIu64 " proofs=%" PRIu64
              " snapshot=%" PRIu64 " per_s=%.1f failures=%" PRIu64 "\n",
              kObservedNode, static_cast<long long>(kPollInterval.count()), m.rpc_epoch,
              m.rpc_proofs, m.rpc_snapshot, ratio(m.rpc_epoch + m.rpc_proofs, m.run_s),
              m.rpc_failures);
  std::printf("run offered=%" PRIu64 " sent=%" PRIu64 " accepted=%" PRIu64
              " committed=%" PRIu64 " failed=%" PRIu64 " epochs=%zu settle_s=%.2f "
              "setup_runs_s=%.3f,%.3f,%.3f\n",
              m.offered, m.phase.sent, m.phase.accepted, m.committed, failed, epochs,
              m.settle_s, setup_s[0], setup_s[1], setup_s[2]);
  if (w.rollup) {
    const auto& r = m.rollup;
    std::printf("rollup commitments=%" PRIu64 " consolidated=%" PRIu64 " ok=%" PRIu64
                " mismatches=%" PRIu64 " fraud_consolidated=%" PRIu64
                " fraud_detect_epochs=%" PRIu64 " window=%u\n",
                r.commitments_posted, r.commitments_consolidated, r.commitments_ok,
                r.mismatches, r.fraud_proofs_consolidated, m.fraud_detect_epochs,
                kFraudWindow);
  }
  for (const auto* set : {&e2e, &layer}) {
    for (const Metric& mt : *set) {
      std::printf("metric %s %.6g %s n=%" PRIu64 "\n", mt.name.c_str(), mt.value, mt.unit,
                  mt.n);
    }
  }
  for (const auto& f : failures) std::printf("check FAILED: %s\n", f.c_str());
  if (correct) std::printf("check OK\n");

  if (!opt.out_dir.empty()) {
    const std::string stem = opt.out_dir + "/" + w.name + "-seed" +
                             std::to_string(opt.seed) + "-trace" + (opt.trace ? "1" : "0");
    if (std::FILE* f = std::fopen((stem + ".json").c_str(), "w")) {
      std::string failures_json = "[";
      for (std::size_t i = 0; i < failures.size(); ++i) {
        failures_json += (i ? ", " : "") + json_string(failures[i]);
      }
      failures_json += "]";
      std::fprintf(f,
                   "{\"workload\": %s, \"seed\": %" PRIu64 ", \"seconds\": %g, "
                   "\"trace\": %d, \"revision\": %s, \"nproc\": %u, \"compiler\": %s, "
                   "\"build_type\": %s, \"observed_node\": %u, \"poll_ms\": %lld, "
                   "\"observer_rpcs\": {\"epoch\": %" PRIu64 ", \"proofs\": %" PRIu64
                   ", \"snapshot\": %" PRIu64 ", \"failures\": %" PRIu64 "}, "
                   "\"correct\": %s, \"failures\": %s, \"end_to_end\": %s, "
                   "\"per_layer\": %s}\n",
                   json_string(w.name).c_str(), opt.seed, opt.seconds, opt.trace ? 1 : 0,
                   json_string(opt.git_commit).c_str(), std::thread::hardware_concurrency(),
                   json_string(__VERSION__).c_str(), json_string(COMMITBENCH_BUILD_TYPE).c_str(),
                   kObservedNode, static_cast<long long>(kPollInterval.count()), m.rpc_epoch,
                   m.rpc_proofs, m.rpc_snapshot, m.rpc_failures, correct ? "true" : "false",
                   failures_json.c_str(), metrics_json(e2e, true).c_str(),
                   metrics_json(layer, true).c_str());
      std::fclose(f);
    }
    if (opt.trace && spans.write_jsonl(stem + "-spans.jsonl", origin)) {
      std::printf("spans %zu written to %s-spans.jsonl\n", spans.size(), stem.c_str());
    }
  }

  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": %s}\n",
              correct ? "true" : "false", std::max<std::uint64_t>(m.offered, 1), failed,
              metrics_json(opt.trace ? layer : e2e, false).c_str());
  return correct ? 0 : 1;
}
