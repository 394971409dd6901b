#include "replay.hpp"

#include <algorithm>

#include "core/batch.hpp"
#include "core/proofs.hpp"
#include "net/wire.hpp"

namespace commitbench {

namespace core = setchain::core;
namespace wire = setchain::net::wire;

namespace {

/// Times `calls` invocations of fn(i), one span each, and keeps the
/// median. Results feed a sink so the optimizer cannot drop the work.
template <typename Fn>
LayerCost time_calls(const char* name, std::size_t calls, SpanLog& spans, Fn&& fn) {
  std::vector<double> us;
  us.reserve(calls);
  std::uint64_t sink = 0;
  for (std::size_t i = 0; i < calls; ++i) {
    const auto t0 = Clock::now();
    sink += fn(i);
    const auto t1 = Clock::now();
    spans.add(name, i + 1, 0, t0, t1);
    us.push_back(std::chrono::duration<double, std::micro>(t1 - t0).count());
  }
  asm volatile("" : : "r"(sink) : "memory");
  LayerCost c;
  c.name = name;
  c.calls = calls;
  if (!us.empty()) {
    std::nth_element(us.begin(), us.begin() + us.size() / 2, us.end());
    c.median_us = us[us.size() / 2];
  }
  return c;
}

}  // namespace

std::vector<LayerCost> replay_layers(const ReplayInput& in, SpanLog& spans) {
  const auto& pool = *in.pool;
  const auto& history = *in.history;
  const auto& pki = *in.pki;
  constexpr auto kFull = core::Fidelity::kFull;
  std::vector<LayerCost> out;
  if (pool.empty() || history.empty()) return out;

  const auto elem = [&](std::size_t i) -> const core::Element& {
    return pool[i % pool.size()];
  };
  const auto epoch_rec = [&](std::size_t i) -> const core::EpochRecord& {
    return history[i % history.size()];
  };

  // Collector-sized batches of workload elements, each carrying one epoch's
  // worth of proofs the way a collector piggybacks them.
  constexpr std::size_t kBatches = 40;
  std::vector<core::Batch> batches(kBatches);
  std::vector<std::vector<core::Element>> batch_elems(kBatches);
  for (std::size_t b = 0; b < kBatches; ++b) {
    batches[b].uid = b + 1;
    for (std::size_t k = 0; k < in.batch_size; ++k) {
      batches[b].elements.push_back(elem(b * in.batch_size + k));
    }
    const auto& rec = epoch_rec(b);
    for (std::uint32_t s = 0; s < in.n; ++s) {
      batches[b].proofs.push_back(
          core::make_epoch_proof(pki, s, rec.number, rec.hash, kFull));
    }
    batch_elems[b] = batches[b].elements;
  }
  std::vector<setchain::codec::Bytes> batch_bytes;
  for (const auto& b : batches) batch_bytes.push_back(core::serialize_batch(b));

  out.push_back(time_calls("crypto.verify_us", 300, spans, [&](std::size_t i) {
    return core::valid_element(elem(i), pki, kFull) ? 1u : 0u;
  }));
  out.push_back(time_calls("crypto.verify_batch_us", kBatches, spans, [&](std::size_t i) {
    const auto ok = core::valid_elements(batch_elems[i], pki, kFull);
    return static_cast<unsigned>(std::count(ok.begin(), ok.end(), true));
  }));
  out.push_back(time_calls("crypto.sign_us", 200, spans, [&](std::size_t i) {
    return static_cast<unsigned>(in.sign_element(i).sig[0]);
  }));
  out.push_back(time_calls("core.batch_build_us", kBatches, spans, [&](std::size_t i) {
    return static_cast<unsigned>(core::serialize_batch(batches[i]).size());
  }));
  out.push_back(time_calls("core.batch_parse_us", kBatches, spans, [&](std::size_t i) {
    const auto b = core::parse_batch(batch_bytes[i]);
    return b ? static_cast<unsigned>(b->elements.size()) : 0u;
  }));
  out.push_back(time_calls("core.batch_hash_us", kBatches, spans, [&](std::size_t i) {
    return static_cast<unsigned>(core::batch_hash(batches[i], kFull)[0]);
  }));

  std::vector<core::EpochProof> proofs;
  out.push_back(time_calls("core.proof_make_us", 200, spans, [&](std::size_t i) {
    const auto& rec = epoch_rec(i);
    proofs.push_back(core::make_epoch_proof(
        pki, static_cast<setchain::crypto::ProcessId>(i % in.n), rec.number, rec.hash,
        kFull));
    return static_cast<unsigned>(proofs.back().sig[0]);
  }));
  out.push_back(time_calls("core.proof_check_us", proofs.size(), spans, [&](std::size_t i) {
    return core::valid_proof(proofs[i], epoch_rec(i).hash, pki, kFull) ? 1u : 0u;
  }));

  std::vector<setchain::codec::Bytes> adds;
  out.push_back(time_calls("net.add_encode_us", 500, spans, [&](std::size_t i) {
    wire::AddRequest req;
    req.req_id = i + 1;
    req.element = elem(i);
    adds.push_back(wire::encode_add_request(req));
    return static_cast<unsigned>(adds.back().size());
  }));
  out.push_back(time_calls("net.add_parse_us", adds.size(), spans, [&](std::size_t i) {
    const auto req = wire::parse_add_request(adds[i]);
    return req ? static_cast<unsigned>(req->element.payload.size()) : 0u;
  }));

  // The executor consumes epochs in order from genesis, as an L2 node does.
  setchain::exec::EpochExecutor ex;
  in.genesis(ex);
  const std::size_t exec_epochs = std::min<std::size_t>(history.size(), 200);
  std::vector<std::vector<core::Element>> epoch_elems(exec_epochs);
  for (std::size_t i = 0; i < exec_epochs; ++i) {
    for (const core::ElementId id : history[i].ids) {
      if (const core::Element* e = in.lookup(id)) {
        epoch_elems[i].push_back(*e);
      } else {
        core::Element unknown;
        unknown.id = id;
        unknown.client = core::element_client(id);
        epoch_elems[i].push_back(std::move(unknown));
      }
    }
  }
  out.push_back(time_calls("exec.epoch_apply_us", exec_epochs, spans, [&](std::size_t i) {
    ex.on_epoch(history[i], epoch_elems[i]);
    return static_cast<unsigned>(ex.executed());
  }));
  return out;
}

}  // namespace commitbench
