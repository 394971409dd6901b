#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/element.hpp"
#include "core/epoch_record.hpp"
#include "crypto/pki.hpp"
#include "exec/executor.hpp"
#include "spans.hpp"

namespace commitbench {

/// The run's own generated inputs, handed to the layer replay after the
/// cluster has shut down.
struct ReplayInput {
  std::uint32_t n = 4;
  const setchain::crypto::Pki* pki = nullptr;
  const std::vector<setchain::core::Element>* pool = nullptr;
  const std::vector<setchain::core::EpochRecord>* history = nullptr;
  /// Elements per replayed batch: the run's own mean epoch fill, >= 1.
  std::size_t batch_size = 1;
  /// Signs the k-th element again exactly as the workload generator does.
  std::function<setchain::core::Element(std::size_t k)> sign_element;
  /// Seeds a fresh executor with the workload's genesis (no-op for kv).
  std::function<void(setchain::exec::EpochExecutor&)> genesis;
  /// Element by id, nullptr when the run did not generate it (rollup
  /// artifacts), which the executor then sees as a malformed payload.
  std::function<const setchain::core::Element*(setchain::core::ElementId)> lookup;
};

/// Single-threaded cost of one public function on the run's inputs.
struct LayerCost {
  const char* name = "";    ///< per-layer metric name
  double median_us = 0;     ///< median wall time of one call
  std::size_t calls = 0;
};

/// Times the crypto, core batch/proof, wire and exec functions on the run's
/// inputs, one span per call (recorded when `spans` is enabled).
std::vector<LayerCost> replay_layers(const ReplayInput& in, SpanLog& spans);

}  // namespace commitbench
