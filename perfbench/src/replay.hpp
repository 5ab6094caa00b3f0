// Isolated layer replays: each layer's public functions fed, alone, the
// packet, frame and feedback streams recorded from a workload's own
// sessions. They give a per-operation cost (ns per packet, frame, feedback
// report or event) for layers whose calls happen inside the simulator,
// where the benchmark cannot put a span. Costs measured in isolation run
// with warm caches and no competing state, so count x cost is an estimate
// of a layer's share, not a measurement of it.
#pragma once

#include <cstddef>
#include <cstdint>

#include "pipeline/session.hpp"
#include "trace.hpp"

namespace perfbench {

struct ReplayCost {
  double ns = 0.0;
  std::uint64_t ops = 0;
  void add(double seconds, std::uint64_t n) {
    ns += seconds * 1e9;
    ops += n;
  }
  [[nodiscard]] double ns_per_op() const {
    return ops > 0 ? ns / static_cast<double>(ops) : 0.0;
  }
};

struct LayerCosts {
  ReplayCost linkqueue;   // cellular::LinkQueue::enqueue + service, per packet
  ReplayCost packetizer;  // rtp::Packetizer::packetize, per frame
  ReplayCost jitter;      // rtp::JitterBuffer::on_packet, per media packet
  ReplayCost gcc;         // GccController::on_feedback, per report
  ReplayCost scream;      // ScreamController::on_feedback, per report
  ReplayCost reorder;     // bond::ReorderWindow::on_packet, per packet
  ReplayCost queue;       // sim::EventQueue schedule + pop, per event
  // Feedback reports the session's own controller consumed (replayed), for
  // the count x cost estimate: GCC sessions add to gcc_reports, SCReAM
  // sessions to scream_reports.
  std::uint64_t gcc_reports = 0;
  std::uint64_t scream_reports = 0;
};

// Replay one session's recording through every layer above. `cfg` is the
// session's config (queue, jitter-buffer, CC and feedback settings);
// `pending_events` is the session's typical event-queue population.
void replay_session(const Recording& rec, const rpv::pipeline::SessionConfig& cfg,
                    std::size_t pending_events, LayerCosts& out);

struct PublishCost {
  double masked_ns = 0.0;  // EventBus::publish with no interested sink
  double empty_ns = 0.0;   // the same loop without the call
};

// The obs-off path: ROADMAP requires it to be one mask load and a branch.
[[nodiscard]] PublishCost measure_masked_publish();

}  // namespace perfbench
