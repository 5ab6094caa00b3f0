// ReorderWindow — receive-side reassembly for bonded multi-path delivery.
//
// Packets sprayed across operator links arrive interleaved and skewed (each
// path has its own radio access latency, queue depth and WAN leg). The
// window holds out-of-order arrivals for a bounded time — sized from a
// per-path one-way-skew estimate, capped at roughly two frame intervals —
// releasing them in transport-sequence order so the jitter buffer and FEC
// decoder downstream see a near-in-order stream. Duplicates (policy-level
// duplication or FEC cross-delivery) are suppressed here, exactly once per
// logical packet.
//
// All state is deterministic: hold timers run on the simulation clock, and
// identical arrival streams release identical output streams.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "net/packet.hpp"
#include "obs/event_sink.hpp"
#include "rtp/seq_window.hpp"
#include "rtp/sequence.hpp"
#include "sim/flat_set.hpp"
#include "sim/fifo.hpp"
#include "sim/simulator.hpp"

namespace rpv::bond {

struct ReorderWindowConfig {
  // Minimum gap-hold; raised toward max_hold as measured path skew grows.
  sim::Duration base_hold = sim::Duration::millis(30);
  // Hard cap: ~2 frame intervals at 30 FPS. A gap older than this is a loss,
  // not reordering, and stalling longer only adds playback latency.
  sim::Duration max_hold = sim::Duration::millis(66);
  // Overflow bound: a flush releases everything once this many packets wait.
  std::size_t max_packets = 256;
  // EWMA smoothing for the per-path latency estimate behind the skew.
  double skew_alpha = 0.1;
};

class ReorderWindow {
 public:
  // Deliver releases one packet downstream; `path` is the operator link the
  // accepted copy arrived on.
  using DeliverFn = std::function<void(net::Packet, int path)>;

  ReorderWindow(sim::Simulator& simulator, ReorderWindowConfig cfg,
                DeliverFn deliver);

  // Publish kReorderFlush onto the session's bond event stream.
  void attach_observer(obs::EventBus* bus) { bus_ = bus; }

  // Feed one arriving copy. May release zero or more packets downstream.
  void on_packet(net::Packet p, int path);

  // End-of-run drain: release everything still held, in order.
  void flush_all();

  [[nodiscard]] std::uint64_t delivered() const { return delivered_; }
  [[nodiscard]] std::uint64_t duplicates_suppressed() const {
    return duplicates_suppressed_;
  }
  [[nodiscard]] std::uint64_t flushes() const { return flushes_; }
  [[nodiscard]] std::uint64_t late_packets() const { return late_; }
  // Current |fastest - slowest| one-way estimate across paths, in ms.
  [[nodiscard]] double skew_ms() const;
  [[nodiscard]] std::size_t held() const { return buffer_.size(); }

 private:
  struct Held {
    net::Packet packet;
    sim::TimePoint arrived;
    int path = 0;
  };
  struct Arrival {
    std::int64_t seq = 0;
    sim::TimePoint arrived;
  };

  [[nodiscard]] sim::Duration hold_window() const;
  [[nodiscard]] static std::uint64_t dedup_key(const net::Packet& p);
  void release_below(std::int64_t end_seq);
  void drain_in_order();
  void flush_expired();
  void arm_timer();
  void publish_flush(std::uint32_t released, std::uint8_t reason,
                     double hold_ms);

  sim::Simulator& sim_;
  ReorderWindowConfig cfg_;
  DeliverFn deliver_;
  obs::EventBus* bus_ = nullptr;

  rtp::SeqUnwrapper unwrapper_;
  rtp::SeqWindow<Held> buffer_{512};  // keyed by unwrapped transport seq
  // Held packets in arrival order, trimmed lazily at the front: the first
  // entry still held is the oldest arrival, which sets the hold deadline.
  sim::Fifo<Arrival> arrivals_;
  bool started_ = false;
  std::int64_t next_expected_ = 0;

  // Duplicate suppression: logical identity of every packet released so far,
  // FIFO-bounded (duplicate copies trail the original by at most seconds).
  // seen_order_ holds the keys of seen_ in insertion order: a circular
  // buffer that starts at seen_head_ once it has filled.
  sim::FlatSet seen_;
  std::vector<std::uint64_t> seen_order_;
  std::size_t seen_head_ = 0;

  // Per-path one-way latency EWMAs feeding the skew estimate.
  std::vector<double> path_latency_ms_;
  std::vector<bool> path_seen_;

  sim::TimePoint timer_deadline_ = sim::TimePoint::never();
  sim::Timer timer_;

  std::uint64_t delivered_ = 0;
  std::uint64_t duplicates_suppressed_ = 0;
  std::uint64_t flushes_ = 0;
  std::uint64_t late_ = 0;
};

}  // namespace rpv::bond
