// One measurement run: UAV (or ground vehicle) trajectory + cellular link(s)
// + WAN + video sender/receiver, wired into a single discrete-event
// simulation.
//
// This mirrors the paper's setup (Fig. 2): the sender re-encodes the source
// video at the CC's target bitrate and streams RTP/UDP over LTE to the
// remote server; feedback (RTCP) flows back over the same bearer. Probe mode
// replaces the video workload with ICMP-style pings for the latency-vs-
// altitude analyses.
//
// The bonded constructor streams over TWO cellular operators at once (paper
// Section 5 / reference [9]), with per-packet scheduling delegated to a
// bond::LinkManager running a named bond::Policy. Each operator keeps its
// own link, predictor, event bus and fault injector over its own cell
// layout (e.g. rural P1 + rural P2) while both share the trajectory. Bonded
// policies receive through a bounded reorder window and drive the FEC parity
// rate from the link-health feed (bond::AdaptiveFecController). With
// SessionConfig::sat enabled, a LEO satellite path (and optionally an aerial
// mesh relay chain) joins the same LinkManager as extra bonded paths.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "bond/fec_controller.hpp"
#include "bond/link_manager.hpp"
#include "bond/policy.hpp"
#include "bond/reorder_window.hpp"
#include "cc/gcc/gcc_controller.hpp"
#include "cc/scream/scream_controller.hpp"
#include "cellular/cellular_link.hpp"
#include "fault/fault_injector.hpp"
#include "geo/trajectory.hpp"
#include "net/wan_path.hpp"
#include "obs/event_sink.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/packet_log.hpp"
#include "obs/recorder.hpp"
#include "pipeline/report.hpp"
#include "predict/proactive_adapter.hpp"
#include "sat/mesh_link.hpp"
#include "sat/satellite_link.hpp"
#include "pipeline/video_receiver.hpp"
#include "pipeline/video_sender.hpp"
#include "sim/flat_set.hpp"
#include "sim/simulator.hpp"

namespace rpv::pipeline {

enum class CcKind { kStatic, kGcc, kScream, kNone /* probe-only */ };

[[nodiscard]] std::string cc_name(CcKind kind);

struct SessionConfig {
  CcKind cc = CcKind::kGcc;
  double static_bitrate_bps = 8e6;  // used when cc == kStatic

  SenderConfig sender;
  ReceiverConfig receiver;
  cc::gcc::GccConfig gcc;
  cc::scream::ScreamConfig scream;
  cellular::CellularLinkConfig link;
  net::WanConfig wan;

  // Probe traffic (RTT measurement); zero disables. Single-path runs only.
  sim::Duration probe_interval = sim::Duration::zero();

  // XOR FEC group size (packets per parity); 0 disables (paper ref [9]).
  int fec_group_size = 0;

  // Observability (rpv::obs). When `enabled`, the session subscribes a
  // bounded ring-buffer recorder plus the metrics registry to its event bus
  // (events + counters/histograms land in the SessionReport);
  // `capture_packets` additionally attaches the per-packet ledger that
  // replaced the old tcpdump-style net::PacketCapture. With everything off
  // the bus carries only the kLinkMeasurement subscription rpv::predict
  // needs, and every other publish site is a single mask test.
  struct ObsConfig {
    bool enabled = false;
    std::size_t ring_capacity = obs::RingBufferRecorder::kDefaultCapacity;
    bool capture_packets = false;
  } obs;

  // Command-and-control channel (the RP scenario of Fig. 1): the pilot sends
  // command packets downlink at a fixed cadence; the UAV returns telemetry
  // uplink, sharing the bearer (and its deep queue) with the video stream.
  struct C2Config {
    bool enabled = false;
    sim::Duration command_interval = sim::Duration::millis(50);   // 20 Hz
    std::size_t command_bytes = 60;
    sim::Duration telemetry_interval = sim::Duration::millis(100);  // 10 Hz
    std::size_t telemetry_bytes = 120;
  } c2;

  // Link-quality prediction (always instrumented) + the HO-aware proactive
  // policy (acts only when predict.proactive is set).
  predict::ProactiveConfig predict;

  // Scripted fault injection; an empty schedule injects nothing.
  fault::FaultSchedule faults;
  // Replay the same schedule on operator B too. Bonded runs only; ignored on
  // single-path. Off by default — the historical behaviour faults link A
  // only. WAN events are not doubled: the WAN is shared and injector A owns
  // it.
  bool faults_on_link_b = false;

  // 3-way multi-connectivity (rpv::sat): attach a LEO satellite path — and
  // optionally an aerial-mesh relay chain — as extra bonded paths behind the
  // two cellular operators. Bonded runs only; ignored on single-path.
  struct SatConfig {
    bool enabled = false;
    sat::SatelliteLinkConfig link;
    bool mesh_enabled = false;
    sat::MeshLinkConfig mesh;
  } sat;

  // Enable the end-to-end resilience stack: sender feedback watchdog +
  // degradation ladder, receiver PLI keyframe recovery.
  bool resilience = false;

  std::uint64_t seed = 1;

  // Pre-flight validation of every config-level invariant (the checks that
  // used to be scattered across components). Throws std::invalid_argument.
  // Called by Session's constructors and by CampaignEngine before sharding.
  void validate() const;
};

class Session {
 public:
  // Single path over one operator. `layout` is copied; `trajectory` must
  // outlive the session.
  Session(SessionConfig cfg, cellular::CellLayout layout,
          const geo::Trajectory* trajectory, std::string environment_name);
  // Bonded over two operators (plus the cfg.sat paths) under `policy`.
  Session(SessionConfig cfg, cellular::CellLayout layout_a,
          cellular::CellLayout layout_b, const geo::Trajectory* trajectory,
          std::string environment_name, bond::Policy policy);
  // Callbacks and the links hold `this` and the operator buses.
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  // Run the full trajectory plus drain time and return the report.
  // Equivalent to begin(); simulator().run_until(drain_end()); collect().
  SessionReport run();

  // Schedule the session's workload (link measurement loop, sender,
  // receiver, probes, C2, faults) without running the simulator. An external
  // driver — rpv::fleet's epoch loop — then advances simulator() in steps;
  // stepping to drain_end() in any increments executes the identical event
  // sequence run() would.
  void begin();
  // Finish the receiver/adapters and build the report. Call exactly once,
  // after the simulator has reached drain_end().
  SessionReport collect();
  // End of the trajectory plus the in-flight drain allowance.
  [[nodiscard]] sim::TimePoint drain_end() const {
    return trajectory_->end() + sim::Duration::seconds(2.0);
  }

  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  // Operator A: the only link of a single-path run, the primary of a bond.
  [[nodiscard]] cellular::CellularLink& link() { return *ops_.front().link; }
  [[nodiscard]] VideoSender* sender() { return sender_.get(); }
  [[nodiscard]] VideoReceiver* receiver() { return receiver_.get(); }
  [[nodiscard]] predict::ProactiveAdapter& adapter() {
    return *ops_.front().adapter;
  }

  // The session-level event bus (operator A's; it also carries the sender,
  // receiver, WAN and bond-layer events). Drivers publish session-scoped
  // events like kReplan here.
  [[nodiscard]] obs::EventBus& observer() { return ops_.front().bus; }
  // Subscribe a sink to every operator bus before run(). Every event is
  // published on exactly one bus, so the sink sees each event once.
  void subscribe(obs::EventSink* sink) {
    for (auto& op : ops_) op.bus.subscribe(sink);
  }
  [[nodiscard]] const obs::RingBufferRecorder* recorder() const {
    return recorder_.get();
  }
  [[nodiscard]] const obs::MetricsRegistry* metrics() const {
    return metrics_.get();
  }
  // Per-packet ledger (cfg.obs.capture_packets); null when not attached.
  [[nodiscard]] const obs::PacketLog* capture() const {
    return packet_log_.get();
  }

  // Bonded runs: packets whose accepted copy arrived via a secondary path —
  // how often the redundancy actually rescued delivery.
  [[nodiscard]] std::uint64_t rescued_by_b() const { return rescued_by_b_; }
  [[nodiscard]] std::uint64_t duplicates_discarded() const {
    return window_ ? window_->duplicates_suppressed() : duplicates_discarded_;
  }
  // kFailover: active-link switches (either direction); bonded policies:
  // video-anchor switches; 0 on single-path runs.
  [[nodiscard]] std::uint64_t failover_events() const {
    return lm_ ? lm_->failover_events() : 0;
  }

 private:
  // Per-operator state. Each link publishes onto its own bus, and a relay
  // sink feeds that operator's predictor (no cross-talk between modems).
  struct Operator {
    obs::EventBus bus;  // outlives every publisher below
    std::unique_ptr<cellular::CellularLink> link;
    std::unique_ptr<predict::ProactiveAdapter> adapter;
    std::unique_ptr<obs::FunctionSink> measurement_relay;
    std::unique_ptr<fault::FaultInjector> injector;
  };

  // Both public constructors: one operator per layout; `policy` is set iff
  // the run is bonded.
  Session(SessionConfig cfg, std::vector<cellular::CellLayout> layouts,
          const geo::Trajectory* trajectory, std::string environment_name,
          std::optional<bond::Policy> policy);

  std::unique_ptr<cc::RateController> make_controller();
  void on_radio_loss(int path, const net::Packet& p);
  // Packet routes. The single-path and bonded routes draw the WAN RNG in a
  // different order, so each shape keeps its own.
  void send_media(net::Packet p);
  void send_on_path(int path, net::Packet p);
  void deliver_bonded(net::Packet p, int path);
  void send_feedback(rtp::FeedbackReport report, std::size_t size);
  void downlink_on(int path, net::Packet p, bond::BondablePath::DeliverFn fn);
  void send_probe();
  void send_command();
  void send_telemetry();
  void fec_tick(sim::TimePoint end);

  SessionConfig cfg_;
  std::optional<bond::Policy> policy_;
  const geo::Trajectory* trajectory_;
  std::string environment_;
  sim::Simulator sim_;
  sim::Rng rng_;
  // One recorder + registry (+ ledger) across every operator bus; events
  // interleave in deterministic publish order.
  std::unique_ptr<obs::RingBufferRecorder> recorder_;
  std::unique_ptr<obs::MetricsRegistry> metrics_;
  std::unique_ptr<obs::PacketLog> packet_log_;
  std::vector<Operator> ops_;
  // Bonded runs only. The sat/mesh paths fork their RNG streams last, so
  // enabling them never perturbs the cellular/WAN/receiver/sender draws.
  std::unique_ptr<sat::SatelliteLink> sat_link_;
  std::unique_ptr<sat::MeshHopLink> mesh_link_;
  std::unique_ptr<bond::LinkManager> lm_;
  std::unique_ptr<bond::ReorderWindow> window_;            // bonded policies
  std::unique_ptr<bond::AdaptiveFecController> fec_ctrl_;  // FEC policies
  std::unique_ptr<net::WanPath> wan_up_;
  std::unique_ptr<net::WanPath> wan_down_;
  FrameTable table_;
  std::unique_ptr<VideoSender> sender_;
  std::unique_ptr<VideoReceiver> receiver_;

  std::vector<sim::TimePoint> loss_times_;
  std::uint64_t radio_losses_ = 0;
  std::uint64_t media_losses_ = 0;
  std::uint64_t wan_drops_ = 0;
  std::vector<std::pair<double, double>> rtt_by_altitude_;
  metrics::TimeSeries command_latency_ms_;
  metrics::TimeSeries telemetry_latency_ms_;
  std::uint64_t commands_sent_ = 0;
  std::uint64_t telemetry_sent_ = 0;
  std::uint64_t last_command_done_ = 0;
  sim::FlatSet delivered_ids_;  // legacy first-copy-wins
  sim::TimePoint last_feedback_forwarded_ = sim::TimePoint::never();
  std::uint64_t fec_rate_changes_ = 0;
  std::uint64_t rescued_by_b_ = 0;
  std::uint64_t duplicates_discarded_ = 0;
  std::uint64_t next_id_;
};

}  // namespace rpv::pipeline
