#include "pipeline/session.hpp"

#include <algorithm>

#include "cc/static_rate.hpp"
#include "sim/validate.hpp"

namespace rpv::pipeline {
namespace {

// FEC controller tick cadence: fast enough to react within a loss burst,
// slow enough that the group size is stable across an interleave set.
constexpr sim::Duration kFecTickInterval = sim::Duration::millis(250);

template <typename... Layouts>
std::vector<cellular::CellLayout> layouts_of(Layouts... layouts) {
  std::vector<cellular::CellLayout> v;
  v.reserve(sizeof...(layouts));
  (v.push_back(std::move(layouts)), ...);
  return v;
}

}  // namespace

std::string cc_name(CcKind kind) {
  switch (kind) {
    case CcKind::kStatic: return "static";
    case CcKind::kGcc: return "gcc";
    case CcKind::kScream: return "scream";
    case CcKind::kNone: return "probe";
  }
  return "?";
}

void SessionConfig::validate() const {
  rpv::validate(sender.frame_interval > sim::Duration::zero(),
                "SessionConfig: sender.frame_interval must be positive");
  rpv::validate(static_bitrate_bps > 0.0,
                "SessionConfig: static_bitrate_bps must be positive");
  rpv::validate(probe_interval >= sim::Duration::zero(),
                "SessionConfig: probe_interval must not be negative");
  rpv::validate(fec_group_size >= 0,
                "SessionConfig: fec_group_size must not be negative");
  rpv::validate(obs.ring_capacity > 0,
                "SessionConfig: obs.ring_capacity must be positive");
  if (c2.enabled) {
    rpv::validate(c2.command_interval > sim::Duration::zero(),
                  "SessionConfig: c2.command_interval must be positive");
    rpv::validate(c2.telemetry_interval > sim::Duration::zero(),
                  "SessionConfig: c2.telemetry_interval must be positive");
  }
}

Session::Session(SessionConfig cfg, cellular::CellLayout layout,
                 const geo::Trajectory* trajectory, std::string environment_name)
    : Session(std::move(cfg), layouts_of(std::move(layout)), trajectory,
              std::move(environment_name), std::nullopt) {}

Session::Session(SessionConfig cfg, cellular::CellLayout layout_a,
                 cellular::CellLayout layout_b,
                 const geo::Trajectory* trajectory,
                 std::string environment_name, bond::Policy policy)
    : Session(std::move(cfg),
              layouts_of(std::move(layout_a), std::move(layout_b)),
              trajectory, std::move(environment_name), policy) {}

Session::Session(SessionConfig cfg, std::vector<cellular::CellLayout> layouts,
                 const geo::Trajectory* trajectory, std::string environment_name,
                 std::optional<bond::Policy> policy)
    : cfg_{std::move(cfg)},
      policy_{policy},
      trajectory_{trajectory},
      environment_{std::move(environment_name)},
      rng_{policy ? cfg_.seed ^ 0xABCDEF12345ULL : cfg_.seed},
      next_id_{policy ? 1ULL << 52 : 1ULL << 48} {
  validate(trajectory_ != nullptr, "Session: trajectory must not be null");
  cfg_.validate();
  // Sized once: the links, relays and injectors below hold pointers to the
  // operators' buses.
  ops_.resize(layouts.size());
  if (cfg_.obs.enabled) {
    recorder_ = std::make_unique<obs::RingBufferRecorder>(cfg_.obs.ring_capacity);
    metrics_ = std::make_unique<obs::MetricsRegistry>();
    for (auto& op : ops_) {
      op.bus.subscribe(recorder_.get());
      op.bus.subscribe(metrics_.get());
    }
  }
  if (cfg_.obs.capture_packets) {
    packet_log_ = std::make_unique<obs::PacketLog>();
    for (auto& op : ops_) op.bus.subscribe(packet_log_.get());
  }
  if (policy_) {
    bond::LinkManagerConfig lm_cfg;
    lm_cfg.policy = *policy_;
    lm_ = std::make_unique<bond::LinkManager>(sim_, lm_cfg);
    lm_->attach_observer(&observer());
  }

  // The predictors mirror the link's A3 hysteresis and run on every session
  // (instrumentation is free and RNG-less); policy actions are gated inside
  // the adapter on cfg_.predict.proactive. All operators share one map
  // prior: they fly the same trajectory, and the spatial HO risk the map
  // encodes (altitude, cell-edge zones) is not operator-specific.
  cfg_.predict.ho.hysteresis_db = cfg_.link.handover.hysteresis_db;
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    auto& op = ops_[i];
    op.link = std::make_unique<cellular::CellularLink>(
        sim_, std::move(layouts[i]), cfg_.link, trajectory_, rng_.fork());
    op.adapter = std::make_unique<predict::ProactiveAdapter>(cfg_.predict);
    if (cfg_.predict.map_prior != nullptr) {
      op.adapter->set_map_prior(cfg_.predict.map_prior, trajectory_);
    }
    // rpv::predict consumes link measurements off the event bus — the sole
    // always-on subscription; every measurement consumer goes through an
    // obs::FunctionSink relay like this one.
    op.measurement_relay = std::make_unique<obs::FunctionSink>(
        obs::kind_bit(obs::EventKind::kLinkMeasurement),
        [adapter = op.adapter.get()](const obs::Event& e) {
          adapter->on_link_measurement(cellular::measurement_from_event(e));
        });
    op.bus.subscribe(op.measurement_relay.get());
    op.link->attach_observer(&op.bus);
    op.link->set_loss_callback(
        [this, path = static_cast<int>(i)](const net::Packet& p) {
          on_radio_loss(path, p);
        });
    if (lm_) lm_->add_path(op.link.get(), op.adapter.get());
  }
  wan_up_ = std::make_unique<net::WanPath>(cfg_.wan, rng_.fork());
  wan_down_ = std::make_unique<net::WanPath>(cfg_.wan, rng_.fork());
  wan_up_->attach_observer(&observer());
  wan_down_->attach_observer(&observer());

  if (!cfg_.faults.empty()) {
    // Faults target operator A, which also owns the shared WAN; on a bond
    // the point of the exercise is whether the other paths mask them.
    // faults_on_link_b replays the schedule on operator B as well
    // (simultaneous degradation) without doubling the WAN events.
    const std::size_t faulted = cfg_.faults_on_link_b ? ops_.size() : 1;
    for (std::size_t i = 0; i < faulted; ++i) {
      auto& op = ops_[i];
      op.injector = std::make_unique<fault::FaultInjector>(sim_, cfg_.faults);
      op.injector->attach_cellular(op.link.get());
      if (i == 0) op.injector->attach_wan(wan_up_.get(), wan_down_.get());
      op.injector->attach_observer(&op.bus);
    }
  }
  if (cfg_.resilience) {
    cfg_.sender.resilience.enabled = true;
    cfg_.receiver.resilience.enabled = true;
  }

  // Receiver feedback kind and sender queue discard follow the CC choice.
  switch (cfg_.cc) {
    case CcKind::kGcc:
      cfg_.receiver.feedback = FeedbackKind::kTwcc;
      cfg_.sender.discard_queue = sim::Duration::millis(-1);
      break;
    case CcKind::kScream:
      cfg_.receiver.feedback = FeedbackKind::kRfc8888;
      cfg_.sender.discard_queue = sim::Duration::millis(100);  // the Ericsson library's flush
      break;
    case CcKind::kStatic:
    case CcKind::kNone:
      cfg_.receiver.feedback = FeedbackKind::kNone;
      cfg_.sender.discard_queue = sim::Duration::millis(-1);
      break;
  }
  // A single-path probe run carries no video.
  if (!lm_ && cfg_.cc == CcKind::kNone) return;

  std::shared_ptr<rtp::FecGroupTable> fec_table;
  if (!policy_) {
    if (cfg_.fec_group_size > 0) {
      cfg_.sender.fec_group_size = cfg_.fec_group_size;
      fec_table = std::make_shared<rtp::FecGroupTable>();
    }
  } else if (bond::is_bonded(*policy_)) {
    // Bonded receive path: reorder window + duplicate suppression.
    // FEC-backed policies additionally share a group table between sender
    // and receiver and start from the controller's base parity rate. The
    // legacy policies keep the first-copy-wins direct path and no FEC.
    if (bond::uses_fec(*policy_)) {
      bond::FecControllerConfig fc;
      if (cfg_.fec_group_size > 0) {
        // An explicit base group size re-bases the whole ladder. Rungs are
        // floored at group 4 (25% parity) — denser parity under sustained
        // loss just overloads the bearer and feeds the loss it is trying to
        // repair.
        const int floor = std::max(2, std::min(cfg_.fec_group_size, 4));
        fc.ladder = {cfg_.fec_group_size,
                     std::max(cfg_.fec_group_size * 3 / 4, floor),
                     std::max(cfg_.fec_group_size / 2, floor),
                     std::max(cfg_.fec_group_size / 4, floor)};
      }
      if (policy_ == bond::Policy::kHighReliability) {
        // Elevated parity floor: never run fully unprotected.
        fc.ladder[0] = std::min(fc.ladder[0], 12);
      }
      fec_ctrl_ = std::make_unique<bond::AdaptiveFecController>(fc);
      cfg_.sender.fec_group_size = fec_ctrl_->group_size();
      fec_table = std::make_shared<rtp::FecGroupTable>();
    }
    window_ = std::make_unique<bond::ReorderWindow>(
        sim_, bond::ReorderWindowConfig{}, [this](net::Packet p, int path) {
          if (path != 0) ++rescued_by_b_;
          p.received = sim_.now();
          receiver_->on_packet(p);
        });
    window_->attach_observer(&observer());
  }

  receiver_ = std::make_unique<VideoReceiver>(
      sim_, cfg_.receiver, table_,
      [this](rtp::FeedbackReport report, std::size_t size) {
        send_feedback(std::move(report), size);
      },
      rng_.fork(), fec_table);
  sender_ = std::make_unique<VideoSender>(
      sim_, cfg_.sender, make_controller(), table_,
      [this](net::Packet p) { send_media(std::move(p)); }, rng_.fork(),
      fec_table);
  // Dip/deferral follows operator A's predictor (the reported handover log
  // and prediction block are operator A's too).
  auto* primary = &adapter();
  sender_->set_proactive_adapter(primary);
  receiver_->set_owd_hook([primary](sim::TimePoint t, double owd_ms) {
    primary->on_owd_sample(t, owd_ms);
  });
  receiver_->set_goodput_hook([primary](sim::TimePoint t, double mbps) {
    primary->on_goodput_sample(t, mbps);
  });
  sender_->attach_observer(&observer());
  receiver_->attach_observer(&observer());

  // 3-way multi-connectivity: the satellite (and optional mesh) paths fork
  // their RNG streams LAST, after every stream the 2-path bond already
  // forks, so enabling them never perturbs the other draws.
  if (lm_ && cfg_.sat.enabled) {
    sat_link_ = std::make_unique<sat::SatelliteLink>(sim_, cfg_.sat.link,
                                                     rng_.fork());
    sat_link_->attach_observer(&observer());
    const int idx = lm_->add_path(sat_link_.get());
    sat_link_->set_loss_callback(
        [this, idx](const net::Packet& p) { on_radio_loss(idx, p); });
    if (cfg_.sat.mesh_enabled) {
      mesh_link_ = std::make_unique<sat::MeshHopLink>(sim_, cfg_.sat.mesh,
                                                      rng_.fork());
      const int midx = lm_->add_path(mesh_link_.get());
      mesh_link_->set_loss_callback(
          [this, midx](const net::Packet& p) { on_radio_loss(midx, p); });
    }
  }
}

std::unique_ptr<cc::RateController> Session::make_controller() {
  switch (cfg_.cc) {
    case CcKind::kStatic:
      return std::make_unique<cc::StaticRate>(cfg_.static_bitrate_bps);
    case CcKind::kGcc:
      return std::make_unique<cc::gcc::GccController>(cfg_.gcc);
    case CcKind::kScream:
      return std::make_unique<cc::scream::ScreamController>(cfg_.scream);
    case CcKind::kNone:
      break;
  }
  return std::make_unique<cc::StaticRate>(cfg_.static_bitrate_bps);
}

void Session::on_radio_loss(int path, const net::Packet& p) {
  ++radio_losses_;
  if (lm_) {
    lm_->note_lost(path);
    return;
  }
  loss_times_.push_back(sim_.now());
  if (p.kind == net::PacketKind::kRtpVideo ||
      p.kind == net::PacketKind::kFecParity) {
    ++media_losses_;
  }
}

void Session::send_media(net::Packet p) {
  if (!lm_) {
    link().send_uplink(std::move(p), [this](net::Packet q) {
      // Radio done; WAN leg to the server.
      const auto wan_delay = wan_up_->sample_delay();
      if (wan_up_->drops_packet(sim_.now(), q.id,
                                static_cast<std::uint32_t>(q.size_bytes))) {
        ++wan_drops_;
        return;
      }
      sim_.schedule_in(wan_delay, [this, q]() mutable {
        q.received = sim_.now();
        receiver_->on_packet(q);
      });
    });
    return;
  }
  const auto d = lm_->route(bond::TrafficClass::kVideo, p);
  if (d.duplicate >= 0) {
    // Distinct descriptor ids so the links' bookkeeping stays independent
    // while the RTP identity is shared (dedup happens at the receiver edge).
    net::Packet copy = p;
    copy.id = next_id_++;
    copy.origin_id = p.id;
    send_on_path(d.primary, std::move(p));
    send_on_path(d.duplicate, std::move(copy));
    return;
  }
  send_on_path(d.primary, std::move(p));
}

void Session::send_on_path(int path, net::Packet p) {
  lm_->note_sent(path, p.size_bytes);
  lm_->path(path).send_uplink(std::move(p), [this, path](net::Packet q) {
    lm_->note_delivered(path);
    deliver_bonded(std::move(q), path);
  });
}

void Session::deliver_bonded(net::Packet p, int path) {
  if (wan_up_->drops_packet()) return;
  const auto delay = wan_up_->sample_delay();
  sim_.schedule_in(delay, [this, p, path]() mutable {
    if (window_) {
      // Bonded policies: duplicate suppression and in-order release live in
      // the reorder window; it invokes the receiver callback set at
      // construction and tracks skew for every registered path index.
      window_->on_packet(std::move(p), path);
      return;
    }
    // Legacy policies: first copy wins, deduplicated on the RTP identity
    // (transport seq + frame id suffices for a 16-bit window far larger than
    // any realistic reorder span).
    const std::uint64_t key =
        (static_cast<std::uint64_t>(p.frame_id) << 16) | p.transport_seq;
    if (!delivered_ids_.insert(key)) {
      ++duplicates_discarded_;
      return;
    }
    // Bound the dedup state by discarding entries for long-played frames;
    // frame ids are monotone so anything 200+ frames old cannot recur.
    if (delivered_ids_.size() > 60000) {
      const std::uint64_t keep_from =
          p.frame_id > 200 ? (static_cast<std::uint64_t>(p.frame_id - 200) << 16)
                           : 0;
      delivered_ids_.erase_if(
          [keep_from](std::uint64_t k) { return k < keep_from; });
    }
    if (path != 0) ++rescued_by_b_;
    p.received = sim_.now();
    receiver_->on_packet(p);
  });
}

void Session::send_feedback(rtp::FeedbackReport report, std::size_t size) {
  net::Packet fb;
  fb.kind = net::PacketKind::kRtcpFeedback;
  fb.size_bytes = size;
  if (!lm_) {
    // WAN back-haul then the cellular downlink; the report moves into each
    // closure in turn.
    fb.id = next_id_++;
    const auto wan_delay = wan_down_->sample_delay();
    if (wan_down_->drops_packet(sim_.now(), fb.id,
                                static_cast<std::uint32_t>(fb.size_bytes))) {
      return;
    }
    sim_.schedule_in(wan_delay, [this, fb, report = std::move(report)]() mutable {
      link().send_downlink(fb, [this, report = std::move(report)](net::Packet) {
        if (sender_) sender_->on_feedback(report);
      });
    });
    return;
  }
  // Every path carries a copy of the packet; they share one report.
  auto shared = std::make_shared<const rtp::FeedbackReport>(std::move(report));
  auto forward = [this, shared](net::Packet) {
    // First copy wins; the duplicates are ignored.
    if (!last_feedback_forwarded_.is_never() &&
        shared->generated <= last_feedback_forwarded_) {
      return;
    }
    last_feedback_forwarded_ = shared->generated;
    if (sender_) sender_->on_feedback(*shared);
  };
  const auto delay = wan_down_->sample_delay();
  sim_.schedule_in(delay, [this, fb, forward] {
    // Feedback rides every path; first copy wins above. With two cellular
    // paths this is id-for-id the historical copy_a/copy_b sequence.
    for (int i = 0; i < static_cast<int>(lm_->path_count()); ++i) {
      net::Packet copy = fb;
      copy.id = next_id_++;
      lm_->path(i).send_downlink(copy, forward);
    }
  });
}

void Session::downlink_on(int path, net::Packet p,
                          bond::BondablePath::DeliverFn fn) {
  if (lm_) {
    lm_->path(path).send_downlink(std::move(p), std::move(fn));
  } else {
    link().send_downlink(std::move(p), std::move(fn));
  }
}

void Session::send_probe() {
  const auto now = sim_.now();
  if (now > trajectory_->end()) return;
  net::Packet p;
  p.id = next_id_++;
  p.kind = net::PacketKind::kProbe;
  p.size_bytes = 98;  // 64-byte ICMP payload + headers
  const double altitude = trajectory_->position(now).z;
  const auto sent_at = now;
  link().send_uplink(p, [this, altitude, sent_at](net::Packet) {
    // Server echoes immediately; pong takes WAN + downlink.
    const auto wan = wan_up_->sample_delay() + wan_down_->sample_delay();
    sim_.schedule_in(wan, [this, altitude, sent_at] {
      net::Packet pong;
      pong.id = next_id_++;
      pong.kind = net::PacketKind::kProbe;
      pong.size_bytes = 98;
      link().send_downlink(pong, [this, altitude, sent_at](net::Packet) {
        rtt_by_altitude_.emplace_back(altitude, (sim_.now() - sent_at).ms());
      });
    });
  });
  sim_.schedule_in(cfg_.probe_interval, [this] { send_probe(); });
}

void Session::send_command() {
  const auto now = sim_.now();
  if (now > trajectory_->end()) return;
  // Pilot-side: WAN back-haul once, then the cellular downlink(s). The
  // reliability policies duplicate the command across paths; on a bond the
  // first copy to reach the UAV wins.
  net::Packet p;
  p.id = next_id_++;
  p.kind = net::PacketKind::kProbe;
  p.size_bytes = cfg_.c2.command_bytes + 40;
  ++commands_sent_;
  const std::uint64_t cseq = commands_sent_;
  const auto sent_at = now;
  const auto d = lm_ ? lm_->route(bond::TrafficClass::kC2, p)
                     : bond::RouteDecision{};
  const auto wan = wan_down_->sample_delay();
  sim_.schedule_in(wan, [this, p, d, cseq, sent_at] {
    auto done = [this, cseq, sent_at](net::Packet) {
      if (lm_ && cseq <= last_command_done_) return;  // later copy: suppress
      last_command_done_ = cseq;
      command_latency_ms_.add(sim_.now(), (sim_.now() - sent_at).ms());
    };
    downlink_on(d.primary, p, done);
    if (d.duplicate >= 0) {
      net::Packet copy = p;
      copy.id = next_id_++;
      copy.origin_id = p.id;
      downlink_on(d.duplicate, copy, done);
    }
  });
  sim_.schedule_in(cfg_.c2.command_interval, [this] { send_command(); });
}

void Session::send_telemetry() {
  const auto now = sim_.now();
  if (now > trajectory_->end()) return;
  // UAV-side: the telemetry packet enters the same uplink queue as the
  // video stream, then crosses the WAN; on a bond the class scheduler
  // steers it around a congested path.
  net::Packet p;
  p.id = next_id_++;
  p.kind = net::PacketKind::kProbe;
  p.size_bytes = cfg_.c2.telemetry_bytes + 40;
  ++telemetry_sent_;
  const auto sent_at = now;
  const int path =
      lm_ ? lm_->route(bond::TrafficClass::kTelemetry, p).primary : 0;
  auto delivered = [this, sent_at, path](net::Packet) {
    if (lm_) lm_->note_delivered(path);
    const auto wan = wan_up_->sample_delay();
    sim_.schedule_in(wan, [this, sent_at] {
      telemetry_latency_ms_.add(sim_.now(), (sim_.now() - sent_at).ms());
    });
  };
  if (lm_) {
    lm_->note_sent(path, p.size_bytes);
    lm_->path(path).send_uplink(p, delivered);
  } else {
    link().send_uplink(p, delivered);
  }
  sim_.schedule_in(cfg_.c2.telemetry_interval, [this] { send_telemetry(); });
}

void Session::fec_tick(sim::TimePoint end) {
  bond::FecInputs in;
  in.max_loss_ewma = lm_->max_loss_ewma();
  in.capacity_mbps = lm_->best_capacity_mbps();
  in.forecast_mbps = lm_->anchor_forecast_mbps();
  in.ho_armed = lm_->any_ho_armed();
  if (const auto change = fec_ctrl_->update(sim_.now(), in)) {
    sender_->set_fec_group_size(change->group_size);
    ++fec_rate_changes_;
    auto& bus = observer();
    if (bus.wants(obs::EventKind::kFecRateChange)) {
      bus.publish(obs::Component::kBond, obs::EventKind::kFecRateChange,
                  sim_.now(),
                  obs::FecRatePayload{change->group_size,
                                      change->prev_group_size,
                                      in.max_loss_ewma, in.ho_armed});
    }
  }
  if (sim_.now() < end) {
    sim_.schedule_in(kFecTickInterval, [this, end] { fec_tick(end); });
  }
}

SessionReport Session::run() {
  begin();
  sim_.run_until(drain_end());
  return collect();
}

void Session::begin() {
  for (auto& op : ops_) op.link->start();
  for (auto& op : ops_) {
    if (op.injector) op.injector->arm();
  }
  const auto start = trajectory_->start();
  const auto end = trajectory_->end();
  // Cover the whole run including the drain tail.
  if (sat_link_) sat_link_->start(drain_end() - sim_.now());
  if (sender_) sender_->start(start, end);
  if (receiver_) receiver_->start(start, end);
  if (!lm_ && cfg_.probe_interval > sim::Duration::zero()) {
    sim_.schedule_at(start, [this] { send_probe(); });
  }
  if (cfg_.c2.enabled) {
    sim_.schedule_at(start, [this] { send_command(); });
    sim_.schedule_at(start, [this] { send_telemetry(); });
  }
  if (fec_ctrl_) {
    sim_.schedule_at(start + kFecTickInterval, [this, end] { fec_tick(end); });
  }
}

SessionReport Session::collect() {
  if (window_) window_->flush_all();
  if (receiver_) receiver_->finish();
  for (auto& op : ops_) op.adapter->finish();

  SessionReport r;
  r.cc_name = cc_name(cfg_.cc);
  if (policy_) r.cc_name += bond::policy_suffix(*policy_);
  r.environment = environment_;
  r.duration = trajectory_->duration();

  if (receiver_) {
    const auto& player = receiver_->player();
    r.goodput_mbps_windows = receiver_->goodput_mbps().values();
    r.fps_windows = player.fps_windows();
    r.playback_latency_ms = player.playback_latency_ms().values();
    r.ssim_samples = player.played_ssim();
    r.stall_count = player.stall_count();
    r.stall_duration_ms = player.stall_durations_ms();
    r.stalls_per_minute = player.stalls_per_minute();
    r.frames_played = player.frames_played();
    r.frames_corrupted = receiver_->corrupted_frames();
    r.owd_ms = receiver_->owd_ms().values();
    r.owd_trace_ms = receiver_->owd_ms();
    r.playback_latency_trace_ms = player.playback_latency_ms();
    r.packets_received = receiver_->packets_received();
    r.pli_sent = receiver_->pli_sent();
    double total = 0.0;
    for (const double g : r.goodput_mbps_windows) total += g;
    r.avg_goodput_mbps = r.goodput_mbps_windows.empty()
                             ? 0.0
                             : total / static_cast<double>(
                                           r.goodput_mbps_windows.size());
  }
  if (sender_) {
    r.frames_encoded = sender_->frames_encoded();
    r.packets_sent = sender_->packets_sent();
    r.queue_discard_events = sender_->queue_discard_events();
    r.target_bitrate_trace_bps = sender_->target_bitrate_trace();
    r.watchdog_events = sender_->watchdog_events();
    r.keyframes_forced = sender_->keyframes_forced();
    r.max_ladder_level = sender_->max_ladder_level();
    // Unplayed frames score SSIM 0 (the paper's convention); exclude a small
    // in-flight tail at the end of the run.
    const std::uint32_t tail_allowance = 15;
    if (r.frames_encoded > r.frames_played + tail_allowance) {
      const std::uint32_t unplayed =
          r.frames_encoded - r.frames_played - tail_allowance;
      r.ssim_samples.insert(r.ssim_samples.end(), unplayed, 0.0);
    }
  }

  // Handovers, capacity and prediction follow operator A (matching the
  // fault placement); cells, fault drops and injected faults add up over
  // every operator.
  const auto& log = link().handover_log();
  r.handovers = log;
  r.ho_frequency_per_s = log.frequency(r.duration);
  r.het_ms = log.het_ms();
  r.capacity_trace_mbps = link().capacity_trace();
  if (receiver_) r.ho_latency_ratios = log.latency_ratios(receiver_->owd_ms());
  for (const auto& op : ops_) {
    r.cells_seen += op.link->distinct_cells_seen();
    r.fault_drops += op.link->fault_drops();
    if (op.injector) r.faults_injected += op.injector->injected();
  }
  if (const auto& injector = ops_.front().injector) {
    if (receiver_) {
      fault::attribute_recovery(injector->outcomes(),
                                receiver_->player().playback_latency_ms(),
                                receiver_->clean_frame_times(),
                                receiver_->player().stall_times());
    }
    r.fault_outcomes = injector->outcomes();
  }
  r.prediction = adapter().stats();

  // Filled by the single-path routes only; empty on a bond.
  r.radio_losses = radio_losses_;
  r.loss_times = loss_times_;
  r.wan_drops = wan_drops_;
  r.media_losses = media_losses_;
  r.rtt_by_altitude = rtt_by_altitude_;

  r.obs_enabled = cfg_.obs.enabled;
  if (recorder_) {
    r.events = recorder_->snapshot();
    r.obs_events_recorded = recorder_->recorded();
    r.obs_events_dropped = recorder_->dropped();
  }
  if (metrics_) r.obs_metrics = metrics_->summary();

  r.command_latency_ms = command_latency_ms_.values();
  r.telemetry_latency_ms = telemetry_latency_ms_.values();
  r.commands_sent = commands_sent_;
  r.telemetry_sent = telemetry_sent_;
  r.sim_events = sim_.executed_events();

  if (!lm_) {
    r.buffer_drops = link().buffer_drops();
    if (r.packets_sent > 0) {
      r.per = static_cast<double>(r.radio_losses + r.buffer_drops) /
              static_cast<double>(r.packets_sent);
    }
    r.ping_pong_handovers = log.ping_pong_count();
    if (sender_) {
      r.jitter_resyncs = receiver_->jitter_buffer().resyncs();
      r.packets_in_flight = static_cast<std::int64_t>(r.packets_sent) -
                            static_cast<std::int64_t>(r.packets_received) -
                            static_cast<std::int64_t>(r.media_losses) -
                            static_cast<std::int64_t>(r.wan_drops);
      if (const auto* scream =
              dynamic_cast<const cc::scream::ScreamController*>(
                  &sender_->controller())) {
        r.scream_misloss_packets = scream->packets_declared_lost();
      }
    }
    return r;
  }

  // A packet only counts as lost if every copy died; approximate via the
  // receiver's view: sent vs delivered-unique.
  if (r.packets_sent > 0) {
    const std::uint64_t missing =
        r.packets_sent > r.packets_received ? r.packets_sent - r.packets_received
                                            : 0;
    r.per = static_cast<double>(missing) / static_cast<double>(r.packets_sent);
  }
  r.failover_events = lm_->failover_events();
  r.bond_policy = bond::policy_name(*policy_);
  r.bond_path_switches = lm_->path_switches();
  r.bond_class_preemptions = lm_->class_preemptions();
  r.bond_fec_rate_changes = fec_rate_changes_;
  r.bond_reorder_flushes = window_ ? window_->flushes() : 0;
  r.bond_duplicates_suppressed = duplicates_discarded();
  r.bond_fec_recovered = receiver_->fec_recovered();
  r.bond_airtime_bytes = lm_->airtime_bytes();
  r.bond_media_bytes = sender_->bytes_sent();
  for (int i = 0; i < static_cast<int>(lm_->path_count()); ++i) {
    const auto c = lm_->path_counters(i);
    PathBreakdown pb;
    pb.kind = std::string(bond::path_kind_name(c.kind));
    pb.sent_packets = c.sent_packets;
    pb.delivered_packets = c.delivered_packets;
    pb.lost_packets = c.lost_packets;
    pb.airtime_bytes = c.airtime_bytes;
    r.bond_paths.push_back(std::move(pb));
  }

  if (sat_link_) {
    r.sat_enabled = true;
    r.sat_pass_handovers = sat_link_->pass_handovers();
    r.sat_obstructions = sat_link_->obstructions();
    r.sat_outage_ms = sat_link_->outage_ms();
    // Stall mass whose onset overlapped a sat unavailable window: the part
    // of the stall budget the satellite path was in no position to mask.
    const auto& player = receiver_->player();
    const auto& stall_times = player.stall_times();
    const auto& stall_durs = player.stall_durations_ms();
    const std::size_t n = std::min(stall_times.size(), stall_durs.size());
    for (std::size_t i = 0; i < n; ++i) {
      if (sat_link_->in_unavailable_window(stall_times[i])) {
        r.sat_stall_ms_in_outage += stall_durs[i];
      }
    }
  }
  return r;
}

}  // namespace rpv::pipeline
