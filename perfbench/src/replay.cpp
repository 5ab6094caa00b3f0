#include "replay.hpp"

#include <algorithm>
#include <vector>

#include "bond/reorder_window.hpp"
#include "cc/gcc/gcc_controller.hpp"
#include "cc/scream/scream_controller.hpp"
#include "cellular/link_queue.hpp"
#include "obs/event_sink.hpp"
#include "rtp/feedback.hpp"
#include "rtp/jitter_buffer.hpp"
#include "rtp/packetizer.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"

namespace perfbench {

using namespace rpv;

namespace {

sim::TimePoint at(std::int64_t us) { return sim::TimePoint::from_us(us); }

bool carries_transport_seq(std::uint8_t kind) {
  return kind == static_cast<std::uint8_t>(net::PacketKind::kRtpVideo) ||
         kind == static_cast<std::uint8_t>(net::PacketKind::kFecParity);
}

void replay_linkqueue(const Recording& rec, const cellular::LinkQueueConfig& cfg,
                      ReplayCost& out) {
  if (rec.enqueues.empty()) return;
  sim::Simulator sim;
  double rate_bps = rec.capacity.empty() ? 20e6 : rec.capacity.front().mbps * 1e6;
  std::uint64_t delivered = 0;
  cellular::LinkQueue q{
      sim, cfg, [&rate_bps] { return std::max(rate_bps, 1e5); },
      [&delivered](net::Packet p, cellular::LinkQueue::DoneFn done) {
        ++delivered;
        if (done) done(std::move(p));
      }};
  std::size_t ci = 0;
  const double t0 = now_s();
  for (const auto& e : rec.enqueues) {
    while (ci < rec.capacity.size() && rec.capacity[ci].t_us <= e.t_us) {
      rate_bps = rec.capacity[ci++].mbps * 1e6;
    }
    sim.run_until(at(e.t_us));
    net::Packet p;
    p.id = e.id;
    p.size_bytes = e.bytes;
    p.enqueued = sim.now();
    q.enqueue(std::move(p));
  }
  out.add(now_s() - t0, rec.enqueues.size());
  sim.run_until(at(rec.enqueues.back().t_us) + sim::Duration::seconds(60.0));
}

// Packetizes the recorded frames (timed) and returns the packets a fresh
// packetizer produces, indexed by packet id - 1, for the jitter replay.
std::vector<net::Packet> replay_packetizer(const Recording& rec,
                                           const rtp::PacketizerConfig& cfg,
                                           ReplayCost& out) {
  std::vector<net::Packet> by_id;
  if (rec.frames.empty()) return by_id;
  auto frame_of = [](const FrameRec& f) {
    video::Frame frame;
    frame.id = f.id;
    frame.capture_time = at(f.t_us);
    frame.encode_time = at(f.t_us);
    frame.size_bytes = f.bytes;
    frame.keyframe = f.keyframe;
    return frame;
  };
  {
    rtp::Packetizer pk{cfg};
    std::vector<net::Packet> scratch;
    const double t0 = now_s();
    for (const auto& f : rec.frames) pk.packetize(frame_of(f), scratch);
    out.add(now_s() - t0, rec.frames.size());
  }
  rtp::Packetizer pk{cfg};
  std::vector<net::Packet> scratch;
  for (const auto& f : rec.frames) {
    pk.packetize(frame_of(f), scratch);
    by_id.insert(by_id.end(), scratch.begin(), scratch.end());
  }
  return by_id;
}

void replay_jitter(const Recording& rec, const std::vector<net::Packet>& by_id,
                   const rtp::JitterBufferConfig& cfg, ReplayCost& out) {
  sim::Simulator sim;
  std::uint64_t released = 0;
  rtp::JitterBuffer jb{sim, cfg,
                       [&released](const rtp::FrameReleaseEvent&) { ++released; }};
  std::uint64_t fed = 0;
  std::int64_t last_us = 0;
  const double t0 = now_s();
  for (const auto& r : rec.received) {
    if (r.kind != static_cast<std::uint8_t>(net::PacketKind::kRtpVideo) ||
        r.id == 0 || r.id > by_id.size()) {
      continue;
    }
    sim.run_until(at(r.t_us));
    net::Packet p = by_id[r.id - 1];
    p.received = sim.now();
    p.enqueued = p.received - sim::Duration::millis_f(r.owd_ms);
    jb.on_packet(p);
    ++fed;
    last_us = r.t_us;
  }
  out.add(now_s() - t0, fed);
  sim.run_until(at(last_us) + sim::Duration::seconds(5.0));
}

// Rebuilds the receiver's feedback from the recorded arrivals (one report
// per feedback interval, as VideoReceiver::feedback_tick sends them) and
// feeds it, with the recorded sends, to `ctl` in time order. Only the
// on_feedback calls are timed. Returns the number of reports.
template <class Collector>
std::uint64_t replay_cc(cc::RateController& ctl, Collector& collector,
                        sim::Duration interval, const Recording& rec,
                        ReplayCost& out) {
  if (rec.received.empty()) return 0;
  std::size_t si = 0;
  std::uint64_t reports = 0;
  double seconds = 0.0;
  auto next_tick = at(rec.received.front().t_us) + interval;
  auto feedback_until = [&](sim::TimePoint t) {
    while (t >= next_tick) {
      if (collector.has_data()) {
        const auto report = collector.build_report(next_tick);
        if (!report.results.empty()) {
          while (si < rec.sent.size() && at(rec.sent[si].t_us) <= next_tick) {
            const auto& s = rec.sent[si++];
            ctl.on_packet_sent({s.transport_seq, s.bytes, at(s.t_us)});
          }
          const double t0 = now_s();
          ctl.on_feedback(report, next_tick);
          seconds += now_s() - t0;
          ++reports;
        }
      }
      next_tick = next_tick + interval;
    }
  };
  for (const auto& r : rec.received) {
    if (!carries_transport_seq(r.kind)) continue;
    feedback_until(at(r.t_us));
    collector.on_packet(r.transport_seq, at(r.t_us));
  }
  feedback_until(next_tick);
  out.add(seconds, reports);
  return reports;
}

void replay_reorder(const Recording& rec, ReplayCost& out) {
  if (rec.received.empty()) return;
  sim::Simulator sim;
  std::uint64_t delivered = 0;
  bond::ReorderWindow w{sim, bond::ReorderWindowConfig{},
                        [&delivered](net::Packet, int) { ++delivered; }};
  const double t0 = now_s();
  for (const auto& r : rec.received) {
    sim.run_until(at(r.t_us));
    net::Packet p;
    p.id = r.id;
    p.kind = static_cast<net::PacketKind>(r.kind);
    p.size_bytes = r.bytes;
    p.frame_id = r.frame_id;
    p.transport_seq = r.transport_seq;
    p.received = sim.now();
    p.sent = p.received - sim::Duration::millis_f(r.owd_ms);
    // Two paths, sprayed by sequence number as a balanced bond would.
    w.on_packet(std::move(p), r.transport_seq % 2);
  }
  out.add(now_s() - t0, rec.received.size());
  w.flush_all();
}

// Hold model: `pending` outstanding events; every pop schedules one
// successor at a delay drawn, in recorded order, from the session's own
// re-arm gaps.
void replay_queue(const Recording& rec, std::size_t pending, ReplayCost& out) {
  const std::vector<std::int64_t> fallback{1000};
  const auto& gaps = rec.gaps_us.empty() ? fallback : rec.gaps_us;
  sim::EventQueue q;
  sim::TimePoint clock = sim::TimePoint::origin();
  std::size_t next = 0;
  std::uint64_t fired = 0;
  struct Hold {
    sim::EventQueue* q;
    sim::TimePoint* clock;
    const std::vector<std::int64_t>* gaps;
    std::size_t* next;
    std::uint64_t* fired;
    void fire() {
      ++*fired;
      const auto d = (*gaps)[(*next)++ % gaps->size()];
      q->schedule(*clock + sim::Duration::micros(d), [this] { fire(); });
    }
  };
  Hold hold{&q, &clock, &gaps, &next, &fired};
  for (std::size_t i = 0; i < std::max<std::size_t>(pending, 1); ++i) {
    const auto d = gaps[next++ % gaps.size()];
    q.schedule(clock + sim::Duration::micros(d), [&hold] { hold.fire(); });
  }
  constexpr std::uint64_t kOps = 500'000;
  const double t0 = now_s();
  while (fired < kOps && q.run_one(sim::TimePoint::never(), &clock)) {
  }
  out.add(now_s() - t0, fired);
}

}  // namespace

void replay_session(const Recording& rec, const pipeline::SessionConfig& cfg,
                    std::size_t pending_events, LayerCosts& out) {
  replay_linkqueue(rec, cfg.link.queue, out.linkqueue);
  const auto by_id = replay_packetizer(rec, cfg.sender.packetizer, out.packetizer);
  replay_jitter(rec, by_id, cfg.receiver.jitter, out.jitter);

  {
    rtp::TwccCollector twcc;
    cc::gcc::GccController gcc{cfg.gcc};
    const auto n =
        replay_cc(gcc, twcc, cfg.receiver.twcc_interval, rec, out.gcc);
    if (cfg.cc == pipeline::CcKind::kGcc) out.gcc_reports += n;
  }
  {
    rtp::Rfc8888Collector rfc{cfg.receiver.rfc8888_ack_window};
    cc::scream::ScreamController scream{cfg.scream};
    const auto n =
        replay_cc(scream, rfc, cfg.receiver.rfc8888_interval, rec, out.scream);
    if (cfg.cc == pipeline::CcKind::kScream) out.scream_reports += n;
  }
  replay_reorder(rec, out.reorder);
  replay_queue(rec, pending_events, out.queue);
}

PublishCost measure_masked_publish() {
  constexpr std::uint64_t kCalls = 5'000'000;
  obs::EventBus bus;  // no sink: every kind is masked off
  std::vector<double> masked;
  std::vector<double> empty;
  for (int rep = 0; rep < 5; ++rep) {
    double t0 = now_s();
    for (std::uint64_t i = 0; i < kCalls; ++i) {
      // Forces the mask to be reloaded each iteration, as at a real call
      // site between handler invocations.
      asm volatile("" : : "r"(&bus) : "memory");
      bus.publish(obs::Component::kLinkQueue, obs::EventKind::kQueueEnqueue,
                  sim::TimePoint::from_us(static_cast<std::int64_t>(i)),
                  obs::QueuePayload{i, 1240, 0, 0, 0});
    }
    masked.push_back((now_s() - t0) * 1e9 / kCalls);
    t0 = now_s();
    for (std::uint64_t i = 0; i < kCalls; ++i) {
      asm volatile("" : : "r"(&bus) : "memory");
    }
    empty.push_back((now_s() - t0) * 1e9 / kCalls);
  }
  std::sort(masked.begin(), masked.end());
  std::sort(empty.begin(), empty.end());
  return {masked[masked.size() / 2], empty[empty.size() / 2]};
}

}  // namespace perfbench
