// Heap-allocation tests for the per-packet media path (rpv_alloc_tests).
//
// This binary replaces the global operator new with a counting one, so it
// is built apart from rpv_tests. Each test warms a component up until its
// containers have reached their steady-state size, then counts the heap
// allocations of thousands more packets and requires none: the bonded
// reorder window, the FEC encoder, group table and decoder, the legacy
// dedup set, the player's display queue, the sender queue and
// bond::LinkManager::route.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "bond/link_manager.hpp"
#include "bond/reorder_window.hpp"
#include "net/packet.hpp"
#include "rtp/fec.hpp"
#include "sim/flat_set.hpp"
#include "sim/fifo.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "video/player_model.hpp"

namespace {

bool g_counting = false;
std::uint64_t g_allocs = 0;

}  // namespace

void* operator new(std::size_t n) {
  if (g_counting) ++g_allocs;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) { return operator new(n); }
// GCC cannot see that these frees pair with the malloc in operator new.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace rpv {
namespace {

using sim::Duration;
using sim::TimePoint;

// Heap allocations made by `fn`.
template <class Fn>
std::uint64_t allocations_in(Fn&& fn) {
  g_allocs = 0;
  g_counting = true;
  fn();
  g_counting = false;
  return g_allocs;
}

// sim::EventQueue gives each of its 1024 wheel buckets storage the first
// time an event lands there, so a sparse schedule (a timer every few ms)
// keeps touching new buckets for thousands of events. That growth belongs
// to the event engine, not to the components under test: run a few events
// through every bucket first.
void warm_event_wheel(sim::Simulator& sim) {
  const TimePoint start = sim.now();
  for (int k = 0; k < 2 * 1024 * 8; ++k) {
    sim.schedule_at(start + Duration::micros(32 * k), [] {});
  }
  sim.run_until(start + Duration::micros(32 * 2 * 1024 * 8));
}

TEST(Allocations, CounterSeesAnAllocation) {
  EXPECT_EQ(allocations_in([] { std::vector<int> v(4); }), 1u);
}

// A two-path bond at 2000 packets/s: one path 15 ms slower than the other
// and jittered (so packets wait in the window), 2% loss per path (gaps that
// time out), 10% duplicated onto the other path, one packet in eleven
// parity. 80000 packets of warm-up fill the 60000-key dedup FIFO and prune
// it once; the next 100000 must not allocate.
TEST(Allocations, ReorderWindowSteadyState) {
  sim::Simulator sim;
  warm_event_wheel(sim);
  std::uint64_t released = 0;
  bond::ReorderWindow window{sim, {}, [&](net::Packet, int) { ++released; }};
  sim::Rng rng{7};
  struct Arrival {
    TimePoint at;
    net::Packet p;
    int path;
  };
  const TimePoint start = sim.now();
  std::vector<Arrival> pending;  // sorted on push, drained at each step
  pending.reserve(1024);
  std::int64_t i = 0;
  auto step = [&](std::int64_t count) {
    for (const std::int64_t end = i + count; i < end; ++i) {
      net::Packet p;
      p.id = static_cast<std::uint64_t>(i) + 1;
      p.transport_seq = static_cast<std::uint16_t>(i);
      p.sent = start + Duration::micros(500 * i);
      if (i % 11 == 10) {
        p.kind = net::PacketKind::kFecParity;
        p.fec_group = static_cast<std::int32_t>(i / 11);
      } else {
        p.frame_id = static_cast<std::uint32_t>(i / 8);
      }
      const int path = static_cast<int>(i % 2);
      for (int copy = 0; copy < (rng.chance(0.1) ? 2 : 1); ++copy) {
        const int on = (path + copy) % 2;
        if (rng.chance(0.02)) continue;
        const double ms = (on == 0 ? 20.0 : 35.0) + rng.uniform(0.0, 6.0);
        const Arrival a{p.sent + Duration::millis_f(ms), p, on};
        auto it = pending.end();
        while (it != pending.begin() && a.at < (it - 1)->at) --it;
        pending.insert(it, a);
      }
      const auto now = start + Duration::micros(500 * i);
      std::size_t n = 0;
      for (; n < pending.size() && pending[n].at <= now; ++n) {
        sim.run_until(pending[n].at);
        window.on_packet(pending[n].p, pending[n].path);
      }
      pending.erase(pending.begin(), pending.begin() + static_cast<long>(n));
      sim.run_until(now);
    }
  };
  step(80'000);
  const std::uint64_t before = released;
  EXPECT_EQ(allocations_in([&] { step(100'000); }), 0u);
  EXPECT_GT(released - before, 95'000u);
  EXPECT_GT(window.flushes(), 0u);
  EXPECT_GT(window.duplicates_suppressed(), 0u);
}

// Encoder, shared group table and decoder with 5% loss, the group size
// retuned over the adaptive controller's ladder. Warm-up runs the largest
// group long enough to cycle every table slot; then 60000 media packets at
// every rung must not allocate.
TEST(Allocations, FecEncodeDecodeSteadyState) {
  auto table = std::make_shared<rtp::FecGroupTable>();
  rtp::FecEncoder enc{rtp::FecConfig{12}, table};
  rtp::FecDecoder dec{table};
  sim::Rng rng{3};
  std::uint16_t wire = 0;
  std::uint64_t id = 1;
  const auto now = TimePoint::origin();
  auto run = [&](int media, int group_size) {
    enc.set_group_size(group_size);
    for (int k = 0; k < media; ++k) {
      net::Packet p;
      p.id = id++;
      p.size_bytes = 1200;
      p.transport_seq = wire++;
      auto parity = enc.on_media_packet(p);
      if (!rng.chance(0.05)) (void)dec.on_media_packet(p, now);
      if (parity && !rng.chance(0.05)) (void)dec.on_parity_packet(*parity, now);
    }
  };
  run(40'000, 12);
  const std::uint64_t recovered = dec.recovered_packets();
  EXPECT_EQ(allocations_in([&] {
              for (const int n : {12, 9, 6, 4, 12}) run(12'000, n);
            }),
            0u);
  EXPECT_GT(dec.recovered_packets(), recovered);
}

// Session's legacy first-copy-wins rule: insert (frame << 16 | seq), prune
// keys 200+ frames old once the set passes 60000. Warm-up crosses several
// prunes; the next 300000 packets must not allocate.
TEST(Allocations, LegacyDedupSetSteadyState) {
  sim::FlatSet ids;
  std::uint64_t n = 0;
  std::uint64_t admitted = 0;
  auto run = [&](std::uint64_t count) {
    for (const std::uint64_t end = n + count; n < end; ++n) {
      const auto frame = static_cast<std::uint32_t>(n / 12);
      const std::uint64_t key =
          (static_cast<std::uint64_t>(frame) << 16) | (n & 0xFFFF);
      if (ids.insert(key)) ++admitted;
      (void)ids.insert(key);  // the duplicate copy
      if (ids.size() > 60000) {
        const std::uint64_t keep_from =
            frame > 200 ? (static_cast<std::uint64_t>(frame - 200) << 16) : 0;
        ids.erase_if([keep_from](std::uint64_t k) { return k < keep_from; });
      }
    }
  };
  run(200'000);
  EXPECT_EQ(allocations_in([&] { run(300'000); }), 0u);
  EXPECT_EQ(admitted, 500'000u);
}

// Frames ready at 30 FPS with up to 30 ms of jitter, so the display queue
// now and then holds two. The player also appends each played frame to
// its report vectors, which grow by doubling: the 4000-frame window starts
// past 4096 played frames and ends before 8192, so none of them grows.
TEST(Allocations, PlayerQueueSteadyState) {
  sim::Simulator sim;
  warm_event_wheel(sim);
  video::PlayerModel player{sim, {}};
  sim::Rng rng{5};
  const TimePoint start = sim.now();
  std::uint32_t next = 0;
  auto run = [&](std::uint32_t frames) {
    for (const std::uint32_t end = next + frames; next < end; ++next) {
      video::Frame f;
      f.id = next;
      f.capture_time = start + Duration::micros(33'333LL * next);
      const auto ready = f.capture_time + Duration::millis(120) +
                         Duration::micros(rng.uniform_int(0, 30'000));
      sim.run_until(std::max(sim.now(), ready));
      player.on_frame_ready(f, 0.9);
    }
    sim.run_until(sim.now() + Duration::millis(200));
  };
  run(4'150);
  ASSERT_GT(player.frames_played(), 4'096u);
  EXPECT_EQ(allocations_in([&] { run(4'000); }), 0u);
  EXPECT_LT(player.frames_played(), 8'192u);
}

// VideoSender::queue_: bursts of packets (a frame) pushed and paced out,
// each smaller than the chunks the queue keeps. A 2000-packet backlog once
// grows the queue; draining it frees all but a few chunks. Then no
// allocation.
TEST(Allocations, SenderQueueSteadyState) {
  using Queue = sim::Fifo<net::Packet>;
  Queue queue;
  sim::Rng rng{9};
  const auto max_burst = static_cast<std::int64_t>(Queue::kMaxSpare * Queue::kChunk);
  auto burst = [&](std::int64_t packets) {
    for (std::int64_t k = 0; k < packets; ++k) queue.push_back(net::Packet{});
    while (!queue.empty()) queue.pop_front();
  };
  burst(2'000);
  EXPECT_EQ(queue.chunks(), 1 + Queue::kMaxSpare);
  for (int k = 0; k < 100; ++k) burst(rng.uniform_int(1, max_burst));
  EXPECT_EQ(allocations_in([&] {
              for (int k = 0; k < 10'000; ++k) {
                burst(rng.uniform_int(1, max_burst));
              }
            }),
            0u);
}

// Three stub paths with moving queues, one of them dropping out now and
// then; every policy routes video, C2 and telemetry.
class StubPath final : public bond::BondablePath {
 public:
  [[nodiscard]] bond::PathKind kind() const override {
    return bond::PathKind::kCellular;
  }
  void send_uplink(net::Packet, DeliverFn) override {}
  void send_downlink(net::Packet, DeliverFn) override {}
  void set_loss_callback(LossFn) override {}
  [[nodiscard]] bool link_down() const override { return down; }
  [[nodiscard]] double current_capacity_mbps() const override { return 20.0; }
  [[nodiscard]] double queuing_delay_ms() const override { return queue_ms; }

  bool down = false;
  double queue_ms = 0.0;
};

TEST(Allocations, LinkManagerRouteSteadyState) {
  for (const bond::Policy policy :
       {bond::Policy::kDuplicate, bond::Policy::kScheduled,
        bond::Policy::kFailover, bond::Policy::kLowLatency,
        bond::Policy::kBalanced, bond::Policy::kHighReliability}) {
    SCOPED_TRACE(static_cast<int>(policy));
    sim::Simulator sim;
    warm_event_wheel(sim);
    bond::LinkManagerConfig cfg;
    cfg.policy = policy;
    bond::LinkManager lm{sim, cfg};
    StubPath paths[3];
    for (auto& p : paths) lm.add_path(&p);
    sim::Rng rng{11};
    auto run = [&](int packets) {
      for (int k = 0; k < packets; ++k) {
        sim.run_until(sim.now() + Duration::micros(500));
        for (auto& p : paths) p.queue_ms = rng.uniform(0.0, 40.0);
        if (k % 2000 == 0) paths[2].down = !paths[2].down;
        net::Packet pkt;
        pkt.id = static_cast<std::uint64_t>(k);
        pkt.keyframe = k % 300 < 20;
        const auto cls = k % 10 == 0   ? bond::TrafficClass::kC2
                         : k % 10 == 1 ? bond::TrafficClass::kTelemetry
                                       : bond::TrafficClass::kVideo;
        const auto d = lm.route(cls, pkt);
        lm.note_sent(d.primary, 1200);
        if (k % 50 == 0) {
          lm.note_lost(d.primary);
        } else {
          lm.note_delivered(d.primary);
        }
      }
    };
    run(5'000);
    EXPECT_EQ(allocations_in([&] { run(20'000); }), 0u);
  }
}

}  // namespace
}  // namespace rpv
