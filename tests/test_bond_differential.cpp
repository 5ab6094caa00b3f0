// Differential tests for the bonded media path's flat containers.
//
// bond::ReorderWindow, rtp::FecGroupTable / FecEncoder / FecDecoder, the
// legacy first-copy-wins dedup set in pipeline::Session and
// video::PlayerModel keep their per-packet state in rtp::SeqWindow,
// sim::FlatSet and sim::Fifo. The reference models below are the std::map /
// std::unordered_set / std::deque versions they replaced, kept verbatim in
// behaviour. Seeded random streams drive old and new side by side, and
// every released packet, event, repair and metric must agree exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <queue>
#include <tuple>
#include <type_traits>
#include <unordered_set>
#include <utility>
#include <vector>

#include "bond/reorder_window.hpp"
#include "obs/event_sink.hpp"
#include "rtp/fec.hpp"
#include "rtp/sequence.hpp"
#include "sim/flat_set.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "video/player_model.hpp"

namespace rpv {
namespace {

using sim::Duration;
using sim::TimePoint;

// --- Reference models -------------------------------------------------------

// The map/set-based reorder window.
class MapReorderWindow {
 public:
  using DeliverFn = std::function<void(net::Packet, int)>;

  MapReorderWindow(sim::Simulator& simulator, bond::ReorderWindowConfig cfg,
                   DeliverFn deliver)
      : sim_{simulator}, cfg_{cfg}, deliver_{std::move(deliver)} {}

  void attach_observer(obs::EventBus* bus) { bus_ = bus; }

  void on_packet(net::Packet p, int path) {
    const auto now = sim_.now();
    if (path >= 0) {
      const auto idx = static_cast<std::size_t>(path);
      if (idx >= path_latency_ms_.size()) {
        path_latency_ms_.resize(idx + 1, 0.0);
        path_seen_.resize(idx + 1, false);
      }
      const double owd_ms = (now - p.sent).ms();
      if (!path_seen_[idx]) {
        path_latency_ms_[idx] = owd_ms;
        path_seen_[idx] = true;
      } else {
        path_latency_ms_[idx] +=
            cfg_.skew_alpha * (owd_ms - path_latency_ms_[idx]);
      }
    }
    const std::uint64_t key = dedup_key(p);
    if (!seen_.insert(key).second) {
      ++duplicates_suppressed_;
      return;
    }
    seen_order_.push_back(key);
    if (seen_order_.size() > 60000) {
      for (std::size_t i = 0; i < 20000; ++i) {
        seen_.erase(seen_order_.front());
        seen_order_.pop_front();
      }
    }
    const std::int64_t seq = unwrapper_.unwrap(p.transport_seq);
    if (!started_) {
      started_ = true;
      next_expected_ = seq;
    }
    if (seq < next_expected_) {
      ++late_;
      ++delivered_;
      deliver_(std::move(p), path);
      return;
    }
    buffer_.emplace(seq, Held{std::move(p), now, path});
    drain_in_order();
    if (buffer_.size() >= cfg_.max_packets) {
      const auto released = static_cast<std::uint32_t>(buffer_.size());
      release(buffer_.end());
      ++flushes_;
      publish_flush(released, 1, hold_window().ms());
    }
    arm_timer();
  }

  void flush_all() {
    timer_.cancel();
    timer_deadline_ = TimePoint::never();
    if (buffer_.empty()) return;
    const auto released = static_cast<std::uint32_t>(buffer_.size());
    release(buffer_.end());
    ++flushes_;
    publish_flush(released, 2, hold_window().ms());
  }

  [[nodiscard]] std::uint64_t delivered() const { return delivered_; }
  [[nodiscard]] std::uint64_t duplicates_suppressed() const {
    return duplicates_suppressed_;
  }
  [[nodiscard]] std::uint64_t flushes() const { return flushes_; }
  [[nodiscard]] std::uint64_t late_packets() const { return late_; }
  [[nodiscard]] std::size_t held() const { return buffer_.size(); }
  [[nodiscard]] double skew_ms() const {
    double lo = 0.0;
    double hi = 0.0;
    bool any = false;
    for (std::size_t i = 0; i < path_latency_ms_.size(); ++i) {
      if (!path_seen_[i]) continue;
      if (!any) {
        lo = hi = path_latency_ms_[i];
        any = true;
      } else {
        lo = std::min(lo, path_latency_ms_[i]);
        hi = std::max(hi, path_latency_ms_[i]);
      }
    }
    return any ? hi - lo : 0.0;
  }

 private:
  struct Held {
    net::Packet packet;
    TimePoint arrived;
    int path = 0;
  };

  static std::uint64_t dedup_key(const net::Packet& p) {
    if (p.kind == net::PacketKind::kFecParity) {
      return (1ULL << 48) |
             (static_cast<std::uint64_t>(static_cast<std::uint32_t>(p.fec_group))
              << 16) |
             p.transport_seq;
    }
    return (static_cast<std::uint64_t>(p.frame_id) << 16) | p.transport_seq;
  }

  [[nodiscard]] Duration hold_window() const {
    const auto skew = Duration::seconds(skew_ms() * 1.5 / 1e3);
    return std::clamp(skew, cfg_.base_hold, cfg_.max_hold);
  }

  void drain_in_order() {
    auto it = buffer_.begin();
    while (it != buffer_.end() && it->first == next_expected_) {
      ++next_expected_;
      ++delivered_;
      deliver_(std::move(it->second.packet), it->second.path);
      it = buffer_.erase(it);
    }
  }

  void release(std::map<std::int64_t, Held>::iterator end_it) {
    auto it = buffer_.begin();
    while (it != end_it) {
      next_expected_ = it->first + 1;
      ++delivered_;
      deliver_(std::move(it->second.packet), it->second.path);
      it = buffer_.erase(it);
    }
    drain_in_order();
  }

  void flush_expired() {
    timer_deadline_ = TimePoint::never();
    if (buffer_.empty()) return;
    const auto now = sim_.now();
    const auto hold = hold_window();
    auto end_it = buffer_.begin();
    std::uint32_t released = 0;
    for (auto it = buffer_.begin(); it != buffer_.end(); ++it) {
      if (it->second.arrived + hold <= now) {
        end_it = std::next(it);
        released = static_cast<std::uint32_t>(
            std::distance(buffer_.begin(), end_it));
      }
    }
    if (released > 0) {
      release(end_it);
      ++flushes_;
      publish_flush(released, 0, hold.ms());
    }
    arm_timer();
  }

  void arm_timer() {
    if (buffer_.empty()) {
      timer_.cancel();
      timer_deadline_ = TimePoint::never();
      return;
    }
    TimePoint oldest = TimePoint::never();
    for (const auto& [seq, held] : buffer_) {
      oldest = std::min(oldest, held.arrived);
    }
    const auto deadline = oldest + hold_window();
    if (timer_.pending() && deadline >= timer_deadline_) return;
    timer_deadline_ = deadline;
    timer_ = sim_.schedule_timer_at(deadline, [this] { flush_expired(); });
  }

  void publish_flush(std::uint32_t released, std::uint8_t reason,
                     double hold_ms) {
    if (bus_ == nullptr || !bus_->wants(obs::EventKind::kReorderFlush)) return;
    bus_->publish(obs::Component::kBond, obs::EventKind::kReorderFlush,
                  sim_.now(),
                  obs::ReorderFlushPayload{released, reason, hold_ms});
  }

  sim::Simulator& sim_;
  bond::ReorderWindowConfig cfg_;
  DeliverFn deliver_;
  obs::EventBus* bus_ = nullptr;
  rtp::SeqUnwrapper unwrapper_;
  std::map<std::int64_t, Held> buffer_;
  bool started_ = false;
  std::int64_t next_expected_ = 0;
  std::unordered_set<std::uint64_t> seen_;
  std::deque<std::uint64_t> seen_order_;
  std::vector<double> path_latency_ms_;
  std::vector<bool> path_seen_;
  TimePoint timer_deadline_ = TimePoint::never();
  sim::Timer timer_;
  std::uint64_t delivered_ = 0;
  std::uint64_t duplicates_suppressed_ = 0;
  std::uint64_t flushes_ = 0;
  std::uint64_t late_ = 0;
};

// The map-based FEC group table, encoder and decoder.
class MapFecGroupTable {
 public:
  void put(std::int32_t group, std::vector<net::Packet> members) {
    groups_[group] = std::move(members);
    while (groups_.size() > 512) groups_.erase(groups_.begin());
  }
  [[nodiscard]] const std::vector<net::Packet>* get(std::int32_t group) const {
    const auto it = groups_.find(group);
    return it == groups_.end() ? nullptr : &it->second;
  }

 private:
  std::map<std::int32_t, std::vector<net::Packet>> groups_;
};

class MapFecEncoder {
 public:
  MapFecEncoder(rtp::FecConfig cfg, MapFecGroupTable& table)
      : cfg_{cfg}, table_{table} {}

  std::optional<net::Packet> on_media_packet(net::Packet& media) {
    if (slots_.empty()) {
      slots_.resize(static_cast<std::size_t>(cfg_.interleave_depth));
    }
    Slot& slot = slots_[next_slot_];
    next_slot_ = (next_slot_ + 1) % slots_.size();
    if (slot.group < 0) slot.group = next_group_++;
    media.fec_group = slot.group;
    slot.members.push_back(media);
    slot.max_size = std::max(slot.max_size, media.size_bytes);
    if (static_cast<int>(slot.members.size()) < cfg_.group_size) {
      return std::nullopt;
    }
    net::Packet parity;
    parity.id = next_id_++;
    parity.kind = net::PacketKind::kFecParity;
    parity.size_bytes = slot.max_size;
    parity.fec_group = slot.group;
    parity.rtp_timestamp = slot.members.back().rtp_timestamp;
    table_.put(slot.group, std::move(slot.members));
    slot = Slot{};
    return parity;
  }

  void set_group_size(int n) { cfg_.group_size = n < 2 ? 2 : n; }

 private:
  struct Slot {
    std::vector<net::Packet> members;
    std::int32_t group = -1;
    std::size_t max_size = 0;
  };
  rtp::FecConfig cfg_;
  MapFecGroupTable& table_;
  std::vector<Slot> slots_;
  std::size_t next_slot_ = 0;
  std::int32_t next_group_ = 0;
  std::uint64_t next_id_ = 1ULL << 56;
};

class MapFecDecoder {
 public:
  explicit MapFecDecoder(const MapFecGroupTable& table) : table_{table} {}

  std::optional<net::Packet> on_media_packet(const net::Packet& p,
                                             TimePoint now) {
    if (p.fec_group < 0) return std::nullopt;
    auto& st = states_[p.fec_group];
    st.seen_transport_seqs.push_back(p.transport_seq);
    while (states_.size() > 512) states_.erase(states_.begin());
    return try_repair(p.fec_group, now);
  }
  std::optional<net::Packet> on_parity_packet(const net::Packet& parity,
                                              TimePoint now) {
    if (parity.fec_group < 0) return std::nullopt;
    auto& st = states_[parity.fec_group];
    st.parity_seen = true;
    return try_repair(parity.fec_group, now);
  }
  [[nodiscard]] std::uint64_t recovered_packets() const { return recovered_; }

 private:
  struct GroupState {
    std::vector<std::uint16_t> seen_transport_seqs;
    bool parity_seen = false;
    bool repaired = false;
  };
  std::optional<net::Packet> try_repair(std::int32_t group, TimePoint now) {
    auto& st = states_[group];
    if (!st.parity_seen || st.repaired) return std::nullopt;
    const auto* members = table_.get(group);
    if (members == nullptr) return std::nullopt;
    const net::Packet* missing = nullptr;
    int missing_count = 0;
    for (const auto& m : *members) {
      const bool seen =
          std::find(st.seen_transport_seqs.begin(), st.seen_transport_seqs.end(),
                    m.transport_seq) != st.seen_transport_seqs.end();
      if (!seen) {
        ++missing_count;
        missing = &m;
      }
    }
    if (missing_count != 1) return std::nullopt;
    st.repaired = true;
    ++recovered_;
    net::Packet rebuilt = *missing;
    rebuilt.received = now;
    return rebuilt;
  }

  const MapFecGroupTable& table_;
  std::map<std::int32_t, GroupState> states_;
  std::uint64_t recovered_ = 0;
};

// Session's legacy first-copy-wins dedup, on an unordered_set.
class MapDedup {
 public:
  bool admit(std::uint32_t frame_id, std::uint16_t transport_seq) {
    const std::uint64_t key =
        (static_cast<std::uint64_t>(frame_id) << 16) | transport_seq;
    if (!ids_.insert(key).second) return false;
    if (ids_.size() > 60000) {
      const std::uint64_t keep_from =
          frame_id > 200 ? (static_cast<std::uint64_t>(frame_id - 200) << 16)
                         : 0;
      for (auto it = ids_.begin(); it != ids_.end();) {
        it = (*it < keep_from) ? ids_.erase(it) : std::next(it);
      }
    }
    return true;
  }
  [[nodiscard]] std::size_t size() const { return ids_.size(); }

 private:
  std::unordered_set<std::uint64_t> ids_;
};

// The same rule on sim::FlatSet, as pipeline::Session::deliver_bonded runs it.
class FlatDedup {
 public:
  bool admit(std::uint32_t frame_id, std::uint16_t transport_seq) {
    const std::uint64_t key =
        (static_cast<std::uint64_t>(frame_id) << 16) | transport_seq;
    if (!ids_.insert(key)) return false;
    if (ids_.size() > 60000) {
      const std::uint64_t keep_from =
          frame_id > 200 ? (static_cast<std::uint64_t>(frame_id - 200) << 16)
                         : 0;
      ids_.erase_if([keep_from](std::uint64_t k) { return k < keep_from; });
    }
    return true;
  }
  [[nodiscard]] std::size_t size() const { return ids_.size(); }

 private:
  sim::FlatSet ids_;
};

// The map-based player.
class MapPlayerModel {
 public:
  MapPlayerModel(sim::Simulator& simulator, video::PlayerConfig cfg)
      : sim_{simulator}, cfg_{cfg} {}

  void on_frame_ready(const video::Frame& f, double ssim) {
    if (played_any_ && f.id <= last_frame_id_) {
      ++frames_skipped_;
      return;
    }
    queue_.emplace(f.id, std::make_pair(f, ssim));
    try_play();
  }

  std::vector<std::tuple<std::int64_t, std::uint32_t, double, double>> played;
  std::uint32_t frames_skipped_ = 0;
  std::uint32_t stall_count_ = 0;

 private:
  void adapt_rate(bool starved) {
    const auto backlog = static_cast<int>(queue_.size());
    if (starved) {
      rate_ = std::max(cfg_.min_rate, rate_ * cfg_.rate_step_down);
    } else if (backlog > cfg_.high_watermark_frames) {
      rate_ = std::min(cfg_.max_rate, rate_ * cfg_.rate_step_up);
    } else if (rate_ < 1.0) {
      rate_ = std::min(1.0, rate_ / cfg_.rate_step_down);
    } else if (rate_ > 1.0) {
      rate_ = std::max(1.0, rate_ / cfg_.rate_step_up);
    }
  }

  void try_play() {
    if (queue_.empty()) return;
    const auto now = sim_.now();
    if (now < next_play_at_) {
      if (!wakeup_scheduled_) {
        wakeup_scheduled_ = true;
        sim_.schedule_at(next_play_at_, [this] {
          wakeup_scheduled_ = false;
          try_play();
        });
      }
      return;
    }
    const bool starved = played_any_ && now > next_play_at_ + Duration::millis(5);
    auto it = queue_.begin();
    const video::Frame f = it->second.first;
    const double ssim = it->second.second;
    queue_.erase(it);
    if (played_any_ && now - last_play_time_ > cfg_.stall_threshold) {
      ++stall_count_;
    }
    last_play_time_ = now;
    played_any_ = true;
    last_frame_id_ = f.id;
    played.emplace_back(now.us(), f.id, (now - f.capture_time).ms(), ssim);
    adapt_rate(starved);
    next_play_at_ = now + cfg_.nominal_interval * (1.0 / rate_);
    try_play();
  }

  sim::Simulator& sim_;
  video::PlayerConfig cfg_;
  std::map<std::uint32_t, std::pair<video::Frame, double>> queue_;
  double rate_ = 1.0;
  TimePoint next_play_at_ = TimePoint::origin();
  TimePoint last_play_time_ = TimePoint::never();
  std::uint32_t last_frame_id_ = 0;
  bool played_any_ = false;
  bool wakeup_scheduled_ = false;
};

// --- ReorderWindow ----------------------------------------------------------

struct Copy {
  TimePoint at;
  net::Packet packet;
  int path = 0;
};

// Arrivals at the receiver edge of a 3-path bond, in time order: a logical
// packet every 500 us (one in eleven is FEC parity), sprayed over paths
// whose latency drifts (so the hold window moves), with per-path loss and
// outage bursts (gaps that must time out), 10% duplicated onto a second
// path, 1% arriving up to 2 s late, and now and then a copy of a packet
// 30000-50000 back, older than the dedup FIFO keeps. 150000 packets cross
// the 16-bit transport-seq wrap twice and the 60000-key dedup cap thrice.
std::vector<Copy> bond_stream(std::uint64_t seed, std::uint16_t first_seq) {
  sim::Rng rng{seed};
  constexpr int kPackets = 150'000;
  std::vector<net::Packet> sent;
  sent.reserve(kPackets);
  std::vector<Copy> out;
  double base_ms[3] = {40.0, 55.0, 30.0};
  int outage_left[3] = {0, 0, 0};
  for (int i = 0; i < kPackets; ++i) {
    net::Packet p;
    p.id = static_cast<std::uint64_t>(i) + 1;
    p.transport_seq = static_cast<std::uint16_t>(first_seq + i);
    p.size_bytes = 1200;
    p.sent = TimePoint::from_us(1'000'000 + 500LL * i);
    if (i % 11 == 10) {
      p.kind = net::PacketKind::kFecParity;
      p.fec_group = i / 11;
    } else {
      p.frame_id = static_cast<std::uint32_t>(i / 8);
    }
    sent.push_back(p);
    for (double& b : base_ms) {
      b = std::clamp(b + rng.uniform(-0.5, 0.5), 10.0, 120.0);
    }
    for (int& o : outage_left) {
      if (o > 0) {
        --o;
      } else if (rng.chance(0.0005)) {
        o = static_cast<int>(rng.uniform_int(5, 80));
      }
    }
    auto send_on = [&](const net::Packet& q, int path) {
      if (outage_left[path] > 0 || rng.chance(0.03)) return;
      double delay = base_ms[path] + rng.uniform(0.0, 8.0);
      if (rng.chance(0.01)) delay += rng.uniform(100.0, 2000.0);
      out.push_back({q.sent + Duration::millis_f(delay), q, path});
    };
    const int path = static_cast<int>(rng.uniform_int(0, 2));
    send_on(p, path);
    if (rng.chance(0.10)) {
      net::Packet dup = p;
      dup.id += 1ULL << 40;
      send_on(dup, (path + 1 + static_cast<int>(rng.uniform_int(0, 1))) % 3);
    }
    if (i > 50'000 && rng.chance(0.002)) {
      net::Packet old = sent[static_cast<std::size_t>(
          i - rng.uniform_int(30'000, 50'000))];
      old.id += 1ULL << 41;
      old.sent = p.sent;
      send_on(old, static_cast<int>(rng.uniform_int(0, 2)));
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const Copy& a, const Copy& b) { return a.at < b.at; });
  return out;
}

// What a window emitted: every release with its time, and its flush events.
struct WindowTrace {
  std::vector<std::tuple<std::int64_t, std::uint64_t, std::uint16_t, int>>
      released;  // (time us, packet id, transport seq, path)
  std::vector<obs::Event> flushes;
  std::uint64_t delivered = 0, duplicates = 0, flush_count = 0, late = 0;
  std::size_t max_held = 0;
};

template <class Window>
WindowTrace run_window(const std::vector<Copy>& stream,
                       bond::ReorderWindowConfig cfg) {
  sim::Simulator sim;
  WindowTrace trace;
  obs::EventBus bus;
  obs::FunctionSink sink{obs::kind_bit(obs::EventKind::kReorderFlush),
                         [&trace](const obs::Event& e) {
                           trace.flushes.push_back(e);
                         }};
  bus.subscribe(&sink);
  Window w{sim, cfg, [&](net::Packet p, int path) {
             trace.released.emplace_back(sim.now().us(), p.id, p.transport_seq,
                                         path);
           }};
  w.attach_observer(&bus);
  for (const Copy& c : stream) {
    sim.run_until(c.at);
    w.on_packet(c.packet, c.path);
    trace.max_held = std::max(trace.max_held, w.held());
  }
  w.flush_all();
  trace.delivered = w.delivered();
  trace.duplicates = w.duplicates_suppressed();
  trace.flush_count = w.flushes();
  trace.late = w.late_packets();
  return trace;
}

TEST(BondDifferential, ReorderWindowMatchesMapModel) {
  bond::ReorderWindowConfig small_buffer;
  small_buffer.max_packets = 16;
  bond::ReorderWindowConfig fixed_hold;
  fixed_hold.base_hold = fixed_hold.max_hold = Duration::millis(10);
  const bond::ReorderWindowConfig configs[] = {{}, small_buffer, fixed_hold};
  std::uint64_t seed = 500;
  for (const std::uint16_t first : {std::uint16_t{0}, std::uint16_t{65'000}}) {
    for (const auto& cfg : configs) {
      SCOPED_TRACE(::testing::Message() << "seed=" << seed << " first=" << first
                                        << " max_packets=" << cfg.max_packets);
      const auto stream = bond_stream(seed++, first);
      const WindowTrace want = run_window<MapReorderWindow>(stream, cfg);
      const WindowTrace got = run_window<bond::ReorderWindow>(stream, cfg);
      // The stream must reach every branch it is meant to cover.
      EXPECT_GT(want.duplicates, 0u);
      EXPECT_GT(want.late, 0u);
      EXPECT_GT(want.flush_count, 10u);
      EXPECT_GT(want.max_held, 8u);
      EXPECT_EQ(want.delivered, got.delivered);
      EXPECT_EQ(want.duplicates, got.duplicates);
      EXPECT_EQ(want.flush_count, got.flush_count);
      EXPECT_EQ(want.late, got.late);
      EXPECT_EQ(want.max_held, got.max_held);
      ASSERT_EQ(want.released.size(), got.released.size());
      for (std::size_t i = 0; i < want.released.size(); ++i) {
        ASSERT_EQ(want.released[i], got.released[i]) << "release " << i;
      }
      ASSERT_EQ(want.flushes.size(), got.flushes.size());
      for (std::size_t i = 0; i < want.flushes.size(); ++i) {
        ASSERT_EQ(want.flushes[i], got.flushes[i]) << "flush " << i;
      }
    }
  }
}

// --- FEC --------------------------------------------------------------------

struct FecOutcome {
  std::vector<std::int32_t> media_groups;
  std::vector<std::tuple<std::uint64_t, std::size_t, std::int32_t, std::int64_t>>
      parities;  // (id, size, group, rtp timestamp us)
  std::vector<std::tuple<std::size_t, std::uint64_t, std::uint16_t,
                         std::int32_t, std::int64_t>>
      repairs;  // (arrival index, id, transport seq, group, received us)
  std::uint64_t recovered = 0;
};

struct Delivery {
  std::int64_t at;  // wire slot at which it arrives
  std::size_t order;
  net::Packet packet;
  bool operator>(const Delivery& o) const {
    return std::tie(at, order) > std::tie(o.at, o.order);
  }
};

// Encode `media_count` packets and deliver the wire stream (media + parity,
// transport seqs in wire order as VideoSender numbers them) with loss,
// jitter that moves parity ahead of its members and members ahead of each
// other, duplicates, and 1% of packets 3000-9000 wire slots late: late
// enough to land below the 512-group edge of the decoder and the table. The
// group size is retuned every ~2000 packets.
template <class Encoder, class Decoder, class Table>
FecOutcome run_fec(std::uint64_t seed, std::uint16_t first_seq) {
  sim::Rng rng{seed};
  constexpr int kMedia = 120'000;
  auto table = std::make_shared<Table>();
  Encoder enc = [&] {
    if constexpr (std::is_same_v<Table, MapFecGroupTable>) {
      return Encoder{rtp::FecConfig{10}, *table};
    } else {
      return Encoder{rtp::FecConfig{10}, table};
    }
  }();
  Decoder dec = [&] {
    if constexpr (std::is_same_v<Table, MapFecGroupTable>) {
      return Decoder{*table};
    } else {
      return Decoder{table};
    }
  }();
  FecOutcome out;
  std::priority_queue<Delivery, std::vector<Delivery>, std::greater<>> pending;
  std::size_t order = 0;
  std::size_t arrivals = 0;
  std::uint16_t wire_seq = first_seq;
  std::int64_t slot = 0;
  auto deliver = [&](const Delivery& d) {
    const auto now = TimePoint::from_us(d.at * 400);
    const auto rebuilt = d.packet.kind == net::PacketKind::kFecParity
                             ? dec.on_parity_packet(d.packet, now)
                             : dec.on_media_packet(d.packet, now);
    if (rebuilt) {
      out.repairs.emplace_back(arrivals, rebuilt->id, rebuilt->transport_seq,
                               rebuilt->fec_group, rebuilt->received.us());
    }
    ++arrivals;
  };
  auto transmit = [&](const net::Packet& p) {
    ++slot;
    if (rng.chance(0.05)) return;  // lost
    const int copies = rng.chance(0.03) ? 2 : 1;
    for (int c = 0; c < copies; ++c) {
      std::int64_t delay = rng.uniform_int(0, 40);
      if (p.kind == net::PacketKind::kRtpVideo && rng.chance(0.2)) {
        delay += rng.uniform_int(0, 300);  // media behind its parity
      }
      if (rng.chance(0.01)) delay += rng.uniform_int(3000, 9000);
      pending.push({slot + delay, order++, p});
    }
    while (!pending.empty() && pending.top().at <= slot) {
      deliver(pending.top());
      pending.pop();
    }
  };
  for (int i = 0; i < kMedia; ++i) {
    if (i % 2000 == 1999) enc.set_group_size(static_cast<int>(rng.uniform_int(2, 14)));
    net::Packet media;
    media.id = static_cast<std::uint64_t>(i) + 1;
    media.frame_id = static_cast<std::uint32_t>(i / 9);
    media.size_bytes = static_cast<std::size_t>(rng.uniform_int(200, 1200));
    media.rtp_timestamp = TimePoint::from_us(33'333LL * (i / 9));
    media.transport_seq = wire_seq++;
    auto parity = enc.on_media_packet(media);
    out.media_groups.push_back(media.fec_group);
    transmit(media);
    if (parity) {
      parity->transport_seq = wire_seq++;
      out.parities.emplace_back(parity->id, parity->size_bytes,
                                parity->fec_group, parity->rtp_timestamp.us());
      transmit(*parity);
    }
  }
  while (!pending.empty()) {
    deliver(pending.top());
    pending.pop();
  }
  out.recovered = dec.recovered_packets();
  return out;
}

TEST(BondDifferential, FecTableAndDecoderMatchMapModel) {
  std::uint64_t seed = 900;
  for (const std::uint16_t first : {std::uint16_t{0}, std::uint16_t{65'000}}) {
    for (int rep = 0; rep < 2; ++rep) {
      SCOPED_TRACE(::testing::Message() << "seed=" << seed << " first=" << first);
      const FecOutcome want =
          run_fec<MapFecEncoder, MapFecDecoder, MapFecGroupTable>(seed, first);
      const FecOutcome got =
          run_fec<rtp::FecEncoder, rtp::FecDecoder, rtp::FecGroupTable>(seed,
                                                                        first);
      ++seed;
      EXPECT_GT(want.recovered, 1000u);
      EXPECT_EQ(want.media_groups, got.media_groups);
      EXPECT_EQ(want.parities, got.parities);
      EXPECT_EQ(want.recovered, got.recovered);
      ASSERT_EQ(want.repairs.size(), got.repairs.size());
      for (std::size_t i = 0; i < want.repairs.size(); ++i) {
        ASSERT_EQ(want.repairs[i], got.repairs[i]) << "repair " << i;
      }
    }
  }
}

// A late media packet of a group below the decoder's 512-group edge is
// counted and evicted at once, and try_repair recreates an empty state for
// it: a parity that follows finds both members missing and repairs nothing.
template <class Decoder>
std::pair<std::vector<bool>, std::uint64_t> below_edge_script(
    const std::function<void(std::int32_t, std::vector<net::Packet>)>& put,
    Decoder& dec) {
  auto media = [](std::int32_t group, std::uint16_t seq) {
    net::Packet p;
    p.fec_group = group;
    p.transport_seq = seq;
    return p;
  };
  auto parity = [](std::int32_t group) {
    net::Packet p;
    p.kind = net::PacketKind::kFecParity;
    p.fec_group = group;
    return p;
  };
  for (std::int32_t g = 0; g < 600; ++g) {
    const auto seq = static_cast<std::uint16_t>(2 * g);
    put(g, {media(g, seq), media(g, static_cast<std::uint16_t>(seq + 1))});
  }
  const auto now = TimePoint::origin();
  std::vector<bool> repaired;
  repaired.push_back(dec.on_parity_packet(parity(100), now).has_value());
  for (std::int32_t g = 101; g < 614; ++g) {
    repaired.push_back(dec.on_media_packet(media(g, 0), now).has_value());
  }
  // Group 100 is now below the edge (the table still holds it).
  repaired.push_back(dec.on_media_packet(media(100, 200), now).has_value());
  repaired.push_back(dec.on_parity_packet(parity(100), now).has_value());
  // A group inside the edge repairs once its parity and one member arrive.
  repaired.push_back(dec.on_parity_packet(parity(599), now).has_value());
  repaired.push_back(dec.on_media_packet(media(599, 2 * 599), now).has_value());
  return {repaired, dec.recovered_packets()};
}

TEST(BondDifferential, FecGroupBelowTheEdgeIsRecreatedEmpty) {
  MapFecGroupTable map_table;
  MapFecDecoder map_dec{map_table};
  const auto want = below_edge_script(
      [&](std::int32_t g, std::vector<net::Packet> m) {
        map_table.put(g, std::move(m));
      },
      map_dec);
  auto table = std::make_shared<rtp::FecGroupTable>();
  rtp::FecDecoder dec{table};
  const auto got = below_edge_script(
      [&](std::int32_t g, std::vector<net::Packet> m) { table->put(g, m); },
      dec);
  EXPECT_EQ(want, got);
  EXPECT_EQ(got.second, 1u);  // only group 599 repairs
}

// --- Dedup set --------------------------------------------------------------

TEST(BondDifferential, LegacyDedupMatchesUnorderedSet) {
  for (const std::uint64_t seed : {1, 2, 3}) {
    SCOPED_TRACE(seed);
    sim::Rng rng{seed};
    MapDedup want;
    FlatDedup got;
    std::vector<std::pair<std::uint32_t, std::uint16_t>> sent;
    std::uint16_t seq = static_cast<std::uint16_t>(65'000 + seed);
    std::size_t rejected = 0;
    for (int i = 0; i < 250'000; ++i) {
      std::pair<std::uint32_t, std::uint16_t> key{
          static_cast<std::uint32_t>(i / 12), seq++};
      const double u = rng.uniform();
      if (u < 0.05 && !sent.empty()) {
        // A duplicate copy a little behind the original.
        key = sent[sent.size() - 1 -
                   static_cast<std::size_t>(rng.uniform_int(
                       0, std::min<std::int64_t>(
                              static_cast<std::int64_t>(sent.size()) - 1, 500)))];
      } else if (u < 0.06 && sent.size() > 70'000) {
        // A copy from far back: pruned by now or not, both must agree.
        key = sent[sent.size() - 1 - static_cast<std::size_t>(rng.uniform_int(
                                         2'000, 70'000))];
      } else {
        sent.push_back(key);
      }
      const bool admitted = want.admit(key.first, key.second);
      ASSERT_EQ(admitted, got.admit(key.first, key.second)) << "packet " << i;
      if (!admitted) ++rejected;
      ASSERT_EQ(want.size(), got.size()) << "packet " << i;
    }
    EXPECT_GT(rejected, 1000u);
  }
}

// --- PlayerModel ------------------------------------------------------------

TEST(BondDifferential, PlayerMatchesMapModel) {
  for (const std::uint64_t seed : {11, 12, 13}) {
    SCOPED_TRACE(seed);
    sim::Rng rng{seed};
    // Frames become ready out of order, some twice (with a different score:
    // the first insert wins), some never, some after a newer frame played,
    // with freezes long enough to stall.
    std::vector<std::tuple<std::int64_t, video::Frame, double>> ready;
    std::int64_t t = 200'000;
    for (std::uint32_t id = 0; id < 6000; ++id) {
      video::Frame f;
      f.id = id;
      f.capture_time = TimePoint::from_us(33'333LL * id);
      if (rng.chance(0.03)) continue;
      t += rng.chance(0.005) ? rng.uniform_int(300'000, 900'000)
                             : rng.uniform_int(20'000, 46'000);
      const std::int64_t jitter = rng.chance(0.1) ? rng.uniform_int(0, 150'000) : 0;
      ready.emplace_back(t + jitter, f, rng.uniform(0.5, 1.0));
      if (rng.chance(0.05)) {
        ready.emplace_back(t + jitter + rng.uniform_int(0, 80'000), f,
                           rng.uniform(0.5, 1.0));
      }
    }
    std::stable_sort(ready.begin(), ready.end(), [](const auto& a, const auto& b) {
      return std::get<0>(a) < std::get<0>(b);
    });

    sim::Simulator want_sim;
    MapPlayerModel want{want_sim, {}};
    sim::Simulator got_sim;
    video::PlayerModel got{got_sim, {}};
    for (const auto& [at, f, ssim] : ready) {
      want_sim.run_until(TimePoint::from_us(at));
      want.on_frame_ready(f, ssim);
      got_sim.run_until(TimePoint::from_us(at));
      got.on_frame_ready(f, ssim);
    }
    want_sim.run_all();
    got_sim.run_all();
    got.finish();

    const auto& lat = got.playback_latency_ms().samples();
    ASSERT_EQ(want.played.size(), lat.size());
    ASSERT_EQ(want.played.size(), got.played_ssim().size());
    for (std::size_t i = 0; i < lat.size(); ++i) {
      const auto& [us, id, latency_ms, ssim] = want.played[i];
      ASSERT_EQ(us, lat[i].t.us()) << i;
      ASSERT_EQ(latency_ms, lat[i].value) << i;
      ASSERT_EQ(ssim, got.played_ssim()[i]) << i;
    }
    EXPECT_EQ(std::get<1>(want.played.back()), got.last_played_frame_id());
    EXPECT_EQ(want.frames_skipped_, got.frames_skipped());
    EXPECT_GT(want.frames_skipped_, 0u);
    EXPECT_EQ(want.stall_count_, got.stall_count());
    EXPECT_GT(want.stall_count_, 0u);
  }
}

}  // namespace
}  // namespace rpv
