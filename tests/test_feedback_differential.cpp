// Differential tests for the RFC 8888 / SCReAM feedback path.
//
// Rfc8888Collector and ScreamController keep their per-seq state in flat
// rtp::SeqWindows. The reference models below are the std::map versions
// they replaced, kept verbatim in behaviour; seeded random streams drive
// both and every report and every controller state must agree exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "cc/scream/scream_controller.hpp"
#include "rtp/feedback.hpp"
#include "rtp/sequence.hpp"
#include "sim/rng.hpp"

namespace rpv {
namespace {

using sim::TimePoint;

std::uint16_t rewrap(std::int64_t unwrapped) {
  return static_cast<std::uint16_t>(unwrapped & 0xFFFF);
}

// The map-based RFC 8888 collector.
class MapRfc8888Collector {
 public:
  explicit MapRfc8888Collector(int ack_window) : ack_window_{ack_window} {}

  void on_packet(std::uint16_t transport_seq, TimePoint arrival) {
    const std::int64_t s = unwrapper_.unwrap(transport_seq);
    arrivals_.emplace(s, arrival);
    any_seen_ = true;
    if (s > highest_) highest_ = s;
    const std::int64_t keep_from = highest_ - 4 * ack_window_;
    while (!arrivals_.empty() && arrivals_.begin()->first < keep_from) {
      arrivals_.erase(arrivals_.begin());
    }
  }

  [[nodiscard]] rtp::FeedbackReport build_report(TimePoint now) const {
    rtp::FeedbackReport report;
    report.generated = now;
    if (!any_seen_) return report;
    const std::int64_t first = std::max<std::int64_t>(
        arrivals_.empty() ? highest_ : arrivals_.begin()->first,
        highest_ - ack_window_ + 1);
    for (std::int64_t s = first; s <= highest_; ++s) {
      rtp::PacketResult r;
      r.transport_seq = rewrap(s);
      const auto it = arrivals_.find(s);
      if (it != arrivals_.end()) {
        r.received = true;
        r.arrival = it->second;
      }
      report.results.push_back(r);
    }
    return report;
  }

  [[nodiscard]] bool has_data() const { return any_seen_; }

 private:
  int ack_window_;
  std::map<std::int64_t, TimePoint> arrivals_;
  std::int64_t highest_ = -1;
  bool any_seen_ = false;
  rtp::SeqUnwrapper unwrapper_;
};

// The map-based SCReAM controller (publishing and the unused hooks left out).
class MapScream {
 public:
  explicit MapScream(cc::scream::ScreamConfig cfg = {})
      : cfg_{cfg},
        rate_bps_{cfg.initial_rate_bps},
        cwnd_{std::max<std::size_t>(cfg.min_cwnd_bytes, 20 * cfg.mss_bytes)} {}

  void on_packet_sent(const cc::SentPacket& p) {
    const std::int64_t seq = unwrapper_.unwrap(p.transport_seq);
    last_sent_seq_ = p.transport_seq;
    flights_.emplace(seq, Flight{p.size_bytes, p.send_time});
    bytes_in_flight_ += p.size_bytes;
  }

  void on_feedback(const rtp::FeedbackReport& report, TimePoint now) {
    if (report.results.empty()) return;
    std::size_t bytes_newly_acked = 0;
    std::int64_t highest_reported = -1;
    for (const auto& r : report.results) {
      const std::int64_t newest = unwrapper_.highest();
      const int back = rtp::seq_diff(last_sent_seq_, r.transport_seq);
      const std::int64_t seq = newest - back;
      highest_reported = std::max(highest_reported, seq);
      if (!r.received) continue;
      const auto it = flights_.find(seq);
      if (it == flights_.end()) continue;
      const double owd_ms = (r.arrival - it->second.send_time).ms();
      const double rtt_ms = (now - it->second.send_time).ms();
      srtt_ms_ = 0.9 * srtt_ms_ + 0.1 * rtt_ms;
      if (owd_ms < base_owd_ms_) base_owd_ms_ = owd_ms;
      window_min_owd_ms_ = std::min(window_min_owd_ms_, owd_ms);
      if (now - base_window_start_ > cfg_.base_refresh) {
        base_owd_ms_ = window_min_owd_ms_;
        window_min_owd_ms_ = 1e9;
        base_window_start_ = now;
      }
      last_qdelay_ms_ = std::max(0.0, owd_ms - base_owd_ms_);
      bytes_newly_acked += it->second.size_bytes;
      bytes_in_flight_ -= std::min(bytes_in_flight_, it->second.size_bytes);
      flights_.erase(it);
    }
    if (highest_reported >= 0 && !report.results.empty()) {
      const std::int64_t window_low =
          highest_reported - static_cast<std::int64_t>(report.results.size()) + 1;
      while (!flights_.empty() && flights_.begin()->first < window_low) {
        declare_lost(flights_.begin()->first, now);
      }
      for (const auto& r : report.results) {
        if (r.received) continue;
        const std::int64_t newest = unwrapper_.highest();
        const int back = rtp::seq_diff(last_sent_seq_, r.transport_seq);
        const std::int64_t seq = newest - back;
        if (highest_reported - seq >
            static_cast<std::int64_t>(report.results.size()) / 2) {
          declare_lost(seq, now);
        }
      }
    }
    const double off_target =
        (cfg_.qdelay_target_ms - last_qdelay_ms_) / cfg_.qdelay_target_ms;
    if (bytes_newly_acked > 0) {
      const double delta = cfg_.gain * off_target *
                           static_cast<double>(bytes_newly_acked) *
                           static_cast<double>(cfg_.mss_bytes) /
                           static_cast<double>(cwnd_);
      const double new_cwnd = static_cast<double>(cwnd_) + delta;
      cwnd_ = static_cast<std::size_t>(
          std::max(static_cast<double>(cfg_.min_cwnd_bytes), new_cwnd));
    }
    maybe_loss_event(now);
    const auto cwnd_floor = static_cast<std::size_t>(
        cfg_.min_rate_bps * (srtt_ms_ / 1e3) / 8.0);
    cwnd_ = std::max(cwnd_, std::max(cfg_.min_cwnd_bytes, cwnd_floor));
    update_rate(now);
  }

  void on_tick(TimePoint now) {
    while (!flights_.empty()) {
      const auto it = flights_.begin();
      if (now - it->second.send_time < cfg_.flight_timeout) break;
      declare_lost(it->first, now);
    }
  }

  [[nodiscard]] bool can_send(std::size_t bytes) const {
    return bytes_in_flight_ + bytes <= cwnd_;
  }
  [[nodiscard]] double target_bitrate_bps() const { return rate_bps_; }
  [[nodiscard]] std::size_t cwnd_bytes() const { return cwnd_; }
  [[nodiscard]] std::size_t bytes_in_flight() const { return bytes_in_flight_; }
  [[nodiscard]] double qdelay_ms() const { return last_qdelay_ms_; }
  [[nodiscard]] double srtt_ms() const { return srtt_ms_; }
  [[nodiscard]] std::uint64_t loss_events() const { return loss_events_; }
  [[nodiscard]] std::uint64_t packets_declared_lost() const {
    return declared_lost_;
  }

 private:
  struct Flight {
    std::size_t size_bytes = 0;
    TimePoint send_time;
  };

  void declare_lost(std::int64_t seq, TimePoint now) {
    const auto it = flights_.find(seq);
    if (it == flights_.end()) return;
    bytes_in_flight_ -= std::min(bytes_in_flight_, it->second.size_bytes);
    flights_.erase(it);
    ++declared_lost_;
    pending_loss_ = true;
    maybe_loss_event(now);
  }

  void maybe_loss_event(TimePoint now) {
    if (!pending_loss_) return;
    if (!last_loss_event_.is_never() &&
        now - last_loss_event_ < cfg_.loss_event_guard) {
      pending_loss_ = false;
      return;
    }
    last_loss_event_ = now;
    pending_loss_ = false;
    ++loss_events_;
    cwnd_ = std::max(cfg_.min_cwnd_bytes,
                     static_cast<std::size_t>(static_cast<double>(cwnd_) *
                                              cfg_.loss_beta_cwnd));
    rate_bps_ = std::max(cfg_.min_rate_bps, rate_bps_ * cfg_.loss_beta_rate);
  }

  void update_rate(TimePoint now) {
    double dt = 0.1;
    if (!last_rate_update_.is_never()) {
      dt = std::clamp((now - last_rate_update_).sec(), 0.0, 0.5);
    }
    last_rate_update_ = now;
    const double cwnd_rate =
        static_cast<double>(cwnd_) * 8.0 / std::max(srtt_ms_ / 1e3, 1e-3);
    const bool queue_ok = rtp_queue_delay_ms_ < cfg_.queue_hold_ms;
    const bool qdelay_ok = last_qdelay_ms_ < 0.75 * cfg_.qdelay_target_ms;
    if (queue_ok && qdelay_ok) {
      const double scale = std::max(1.0, rate_bps_ / 6e6);
      rate_bps_ += cfg_.ramp_up_bps_per_sec * scale * dt;
    } else if (last_qdelay_ms_ > cfg_.qdelay_target_ms) {
      rate_bps_ *= (1.0 - 0.5 * dt);
    }
    rate_bps_ = std::min(rate_bps_, cwnd_rate);
    rate_bps_ = std::clamp(rate_bps_, cfg_.min_rate_bps, cfg_.max_rate_bps);
  }

  cc::scream::ScreamConfig cfg_;
  double rate_bps_;
  std::size_t cwnd_;
  std::size_t bytes_in_flight_ = 0;
  std::map<std::int64_t, Flight> flights_;
  rtp::SeqUnwrapper unwrapper_;
  std::uint16_t last_sent_seq_ = 0;
  double base_owd_ms_ = 1e9;
  double window_min_owd_ms_ = 1e9;
  TimePoint base_window_start_ = TimePoint::origin();
  double last_qdelay_ms_ = 0.0;
  double srtt_ms_ = 50.0;
  double rtp_queue_delay_ms_ = 0.0;
  bool pending_loss_ = false;
  TimePoint last_loss_event_ = TimePoint::never();
  TimePoint last_rate_update_ = TimePoint::never();
  std::uint64_t loss_events_ = 0;
  std::uint64_t declared_lost_ = 0;
};

void expect_same_report(const rtp::FeedbackReport& want,
                        const rtp::FeedbackReport& got) {
  ASSERT_EQ(want.generated, got.generated);
  ASSERT_EQ(want.keyframe_request, got.keyframe_request);
  ASSERT_EQ(want.results.size(), got.results.size());
  for (std::size_t i = 0; i < want.results.size(); ++i) {
    ASSERT_EQ(want.results[i].transport_seq, got.results[i].transport_seq) << i;
    ASSERT_EQ(want.results[i].received, got.results[i].received) << i;
    ASSERT_EQ(want.results[i].arrival, got.results[i].arrival) << i;
  }
}

// One arrival at the receiver: a 16-bit transport seq and its time.
struct Arrival {
  std::uint16_t seq;
  TimePoint at;
};

// A seeded receive-side stream for ack window `w`, starting at `first`:
// in-order runs with random loss, loss bursts up to 5w long (longer than
// the collector's 4w memory), reordering by up to 2w, duplicates that
// arrive later than the original, stale seqs up to 6w behind the head and,
// before the head has moved far, seqs that unwrap below the first one.
// Long enough to cross the 16-bit wrap from any start.
std::vector<Arrival> receive_stream(std::uint64_t seed, int w,
                                    std::uint16_t first) {
  sim::Rng rng{seed};
  std::vector<Arrival> out;
  std::vector<std::int64_t> held;  // reordered seqs waiting to be released
  std::int64_t next = first;       // unwrapped offset from 0; rewrapped below
  std::int64_t t_us = 1'000'000;
  auto emit = [&](std::int64_t s) {
    t_us += rng.uniform_int(0, 300);
    out.push_back({rewrap(s), TimePoint::from_us(t_us)});
  };
  emit(next++);
  emit(next - 3);  // unwraps below the first seq
  while (out.size() < 60'000 || next - first < 70'000) {
    const double u = rng.uniform();
    if (u < 0.80) {
      emit(next++);
    } else if (u < 0.86) {
      ++next;  // single loss
    } else if (u < 0.862) {
      next += rng.uniform_int(1, 5 * w);  // loss burst, sometimes > 4w
    } else if (u < 0.91) {
      held.push_back(next++);  // reordered: arrives later
    } else if (u < 0.94 && !out.empty()) {
      // Duplicate of a recent arrival, later than the original.
      const auto back = rng.uniform_int(
          0, std::min<std::int64_t>(static_cast<std::int64_t>(out.size()) - 1,
                                    2 * w));
      out.push_back(out[out.size() - 1 - static_cast<std::size_t>(back)]);
      t_us += rng.uniform_int(1, 300);
      out.back().at = TimePoint::from_us(t_us);
    } else if (u < 0.96) {
      // Stale: far behind the head; near the start, below the first seq.
      emit(next - rng.uniform_int(1, 6 * w));
    } else {
      emit(next++);
    }
    if (!held.empty() && (rng.chance(0.3) || held.size() > 2u * w)) {
      const auto i = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(held.size()) - 1));
      emit(held[i]);
      held.erase(held.begin() + static_cast<std::ptrdiff_t>(i));
    }
  }
  for (const auto s : held) emit(s);
  return out;
}

class FeedbackDifferential : public ::testing::TestWithParam<int> {};

TEST_P(FeedbackDifferential, CollectorReportsMatchMapModel) {
  const int w = GetParam();
  const std::uint16_t firsts[] = {0, 1, 4321, 65'500, 65'535};
  std::uint64_t seed = 100;
  for (const std::uint16_t first : firsts) {
    SCOPED_TRACE(::testing::Message() << "w=" << w << " first=" << first);
    const auto stream = receive_stream(seed++, w, first);
    MapRfc8888Collector ref{w};
    rtp::Rfc8888Collector got{w};
    sim::Rng rng{seed * 31};
    std::size_t reports = 0;
    std::size_t until_report = 0;
    for (const auto& a : stream) {
      ref.on_packet(a.seq, a.at);
      got.on_packet(a.seq, a.at);
      if (until_report-- == 0) {
        expect_same_report(ref.build_report(a.at), got.build_report(a.at));
        ++reports;
        until_report = static_cast<std::size_t>(rng.uniform_int(0, 2 * w));
      }
    }
    ASSERT_EQ(ref.has_data(), got.has_data());
    EXPECT_GT(reports, 100u);
    EXPECT_GT(stream.size(), 50'000u);
  }
}

// A sender/receiver loop at 1 ms resolution: both controllers see the same
// sends, reports and ticks; after every feedback and every tick their
// window, bytes in flight, declared losses and loss events must agree (and
// the rate, qdelay and srtt, which follow from them). Send seqs start at
// `first`, wrap, skip (queue discards) and are sometimes re-sent; the path
// loses, bursts, reorders and duplicates, and goes silent for longer than
// flight_timeout so flights expire.
void run_scream_differential(std::uint64_t seed, int w, std::uint16_t first) {
  sim::Rng rng{seed};
  MapScream ref;
  cc::scream::ScreamController got;
  rtp::Rfc8888Collector collector{w};
  std::multimap<std::int64_t, std::uint16_t> in_flight;  // arrival us -> seq
  std::multimap<std::int64_t, rtp::FeedbackReport> returning;
  std::uint16_t next_seq = first;
  std::int64_t silent_until_us = 0;
  std::size_t feedbacks = 0;

  auto check = [&](const char* what, std::int64_t now_us) {
    SCOPED_TRACE(::testing::Message() << what << " at " << now_us << " us");
    ASSERT_EQ(ref.cwnd_bytes(), got.cwnd_bytes());
    ASSERT_EQ(ref.bytes_in_flight(), got.bytes_in_flight());
    ASSERT_EQ(ref.packets_declared_lost(), got.packets_declared_lost());
    ASSERT_EQ(ref.loss_events(), got.loss_events());
    ASSERT_EQ(ref.target_bitrate_bps(), got.target_bitrate_bps());
    ASSERT_EQ(ref.qdelay_ms(), got.qdelay_ms());
    ASSERT_EQ(ref.srtt_ms(), got.srtt_ms());
  };

  for (std::int64_t now_us = 0; now_us < 60'000'000; now_us += 1000) {
    const TimePoint now = TimePoint::from_us(now_us);
    if (now_us >= silent_until_us && rng.chance(0.0002)) {
      silent_until_us = now_us + rng.uniform_int(1'600'000, 3'000'000);
    }
    const bool silent = now_us < silent_until_us;

    // Sends: window-limited, a few per ms.
    for (int k = 0; k < 6 && got.can_send(1240); ++k) {
      ASSERT_EQ(ref.can_send(1240), got.can_send(1240));
      const double u = rng.uniform();
      std::uint16_t seq = next_seq;
      if (u < 0.01) {
        next_seq = static_cast<std::uint16_t>(next_seq +
                                              rng.uniform_int(1, 3 * w));
        seq = next_seq;  // queue discard: a gap in the send seqs
      } else if (u < 0.015) {
        seq = static_cast<std::uint16_t>(next_seq - rng.uniform_int(1, 40));
      }
      if (seq == next_seq) ++next_seq;
      const auto bytes = static_cast<std::size_t>(rng.uniform_int(200, 1240));
      ref.on_packet_sent({seq, bytes, now});
      got.on_packet_sent({seq, bytes, now});
      if (silent || rng.chance(0.02)) continue;  // lost on the path
      std::int64_t owd = 20'000 + rng.uniform_int(0, 15'000);
      if (rng.chance(0.03)) owd += rng.uniform_int(0, 60'000);  // reordered
      in_flight.emplace(now_us + owd, seq);
      if (rng.chance(0.01)) in_flight.emplace(now_us + owd + 5'000, seq);
    }

    while (!in_flight.empty() && in_flight.begin()->first <= now_us) {
      collector.on_packet(in_flight.begin()->second,
                          TimePoint::from_us(in_flight.begin()->first));
      in_flight.erase(in_flight.begin());
    }
    if (now_us % 10'000 == 0 && collector.has_data() && !silent) {
      auto report = collector.build_report(now);
      if (!report.results.empty()) {
        returning.emplace(now_us + 25'000 + rng.uniform_int(0, 5'000),
                          std::move(report));
      }
    }
    while (!returning.empty() && returning.begin()->first <= now_us) {
      ref.on_feedback(returning.begin()->second, now);
      got.on_feedback(returning.begin()->second, now);
      returning.erase(returning.begin());
      ++feedbacks;
      check("feedback", now_us);
      if (::testing::Test::HasFatalFailure()) return;
    }
    if (now_us % 5'000 == 0) {
      ref.on_tick(now);
      got.on_tick(now);
      check("tick", now_us);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  EXPECT_GT(feedbacks, 1000u);
  EXPECT_GT(got.packets_declared_lost(), 0u);
}

TEST_P(FeedbackDifferential, ScreamMatchesMapModel) {
  const int w = GetParam();
  const std::uint16_t firsts[] = {0, 65'000};
  std::uint64_t seed = 500;
  for (const std::uint16_t first : firsts) {
    SCOPED_TRACE(::testing::Message() << "w=" << w << " first=" << first);
    run_scream_differential(seed++, w, first);
    if (HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(AckWindows, FeedbackDifferential,
                         ::testing::Values(4, 64, 256));

}  // namespace
}  // namespace rpv
