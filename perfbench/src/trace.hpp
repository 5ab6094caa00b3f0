// Instrumentation for the benchmark's traced run. Everything here lives in
// the benchmark's own sources and observes the simulator only through its
// public API: spans are recorded around the calls the benchmark makes into
// each layer, counts come from an obs::EventSink subscribed to the session
// bus, and heap allocations from a replacement global operator new.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "json/json.hpp"
#include "obs/event.hpp"
#include "obs/event_sink.hpp"

namespace perfbench {

// Host steady-clock time in seconds.
[[nodiscard]] double now_s();
// CPU time the process has consumed, in seconds (all threads).
[[nodiscard]] double cpu_s();

// Global heap-allocation counter (alloc_counter.cpp). Counting is off by
// default so the untraced passes pay one relaxed load per allocation.
void set_alloc_counting(bool on);
[[nodiscard]] std::uint64_t allocations();

struct Span {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  // 0: root
  std::string name;
  double t0 = 0.0;
  double t1 = 0.0;
  std::uint64_t allocs = 0;  // heap allocations inside the span
  [[nodiscard]] double seconds() const { return t1 - t0; }
};

// Spans kept in memory; written out once, when the benchmark ends.
class SpanRecorder {
 public:
  std::uint32_t begin(std::string name, std::uint32_t parent);
  void end(std::uint32_t id);

  // Summed duration / allocations of every span called `name`.
  [[nodiscard]] double total(std::string_view name) const;
  [[nodiscard]] std::uint64_t allocs(std::string_view name) const;
  // Summed self time of spans called `name`: each span's duration minus the
  // time its direct children cover.
  [[nodiscard]] double self(std::string_view name) const;
  // Share of the `name` spans' duration covered by their direct children.
  [[nodiscard]] double child_coverage(std::string_view name) const;
  [[nodiscard]] rpv::json::Value to_json() const;

 private:
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, std::string name, std::uint32_t parent)
      : rec_{rec}, id_{rec ? rec->begin(std::move(name), parent) : 0} {}
  ~ScopedSpan() {
    if (rec_) rec_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] std::uint32_t id() const { return id_; }

 private:
  SpanRecorder* rec_;
  std::uint32_t id_;
};

// The packet, frame and feedback-relevant streams of one session, as the
// obs bus publishes them. Each stream is capped so a long 25 Mbps flight
// does not turn the traced run into a memory benchmark.
struct FrameRec {
  std::int64_t t_us;
  std::uint32_t id;
  std::uint32_t bytes;
  bool keyframe;
};
struct SentRec {
  std::int64_t t_us;
  std::uint16_t transport_seq;
  std::uint32_t bytes;
};
struct RecvRec {
  std::int64_t t_us;
  std::uint64_t id;
  std::uint8_t kind;
  std::uint32_t bytes;
  std::uint32_t frame_id;
  std::uint16_t transport_seq;
  double owd_ms;
};
struct EnqueueRec {
  std::int64_t t_us;
  std::uint64_t id;
  std::uint32_t bytes;
};
struct CapacityRec {
  std::int64_t t_us;
  double mbps;
};

struct Recording {
  static constexpr std::size_t kCap = 200'000;
  std::vector<FrameRec> frames;
  std::vector<SentRec> sent;
  std::vector<RecvRec> received;
  std::vector<EnqueueRec> enqueues;
  std::vector<CapacityRec> capacity;
  // Gaps between successive events of the same (component, kind): the
  // re-arm periods of the self-scheduling handlers, used as the delay mix
  // of the event-queue replay.
  std::vector<std::int64_t> gaps_us;
};

// Counts every (component, kind) published on the bus and records the
// streams the isolated layer replays feed back into each layer.
class TraceSink final : public rpv::obs::EventSink {
 public:
  void on_event(const rpv::obs::Event& e) override;
  // Everything except the two kinds whose publication is itself a scheduled
  // simulator event: an interested bus adds one event per handover end and
  // per fault end, which changes the report's sim_events and with it the
  // digest the traced pass must reproduce.
  [[nodiscard]] std::uint64_t interest_mask() const override {
    return rpv::obs::kAllKinds &
           ~(rpv::obs::kind_bit(rpv::obs::EventKind::kHandoverEnd) |
             rpv::obs::kind_bit(rpv::obs::EventKind::kFaultEnded));
  }

  [[nodiscard]] std::uint64_t count(rpv::obs::Component c,
                                    rpv::obs::EventKind k) const {
    return counts_[static_cast<std::size_t>(c)][static_cast<std::size_t>(k)];
  }
  [[nodiscard]] const Recording& recording() const { return rec_; }
  // Drop the recorded streams (keep the counts) once they are replayed;
  // the next session's clock starts at zero again.
  void clear_recording() {
    rec_ = {};
    last_us_ = {};
  }

 private:
  using Table = std::array<std::array<std::uint64_t, rpv::obs::kEventKindCount>,
                           rpv::obs::kComponentCount>;
  Table counts_{};
  std::array<std::array<std::int64_t, rpv::obs::kEventKindCount>,
             rpv::obs::kComponentCount>
      last_us_{};
  Recording rec_;
};

}  // namespace perfbench
