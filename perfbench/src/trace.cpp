#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <ctime>
#include <variant>

namespace perfbench {

using namespace rpv;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

std::uint32_t SpanRecorder::begin(std::string name, std::uint32_t parent) {
  Span s;
  s.id = static_cast<std::uint32_t>(spans_.size() + 1);
  s.parent = parent;
  s.name = std::move(name);
  s.allocs = allocations();
  s.t0 = now_s();
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void SpanRecorder::end(std::uint32_t id) {
  Span& s = spans_[id - 1];
  s.t1 = now_s();
  s.allocs = allocations() - s.allocs;
}

double SpanRecorder::total(std::string_view name) const {
  double sum = 0.0;
  for (const auto& s : spans_) {
    if (s.name == name) sum += s.seconds();
  }
  return sum;
}

std::uint64_t SpanRecorder::allocs(std::string_view name) const {
  std::uint64_t sum = 0;
  for (const auto& s : spans_) {
    if (s.name == name) sum += s.allocs;
  }
  return sum;
}

double SpanRecorder::self(std::string_view name) const {
  // Children are sequential (one thread), so their durations do not overlap.
  std::vector<double> child(spans_.size() + 1, 0.0);
  for (const auto& s : spans_) child[s.parent] += s.seconds();
  double sum = 0.0;
  for (const auto& s : spans_) {
    if (s.name == name) sum += s.seconds() - child[s.id];
  }
  return sum;
}

double SpanRecorder::child_coverage(std::string_view name) const {
  const double whole = total(name);
  return whole > 0.0 ? (whole - self(name)) / whole : 0.0;
}

json::Value SpanRecorder::to_json() const {
  json::Value arr = json::Value::array();
  const double origin = spans_.empty() ? 0.0 : spans_.front().t0;
  for (const auto& s : spans_) {
    json::Value v = json::Value::object();
    v.set("id", std::uint64_t{s.id})
        .set("parent", std::uint64_t{s.parent})
        .set("name", s.name)
        .set("start_s", s.t0 - origin)
        .set("end_s", s.t1 - origin)
        .set("allocs", s.allocs);
    arr.push_back(std::move(v));
  }
  return arr;
}

void TraceSink::on_event(const obs::Event& e) {
  const auto c = static_cast<std::size_t>(e.component);
  const auto k = static_cast<std::size_t>(e.kind);
  ++counts_[c][k];
  const std::int64_t t = e.t.us();
  // last_us_ holds t + 1 so zero means "not seen yet".
  if (last_us_[c][k] != 0 && t + 1 >= last_us_[c][k] &&
      rec_.gaps_us.size() < Recording::kCap) {
    rec_.gaps_us.push_back(t - (last_us_[c][k] - 1));
  }
  last_us_[c][k] = std::max(last_us_[c][k], t + 1);

  switch (e.kind) {
    case obs::EventKind::kFrameEncoded:
      if (const auto* p = std::get_if<obs::FramePayload>(&e.payload);
          p && rec_.frames.size() < Recording::kCap) {
        rec_.frames.push_back({t, p->frame_id, p->bytes, p->keyframe});
      }
      break;
    case obs::EventKind::kPacketSent:
      if (const auto* p = std::get_if<obs::PacketPayload>(&e.payload);
          p && rec_.sent.size() < Recording::kCap) {
        rec_.sent.push_back({t, p->transport_seq, p->size_bytes});
      }
      break;
    case obs::EventKind::kPacketReceived:
      if (const auto* p = std::get_if<obs::PacketPayload>(&e.payload);
          p && rec_.received.size() < Recording::kCap) {
        rec_.received.push_back({t, p->id, p->kind, p->size_bytes, p->frame_id,
                                 p->transport_seq, p->owd_ms});
      }
      break;
    case obs::EventKind::kQueueEnqueue:
      if (const auto* p = std::get_if<obs::QueuePayload>(&e.payload);
          p && rec_.enqueues.size() < Recording::kCap) {
        rec_.enqueues.push_back({t, p->packet_id, p->size_bytes});
      }
      break;
    case obs::EventKind::kLinkMeasurement:
      if (const auto* p = std::get_if<obs::MeasurementPayload>(&e.payload);
          p && rec_.capacity.size() < Recording::kCap) {
        rec_.capacity.push_back({t, p->capacity_mbps});
      }
      break;
    default:
      break;
  }
}

}  // namespace perfbench
