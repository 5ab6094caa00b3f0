#include "rtp/feedback.hpp"

#include <algorithm>
#include <string>

#include "rtp/sequence.hpp"
#include "sim/validate.hpp"

namespace rpv::rtp {
namespace {

std::uint16_t rewrap(std::int64_t unwrapped) {
  return static_cast<std::uint16_t>(unwrapped & 0xFFFF);
}

int checked_ack_window(int w) {
  validate(w >= 1 && w <= Rfc8888Collector::kMaxAckWindow,
           "Rfc8888Collector: ack window must be in [1, " +
               std::to_string(Rfc8888Collector::kMaxAckWindow) + "] (got " +
               std::to_string(w) + ")");
  return w;
}

}  // namespace

void TwccCollector::on_packet(std::uint16_t transport_seq, sim::TimePoint arrival) {
  const std::int64_t s = unwrapper_.unwrap(transport_seq);
  if (pending_.empty()) {
    min_pending_ = max_pending_ = s;
  } else {
    min_pending_ = std::min(min_pending_, s);
    max_pending_ = std::max(max_pending_, s);
  }
  pending_.emplace_back(s, arrival);
}

FeedbackReport TwccCollector::build_report(sim::TimePoint now) {
  FeedbackReport report;
  report.generated = now;
  if (pending_.empty()) return report;

  std::int64_t first = last_reported_ >= 0 ? last_reported_ + 1 : min_pending_;
  const std::int64_t last = max_pending_;
  // Defensive: a pathological unwrap (or a very long radio silence) must not
  // produce a giant or negative report range.
  if (first > last || last - first > 20000) first = min_pending_;
  const auto range = static_cast<std::size_t>(last - first + 1);
  report.results.resize(range);
  for (std::size_t i = 0; i < range; ++i) {
    report.results[i].transport_seq = rewrap(first + static_cast<std::int64_t>(i));
  }
  for (const auto& [s, arrival] : pending_) {
    if (s < first || s > last) continue;
    PacketResult& r = report.results[static_cast<std::size_t>(s - first)];
    if (!r.received) {  // first arrival wins for duplicated seqs
      r.received = true;
      r.arrival = arrival;
    }
  }
  last_reported_ = last;
  pending_.clear();
  return report;
}

Rfc8888Collector::Rfc8888Collector(int ack_window)
    : ack_window_{checked_ack_window(ack_window)},
      arrivals_{4 * static_cast<std::size_t>(ack_window_) + 1} {}

void Rfc8888Collector::on_packet(std::uint16_t transport_seq, sim::TimePoint arrival) {
  const std::int64_t s = unwrapper_.unwrap(transport_seq);
  any_seen_ = true;
  if (s > highest_) highest_ = s;
  // Trim state well behind any feedback window we could still report.
  const std::int64_t keep_from = highest_ - 4 * ack_window_;
  arrivals_.erase_below(keep_from);
  if (s >= keep_from) arrivals_.insert(s, arrival);
}

FeedbackReport Rfc8888Collector::build_report(sim::TimePoint now) const {
  FeedbackReport report;
  report.generated = now;
  if (!any_seen_) return report;
  const std::int64_t first = std::max<std::int64_t>(
      arrivals_.empty() ? highest_ : arrivals_.front(),
      highest_ - ack_window_ + 1);
  report.results.resize(static_cast<std::size_t>(highest_ - first + 1));
  std::int64_t s = first;
  for (PacketResult& r : report.results) {
    r.transport_seq = rewrap(s);
    if (const sim::TimePoint* arrival = arrivals_.find(s)) {
      r.received = true;
      r.arrival = *arrival;
    }
    ++s;
  }
  return report;
}

}  // namespace rpv::rtp
