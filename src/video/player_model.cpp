#include "video/player_model.hpp"

#include <algorithm>

namespace rpv::video {

PlayerModel::PlayerModel(sim::Simulator& simulator, PlayerConfig cfg)
    : sim_{simulator}, cfg_{cfg} {}

void PlayerModel::on_frame_ready(const Frame& f, double ssim) {
  if (played_any_ && f.id <= last_frame_id_) {
    // Arrived after a newer frame was already displayed — unplayable.
    ++frames_skipped_;
    return;
  }
  queue_.insert(f.id, std::make_pair(f, ssim));
  try_play();
}

void PlayerModel::adapt_rate(bool starved) {
  const auto backlog = static_cast<int>(queue_.size());
  if (starved) {
    // The display had to wait for data: proactively slow down so the next
    // shortfall does not freeze the picture (GStreamer's behaviour, §A.4).
    rate_ = std::max(cfg_.min_rate, rate_ * cfg_.rate_step_down);
  } else if (backlog > cfg_.high_watermark_frames) {
    // Backlog built up (elevated playback latency): play faster to catch up.
    rate_ = std::min(cfg_.max_rate, rate_ * cfg_.rate_step_up);
  } else if (rate_ < 1.0) {
    rate_ = std::min(1.0, rate_ / cfg_.rate_step_down);
  } else if (rate_ > 1.0) {
    rate_ = std::max(1.0, rate_ / cfg_.rate_step_up);
  }
}

void PlayerModel::try_play() {
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

  // Starvation: we were ready to display strictly earlier but had no frame.
  const bool starved =
      played_any_ && now > next_play_at_ + sim::Duration::millis(5);

  const auto [f, ssim] = queue_.front_value();
  queue_.pop_front();

  // Display the frame now.
  if (played_any_) {
    const auto gap = now - last_play_time_;
    if (gap > cfg_.stall_threshold) {
      ++stall_count_;
      stall_times_.push_back(now);
      stall_durations_ms_.push_back(gap.ms());
      if (stall_hook_) stall_hook_(now, gap.ms());
    }
  }
  last_play_time_ = now;
  if (!played_any_) first_play_time_ = now;
  played_any_ = true;
  last_frame_id_ = f.id;
  ++frames_played_;
  play_times_.push_back(now);
  playback_latency_ms_.add(now, (now - f.capture_time).ms());
  played_ssim_.push_back(ssim);

  adapt_rate(starved);
  next_play_at_ = now + cfg_.nominal_interval * (1.0 / rate_);
  try_play();
}

double PlayerModel::stalls_per_minute() const {
  if (!played_any_ || last_play_time_ <= first_play_time_) return 0.0;
  const double minutes = (last_play_time_ - first_play_time_).sec() / 60.0;
  return minutes > 0.0 ? static_cast<double>(stall_count_) / minutes : 0.0;
}

void PlayerModel::finish() {
  fps_windows_.clear();
  if (play_times_.empty()) return;
  const auto start = play_times_.front();
  const auto end = play_times_.back();
  const auto window = sim::Duration::seconds(1.0);
  std::size_t idx = 0;
  for (auto t = start; t < end; t += window) {
    int count = 0;
    while (idx < play_times_.size() && play_times_[idx] < t + window) {
      ++count;
      ++idx;
    }
    fps_windows_.push_back(static_cast<double>(count));
  }
}

}  // namespace rpv::video
