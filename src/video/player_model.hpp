// Video player model (the GStreamer playback half of the paper's pipeline).
//
// Frames decoded out of the jitter buffer are queued for display. The player
// paces playback at the nominal 30 FPS interval but — like GStreamer's sink
// behaviour the paper describes in §A.4 — proactively *slows down* when its
// queue runs low to avoid a hard freeze, and speeds up when a backlog allows
// it to claw back elevated playback latency. Metrics follow the paper's
// definitions: playback latency (encode start -> display), FPS in one-second
// windows, and stalls (inter-frame display gap > 300 ms).
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "metrics/time_series.hpp"
#include "rtp/seq_window.hpp"
#include "sim/simulator.hpp"
#include "video/frame.hpp"

namespace rpv::video {

struct PlayerConfig {
  sim::Duration nominal_interval = sim::Duration::micros(33333);
  int low_watermark_frames = 1;   // slow down below this backlog
  int high_watermark_frames = 1;  // speed up above this backlog
  double min_rate = 0.55;         // slowest playback factor
  double max_rate = 1.25;         // catch-up factor
  double rate_step_down = 0.90;   // applied per played frame while starving
  double rate_step_up = 1.05;     // applied per played frame while flush
  sim::Duration stall_threshold = sim::Duration::millis(300);  // RP requirement
};

class PlayerModel {
 public:
  PlayerModel(sim::Simulator& simulator, PlayerConfig cfg);

  // A fully decoded frame is ready for display; `ssim` was scored at decode.
  void on_frame_ready(const Frame& f, double ssim);

  // Finalize windowed statistics (call once after the simulation drains).
  void finish();

  // Invoked when a frozen gap ends, with (end time, gap length in ms). The
  // video layer stays observability-agnostic; VideoReceiver relays this into
  // the obs event stream.
  using StallFn = std::function<void(sim::TimePoint, double)>;
  void set_stall_hook(StallFn fn) { stall_hook_ = std::move(fn); }

  // --- Metrics (valid after finish(), traces valid anytime) ---
  [[nodiscard]] const metrics::TimeSeries& playback_latency_ms() const {
    return playback_latency_ms_;
  }
  [[nodiscard]] const std::vector<double>& played_ssim() const { return played_ssim_; }
  [[nodiscard]] const std::vector<double>& fps_windows() const { return fps_windows_; }
  [[nodiscard]] std::uint32_t frames_played() const { return frames_played_; }
  [[nodiscard]] std::uint32_t frames_skipped() const { return frames_skipped_; }
  [[nodiscard]] std::uint32_t stall_count() const { return stall_count_; }
  [[nodiscard]] const std::vector<sim::TimePoint>& stall_times() const {
    return stall_times_;
  }
  // Length of each frozen gap, in ms (parallel to stall_times()).
  [[nodiscard]] const std::vector<double>& stall_durations_ms() const {
    return stall_durations_ms_;
  }
  [[nodiscard]] double stalls_per_minute() const;
  [[nodiscard]] std::uint32_t last_played_frame_id() const { return last_frame_id_; }

 private:
  void try_play();
  void adapt_rate(bool starved);

  sim::Simulator& sim_;
  PlayerConfig cfg_;
  StallFn stall_hook_;
  rtp::SeqWindow<std::pair<Frame, double>> queue_{8};  // by frame id
  double rate_ = 1.0;
  sim::TimePoint next_play_at_ = sim::TimePoint::origin();
  sim::TimePoint last_play_time_ = sim::TimePoint::never();
  sim::TimePoint first_play_time_ = sim::TimePoint::never();
  std::uint32_t last_frame_id_ = 0;
  bool played_any_ = false;
  bool wakeup_scheduled_ = false;

  metrics::TimeSeries playback_latency_ms_;
  std::vector<double> played_ssim_;
  std::vector<sim::TimePoint> play_times_;
  std::vector<double> fps_windows_;
  std::uint32_t frames_played_ = 0;
  std::uint32_t frames_skipped_ = 0;
  std::uint32_t stall_count_ = 0;
  std::vector<sim::TimePoint> stall_times_;  // when each frozen gap ended
  std::vector<double> stall_durations_ms_;   // how long each gap lasted
};

}  // namespace rpv::video
