// rpv::bond — bonded multi-operator link management (ROADMAP item 3).
//
// The paper's multi-MNO measurements show no single operator sustains
// RPV-grade latency through handovers and coverage holes; its Section 5 (and
// AQUILA / vd-link in the related work) argue for per-packet bonding over all
// modems with policy-driven redundancy. A Policy names how the LinkManager
// spreads traffic across the registered operator links:
//
//  * kDuplicate / kScheduled / kFailover — the legacy multipath modes, kept
//    semantically identical (duplicate everything / shortest-queue spray /
//    primary-with-failover) so existing campaigns stay comparable;
//  * kLowLatency — every packet on the currently fastest eligible path,
//    media FEC-protected so isolated losses do not cost a retransmission;
//  * kBalanced — capacity-weighted spray across eligible paths, with
//    selective duplication of keyframe and C2 packets only;
//  * kHighReliability — C2 duplicated on every path, video sprayed with
//    cross-path FEC at an elevated parity floor: near-kDuplicate robustness
//    at a fraction of its 2x airtime.
#pragma once

#include <cstdint>
#include <string>

namespace rpv::bond {

enum class Policy : std::uint8_t {
  kDuplicate,        // legacy: every packet on both operators
  kScheduled,        // legacy: shortest-queue spray
  kFailover,         // legacy: primary, secondary while the primary is down
  kLowLatency,       // fastest path + FEC
  kBalanced,         // weighted spray + selective duplication
  kHighReliability,  // duplicate C2 + FEC-bonded video
};

// DSCP-style traffic classes, highest priority first (C2 > telemetry >
// video): the scheduler never lets a C2 packet queue behind a video burst.
enum class TrafficClass : std::uint8_t { kC2 = 0, kTelemetry = 1, kVideo = 2 };

// The bonded policies (new scheduler paths); the first three replicate the
// hard-coded legacy modes.
[[nodiscard]] constexpr bool is_bonded(Policy p) {
  return p == Policy::kLowLatency || p == Policy::kBalanced ||
         p == Policy::kHighReliability;
}

// FEC-protected policies: the session enables sender-side FEC with the
// adaptive rate controller attached.
[[nodiscard]] constexpr bool uses_fec(Policy p) {
  return p == Policy::kLowLatency || p == Policy::kHighReliability;
}

[[nodiscard]] inline std::string policy_name(Policy p) {
  switch (p) {
    case Policy::kDuplicate: return "duplicate";
    case Policy::kScheduled: return "scheduled";
    case Policy::kFailover: return "failover";
    case Policy::kLowLatency: return "low-latency";
    case Policy::kBalanced: return "balanced";
    case Policy::kHighReliability: return "high-reliability";
  }
  return "?";
}

// Report suffix appended to cc_name ("gcc+bond-hr"); the legacy spellings
// ("+mpdup", ...) are preserved verbatim for stored-artifact compatibility.
[[nodiscard]] inline std::string policy_suffix(Policy p) {
  switch (p) {
    case Policy::kDuplicate: return "+mpdup";
    case Policy::kScheduled: return "+mpsched";
    case Policy::kFailover: return "+mpfail";
    case Policy::kLowLatency: return "+bond-ll";
    case Policy::kBalanced: return "+bond-bal";
    case Policy::kHighReliability: return "+bond-hr";
  }
  return "?";
}

}  // namespace rpv::bond
