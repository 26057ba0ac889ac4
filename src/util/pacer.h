// Absolute-deadline pacing for open-loop load generation.
//
// The bug this replaces: pacing with a *relative* sleep —
//   sleep_for(deadline - now)
// — re-anchors every wait to the moment sleep_for is called, so the OS
// timer slack (50 µs by default on Linux, see prctl(PR_SET_TIMERSLACK)) is
// paid on top of the remaining wait, every time. At 100k events/s the
// inter-arrival gap is 10 µs, i.e. *smaller than the slack*: the generator
// oversleeps, wakes to find several arrivals overdue, issues them in a
// zero-gap burst, and the measured scheduled-arrival lateness p50 becomes a
// property of the kernel timer, not of the system under test. That is a
// coordinated-omission-adjacent bug in the very harness built to avoid
// coordinated omission.
//
// The fix: sleep_until(deadline - spin_slack), then spin
// on the monotonic clock for the remainder. The absolute sleep target means
// oversleep never compounds across events, and the bounded spin (at most
// spin_slack plus the kernel's actual oversleep) absorbs the timer slack
// entirely, so issuance lands within the clock-read granularity of the
// schedule. Callers that only need a coarse wake (e.g. the generator's
// periodic retry-queue re-check) pass precise=false and skip the spin.
//
// tests/service/pacer_test.cc keeps the legacy relative-sleep loop as a
// test-local helper, so the pre-fix drift stays demonstrable in the suite.
#ifndef SRC_UTIL_PACER_H_
#define SRC_UTIL_PACER_H_

#include <cstdint>

namespace rolp {

struct PacerOptions {
  // How early the absolute sleep aims, i.e. the spin budget. Matches the
  // default Linux timer slack: sleeping closer than this to the deadline is
  // what the kernel cannot do accurately.
  uint64_t spin_slack_ns = 50 * 1000;
  // Reads ROLP_PACER_SPIN_US.
  static PacerOptions FromEnv();
};

class Pacer {
 public:
  explicit Pacer(PacerOptions options = {}) : options_(options) {}

  // Blocks until NowNs() >= deadline_ns (same monotonic base as NowNs()).
  // `precise` selects the hybrid spin finish; pass false for coarse wakes
  // where a sleep-only wait (subject to timer slack) is acceptable.
  // Returns NowNs() at wake. Deadlines already in the past return
  // immediately.
  uint64_t WaitUntil(uint64_t deadline_ns, bool precise = true);

  const PacerOptions& options() const { return options_; }

 private:
  PacerOptions options_;
};

}  // namespace rolp

#endif  // SRC_UTIL_PACER_H_
