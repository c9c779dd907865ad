#pragma once

// Schedule perturbation policy (docs/TESTING.md).
//
// The simulator is deterministic: events fire in (time, insertion-sequence)
// order, so every run exercises exactly one of the many schedules the modeled
// hardware could produce. A Perturbation explores the others without giving
// up reproducibility: all decisions derive from one uint64 seed through
// per-class sim::Rng streams, so a run is replayed bit-identically by
// re-seeding — there is no hidden global state.
//
// Five decision classes, each independently maskable (the fuzz harness
// shrinks failures to a minimal class set):
//  * kTieBreak — shuffles the firing order of same-timestamp events by
//    replacing the engine's insertion-sequence tie-break with seeded random
//    priority bits. Causality is untouched: events at distinct times keep
//    their order.
//  * kLinkJitter — bounded, seed-derived extra latency on net/fabric
//    deliveries and PCIe transaction completions. Documented hardware
//    ordering rules survive it: the fabric's rail mux resequences each
//    (src, dst) pair, and PCIe clamps the jittered times to keep the
//    posted-write commit order per direction.
//  * kSmPick — varies which SM receives the next resident block among
//    equally loaded candidates (gpu/device block dispatch).
//  * kFault — fault-injection coins for the lossy fabric (net::FaultConfig):
//    per-packet drop/duplicate/corrupt/delay/link-down decisions drawn at
//    transmit and delivery time (net/fabric.cc). Draws happen only when a
//    fault probability is configured, so fault-free runs never touch the
//    stream.
//  * kRoute — adaptive route-selection rotation for the topology-aware
//    fabric (net/router.cc): which of a pair's equal-cost paths carries the
//    next message. Draws happen only in RouteMode::kAdaptive on a multi-path
//    topology, so flat and ECMP runs never touch the stream.
//
// Every decision is counted and the most recent ones are kept in a small
// ring, so a failing seed can print where the schedule diverged.

#include <cstddef>
#include <cstdint>

#include "sim/random.h"
#include "sim/units.h"

namespace dcuda::sim {

class Perturbation {
 public:
  enum Class : std::uint32_t {
    kTieBreak = 1u << 0,
    kLinkJitter = 1u << 1,
    kSmPick = 1u << 2,
    kFault = 1u << 3,
    kRoute = 1u << 4,
  };
  static constexpr std::uint32_t kAllClasses =
      kTieBreak | kLinkJitter | kSmPick | kFault | kRoute;
  static constexpr int kNumClasses = 5;

  // Minimal separation call sites add when clamping jittered completion
  // times to preserve a hardware ordering rule (PCIe posted-write commit
  // order) or when trailing an injected duplicate behind its original:
  // strictly increasing times keep the ordered events out of the tie-break
  // shuffle.
  static constexpr Dur kOrderEpsilon = 1e-9;

  explicit Perturbation(std::uint64_t seed, std::uint32_t classes = kAllClasses)
      : seed_(seed), classes_(classes) {
    for (int c = 0; c < kNumClasses; ++c) {
      // Decorrelate the class streams: distinct odd offsets into the seed.
      streams_[c] = Rng(seed_ ^ (0x632be59bd9b4e019ull *
                                 static_cast<std::uint64_t>(2 * c + 1)));
    }
  }

  std::uint64_t seed() const { return seed_; }
  std::uint32_t classes() const { return classes_; }
  bool has(Class c) const { return (classes_ & c) != 0u; }

  // Random tie-break priority for a newly scheduled event. The engine packs
  // this into the high bits of its heap key in place of the insertion
  // sequence; equal priorities fall back to the slot index, so ordering
  // stays total and replays stay exact.
  std::uint64_t tiebreak_bits() { return draw(0, kTieBreak); }

  // Bounded extra delay in [0, max_jitter). Returns 0 when kLinkJitter is
  // masked off, so call sites need no guard.
  Dur jitter(Dur max_jitter) {
    const std::uint64_t r = draw(1, kLinkJitter);
    if (!has(kLinkJitter) || max_jitter <= 0.0) return 0.0;
    return max_jitter * to_unit(r);
  }

  // Uniform pick in [0, n) for SM tie-breaks; 0 when kSmPick is masked off
  // (the engine's default: lowest index wins).
  int pick(int n) {
    const std::uint64_t r = draw(2, kSmPick);
    if (!has(kSmPick) || n <= 1) return 0;
    return static_cast<int>(r % static_cast<std::uint64_t>(n));
  }

  // Fault-injection coin: true with probability p. Draws from the kFault
  // stream only for p > 0, so a fault class with zero probability consumes
  // nothing — a run is a pure function of (seed, classes, FaultConfig).
  bool fault(double p) {
    if (!has(kFault) || p <= 0.0) return false;
    const std::uint64_t r = draw(3, kFault);
    return to_unit(r) < p;
  }

  // Adaptive route rotation in [0, n) for the multi-path fabric; 0 when
  // kRoute is masked off (the router's own deterministic rotation wins).
  int route_pick(int n) {
    const std::uint64_t r = draw(4, kRoute);
    if (!has(kRoute) || n <= 1) return 0;
    return static_cast<int>(r % static_cast<std::uint64_t>(n));
  }

  // -- Introspection for failure reports -------------------------------

  std::uint64_t decisions(Class c) const {
    return decisions_[class_index(c)];
  }
  std::uint64_t total_decisions() const {
    return decisions_[0] + decisions_[1] + decisions_[2] + decisions_[3] +
           decisions_[4];
  }

  struct Decision {
    Class cls;
    std::uint64_t value;
  };
  static constexpr std::size_t kTraceCap = 32;
  // The last up-to-kTraceCap decisions, oldest first.
  std::size_t trace(Decision out[kTraceCap]) const {
    const std::size_t n = trace_count_ < kTraceCap ? trace_count_ : kTraceCap;
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = trace_[(trace_count_ - n + i) % kTraceCap];
    }
    return n;
  }

 private:
  static int class_index(Class c) {
    return c == kTieBreak
               ? 0
               : (c == kLinkJitter ? 1
                                   : (c == kSmPick ? 2 : (c == kFault ? 3 : 4)));
  }

  // Draw from a class stream. Masked classes still draw nothing — the
  // stream only advances when the class is active, so enabling one class
  // reproduces exactly the decisions it made in an all-classes run of the
  // same seed for as long as the schedules coincide.
  std::uint64_t draw(int idx, Class c) {
    if (!has(c)) return 0;
    const std::uint64_t z = streams_[idx].next_u64();
    ++decisions_[idx];
    trace_[trace_count_++ % kTraceCap] = Decision{c, z};
    return z;
  }

  std::uint64_t seed_;
  std::uint32_t classes_;
  Rng streams_[kNumClasses];
  std::uint64_t decisions_[kNumClasses] = {};
  Decision trace_[kTraceCap] = {};
  std::size_t trace_count_ = 0;
};

}  // namespace dcuda::sim
