// Wall-clock microbenchmark of the simulation engine itself (events/sec).
//
// Unlike the simulated-time figure benches, this binary measures *real* time:
// how fast the event engine schedules, orders, dispatches, and cancels
// events. It exercises only the public sim:: API, so the same source builds
// against any engine revision — scripts/bench_perf.sh uses it to record
// before/after numbers into BENCH_engine.json.
//
// Output is a single JSON object on stdout; human-readable rates go to
// stderr. Scenario sizes scale with DCUDA_MICRO_SCALE (default 1, at
// least 1).

#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench/env.h"
#include "sim/proc.h"
#include "sim/random.h"
#include "sim/resource.h"
#include "sim/simulation.h"
#include "sim/trigger.h"

namespace dcuda {
namespace {

using Clock = std::chrono::steady_clock;

struct Result {
  const char* name;
  std::uint64_t events = 0;
  double seconds = 0.0;
  double events_per_sec() const { return seconds > 0 ? events / seconds : 0.0; }
};

int scale() { return bench::env_int("DCUDA_MICRO_SCALE", 1, 1); }

// Worker threads for the sharded scenarios (docs/PERF.md, "Parallel
// engine"), from the machine's DCUDA_THREADS; bench_perf.sh runs the binary
// once with DCUDA_THREADS=1 and once with several threads.
int engine_threads() {
  sim::MachineConfig m;
  bench::apply_env(m);
  return m.threads;
}

// The paper's wire latency, the lookahead the fabric registers.
constexpr double kWireLat = 1.4e-6;

// Runs `body` (which builds a Simulation, populates it, runs it, and returns
// the event count) `reps` times and wall-clocks the whole thing.
template <typename Body>
Result scenario(const char* name, int reps, Body body) {
  Result r{name};
  const auto t0 = Clock::now();
  for (int i = 0; i < reps; ++i) r.events += body();
  r.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  std::fprintf(stderr, "%-18s %10" PRIu64 " events  %8.3f s  %12.0f ev/s\n",
               name, r.events, r.seconds, r.events_per_sec());
  return r;
}

// A deep heap: N one-shot callbacks pre-scheduled at random times, drained
// in one run. Dominated by heap push/pop and callback dispatch.
std::uint64_t timer_churn(int n) {
  sim::Simulation s;
  sim::Rng rng(17);
  std::uint64_t acc = 0;
  for (int i = 0; i < n; ++i) {
    s.schedule(rng.uniform(0.0, 1.0), [&acc] { ++acc; });
  }
  s.run();
  return s.events_processed() + (acc == 0 ? 1 : 0);
}

// A shallow heap in steady state: k independent callback chains, each
// rescheduling itself from inside the callback. Measures per-event constant
// overhead with a warm pool.
std::uint64_t self_chain(int chains, int steps) {
  sim::Simulation s;
  struct Chain {
    sim::Simulation* s;
    int left;
    double period;
    void fire() {
      if (--left > 0) s->schedule(period, [this] { fire(); });
    }
  };
  std::vector<Chain> cs;
  cs.reserve(static_cast<size_t>(chains));
  for (int i = 0; i < chains; ++i) {
    cs.push_back(Chain{&s, steps, 1e-6 * (1.0 + 0.01 * i)});
  }
  for (auto& c : cs) s.schedule(c.period, [&c] { c.fire(); });
  s.run();
  return s.events_processed();
}

// The schedule_resume hot path: coroutines that repeatedly co_await a delay.
std::uint64_t resume_chain(int procs, int steps) {
  sim::Simulation s;
  auto worker = [](sim::Simulation& sim, int n, double d) -> sim::Proc<void> {
    for (int i = 0; i < n; ++i) co_await sim.delay(d);
  };
  for (int p = 0; p < procs; ++p) {
    s.spawn(worker(s, steps, 1e-6 * (1.0 + 0.01 * p)), "w");
  }
  s.run();
  return s.events_processed();
}

// Trigger handoff between two coroutines (the mailbox/queue wake-up path).
std::uint64_t ping_pong(int rounds) {
  sim::Simulation s;
  sim::Trigger ping(s), pong(s);
  auto a = [&]() -> sim::Proc<void> {
    for (int i = 0; i < rounds; ++i) {
      ping.notify_all();
      co_await pong.wait();
    }
  };
  auto b = [&]() -> sim::Proc<void> {
    for (int i = 0; i < rounds; ++i) {
      co_await ping.wait();
      pong.notify_all();
    }
  };
  s.spawn(b(), "b");
  s.spawn(a(), "a");
  s.run();
  return s.events_processed();
}

// Cancellable events: arm N timeouts, cancel every other one before it
// fires (the SharedResource::reschedule pattern).
std::uint64_t cancel_churn(int n) {
  sim::Simulation s;
  sim::Rng rng(5);
  std::vector<sim::EventId> ids;
  ids.reserve(static_cast<size_t>(n));
  std::uint64_t acc = 0;
  for (int i = 0; i < n; ++i) {
    ids.push_back(s.schedule_cancellable(rng.uniform(0.0, 1.0), [&acc] { ++acc; }));
  }
  for (int i = 0; i < n; i += 2) s.cancel(ids[static_cast<size_t>(i)]);
  s.run();
  return s.events_processed() + static_cast<std::uint64_t>(n) / 2;
}

// Processor-sharing churn: every arrival/completion cancels and re-arms the
// resource's completion event.
std::uint64_t resource_churn(int jobs) {
  sim::Simulation s;
  sim::SharedResource res(s, 100.0, 10.0);
  auto job = [](sim::Simulation& sim, sim::SharedResource& r, double delay,
                double work) -> sim::Proc<void> {
    co_await sim.delay(delay);
    co_await r.use(work);
  };
  sim::Rng rng(7);
  for (int i = 0; i < jobs; ++i) {
    s.spawn(job(s, res, rng.uniform(0.0, 1.0), rng.uniform(1.0, 5.0)), "j");
  }
  s.run();
  return s.events_processed();
}

// FIFO semaphore handoff under contention.
std::uint64_t fifo_contention(int users) {
  sim::Simulation s;
  sim::FifoResource res(s, 2);
  auto user = [](sim::Simulation& sim, sim::FifoResource& r) -> sim::Proc<void> {
    co_await r.acquire();
    co_await sim.delay(1e-6);
    r.release();
  };
  for (int i = 0; i < users; ++i) s.spawn(user(s, res), "u");
  s.run();
  return s.events_processed();
}

// Sharded engine, window-protocol overhead: N shards each draining an
// independent pre-scheduled heap. No cross-shard traffic — measures the
// cost of window rounds (min scan, merge, barrier) on embarrassingly
// parallel work, the best case for multi-threaded speedup. The horizon is
// chosen so a window covers ~20 events per shard (fabric-heavy workloads
// sit in that range); a sparse horizon would measure empty window rounds
// instead of event dispatch.
std::uint64_t sharded_churn(int shards, int per_shard, int threads) {
  sim::Simulation s;
  s.configure_shards(shards);
  s.register_lookahead(kWireLat);
  s.set_executor(0, threads);
  sim::Rng rng(23);
  // windows advance ~one lookahead at a time when events are dense, so
  // events-per-window-per-shard ~= per_shard * lookahead / horizon
  const double horizon = kWireLat * per_shard / 20.0;
  for (int d = 0; d < shards; ++d) {
    for (int i = 0; i < per_shard; ++i) {
      s.schedule_on(d, rng.uniform(0.0, horizon), [] {});
    }
  }
  s.run();
  return s.events_processed();
}

// Sharded engine, cross-shard staging/merge path: messengers hop around a
// ring of shards, each hop delayed by exactly the lookahead — every event
// crosses a shard boundary, the worst case for the window protocol.
std::uint64_t cross_shard(int shards, int msgs, int rounds, int threads) {
  sim::Simulation s;
  s.configure_shards(shards);
  s.register_lookahead(kWireLat);
  s.set_executor(0, threads);
  struct Hop {
    sim::Simulation* s;
    int shards;
    int left;
    void fire(int at) {
      if (--left <= 0) return;
      const int next = (at + 1) % shards;
      s->schedule_on(next, kWireLat, [this, next] { fire(next); });
    }
  };
  std::vector<Hop> hops(static_cast<size_t>(msgs), Hop{&s, shards, rounds});
  for (int i = 0; i < msgs; ++i) {
    const int at = i % shards;
    s.schedule_on(at, 1e-9 * i, [h = &hops[static_cast<size_t>(i)], at] {
      h->fire(at);
    });
  }
  s.run();
  return s.events_processed();
}

}  // namespace
}  // namespace dcuda

int main() {
  using namespace dcuda;
  const int k = scale();
  const int nt = engine_threads();
  std::vector<Result> results;
  results.push_back(scenario("timer_churn", 4 * k, [] { return timer_churn(1 << 17); }));
  results.push_back(scenario("self_chain", 4 * k, [] { return self_chain(64, 4096); }));
  results.push_back(scenario("resume_chain", 4 * k, [] { return resume_chain(64, 4096); }));
  results.push_back(scenario("ping_pong", 4 * k, [] { return ping_pong(40000); }));
  results.push_back(scenario("cancel_churn", 4 * k, [] { return cancel_churn(1 << 17); }));
  results.push_back(scenario("resource_churn", 2 * k, [] { return resource_churn(4096); }));
  results.push_back(scenario("fifo_contention", 4 * k, [] { return fifo_contention(8192); }));
  results.push_back(scenario("sharded_churn", 2 * k,
                             [nt] { return sharded_churn(8, 1 << 14, nt); }));
  results.push_back(scenario("cross_shard", 2 * k,
                             [nt] { return cross_shard(8, 64, 4096, nt); }));

  std::uint64_t total_events = 0;
  double total_seconds = 0.0;
  std::printf("{\n  \"scenarios\": {\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    total_events += r.events;
    total_seconds += r.seconds;
    std::printf("    \"%s\": {\"events\": %" PRIu64
                ", \"seconds\": %.6f, \"events_per_sec\": %.0f}%s\n",
                r.name, r.events, r.seconds, r.events_per_sec(),
                i + 1 < results.size() ? "," : "");
  }
  std::printf("  },\n");
  std::printf("  \"total_events\": %" PRIu64 ",\n", total_events);
  std::printf("  \"total_seconds\": %.6f,\n", total_seconds);
  std::printf("  \"events_per_sec\": %.0f\n}\n",
              total_seconds > 0 ? total_events / total_seconds : 0.0);
  return 0;
}
