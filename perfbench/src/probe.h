#pragma once

// Measurement plumbing of the benchmark executable: the benchmark's own spans,
// the flat result record a phase prints, and the per-layer figures read from
// a cluster's sim::Tracer after a traced run.

#include <chrono>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "sim/simulation.h"
#include "sim/trace.h"

namespace perfbench {

// Which clock a span or metric uses: the simulator's own wall time (host) or
// the simulated time of the modelled machine (sim).
enum class Clock { kHost, kSim };

struct Span {
  std::string name;
  double start = 0.0;  // seconds; host spans from process start
  double end = 0.0;
  int parent = -1;     // index into the log, -1 for a root
  Clock clock = Clock::kHost;
};

// The benchmark's own spans, kept in memory and written out at exit. Host
// spans nest by scope; sim spans name their parent explicitly, because many
// simulated ranks are open at once.
class SpanLog {
 public:
  class Scope {
   public:
    Scope(SpanLog& log, int id) : log_(log), id_(id) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() { log_.close_host(id_); }

   private:
    SpanLog& log_;
    int id_;
  };

  SpanLog() : t0_(std::chrono::steady_clock::now()) {}

  [[nodiscard]] Scope host(std::string name);
  int add_sim(std::string name, double start, double end, int parent);
  // Duration of the last finished span called `name` (0 when none).
  double last(const std::string& name) const;
  void write(const std::string& path) const;

 private:
  double now() const;
  void close_host(int id);

  std::chrono::steady_clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<int> open_;  // stack of open host spans
};

// Flat, ordered record of named numbers and strings, printed as one JSON
// object on stdout.
class Record {
 public:
  void set(const std::string& key, double value);
  void note(const std::string& key, std::string value);
  // p50/p99 (or any quantiles) of `samples` plus the sample count, as
  // `<base>_p50`, `<base>_p99` and `<base>.n`.
  void percentiles(const std::string& base, std::vector<double> samples,
                   std::initializer_list<std::pair<const char*, double>> qs);
  void print() const;

 private:
  std::vector<std::pair<std::string, double>> values_;
  std::vector<std::pair<std::string, std::string>> notes_;
};

// Engine counters of a finished run: events, event-pool slots and growths,
// heap fallbacks.
void engine_metrics(const dcuda::sim::Simulation& sim, Record& rec);

// Per-layer totals of a traced run, from the tracer's categories, metrics
// and spans: gpu, dcuda, queue, pcie, runtime and net. Times the tracer's
// own summarize and Chrome export as trace.summarize / trace.export spans.
void tracer_metrics(const dcuda::sim::Tracer& tracer, Record& rec, SpanLog& log);

// Peak resident set of this process, in MB.
double peak_rss_mb();

}  // namespace perfbench
