#include "probe.h"

#include <sys/resource.h>

#include <cstdio>
#include <fstream>
#include <ostream>
#include <stdexcept>
#include <streambuf>

#include "sim/stats.h"
#include "sim/trace_export.h"

namespace perfbench {

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Discards what is written to it, so the Chrome export can be timed without
// the disk in the measurement.
class NullBuf : public std::streambuf {
 protected:
  int_type overflow(int_type c) override { return traits_type::not_eof(c); }
  std::streamsize xsputn(const char*, std::streamsize n) override { return n; }
};

}  // namespace

double SpanLog::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0_)
      .count();
}

SpanLog::Scope SpanLog::host(std::string name) {
  const int id = static_cast<int>(spans_.size());
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(Span{std::move(name), now(), 0.0, parent, Clock::kHost});
  open_.push_back(id);
  return Scope(*this, id);
}

void SpanLog::close_host(int id) {
  spans_[static_cast<std::size_t>(id)].end = now();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

int SpanLog::add_sim(std::string name, double start, double end, int parent) {
  spans_.push_back(Span{std::move(name), start, end, parent, Clock::kSim});
  return static_cast<int>(spans_.size()) - 1;
}

double SpanLog::last(const std::string& name) const {
  for (auto it = spans_.rbegin(); it != spans_.rend(); ++it) {
    if (it->name == name) return it->end - it->start;
  }
  return 0.0;
}

void SpanLog::write(const std::string& path) const {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write span file " + path);
  os << "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << "{\"id\": " << i << ", \"name\": " << json_string(s.name)
       << ", \"start\": " << json_number(s.start)
       << ", \"end\": " << json_number(s.end) << ", \"parent\": " << s.parent
       << ", \"clock\": \"" << (s.clock == Clock::kHost ? "host" : "sim")
       << "\"}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  os << "]\n";
}

void Record::set(const std::string& key, double value) {
  values_.emplace_back(key, value);
}

void Record::note(const std::string& key, std::string value) {
  notes_.emplace_back(key, std::move(value));
}

void Record::percentiles(const std::string& base, std::vector<double> samples,
                         std::initializer_list<std::pair<const char*, double>> qs) {
  const dcuda::sim::Summary s(std::move(samples));
  for (const auto& [suffix, q] : qs) set(base + "_" + suffix, s.percentile(q));
  set(base + ".n", static_cast<double>(s.count()));
}

void Record::print() const {
  std::string out = "{\"values\": {";
  for (std::size_t i = 0; i < values_.size(); ++i) {
    out += (i ? ", " : "") + json_string(values_[i].first) + ": " +
           json_number(values_[i].second);
  }
  out += "}, \"notes\": {";
  for (std::size_t i = 0; i < notes_.size(); ++i) {
    out += (i ? ", " : "") + json_string(notes_[i].first) + ": " +
           json_string(notes_[i].second);
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

void engine_metrics(const dcuda::sim::Simulation& sim, Record& rec) {
  const auto pool = sim.pool_stats();
  rec.set("sim.events", static_cast<double>(sim.events_processed()));
  rec.set("sim.pool_slots", static_cast<double>(pool.pool_slots));
  rec.set("sim.pool_growths", static_cast<double>(pool.pool_growths));
  rec.set("sim.heap_fallbacks", static_cast<double>(pool.heap_fallbacks));
}

void tracer_metrics(const dcuda::sim::Tracer& tracer, Record& rec, SpanLog& log) {
  using dcuda::sim::Category;
  using dcuda::sim::to_millis;
  dcuda::sim::TraceSummary sum;
  {
    auto span = log.host("trace.summarize");
    sum = dcuda::sim::summarize(tracer);
  }
  rec.set("trace.summarize_s", log.last("trace.summarize"));
  NullBuf sink;
  {
    auto span = log.host("trace.export");
    std::ostream os(&sink);
    dcuda::sim::export_chrome(os, tracer, "perfbench");
  }
  rec.set("trace.export_s", log.last("trace.export"));
  rec.set("trace.spans", static_cast<double>(sum.num_spans));

  const auto cat_ms = [&](Category c) {
    return to_millis(sum.by_category[static_cast<int>(c)]);
  };
  rec.set("gpu.compute_ms", cat_ms(Category::kCompute));
  rec.set("gpu.memory_ms", cat_ms(Category::kMemory));
  rec.set("queue.stall_ms", cat_ms(Category::kQueue));
  rec.set("pcie.busy_ms", cat_ms(Category::kPcie));
  rec.set("net.busy_ms", cat_ms(Category::kFabric));
  rec.set("runtime.notify_ms", cat_ms(Category::kNotify));

  rec.set("dcuda.overlap_ratio", sum.overlap_ratio);
  rec.set("dcuda.wait_ms", to_millis(sum.wait_total));
  rec.percentiles("dcuda.wait_us", sum.wait_us.sorted(), {{"p50", 0.5}, {"p99", 0.99}});
  std::vector<double> put_issue_us;
  for (const auto& s : tracer.spans()) {
    if (s.category == Category::kPut) {
      put_issue_us.push_back(dcuda::sim::to_micros(s.end - s.begin));
    }
  }
  rec.percentiles("dcuda.put_issue_us", std::move(put_issue_us),
                  {{"p50", 0.5}, {"p99", 0.99}});
  const double matched = tracer.metric("notifications_matched");
  const double unmatched = tracer.metric("notifications_unmatched");
  rec.set("dcuda.match_rounds", tracer.metric("match_rounds"));
  rec.set("dcuda.match_hit_ratio",
          matched + unmatched > 0.0 ? matched / (matched + unmatched) : 0.0);

  rec.set("pcie.transactions", tracer.metric("pcie_transactions"));
  rec.set("runtime.notifications", tracer.metric("notifications_delivered"));
  rec.set("net.messages", tracer.metric("fabric_messages"));
  rec.set("net.bytes", tracer.metric("fabric_bytes"));
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

}  // namespace perfbench
