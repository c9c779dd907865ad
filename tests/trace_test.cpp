// Observability layer: span recording and ordering, counter accounting,
// Chrome trace_event export (well-formedness, timestamp order, pid/tid
// lane mapping), the sorted-once stats Summary, and a golden test pinning
// the text-summary format (tests/golden/trace_summary.golden).

#include <gtest/gtest.h>

#include <cctype>
#include <cstddef>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "sim/stats.h"
#include "sim/trace.h"
#include "sim/trace_export.h"

namespace dcuda {
namespace {

using sim::Proc;

sim::MachineConfig machine(int nodes) {
  sim::MachineConfig m;
  m.num_nodes = nodes;
  return m;
}

// --------------------------------------------- minimal JSON validator -----
//
// Recursive-descent checker for the exporter's output: structure only (no
// DOM), strict enough to catch trailing commas, unbalanced brackets and
// unterminated strings.

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& s) : s_(s) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    for (;;) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    for (;;) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool literal(const char* lit) {
    for (const char* p = lit; *p != '\0'; ++p, ++pos_) {
      if (pos_ >= s_.size() || s_[pos_] != *p) return false;
    }
    return true;
  }

  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])) != 0) {
      ++pos_;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

// Pulls every occurrence of `"key": <number>` out of the JSON text, in
// document order — enough to check timestamp monotonicity and pid mapping
// without a DOM.
std::vector<double> number_fields(const std::string& json, const std::string& key) {
  std::vector<double> out;
  const std::string needle = "\"" + key + "\":";
  std::size_t pos = 0;
  while ((pos = json.find(needle, pos)) != std::string::npos) {
    pos += needle.size();
    out.push_back(std::stod(json.substr(pos)));
  }
  return out;
}

// A small deterministic tracer: two rank lanes with partially overlapping
// compute/put work, one wait, plus counter samples. Also the golden-test
// input, so keep it stable.
sim::Tracer example_tracer() {
  sim::Tracer t;
  t.enable();
  t.record({0.0, 40e-6, 0, 0, "compute", sim::Category::kCompute});
  t.record({30e-6, 50e-6, 0, 0, "put", sim::Category::kPut, 1024.0});
  t.record({50e-6, 58e-6, 0, 0, "wait", sim::Category::kWait});
  t.record({0.0, 20e-6, 0, 1, "compute", sim::Category::kCompute});
  t.record({20e-6, 26e-6, 0, 1, "wait", sim::Category::kWait});
  t.record({32e-6, 48e-6, 0, sim::kFabricLane, "tx", sim::Category::kFabric, 1024.0});
  t.counter_add(30e-6, 0, "inflight_rma", 1.0);
  t.counter_add(50e-6, 0, "inflight_rma", -1.0);
  t.bump("puts_issued");
  t.bump("rma_bytes", 1024.0);
  return t;
}

// ------------------------------------------------------ span recording ----

TEST(TraceSpans, CategoriesAndBytesAreRecorded) {
  const sim::Tracer t = example_tracer();
  ASSERT_EQ(t.spans().size(), 6u);
  EXPECT_EQ(t.spans()[0].category, sim::Category::kCompute);
  EXPECT_EQ(t.spans()[1].category, sim::Category::kPut);
  EXPECT_EQ(t.spans()[1].bytes, 1024.0);
  EXPECT_EQ(t.spans()[5].lane, sim::kFabricLane);
}

TEST(TraceSpans, DisabledTracerRecordsNothing) {
  sim::Tracer t;
  t.record({0.0, 1.0, 0, 0, "compute", sim::Category::kCompute});
  t.counter_add(0.0, 0, "x", 1.0);
  t.bump("m");
  EXPECT_TRUE(t.spans().empty());
  EXPECT_TRUE(t.counter_samples().empty());
  EXPECT_EQ(t.metric("m"), 0.0);
}

TEST(TraceSpans, ClusterRunOrdersSpansPerLane) {
  Cluster c({.machine = machine(2), .ranks_per_device = 2});
  c.tracer().enable();
  auto m0 = c.device(0).alloc<std::byte>(1024);
  auto m1 = c.device(1).alloc<std::byte>(1024);
  c.run([&](Context& ctx) -> Proc<void> {
    auto mine = ctx.world_rank < 2 ? m0 : m1;
    Window w = co_await win_create(ctx, kCommWorld, mine);
    co_await ctx.block->compute_flops(1e6);
    const int peer = (ctx.world_rank + 2) % ctx.world_size;
    co_await put_notify(ctx, w, peer, 0, 64, mine.data(), 0);
    co_await wait_notifications(ctx, w, kAnySource, 0, 1);
    co_await win_free(ctx, w);
  });
  // Spans are recorded when they complete, so per (device, lane) the end
  // times are nondecreasing (begin times are not: an enclosing span like a
  // wait or drain is recorded after its inner activity). Every span is
  // well-formed.
  std::map<std::pair<int, int>, sim::Time> last_end;
  for (const auto& sp : c.tracer().spans()) {
    EXPECT_LE(sp.begin, sp.end);
    auto& prev = last_end[{sp.device, sp.lane}];
    EXPECT_GE(sp.end, prev);
    prev = sp.end;
  }
  // The run exercised every instrumented subsystem.
  bool fabric = false, pcie = false, put = false, wait = false;
  for (const auto& sp : c.tracer().spans()) {
    fabric |= sp.category == sim::Category::kFabric;
    pcie |= sp.category == sim::Category::kPcie;
    put |= sp.category == sim::Category::kPut;
    wait |= sp.category == sim::Category::kWait;
  }
  EXPECT_TRUE(fabric);
  EXPECT_TRUE(pcie);
  EXPECT_TRUE(put);
  EXPECT_TRUE(wait);
}

// --------------------------------------------------- counter accounting ---

TEST(TraceCounters, CounterAddTracksRunningValue) {
  sim::Tracer t;
  t.enable();
  t.counter_add(1e-6, 0, "depth", 1.0);
  t.counter_add(2e-6, 0, "depth", 1.0);
  t.counter_add(3e-6, 0, "depth", -1.0);
  t.counter_add(1e-6, 1, "depth", 5.0);  // separate device, separate value
  EXPECT_EQ(t.counter_value(0, "depth"), 1.0);
  EXPECT_EQ(t.counter_value(1, "depth"), 5.0);
  ASSERT_EQ(t.counter_samples().size(), 4u);
  EXPECT_EQ(t.counter_samples()[1].value, 2.0);
  EXPECT_EQ(t.counter_samples()[2].value, 1.0);
}

TEST(TraceCounters, InflightRmaAndQueueDepthsReturnToZero) {
  Cluster c({.machine = machine(2), .ranks_per_device = 2});
  c.tracer().enable();
  auto m0 = c.device(0).alloc<std::byte>(4096);
  auto m1 = c.device(1).alloc<std::byte>(4096);
  c.run([&](Context& ctx) -> Proc<void> {
    auto mine = ctx.world_rank < 2 ? m0 : m1;
    Window w = co_await win_create(ctx, kCommWorld, mine);
    const int peer = (ctx.world_rank + 2) % ctx.world_size;
    for (int i = 0; i < 3; ++i) {
      co_await put_notify(ctx, w, peer, 0, 256, mine.data(), 0);
      co_await wait_notifications(ctx, w, kAnySource, 0, 1);
    }
    co_await win_free(ctx, w);
  });
  const sim::Tracer& t = c.tracer();
  for (int dev = 0; dev < 2; ++dev) {
    EXPECT_EQ(t.counter_value(dev, "inflight_rma"), 0.0) << "dev " << dev;
    EXPECT_EQ(t.counter_value(dev, "cmd_queue_depth"), 0.0) << "dev " << dev;
    EXPECT_EQ(t.counter_value(dev, "notif_queue_depth"), 0.0) << "dev " << dev;
  }
  // Matching bookkeeping: every delivered notification was eventually
  // matched, none left over.
  EXPECT_GT(t.metric("notifications_delivered"), 0.0);
  EXPECT_EQ(t.metric("notifications_matched"), t.metric("notifications_delivered"));
  EXPECT_GE(t.metric("puts_issued"), 12.0);  // 4 ranks x 3 iterations
}

// --------------------------------------------------------- JSON export ----

TEST(TraceExport, EmitsWellFormedJson) {
  const sim::Tracer t = example_tracer();
  std::ostringstream os;
  sim::export_chrome(os, t, "unit");
  const std::string json = os.str();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
}

TEST(TraceExport, EmptyTracerStillValidJson) {
  sim::Tracer t;
  std::ostringstream os;
  sim::export_chrome(os, t, "empty");
  EXPECT_TRUE(JsonChecker(os.str()).valid()) << os.str();
}

TEST(TraceExport, TimestampsAreMonotone) {
  Cluster c({.machine = machine(1), .ranks_per_device = 4});
  c.tracer().enable();
  c.run([&](Context& ctx) -> Proc<void> {
    co_await ctx.block->compute_flops(1e6);
    co_await barrier(ctx, kCommWorld);
    co_await ctx.block->mem_traffic(1e5);
  });
  std::ostringstream os;
  sim::export_chrome(os, c.tracer(), "run");
  const std::string json = os.str();
  ASSERT_TRUE(JsonChecker(json).valid());
  const std::vector<double> ts = number_fields(json, "ts");
  ASSERT_GT(ts.size(), 4u);
  for (std::size_t i = 1; i < ts.size(); ++i) {
    EXPECT_LE(ts[i - 1], ts[i]) << "event " << i;
  }
  for (double v : ts) EXPECT_GE(v, 0.0);
}

TEST(TraceExport, GroupsMapToDistinctPidsAndLanesToTids) {
  sim::Tracer a = example_tracer();
  sim::Tracer b = example_tracer();
  std::ostringstream os;
  sim::export_chrome(os, {{&a, "MPI-CUDA"}, {&b, "dCUDA"}});
  const std::string json = os.str();
  ASSERT_TRUE(JsonChecker(json).valid());
  // Group 0 device 0 -> pid 0; group 1 device 0 -> pid 1000.
  std::set<int> pids;
  for (double v : number_fields(json, "pid")) pids.insert(static_cast<int>(v));
  EXPECT_TRUE(pids.count(0));
  EXPECT_TRUE(pids.count(1000));
  // Lanes become tids verbatim: rank lanes 0/1 and the fabric lane.
  std::set<int> tids;
  for (double v : number_fields(json, "tid")) tids.insert(static_cast<int>(v));
  EXPECT_TRUE(tids.count(0));
  EXPECT_TRUE(tids.count(1));
  EXPECT_TRUE(tids.count(sim::kFabricLane));
  // Both variant labels appear as process-name prefixes.
  EXPECT_NE(json.find("MPI-CUDA dev0"), std::string::npos);
  EXPECT_NE(json.find("dCUDA dev0"), std::string::npos);
}

// ------------------------------------------------------- stats summary ----

TEST(StatsSummary, MatchesFreePercentileFunctions) {
  const std::vector<double> xs = {9.0, 1.0, 5.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0};
  const sim::Summary s(xs);
  // Linear interpolation between order statistics: 1 + 8p over 1..9.
  const std::pair<double, double> expected[] = {{0.0, 1.0},  {0.10, 1.8}, {0.25, 3.0},
                                                {0.50, 5.0}, {0.75, 7.0}, {0.90, 8.2},
                                                {0.99, 8.92}, {1.0, 9.0}};
  for (const auto& [p, v] : expected) EXPECT_DOUBLE_EQ(s.percentile(p), v) << "p" << p;
  EXPECT_EQ(s.sorted(), (std::vector<double>{1, 2, 3, 4, 5, 6, 7, 8, 9}));
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_EQ(s.count(), xs.size());
  const sim::Summary empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.percentile(50.0), 0.0);
}

TEST(TraceSummary, OverlapAndWaitMetrics) {
  const sim::Tracer t = example_tracer();
  const sim::TraceSummary s = sim::summarize(t);
  EXPECT_EQ(s.num_spans, 6u);
  EXPECT_EQ(s.lanes, 3);
  EXPECT_DOUBLE_EQ(s.wall, 58e-6);
  // Compute union: lane0 [0,40] + lane1 [0,20] merged on device 0 -> [0,40].
  EXPECT_NEAR(s.compute_time, 40e-6, 1e-12);
  // Comm union: put [30,50] + fabric [32,48] -> [30,50].
  EXPECT_NEAR(s.comm_time, 20e-6, 1e-12);
  // Overlap: [30,40].
  EXPECT_NEAR(s.overlap_time, 10e-6, 1e-12);
  EXPECT_NEAR(s.overlap_ratio, 0.5, 1e-9);
  // Waits: 8 us + 6 us on rank lanes.
  EXPECT_NEAR(s.wait_total, 14e-6, 1e-12);
  ASSERT_EQ(s.wait_us.count(), 2u);
  EXPECT_NEAR(s.wait_us.max(), 8.0, 1e-9);
}

// ---------------------------------------------------------- golden file ---

TEST(TraceSummaryGolden, TextSummaryMatchesGoldenFile) {
  std::ostringstream os;
  sim::write_summary(os, example_tracer(), "golden");
  const std::string got = os.str();

  const std::string path =
      std::string(DCUDA_TEST_SOURCE_DIR) + "/golden/trace_summary.golden";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file " << path;
  std::stringstream want;
  want << in.rdbuf();
  EXPECT_EQ(got, want.str())
      << "summary format drifted; update tests/golden/trace_summary.golden "
         "if the change is intentional";
}

}  // namespace
}  // namespace dcuda
