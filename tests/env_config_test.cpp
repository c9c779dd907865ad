// Parser battery for the DCUDA_* environment dials (bench/env.h): valid
// spellings land in the config, unset variables keep defaults, and an
// invalid value prints the documented "error: invalid NAME='v' (...)" line
// and exits 2, checked end to end in a child process.

#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "bench/env.h"

namespace dcuda::bench {
namespace {

using testing::Eq;
using testing::ExitedWithCode;

// Clears every variable the tests set, and restores the environment on
// scope exit so tests can't leak settings into each other.
class EnvSandbox {
 public:
  EnvSandbox() {
    for (const char* name : kVars) {
      const char* v = std::getenv(name);
      saved_.emplace_back(name,
                          v != nullptr ? std::optional<std::string>(v)
                                       : std::nullopt);
      ::unsetenv(name);
    }
  }
  ~EnvSandbox() {
    for (const auto& [name, value] : saved_) {
      if (value.has_value()) {
        ::setenv(name, value->c_str(), 1);
      } else {
        ::unsetenv(name);
      }
    }
  }
  void set(const char* name, const char* value) { ::setenv(name, value, 1); }

 private:
  static constexpr const char* kVars[] = {
      "DCUDA_PERTURB_SEED", "DCUDA_FAULT_DROP",   "DCUDA_FAULT_DUP",
      "DCUDA_FAULT_CORRUPT", "DCUDA_FAULT_DELAY", "DCUDA_FAULT_LINKDOWN",
      "DCUDA_SHARDS",        "DCUDA_THREADS",     "DCUDA_TOPOLOGY",
      "DCUDA_RAILS",         "DCUDA_ROUTE",       "DCUDA_BACKEND",
      "DCUDA_JOBS",
  };
  std::vector<std::pair<const char*, std::optional<std::string>>> saved_;
};

// Runs `parse` in a child process: it must print exactly "error: <msg>"
// on stderr and exit 2.
void expect_bad_env(const std::function<void()>& parse,
                    const std::string& msg) {
  EXPECT_EXIT(parse(), ExitedWithCode(2), Eq("error: " + msg + "\n")) << msg;
}

void apply_default_env() {
  sim::MachineConfig cfg;
  apply_env(cfg);
}

TEST(EnvConfig, UnsetKeepsDefaults) {
  EnvSandbox env;
  sim::MachineConfig cfg;
  apply_env(cfg);
  EXPECT_EQ(cfg.perturb_seed, 0u);
  EXPECT_EQ(cfg.fault.drop_prob, 0.0);
  EXPECT_EQ(cfg.shards, 0);
  EXPECT_EQ(cfg.threads, 1);
  EXPECT_EQ(env_int("DCUDA_JOBS", 24, 1), 24);
  EXPECT_EQ(env_u64_opt("DCUDA_PERTURB_SEED"), std::nullopt);
}

TEST(EnvConfig, MachineKnobsParse) {
  EnvSandbox env;
  env.set("DCUDA_PERTURB_SEED", "0x58001");
  env.set("DCUDA_FAULT_DROP", "0.25");
  env.set("DCUDA_SHARDS", "4");
  env.set("DCUDA_THREADS", "2");
  env.set("DCUDA_TOPOLOGY", "fattree");
  env.set("DCUDA_RAILS", "2");
  env.set("DCUDA_ROUTE", "adaptive");
  sim::MachineConfig cfg;
  apply_env(cfg);
  EXPECT_EQ(cfg.perturb_seed, 0x58001u);
  EXPECT_EQ(cfg.fault.drop_prob, 0.25);
  EXPECT_EQ(cfg.shards, 4);
  EXPECT_EQ(cfg.threads, 2);
  EXPECT_EQ(cfg.net.topo.kind, net::TopologyKind::kFatTree);
  EXPECT_EQ(cfg.net.topo.rails, 2);
  EXPECT_EQ(cfg.net.topo.route, net::RouteMode::kAdaptive);
}

TEST(EnvConfig, InvalidMachineValueReportsExpectedFormat) {
  EnvSandbox env;
  env.set("DCUDA_SHARDS", "many");
  expect_bad_env(apply_default_env,
                 "invalid DCUDA_SHARDS='many' (expected an integer >= 0)");
}

TEST(EnvConfig, TrailingJunkAndNegativesAreErrors) {
  EnvSandbox env;
  env.set("DCUDA_THREADS", "2x");
  expect_bad_env(apply_default_env,
                 "invalid DCUDA_THREADS='2x' (expected an integer >= 1)");
  env.set("DCUDA_THREADS", "0");
  expect_bad_env(apply_default_env,
                 "invalid DCUDA_THREADS='0' (expected an integer >= 1)");
  env.set("DCUDA_THREADS", "2");
  env.set("DCUDA_PERTURB_SEED", "-1");
  expect_bad_env(apply_default_env,
                 "invalid DCUDA_PERTURB_SEED='-1' "
                 "(expected an unsigned 64-bit integer)");
  env.set("DCUDA_PERTURB_SEED", "1");
  env.set("DCUDA_FAULT_DROP", "1.5");
  expect_bad_env(apply_default_env,
                 "invalid DCUDA_FAULT_DROP='1.5' "
                 "(expected a probability in [0, 1))");
}

TEST(EnvConfig, CertainLossIsRejected) {
  // A loss class at probability 1 could never deliver a packet; duplicate
  // and delay spikes at 1 still deliver, so they keep the closed range.
  for (const char* name :
       {"DCUDA_FAULT_DROP", "DCUDA_FAULT_CORRUPT", "DCUDA_FAULT_LINKDOWN"}) {
    EnvSandbox env;
    env.set(name, "1");
    expect_bad_env(apply_default_env,
                   std::string("invalid ") + name +
                       "='1' (expected a probability in [0, 1))");
    env.set(name, "0.999");
    apply_default_env();  // a rejection exits 2 and fails the test
  }
  for (const char* name : {"DCUDA_FAULT_DUP", "DCUDA_FAULT_DELAY"}) {
    EnvSandbox env;
    env.set(name, "1");
    apply_default_env();
  }
}

TEST(EnvConfig, InvalidTopologyListsValidValues) {
  EnvSandbox env;
  env.set("DCUDA_TOPOLOGY", "hypercube");
  expect_bad_env(apply_default_env,
                 "invalid DCUDA_TOPOLOGY='hypercube' "
                 "(use flat, fattree, or torus)");
}

TEST(EnvConfig, JobsParsesAndRejectsNonPositive) {
  EnvSandbox env;
  env.set("DCUDA_JOBS", "48");
  EXPECT_EQ(env_int("DCUDA_JOBS", 24, 1), 48);
  const auto jobs = [] { env_int("DCUDA_JOBS", 24, 1); };
  env.set("DCUDA_JOBS", "0");
  expect_bad_env(jobs, "invalid DCUDA_JOBS='0' (expected an integer >= 1)");
  env.set("DCUDA_JOBS", "");
  expect_bad_env(jobs, "invalid DCUDA_JOBS='' (expected an integer >= 1)");
}

TEST(EnvConfig, TypedAccessorsParseStrictly) {
  EnvSandbox env;
  EXPECT_EQ(env_int("DCUDA_JOBS", 7, 1), 7);  // unset -> default
  env.set("DCUDA_JOBS", "12");
  EXPECT_EQ(env_int("DCUDA_JOBS", 7, 1), 12);
  env.set("DCUDA_JOBS", "12.5");
  expect_bad_env([] { env_int("DCUDA_JOBS", 7, 1); },
                 "invalid DCUDA_JOBS='12.5' (expected an integer >= 1)");
  env.set("DCUDA_PERTURB_SEED", "0xdead");
  EXPECT_EQ(env_u64("DCUDA_PERTURB_SEED", 0), 0xdeadu);
  EXPECT_EQ(env_u64_opt("DCUDA_PERTURB_SEED"), std::optional<std::uint64_t>(0xdead));
}

}  // namespace
}  // namespace dcuda::bench
