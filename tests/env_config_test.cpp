// Parser battery for the centralized DCUDA_* environment layer
// (src/sim/env_config.cc): valid spellings land in the config, invalid
// values return the documented "invalid NAME='v' (expected ...)" message,
// and unset variables keep defaults. Drives the try_* layer so nothing
// exits; the hard-exit wrappers share the same parse paths.

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "sim/env_config.h"

namespace dcuda::sim {
namespace {

// Clears every variable the module reads, and restores the environment on
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
      "DCUDA_SCHED",         "DCUDA_JOBS",
  };
  std::vector<std::pair<const char*, std::optional<std::string>>> saved_;
};

TEST(EnvConfig, UnsetKeepsDefaults) {
  EnvSandbox env;
  MachineConfig cfg;
  EXPECT_EQ(try_apply_env(cfg), std::nullopt);
  EXPECT_EQ(cfg.perturb_seed, 0u);
  EXPECT_EQ(cfg.fault.drop_prob, 0.0);
  ClusterEnv ce;
  EXPECT_EQ(try_cluster_env(ce), std::nullopt);
  EXPECT_FALSE(ce.sched_set);
  EXPECT_FALSE(ce.jobs.has_value());
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
  MachineConfig cfg;
  ASSERT_EQ(try_apply_env(cfg), std::nullopt);
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
  MachineConfig cfg;
  const auto err = try_apply_env(cfg);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(*err, "invalid DCUDA_SHARDS='many' (expected an integer >= 0)");
}

TEST(EnvConfig, TrailingJunkAndNegativesAreErrors) {
  EnvSandbox env;
  MachineConfig cfg;
  env.set("DCUDA_THREADS", "2x");
  EXPECT_TRUE(try_apply_env(cfg).has_value());
  env.set("DCUDA_THREADS", "0");
  EXPECT_TRUE(try_apply_env(cfg).has_value());
  env.set("DCUDA_THREADS", "2");
  env.set("DCUDA_PERTURB_SEED", "-1");
  EXPECT_TRUE(try_apply_env(cfg).has_value());
  env.set("DCUDA_PERTURB_SEED", "1");
  env.set("DCUDA_FAULT_DROP", "1.5");
  const auto err = try_apply_env(cfg);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(*err,
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
    MachineConfig cfg;
    EXPECT_EQ(try_apply_env(cfg),
              std::optional<std::string>(std::string("invalid ") + name +
                                         "='1' (expected a probability in "
                                         "[0, 1))"));
    env.set(name, "0.999");
    EXPECT_EQ(try_apply_env(cfg), std::nullopt) << name;
  }
  for (const char* name : {"DCUDA_FAULT_DUP", "DCUDA_FAULT_DELAY"}) {
    EnvSandbox env;
    env.set(name, "1");
    MachineConfig cfg;
    EXPECT_EQ(try_apply_env(cfg), std::nullopt) << name;
  }
}

TEST(EnvConfig, InvalidTopologyListsValidValues) {
  EnvSandbox env;
  env.set("DCUDA_TOPOLOGY", "hypercube");
  MachineConfig cfg;
  const auto err = try_apply_env(cfg);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(*err,
            "invalid DCUDA_TOPOLOGY='hypercube' "
            "(use flat, fattree, or torus)");
}

TEST(EnvConfig, SchedAcceptsEverySpelling) {
  EnvSandbox env;
  const std::pair<const char*, SchedPolicyEnv> cases[] = {
      {"fifo", SchedPolicyEnv::kFifo},
      {"backfill", SchedPolicyEnv::kBackfill},
      {"fairshare", SchedPolicyEnv::kFairShare},
      {"fair_share", SchedPolicyEnv::kFairShare},
      {"fair-share", SchedPolicyEnv::kFairShare},
  };
  for (const auto& [spelling, want] : cases) {
    env.set("DCUDA_SCHED", spelling);
    ClusterEnv ce;
    ASSERT_EQ(try_cluster_env(ce), std::nullopt) << spelling;
    EXPECT_TRUE(ce.sched_set);
    EXPECT_EQ(ce.sched, want) << spelling;
  }
}

TEST(EnvConfig, InvalidSchedListsValidValues) {
  EnvSandbox env;
  env.set("DCUDA_SCHED", "sjf");
  ClusterEnv ce;
  const auto err = try_cluster_env(ce);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(*err, "invalid DCUDA_SCHED='sjf' (use fifo, backfill, or fairshare)");
}

TEST(EnvConfig, JobsParsesAndRejectsNonPositive) {
  EnvSandbox env;
  env.set("DCUDA_JOBS", "48");
  ClusterEnv ce;
  ASSERT_EQ(try_cluster_env(ce), std::nullopt);
  EXPECT_EQ(ce.jobs, std::optional<int>(48));
  env.set("DCUDA_JOBS", "0");
  ClusterEnv bad0;
  EXPECT_EQ(try_cluster_env(bad0),
            std::optional<std::string>(
                "invalid DCUDA_JOBS='0' (expected an integer >= 1)"));
  env.set("DCUDA_JOBS", "");
  ClusterEnv bad_empty;
  EXPECT_TRUE(try_cluster_env(bad_empty).has_value());
}

TEST(EnvConfig, TypedAccessorsParseStrictly) {
  EnvSandbox env;
  int iv = 0;
  EXPECT_EQ(try_env_int("DCUDA_JOBS", 7, &iv), std::nullopt);
  EXPECT_EQ(iv, 7);  // unset -> default
  env.set("DCUDA_JOBS", "12");
  EXPECT_EQ(try_env_int("DCUDA_JOBS", 7, &iv), std::nullopt);
  EXPECT_EQ(iv, 12);
  env.set("DCUDA_JOBS", "12.5");
  EXPECT_TRUE(try_env_int("DCUDA_JOBS", 7, &iv).has_value());
  std::uint64_t uv = 0;
  env.set("DCUDA_PERTURB_SEED", "0xdead");
  EXPECT_EQ(try_env_u64("DCUDA_PERTURB_SEED", 0, &uv), std::nullopt);
  EXPECT_EQ(uv, 0xdeadu);
}

}  // namespace
}  // namespace dcuda::sim
