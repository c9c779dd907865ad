#include "sim/env_config.h"

#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace dcuda::sim {

namespace {

// Strict full-string parses: leading/trailing junk, overflow, and empty
// numeric strings are errors (std::atoi's silent 0 is exactly the
// partially-applied-config bug this module exists to close).
bool parse_u64(const char* s, std::uint64_t* out) {
  if (s == nullptr || *s == '\0') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 0);
  if (errno != 0 || end == s || *end != '\0') return false;
  if (std::strchr(s, '-') != nullptr) return false;  // strtoull wraps negatives
  *out = static_cast<std::uint64_t>(v);
  return true;
}

bool parse_int(const char* s, int* out) {
  if (s == nullptr || *s == '\0') return false;
  errno = 0;
  char* end = nullptr;
  const long v = std::strtol(s, &end, 0);
  if (errno != 0 || end == s || *end != '\0') return false;
  if (v < INT_MIN || v > INT_MAX) return false;
  *out = static_cast<int>(v);
  return true;
}

bool parse_prob(const char* s, double* out) {
  if (s == nullptr || *s == '\0') return false;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (errno != 0 || end == s || *end != '\0') return false;
  if (!(v >= 0.0 && v <= 1.0)) return false;
  *out = v;
  return true;
}

std::string bad(const char* name, const char* value, const char* expected) {
  std::string m = "invalid ";
  m += name;
  m += "='";
  m += value;
  m += "' (";
  m += expected;
  m += ")";
  return m;
}

}  // namespace

std::optional<std::string> try_apply_env(MachineConfig& cfg) {
  // DCUDA_PERTURB_SEED=<uint64> reruns under a seeded schedule perturbation
  // (docs/TESTING.md); unset or 0 keeps the canonical schedule.
  if (const char* s = std::getenv("DCUDA_PERTURB_SEED")) {
    if (!parse_u64(s, &cfg.perturb_seed)) {
      return bad("DCUDA_PERTURB_SEED", s, "expected an unsigned 64-bit integer");
    }
  }
  // DCUDA_FAULT_DROP / _DUP / _CORRUPT / _DELAY / _LINKDOWN=<probability>
  // arm the lossy fabric with go-back-N recovery (net/fault.h). The loss
  // classes stop below 1: a packet that is always lost is never delivered.
  struct FaultVar {
    const char* name;
    double* out;
    bool loses_packet;
  };
  const FaultVar faults[] = {
      {"DCUDA_FAULT_DROP", &cfg.fault.drop_prob, true},
      {"DCUDA_FAULT_DUP", &cfg.fault.dup_prob, false},
      {"DCUDA_FAULT_CORRUPT", &cfg.fault.corrupt_prob, true},
      {"DCUDA_FAULT_DELAY", &cfg.fault.delay_prob, false},
      {"DCUDA_FAULT_LINKDOWN", &cfg.fault.link_down_prob, true},
  };
  for (const FaultVar& f : faults) {
    if (const char* s = std::getenv(f.name)) {
      if (!parse_prob(s, f.out) || (f.loses_packet && *f.out >= 1.0)) {
        return bad(f.name, s,
                   f.loses_packet ? "expected a probability in [0, 1)"
                                  : "expected a probability in [0, 1]");
      }
    }
  }
  // DCUDA_SHARDS=<n> / DCUDA_THREADS=<n> configure the parallel event engine
  // (docs/PERF.md): executor-group count (0 = auto, one group per node
  // shard) and worker-thread count. Results are byte-identical for every
  // setting — every golden case (tests/golden/cases.txt) verifies it.
  if (const char* s = std::getenv("DCUDA_SHARDS")) {
    if (!parse_int(s, &cfg.shards) || cfg.shards < 0) {
      return bad("DCUDA_SHARDS", s, "expected an integer >= 0");
    }
  }
  if (const char* s = std::getenv("DCUDA_THREADS")) {
    if (!parse_int(s, &cfg.threads) || cfg.threads < 1) {
      return bad("DCUDA_THREADS", s, "expected an integer >= 1");
    }
  }
  // DCUDA_TOPOLOGY selects the interconnect topology, DCUDA_RAILS the NIC
  // rail count, DCUDA_ROUTE the route-selection mode (docs/TOPOLOGY.md).
  // Unset keeps the paper's flat single-rail fabric.
  if (const char* s = std::getenv("DCUDA_TOPOLOGY")) {
    const std::string v = s;
    if (v == "fattree" || v == "fat_tree" || v == "fat-tree") {
      cfg.net.topo.kind = net::TopologyKind::kFatTree;
    } else if (v == "torus" || v == "torus3d") {
      cfg.net.topo.kind = net::TopologyKind::kTorus3D;
    } else if (v == "flat" || v.empty()) {
      cfg.net.topo.kind = net::TopologyKind::kFlat;
    } else {
      return bad("DCUDA_TOPOLOGY", s, "use flat, fattree, or torus");
    }
  }
  if (const char* s = std::getenv("DCUDA_RAILS")) {
    if (!parse_int(s, &cfg.net.topo.rails) || cfg.net.topo.rails < 1) {
      return bad("DCUDA_RAILS", s, "expected an integer >= 1");
    }
  }
  if (const char* s = std::getenv("DCUDA_ROUTE")) {
    const std::string v = s;
    if (v == "adaptive") {
      cfg.net.topo.route = net::RouteMode::kAdaptive;
    } else if (v == "ecmp" || v.empty()) {
      cfg.net.topo.route = net::RouteMode::kEcmp;
    } else {
      return bad("DCUDA_ROUTE", s, "use ecmp or adaptive");
    }
  }
  // DCUDA_BACKEND=host|device selects the runtime backend (docs/BACKENDS.md).
  if (const char* s = std::getenv("DCUDA_BACKEND")) {
    const std::string v = s;
    if (v == "device" || v == "device_initiated" || v == "1") {
      cfg.backend = RuntimeBackend::kDeviceInitiated;
    } else if (v == "host" || v == "host_loop" || v == "0" || v.empty()) {
      cfg.backend = RuntimeBackend::kHostLoop;
    } else {
      return bad("DCUDA_BACKEND", s, "use host or device");
    }
  }
  return std::nullopt;
}

void apply_env(MachineConfig& cfg) {
  if (auto err = try_apply_env(cfg)) {
    std::fprintf(stderr, "error: %s\n", err->c_str());
    std::exit(2);
  }
}

std::optional<std::string> try_cluster_env(ClusterEnv& env) {
  // DCUDA_SCHED picks the gang-scheduling policy, DCUDA_JOBS the open-
  // arrival job count of the reference workload (docs/CLUSTER.md).
  if (const char* s = std::getenv("DCUDA_SCHED")) {
    const std::string v = s;
    if (v == "fifo") {
      env.sched = SchedPolicyEnv::kFifo;
    } else if (v == "backfill") {
      env.sched = SchedPolicyEnv::kBackfill;
    } else if (v == "fairshare" || v == "fair_share" || v == "fair-share") {
      env.sched = SchedPolicyEnv::kFairShare;
    } else {
      return bad("DCUDA_SCHED", s, "use fifo, backfill, or fairshare");
    }
    env.sched_set = true;
  }
  if (const char* s = std::getenv("DCUDA_JOBS")) {
    int n = 0;
    if (!parse_int(s, &n) || n < 1) {
      return bad("DCUDA_JOBS", s, "expected an integer >= 1");
    }
    env.jobs = n;
  }
  return std::nullopt;
}

ClusterEnv cluster_env() {
  ClusterEnv env;
  if (auto err = try_cluster_env(env)) {
    std::fprintf(stderr, "error: %s\n", err->c_str());
    std::exit(2);
  }
  return env;
}

std::optional<std::string> try_env_int(const char* name, int dflt, int* out) {
  *out = dflt;
  if (const char* s = std::getenv(name)) {
    if (!parse_int(s, out)) return bad(name, s, "expected an integer");
  }
  return std::nullopt;
}

std::optional<std::string> try_env_u64(const char* name, std::uint64_t dflt,
                                       std::uint64_t* out) {
  *out = dflt;
  if (const char* s = std::getenv(name)) {
    if (!parse_u64(s, out)) {
      return bad(name, s, "expected an unsigned 64-bit integer");
    }
  }
  return std::nullopt;
}

int env_int(const char* name, int dflt) {
  int v = dflt;
  if (auto err = try_env_int(name, dflt, &v)) {
    std::fprintf(stderr, "error: %s\n", err->c_str());
    std::exit(2);
  }
  return v;
}

std::uint64_t env_u64(const char* name, std::uint64_t dflt) {
  std::uint64_t v = dflt;
  if (auto err = try_env_u64(name, dflt, &v)) {
    std::fprintf(stderr, "error: %s\n", err->c_str());
    std::exit(2);
  }
  return v;
}

std::optional<std::uint64_t> env_u64_opt(const char* name) {
  if (std::getenv(name) == nullptr) return std::nullopt;
  return env_u64(name, 0);
}

std::optional<std::string> env_string(const char* name) {
  if (const char* s = std::getenv(name)) return std::string(s);
  return std::nullopt;
}

}  // namespace dcuda::sim
