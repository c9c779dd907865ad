#pragma once

// The DCUDA_* environment dials of the benches and tests (docs/API.md,
// "Environment variables"). Every reader parses through this header, so a
// dial behaves the same in every binary. A bad value prints one line,
//   error: invalid NAME='v' (expected ...)
// and exits 2: a run never goes on with a half-applied config. The library
// under src/ reads no environment and never exits.

#include <cerrno>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <optional>
#include <string>
#include <utility>

#include "sim/config.h"

namespace dcuda::bench {

[[noreturn]] inline void bad_env(const char* name, const char* value,
                                 const std::string& expected) {
  std::fprintf(stderr, "error: invalid %s='%s' (%s)\n", name, value,
               expected.c_str());
  std::exit(2);
}

// Strict full-string parse: empty strings, leading or trailing junk,
// overflow and negatives (which strtoull would wrap) all fail.
inline std::optional<std::uint64_t> parse_u64(const char* s) {
  if (s == nullptr || *s == '\0' || std::strchr(s, '-') != nullptr) {
    return std::nullopt;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 0);
  if (errno != 0 || *end != '\0') return std::nullopt;
  return v;
}

// NAME as an int >= min; unset keeps dflt.
inline int env_int(const char* name, int dflt, int min) {
  const char* s = std::getenv(name);
  if (s == nullptr) return dflt;
  errno = 0;
  char* end = nullptr;
  const long v = std::strtol(s, &end, 0);
  if (*s == '\0' || errno != 0 || *end != '\0' || v < min || v > INT_MAX) {
    bad_env(name, s, "expected an integer >= " + std::to_string(min));
  }
  return static_cast<int>(v);
}

inline std::optional<std::uint64_t> env_u64_opt(const char* name) {
  const char* s = std::getenv(name);
  if (s == nullptr) return std::nullopt;
  const std::optional<std::uint64_t> v = parse_u64(s);
  if (!v) bad_env(name, s, "expected an unsigned 64-bit integer");
  return v;
}

inline std::uint64_t env_u64(const char* name, std::uint64_t dflt) {
  return env_u64_opt(name).value_or(dflt);
}

inline std::optional<std::string> env_string(const char* name) {
  if (const char* s = std::getenv(name)) return std::string(s);
  return std::nullopt;
}

// NAME as a probability in [0, 1], or in [0, 1) when `below_one`.
inline double env_prob(const char* name, double dflt, bool below_one) {
  const char* s = std::getenv(name);
  if (s == nullptr) return dflt;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (*s == '\0' || errno != 0 || *end != '\0' || !(v >= 0.0) ||
      (below_one ? v >= 1.0 : v > 1.0)) {
    bad_env(name, s, below_one ? "expected a probability in [0, 1)"
                               : "expected a probability in [0, 1]");
  }
  return v;
}

// NAME as one of `spellings`; `expected` lists the valid values.
template <typename T>
T env_choice(const char* name, T dflt,
             std::initializer_list<std::pair<const char*, T>> spellings,
             const char* expected) {
  const char* s = std::getenv(name);
  if (s == nullptr) return dflt;
  for (const auto& [spelling, value] : spellings) {
    if (std::strcmp(s, spelling) == 0) return value;
  }
  bad_env(name, s, expected);
}

// Applies every DCUDA_* machine dial to cfg.
inline void apply_env(sim::MachineConfig& cfg) {
  // DCUDA_PERTURB_SEED=<uint64> reruns under a seeded schedule perturbation
  // (docs/TESTING.md); unset or 0 keeps the canonical schedule.
  cfg.perturb_seed = env_u64("DCUDA_PERTURB_SEED", cfg.perturb_seed);
  // DCUDA_FAULT_*=<probability> arm the lossy fabric with go-back-N
  // recovery (net/fault.h). The loss classes stop below 1: a packet that
  // is always lost is never delivered.
  net::FaultConfig& f = cfg.fault;
  f.drop_prob = env_prob("DCUDA_FAULT_DROP", f.drop_prob, true);
  f.dup_prob = env_prob("DCUDA_FAULT_DUP", f.dup_prob, false);
  f.corrupt_prob = env_prob("DCUDA_FAULT_CORRUPT", f.corrupt_prob, true);
  f.delay_prob = env_prob("DCUDA_FAULT_DELAY", f.delay_prob, false);
  f.link_down_prob = env_prob("DCUDA_FAULT_LINKDOWN", f.link_down_prob, true);
  // DCUDA_SHARDS / DCUDA_THREADS lay out the parallel event engine
  // (docs/PERF.md); results are byte-identical for every setting.
  cfg.shards = env_int("DCUDA_SHARDS", cfg.shards, 0);
  cfg.threads = env_int("DCUDA_THREADS", cfg.threads, 1);
  // Interconnect topology, NIC rails and route selection
  // (docs/TOPOLOGY.md); unset keeps the paper's flat single-rail fabric.
  using net::TopologyKind;
  cfg.net.topo.kind = env_choice(
      "DCUDA_TOPOLOGY", cfg.net.topo.kind,
      {{"flat", TopologyKind::kFlat}, {"", TopologyKind::kFlat},
       {"fattree", TopologyKind::kFatTree}, {"fat_tree", TopologyKind::kFatTree},
       {"fat-tree", TopologyKind::kFatTree}, {"torus", TopologyKind::kTorus3D},
       {"torus3d", TopologyKind::kTorus3D}},
      "use flat, fattree, or torus");
  cfg.net.topo.rails = env_int("DCUDA_RAILS", cfg.net.topo.rails, 1);
  cfg.net.topo.route = env_choice(
      "DCUDA_ROUTE", cfg.net.topo.route,
      {{"ecmp", net::RouteMode::kEcmp}, {"", net::RouteMode::kEcmp},
       {"adaptive", net::RouteMode::kAdaptive}},
      "use ecmp or adaptive");
  // DCUDA_BACKEND=host|device picks the runtime backend (docs/BACKENDS.md).
  using sim::RuntimeBackend;
  cfg.backend = env_choice(
      "DCUDA_BACKEND", cfg.backend,
      {{"host", RuntimeBackend::kHostLoop}, {"host_loop", RuntimeBackend::kHostLoop},
       {"0", RuntimeBackend::kHostLoop}, {"", RuntimeBackend::kHostLoop},
       {"device", RuntimeBackend::kDeviceInitiated},
       {"device_initiated", RuntimeBackend::kDeviceInitiated},
       {"1", RuntimeBackend::kDeviceInitiated}},
      "use host or device");
}

}  // namespace dcuda::bench
