#!/usr/bin/env python3
"""The repository benchmark: two workloads of the dCUDA simulator, measured
on two clocks. See README.md in this directory for the metric table.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all          # every workload, one report

Builds the `perfbench` executable from source into .bench_build/, then runs each
phase of the workload in a fresh process: one warm-up repetition, then
repetitions until --seconds have passed, and reports medians over those. The
last line of stdout is one JSON object: {"correct", "attempted", "failed",
"metrics"}. With --trace 0 the metrics are
the end-to-end ones; with --trace 1 the per-layer ones, from a run that also
enables the cluster's tracer. Everything else goes to the lines before it, to
stderr, and to .bench_out/.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
OUT = ROOT / ".bench_out"
BINARY = BUILD / "perfbench"

DEFAULT_SEED = 1
HELDOUT_SEED = 9001  # never used while tuning; exercised by smoke.py

# Relative tolerance of a stencil checksum against reference_checksum. The
# parallel sum order differs from the serial one, and the difference grows
# with the grid (4.4e-14 relative, about 1e-6 absolute, at 1024 nodes).
CHECKSUM_RTOL = 1e-9

# name: (unit, clock, better). End-to-end metrics every workload reports;
# these are the ones BENCHMARK.json gates.
E2E = {
    "wall_s": ("s", "host", "lower"),
    "setup_s": ("s", "host", "lower"),
    "peak_rss_mb": ("MB", "host", "lower"),
}

# Sim-clock end-to-end metrics: deterministic and specific to one or two
# workloads. Printed in every report; in the JSON line with --trace 1.
SIM_E2E = {
    "sim_ms_per_iter": ("ms", "sim", "lower"),
    "rma_local_lat_us_p50": ("us", "sim", "lower"),
    "rma_local_lat_us_p99": ("us", "sim", "lower"),
    "rma_remote_lat_us_p50": ("us", "sim", "lower"),
    "rma_remote_lat_us_p99": ("us", "sim", "lower"),
    "rma_gbs": ("GB/s", "sim", "higher"),
}

# Per-layer metrics, by layer (module of src/).
LAYERS = {
    "sim": {
        "sim.events": ("count", "sim", "lower"),
        "sim.events_per_s": ("1/s", "host", "higher"),
        "sim.pool_slots": ("count", "sim", "lower"),
        "sim.pool_growths": ("count", "sim", "lower"),
        "sim.heap_fallbacks": ("count", "sim", "lower"),
    },
    "cluster": {
        "cluster.construct_s": ("s", "host", "lower"),
        "cluster.makespan_ms": ("ms", "sim", "lower"),
    },
    "apps": {
        "apps.dcuda_s": ("s", "host", "lower"),
        "apps.reference_s": ("s", "host", "lower"),
        "apps.sim_overhead_x": ("x", "host", "lower"),
    },
    "baseline": {
        "baseline.mpi_cuda_s": ("s", "host", "lower"),
        "baseline.ms_per_iter": ("ms", "sim", "lower"),
        "baseline.halo_ms_per_iter": ("ms", "sim", "lower"),
        "baseline.dcuda_speedup": ("x", "sim", "higher"),
    },
    "gpu": {
        "gpu.compute_ms": ("ms", "sim", "lower"),
        "gpu.memory_ms": ("ms", "sim", "lower"),
    },
    "dcuda": {
        "dcuda.overlap_ratio": ("fraction", "sim", "higher"),
        "dcuda.wait_ms": ("ms", "sim", "lower"),
        "dcuda.wait_us_p50": ("us", "sim", "lower"),
        "dcuda.wait_us_p99": ("us", "sim", "lower"),
        "dcuda.put_issue_us_p50": ("us", "sim", "lower"),
        "dcuda.put_issue_us_p99": ("us", "sim", "lower"),
        "dcuda.get_lat_us_p50": ("us", "sim", "lower"),
        "dcuda.match_rounds": ("count", "sim", "lower"),
        "dcuda.match_hit_ratio": ("fraction", "sim", "higher"),
    },
    "queue": {
        "queue.stall_ms": ("ms", "sim", "lower"),
    },
    "pcie": {
        "pcie.transactions": ("count", "sim", "lower"),
        "pcie.busy_ms": ("ms", "sim", "lower"),
    },
    "runtime": {
        "runtime.notifications": ("count", "sim", "lower"),
        "runtime.notify_ms": ("ms", "sim", "lower"),
        "runtime.device_lat_us_p50": ("us", "sim", "lower"),
        "runtime.device_lat_us_p99": ("us", "sim", "lower"),
    },
    "net": {
        "net.messages": ("count", "sim", "lower"),
        "net.bytes": ("B", "sim", "lower"),
        "net.busy_ms": ("ms", "sim", "lower"),
    },
    "trace": {
        "trace.overhead_frac": ("fraction", "host", "lower"),
        "trace.spans": ("count", "sim", "lower"),
        "trace.summarize_s": ("s", "host", "lower"),
        "trace.export_s": ("s", "host", "lower"),
    },
}
PER_LAYER = {name: spec for layer in LAYERS.values() for name, spec in layer.items()}
PER_LAYER.update(SIM_E2E)

# Per workload: the phases of one repetition (the first is the dCUDA run
# whose tracer gives the layer totals), whether the stencil reference
# validates it, and the workload's sim-clock end-to-end metrics.
WORKLOADS = {
    "stencil_paper": {
        "phases": ["dcuda", "mpi"],
        "reference": True,
        "sim_e2e": ["sim_ms_per_iter"],
    },
    "rma_pingpong": {
        "phases": ["run"],
        "reference": False,
        "sim_e2e": ["rma_local_lat_us_p50", "rma_local_lat_us_p99",
                    "rma_remote_lat_us_p50", "rma_remote_lat_us_p99", "rma_gbs"],
    },
}

# Values a phase reports that depend on the host or the engine layout. Every
# other value is fixed by the simulated run alone and must repeat exactly
# across repetitions (and engine thread counts, smoke.py).
HOST_KEYS = {"setup_s", "wall_s", "peak_rss_mb", "apps.reference_s", "cluster.construct_s",
             "trace.summarize_s", "trace.export_s", "threads"}


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the executable; build output goes to stderr."""
    if not (BUILD / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            raise BenchError("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                      stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        raise BenchError("build failed")


def run_phase(workload, phase, args, trace=False, device_backend=False, spans=None):
    cmd = [str(BINARY), "--workload", workload, "--phase", phase, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    if args.threads:
        cmd += ["--threads", str(args.threads)]
    if trace:
        cmd.append("--trace")
    if device_backend:
        cmd.append("--device-backend")
    if spans:
        cmd += ["--spans", str(spans)]
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                       timeout=150)
    if p.returncode != 0:
        raise BenchError(f"{workload}/{phase} exited {p.returncode}: {p.stderr.strip()}")
    if p.stderr.strip():
        log(p.stderr.strip())
    lines = p.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload}/{phase} printed no result")
    return json.loads(lines[-1])


def self_times(spans):
    """Self time of each span: its duration minus the union of its children."""
    children = {}
    for s in spans:
        if s["parent"] >= 0:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = []
    for s in spans:
        covered, reach = 0.0, s["start"]
        for a, b in sorted(children.get(s["id"], [])):
            a, b = max(a, reach), min(b, s["end"])
            if b > a:
                covered += b - a
                reach = b
        out.append((s, s["end"] - s["start"] - covered))
    return out


def layer_self_time(span_files):
    """Self time per (clock, layer) of the last traced repetition. A span's
    layer is its name up to the first '.'; a rank span (one rank's whole
    program) is dcuda."""
    totals = {}
    for f in span_files:
        for s, self_t in self_times(json.loads(f.read_text())):
            layer = s["name"].split(".")[0]
            layer = "dcuda" if layer == "rank" else layer
            key = (s["clock"], layer)
            totals[key] = totals.get(key, 0.0) + self_t
    return totals


def median(xs):
    return statistics.median(xs) if xs else 0.0


class Run:
    """One workload at one seed: repetitions, validation and aggregation."""

    def __init__(self, workload, args):
        self.w = workload
        self.spec = WORKLOADS[workload]
        self.args = args
        self.reps = []        # [(traced, {phase: record})]
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.reference = None
        self.span_files = {}  # phase -> span file of the last traced repetition

    def validate(self, phase, rec):
        v = rec["values"]
        if self.spec["reference"]:
            ref = self.reference["values"]["checksum"]
            self.attempted += 1
            if abs(v["checksum"] - ref) > CHECKSUM_RTOL * abs(ref):
                self.failed += 1
                self.problems.append(f"{phase} checksum {v['checksum']!r} != reference {ref!r}")
        else:
            self.attempted += int(v["attempted"])
            self.failed += int(v["failed"])
            if v["failed"]:
                self.problems.append(f"{phase}: {int(v['failed'])} of {int(v['attempted'])} failed")

    def rep(self, traced):
        recs = {}
        for phase in self.spec["phases"]:
            spans = None
            if traced:
                spans = self.span_files[phase] = OUT / f"{self.w}-{phase}.spans.tmp.json"
            recs[phase] = run_phase(self.w, phase, self.args, trace=traced, spans=spans)
            self.validate(phase, recs[phase])
        self.reps.append((traced, recs))

    def execute(self):
        OUT.mkdir(exist_ok=True)
        if self.spec["reference"]:
            self.reference = run_phase(self.w, "reference", self.args)
        # Warm-up: validated, then dropped, so the page cache holds the
        # executable and the first timed repetition starts like the rest.
        self.rep(traced=False)
        self.reps.clear()
        deadline = time.monotonic() + self.args.seconds
        trace = self.args.trace
        # Untraced repetitions give every host-clock number; with --trace 1
        # traced ones alternate with them for the tracer's layer totals and
        # the tracing overhead.
        while True:
            n = len(self.reps)
            self.rep(traced=trace and n % 2 == 1)
            enough = n + 1 >= (2 if trace else 1)
            if enough and time.monotonic() >= deadline:
                break
        self.extras = {}
        if trace and self.w == "stencil_paper":
            self.extras["halo"] = run_phase(self.w, "halo", self.args)
        if trace and self.w == "rma_pingpong":
            # Latencies come from the benchmark's own sim timestamps, so the
            # rerun needs no tracer.
            self.extras["device"] = run_phase(self.w, "run", self.args, device_backend=True)
            self.validate("device run", self.extras["device"])
        self.check_deterministic()

    def check_deterministic(self):
        for phase in self.spec["phases"]:
            first = self.reps[0][1][phase]["values"]
            for _, recs in self.reps[1:]:
                v = recs[phase]["values"]
                diff = sorted(k for k in v.keys() & first.keys()
                              if k not in HOST_KEYS and not k.startswith("trace.")
                              and v[k] != first[k])
                if diff:
                    self.problems.append(f"{phase}: sim-clock values differ between runs: {diff}")
                    return

    # -- aggregation -------------------------------------------------------

    def untraced(self, phase, key):
        return [r[phase]["values"][key] for t, r in self.reps if not t]

    def traced(self, phase, key):
        return [r[phase]["values"][key] for t, r in self.reps if t]

    def rep_sum(self, key, traced=False):
        return [sum(r[p]["values"].get(key, 0.0) for p in self.spec["phases"])
                for t, r in self.reps if t == traced]

    def first(self, phase, key, traced=False):
        for t, r in self.reps:
            if t == traced:
                return r[phase]["values"].get(key, 0.0)
        return 0.0

    def e2e(self):
        return {
            "wall_s": median(self.rep_sum("wall_s")),
            "setup_s": median(self.rep_sum("setup_s")),
            "peak_rss_mb": median(self.rep_sum("peak_rss_mb")),
        }

    def sim_e2e(self):
        main = self.spec["phases"][0]
        return {k: self.first(main, k) for k in self.spec["sim_e2e"]}

    def per_layer(self):
        main = self.spec["phases"][0]
        m = {name: 0.0 for name in PER_LAYER}
        m.update(self.sim_e2e())
        for key in ("sim.events", "sim.pool_slots", "sim.pool_growths", "sim.heap_fallbacks",
                    "cluster.makespan_ms", "dcuda.get_lat_us_p50"):
            m[key] = self.first(main, key)
        main_wall = median(self.untraced(main, "wall_s"))
        m["sim.events_per_s"] = m["sim.events"] / main_wall if main_wall else 0.0
        m["cluster.construct_s"] = median(self.rep_sum("cluster.construct_s"))
        if self.w == "stencil_paper":
            m["apps.dcuda_s"] = main_wall
            m["apps.reference_s"] = self.reference["values"]["apps.reference_s"]
            m["apps.sim_overhead_x"] = main_wall / m["apps.reference_s"]
            m["baseline.mpi_cuda_s"] = median(self.untraced("mpi", "wall_s"))
            m["baseline.ms_per_iter"] = self.first("mpi", "sim_ms_per_iter")
            m["baseline.halo_ms_per_iter"] = self.extras["halo"]["values"]["sim_ms_per_iter"]
            m["baseline.dcuda_speedup"] = m["baseline.ms_per_iter"] / m["sim_ms_per_iter"]
        if self.w == "rma_pingpong":
            dev = self.extras["device"]["values"]
            m["runtime.device_lat_us_p50"] = dev["rma_local_lat_us_p50"]
            m["runtime.device_lat_us_p99"] = dev["rma_local_lat_us_p99"]
        for layer in LAYERS_FROM_TRACER:
            for key in LAYERS[layer]:
                if key not in ("runtime.device_lat_us_p50", "runtime.device_lat_us_p99",
                               "dcuda.get_lat_us_p50"):
                    m[key] = self.first(main, key, traced=True)
        m["trace.spans"] = self.first(main, "trace.spans", traced=True)
        m["trace.summarize_s"] = median(self.traced(main, "trace.summarize_s"))
        m["trace.export_s"] = median(self.traced(main, "trace.export_s"))
        plain = median(self.rep_sum("wall_s"))
        m["trace.overhead_frac"] = median(self.rep_sum("wall_s", traced=True)) / plain - 1.0
        return m

    def spans_file(self):
        """Merges the last traced repetition's span files into one."""
        merged = [{"phase": phase, "spans": json.loads(f.read_text())}
                  for phase, f in self.span_files.items()]
        path = OUT / f"{self.w}.spans.json"
        path.write_text(json.dumps(merged))
        return path


# Layers whose totals come from the tracer of a traced run.
LAYERS_FROM_TRACER = ("gpu", "dcuda", "queue", "pcie", "runtime", "net")


def host_context(run):
    rec = run.reps[0][1][run.spec["phases"][0]]
    sha = "unknown"
    try:
        p = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        if p.returncode == 0:
            sha = p.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "nproc": os.cpu_count(),
        "build_type": rec["notes"]["build_type"],
        "compiler": rec["notes"]["compiler"],
        "git_sha": sha,
        "engine_threads": int(rec["values"].get("threads", 1)),
    }


def fmt(v):
    return f"{v:.6g}"


def report(run, e2e, sim_e2e, layers, context):
    """Human-readable report: every metric with unit and clock."""
    w = run.w
    print(f"# workload {w}  seed {run.args.seed}  reps {len(run.reps)}  "
          + "  ".join(f"{k}={v}" for k, v in context.items()))
    frac = run.failed / run.attempted if run.attempted else 0.0
    print(f"ops_failed_frac  {fmt(frac)}  ({run.failed} of {run.attempted} ops)  clock=-  lower")
    for name, v in e2e.items():
        unit, clock, better = E2E[name]
        print(f"{name}  {fmt(v)} {unit}  clock={clock}  {better}")
    main = run.spec["phases"][0]
    for name in SIM_E2E:
        unit, clock, better = SIM_E2E[name]
        if name in sim_e2e:
            n = count_of(run, main, name)
            print(f"{name}  {fmt(sim_e2e[name])} {unit}  clock={clock}  {better}{n}")
        else:
            print(f"{name}  n/a  (not measured by {w})")
    if layers is not None:
        for layer, names in LAYERS.items():
            for name in names:
                unit, clock, better = PER_LAYER[name]
                n = count_of(run, main, name, traced=True)
                print(f"  {name}  {fmt(layers[name])} {unit}  clock={clock}  {better}{n}")
    for p in run.problems:
        print(f"PROBLEM: {p}")


def count_of(run, phase, name, traced=False):
    """' (n=...)' for a percentile metric, from the phase's sample count."""
    for suffix in ("_p50", "_p95", "_p99"):
        if name.endswith(suffix):
            n = run.first(phase, name[: -len(suffix)] + ".n", traced=traced)
            if name.startswith("runtime.device_lat_us") and "device" in run.extras:
                n = run.extras["device"]["values"]["rma_local_lat_us.n"]
            return f"  (n={int(n)})"
    return ""


def run_one(workload, args):
    run = Run(workload, args)
    run.execute()
    e2e = run.e2e()
    sim_e2e = run.sim_e2e()
    layers = run.per_layer() if args.trace else None
    context = host_context(run)
    report(run, e2e, sim_e2e, layers, context)
    if args.trace:
        log(f"spans written to {run.spans_file()}")
        totals = layer_self_time(run.span_files.values())
        for (clock, layer), t in sorted(totals.items()):
            print(f"  self time  clock={clock}  {layer}  {fmt(t)} s")
        for f in run.span_files.values():
            f.unlink()
    metrics = layers if args.trace else e2e
    units = PER_LAYER if args.trace else E2E
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k][0]} for k in units},
    }
    record = {"workload": workload, "seed": args.seed, "trace": args.trace, "tiny": args.tiny,
              "context": context, "result": result, "sim_e2e": sim_e2e,
              "problems": run.problems,
              "reps": [{"traced": t, "phases": r} for t, r in run.reps]}
    name = f"{workload}-seed{args.seed}-trace{int(args.trace)}{'-tiny' if args.tiny else ''}"
    (OUT / f"{name}.json").write_text(json.dumps(record, indent=1))
    return run, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--tiny", action="store_true", help="smoke-check sizes")
    ap.add_argument("--threads", type=int, default=0,
                    help="engine worker threads (default: each workload's own)")
    args = ap.parse_args()
    args.trace = bool(args.trace)

    env = sorted(k for k in os.environ if k.startswith("DCUDA_"))
    if env:
        log(f"error: refusing to run with {', '.join(env)} set; the workloads pin "
            "their machine in code")
        return 2
    try:
        build()
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = [run_one(w, args)[1] for w in names]
    except (BenchError, subprocess.SubprocessError, OSError, KeyError, ValueError,
            ZeroDivisionError) as e:
        log(f"error: {e}")
        return 1
    print(json.dumps(results[-1]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
