#!/usr/bin/env python3
"""Self-check of the benchmark, at tiny sizes:

    python3 perfbench/smoke.py

For every workload it checks that
  * every metric named in BENCHMARK.json is reported, with its unit, in the
    untraced and the traced JSON line, and no other metric is;
  * the outputs validate (no failed op) at the default and held-out seeds;
  * every sim-clock value is byte-identical across two runs, and between
    one and two engine worker threads.
Exits 0 when all hold, 1 otherwise.
"""

import argparse
import contextlib
import io
import json
import sys

import run as bench


def run_tiny(workload, seed, trace=False, threads=0):
    args = argparse.Namespace(workload=workload, seed=seed, seconds=0.0, trace=trace,
                              tiny=True, threads=threads)
    with contextlib.redirect_stdout(io.StringIO()):
        return bench.run_one(workload, args)


def sim_values(r):
    """Every value of the first repetition that the simulated run alone fixes."""
    out = {}
    for phase, rec in r.reps[0][1].items():
        for k, v in rec["values"].items():
            if k not in bench.HOST_KEYS and not k.startswith("trace."):
                out[f"{phase}/{k}"] = json.dumps(v)
    return out


def check(failures, cond, what):
    if not cond:
        failures.append(what)
        print(f"FAIL {what}")


def main():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    want_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    want_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    failures = []
    check(failures, [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS),
          "BENCHMARK.json workloads match run.py")
    check(failures, want_e2e == {k: v[0] for k, v in bench.E2E.items()},
          "BENCHMARK.json end_to_end matches run.py")
    check(failures, want_layer == {k: v[0] for k, v in bench.PER_LAYER.items()},
          "BENCHMARK.json per_layer matches run.py")
    bench.build()
    for w in bench.WORKLOADS:
        print(f"== {w}", flush=True)
        for trace, want in ((False, want_e2e), (True, want_layer)):
            r, res = run_tiny(w, bench.DEFAULT_SEED, trace=trace)
            got = {k: m["unit"] for k, m in res["metrics"].items()}
            check(failures, got == want, f"{w} trace={int(trace)}: metric names and units")
            check(failures, res["correct"] and res["failed"] == 0 and res["attempted"] > 0,
                  f"{w} trace={int(trace)}: outputs validate ({res['failed']} failed, "
                  f"{r.problems})")
        base, _ = run_tiny(w, bench.DEFAULT_SEED, threads=1)
        again, _ = run_tiny(w, bench.DEFAULT_SEED, threads=1)
        two, _ = run_tiny(w, bench.DEFAULT_SEED, threads=2)
        check(failures, sim_values(base) == sim_values(again),
              f"{w}: sim-clock values identical across two runs")
        diff = sorted(k for k, v in sim_values(base).items() if sim_values(two).get(k) != v)
        check(failures, not diff, f"{w}: sim-clock values identical at 1 and 2 threads {diff}")
        held, res = run_tiny(w, bench.HELDOUT_SEED)
        check(failures, res["correct"] and res["failed"] == 0,
              f"{w}: held-out seed {bench.HELDOUT_SEED} validates ({held.problems})")
    print("smoke: " + ("OK" if not failures else f"{len(failures)} failure(s)"))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
