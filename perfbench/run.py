#!/usr/bin/env python3
"""Build the Retreet benchmark from source and run it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check [--seed N] [--seconds S]

The first form builds perfbench/main.exe with dune (into _build/ inside
the checkout, with dune's shared cache off) and runs one workload.  The
last line of standard output is the JSON result; build output goes to
standard error.  The exit code is non-zero when the build fails, when an
operation failed, or when the metrics printed are not exactly the ones
BENCHMARK.json declares.

--self-check runs every workload twice with the same seed and prints
every end-to-end metric of both runs with its unit, and the operations
attempted and failed.  It fails if a run fails or if a counter that must
repeat exactly differs between the two runs, which would mean hidden
nondeterminism (hash order, a wall-clock budget).  It then makes one
traced run and prints each Table 1 query's warm time to verdict with its
quartiles.
"""

import argparse
import ctypes
import json
import os
import subprocess
import sys

WORKLOADS = ["table1-cold", "table1-warm", "corpus-batch", "serve-repeat"]
EXE = os.path.join("_build", "default", "perfbench", "main.exe")

# Counters that must read the same on every run of the same seed.  On
# serve-repeat the client's and the worker domain's allocations interleave
# differently from run to run, so the words promoted to the major heap
# (part of major_mwords) move by a fraction of a percent; README.md has
# the figures.
EXACT = ["alloc_mwords", "major_mwords", "solver_steps", "bdd_nodes", "decided_ratio"]
SERVE_TOLERANCE = {"major_mwords": 0.02}


def build():
    env = dict(os.environ)
    env["DUNE_CACHE"] = "disabled"
    env["XDG_CACHE_HOME"] = os.path.abspath(os.path.join("_build", ".cache"))
    cmd = ["dune", "build", "--root", ".", "--cache=disabled",
           "--display=quiet", "./perfbench/main.exe"]
    try:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env)
    except OSError as e:
        print(f"cannot run dune: {e}", file=sys.stderr)
        return False
    return r.returncode == 0 and os.path.isfile(EXE)


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, or None."""
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return None
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


ADDR_NO_RANDOMIZE = 0x0040000


def fixed_layout():
    """Turn address-space layout randomisation off for the programs this
    process executes from now on, and say whether it is off.  The
    solver's hash tables see code addresses, so with randomisation on the
    same run allocates a few thousand words more or less from one run to
    the next; with it off the counters repeat exactly.  Where the call is
    refused the run goes ahead as is, with a warning on standard error."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        current = libc.personality(0xFFFFFFFF)
        if current != -1:
            libc.personality(current | ADDR_NO_RANDOMIZE)
        off = libc.personality(0xFFFFFFFF)
        ok = off != -1 and off & ADDR_NO_RANDOMIZE != 0
    except (OSError, AttributeError):
        ok = False
    if not ok:
        print("warning: address-space layout randomisation could not be "
              "turned off; the word counters may differ between runs by a "
              "few thousand words", file=sys.stderr)
    return ok


def run(workload, seed, seconds, trace):
    """Run one workload; returns (exit code, stdout text)."""
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    return p.returncode, p.stdout


def result_of(out):
    lines = out.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


def check_names(result, trace):
    declared = declared_metrics(trace)
    if declared is None:
        return True
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    if printed == declared:
        return True
    missing = sorted(set(declared) - set(printed))
    extra = sorted(set(printed) - set(declared))
    print(f"metrics differ from BENCHMARK.json: missing {missing}, "
          f"undeclared {extra}, or units differ", file=sys.stderr)
    return False


def self_check(seed, seconds, layout_fixed):
    print("address-space layout randomisation: "
          + ("off" if layout_fixed else "ON, so exact repeats are not expected"))
    ok = True
    for w in WORKLOADS:
        runs = []
        for _ in range(2):
            code, out = run(w, seed, seconds, 0)
            res = result_of(out)
            if code != 0 or res is None:
                print(f"{w}: run failed (exit {code})")
                return False
            runs.append(res)
        print(f"{w}: attempted {runs[0]['attempted']}, failed {runs[0]['failed']}"
              f" / attempted {runs[1]['attempted']}, failed {runs[1]['failed']}")
        for m, first in runs[0]["metrics"].items():
            a, b = first["value"], runs[1]["metrics"][m]["value"]
            verdict = ""
            if m in EXACT:
                tol = SERVE_TOLERANCE.get(m, 0.0) if w == "serve-repeat" else 0.0
                same = abs(a - b) <= tol * max(abs(a), abs(b))
                verdict = "same" if same else "DIFFERS"
                ok = ok and same
            print(f"  {m:14} {first['unit']:7} {a!r:>22} {b!r:>22} {verdict}")
    code, out = run(WORKLOADS[0], seed, seconds, 1)
    res = result_of(out)
    if code != 0 or res is None:
        print(f"traced run failed (exit {code})")
        return False
    met = res["metrics"]
    print("warm time to verdict in the traced run (s): p25 / median / p75")
    for q in ["E1", "E2", "E3", "E4", "E5", "E7"]:
        p25, p50, p75 = (met[f"trace.{q}.{k}"]["value"]
                         for k in ("wall_p25_s", "wall_s", "wall_p75_s"))
        spread = (p75 - p25) / p50 if p50 else 0.0
        print(f"  {q}  {p25:.4f} / {p50:.4f} / {p75:.4f}  (IQR {spread:.1%} of median)")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    if not args.self_check and args.workload is None:
        ap.error("--workload or --self-check is required")
    if not build():
        print("build failed", file=sys.stderr)
        return 2
    layout_fixed = fixed_layout()
    if args.self_check:
        return 0 if self_check(args.seed, args.seconds, layout_fixed) else 1
    code, out = run(args.workload, args.seed, args.seconds, args.trace)
    res = result_of(out)
    if res is None:
        print("no result printed", file=sys.stderr)
        return code or 1
    if not check_names(res, args.trace):
        return 3
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
