#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

Run from the root of a checkout:

  python3 perfbench/run.py --workload figs --seed 42 --seconds 40 --trace 0
  python3 perfbench/run.py                       # every workload in turn
  python3 perfbench/run.py --trace 1             # per-layer metrics + spans
  python3 perfbench/run.py --out a.jsonl         # also append stamped results
  python3 perfbench/run.py agree a.jsonl b.jsonl # compare two sets of runs
  python3 perfbench/run.py smoke EXE SPEC        # every workload at --smoke size

Each workload runs in its own process of perfbench/main.exe, built here
from source with dune. With one --workload, the last line of stdout is
the result object {"correct", "attempted", "failed", "metrics"}; its
metric names are checked against BENCHMARK.json before it is printed.
"""

import argparse
import io
import json
import os
import signal
import statistics
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def die(msg, code):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def load_spec(path="BENCHMARK.json"):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        die("cannot read BENCHMARK.json: %s" % e, 2)


def check_checkout():
    for path in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(path):
            die("%s not found: run from the root of a full checkout" % path, 2)


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "./perfbench/main.exe"]
    try:
        r = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        die("build failed: %s" % e, 1)
    if r.returncode != 0:
        die("build failed (dune exit %d)" % r.returncode, 1)


def git_sha():
    """The checkout's commit, read from .git without running git."""
    try:
        with open(os.path.join(".git", "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(".git", ref)) as f:
                return f.read().strip()
        except OSError:
            with open(os.path.join(".git", "packed-refs")) as f:
                for line in f:
                    if line.strip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "none"


def run_one(spec, exe, workload, seed, seconds, trace, smoke=False, out=sys.stdout):
    """Run one workload, copying its human-readable lines to [out];
    returns (exit code, axes or None, result or None)."""
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
        code, text = r.returncode, r.stdout
    except subprocess.TimeoutExpired as e:
        print("perfbench: %s timed out after %d s" % (workload, RUN_TIMEOUT_S),
              file=sys.stderr)
        code, text = 1, e.stdout or ""
        if isinstance(text, bytes):
            text = text.decode(errors="replace")
    lines = text.splitlines()
    axes, result = None, None
    if lines and lines[0].startswith("# axes "):
        axes = json.loads(lines[0][len("# axes "):])
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    for line in lines[:-1] if result is not None else lines:
        print(line, file=out)
    if result is None:
        print("perfbench: %s printed no result" % workload, file=sys.stderr)
        return code or 1, axes, None
    wanted = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = set(result.get("metrics", {}))
    if set(result) != {"correct", "attempted", "failed", "metrics"} or got != wanted:
        print("perfbench: %s result does not match BENCHMARK.json: missing %s, extra %s"
              % (workload, sorted(wanted - got), sorted(got - wanted)),
              file=sys.stderr)
        return 1, axes, None
    return code, axes, result


def run(args):
    check_checkout()
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    workloads = names if args.workload == "all" else [args.workload]
    if any(w not in names for w in workloads):
        die("unknown workload %s (one of %s)" % (args.workload, ", ".join(names)), 2)
    build()
    status = 0
    for w in workloads:
        code, axes, result = run_one(spec, EXE, w, args.seed, args.seconds,
                                     args.trace, args.smoke)
        status = status or code or (1 if result is None else 0)
        if args.out:
            # A run that died still leaves a record, so agree counts it.
            axes = dict(axes or {"workload": w, "seed": args.seed},
                        git_sha=git_sha())
            record = {"workload": w, "axes": axes,
                      "result": result or {"correct": False, "metrics": {}}}
            with open(args.out, "a") as f:
                f.write(json.dumps(record) + "\n")
        if result is None:
            continue
        line = json.dumps(result)
        print(line if len(workloads) == 1 else "%s %s" % (w, line), flush=True)
    return status


# ----- agree: two sets of runs, metric by metric, against the bounds -----

def load_runs(path):
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                rec = json.loads(line)
                runs.setdefault(rec["workload"], []).append(rec)
    return runs


def comparable_axes(rec):
    """Axes two runs must share; the commit is what agree compares and
    the seed is matched set against set."""
    return {k: v for k, v in rec["axes"].items() if k not in ("git_sha", "seed")}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def agree(spec, path_a, path_b):
    a, b = load_runs(path_a), load_runs(path_b)
    if any(r["axes"].get("trace") for runs in (a, b) for rs in runs.values()
           for r in rs):
        print("refusing traced runs: agree compares end-to-end (--trace 0) results")
        return 2
    status = 0
    for w in sorted(set(a) & set(b)):
        axes = {json.dumps(comparable_axes(r), sort_keys=True) for r in a[w] + b[w]}
        seeds = [sorted(r["axes"]["seed"] for r in runs) for runs in (a[w], b[w])]
        if len(axes) > 1 or seeds[0] != seeds[1]:
            print("%s: refusing to compare runs whose axes differ:" % w)
            for ax in sorted(axes):
                print("  " + ax)
            print("  seeds %s vs %s" % tuple(seeds))
            return 2
        bad = sum(not r["result"]["correct"] for r in a[w] + b[w])
        if bad:
            print("%s: %d run(s) failed or reported incorrect outputs" % (w, bad))
            status = 1
        shas = (a[w][0]["axes"].get("git_sha"), b[w][0]["axes"].get("git_sha"))
        print("%s: %d vs %d runs, %s vs %s" % (w, len(a[w]), len(b[w]), *shas))
        for m in spec["end_to_end"]:
            name = m["name"]
            va, vb = ([r["result"]["metrics"][name]["value"] for r in runs
                       if name in r["result"]["metrics"]] for runs in (a[w], b[w]))
            if not va or not vb:
                print("  %-12s no value on one side" % name)
                status = 1
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            ok = worse <= m["bound"]
            status = status or (0 if ok else 1)
            (qa1, qa3), (qb1, qb3) = quartiles(va), quartiles(vb)
            print("  %-12s A %.6g [%.6g, %.6g]  B %.6g [%.6g, %.6g]  %+.1f%% worse, "
                  "bound %.0f%%: %s" % (name, ma, qa1, qa3, mb, qb1, qb3, 100 * worse,
                                        100 * m["bound"], "ok" if ok else "WORSE"))
    missing = set(a) ^ set(b)
    if missing:
        print("only in one file: %s" % ", ".join(sorted(missing)))
        status = 1
    return status


# ----- smoke: every workload at --smoke size, run by `dune runtest` -----

def smoke(exe, spec_path):
    """Run every workload untraced and traced at --smoke size; fails on a
    nonzero exit, a failed check or metric names unlike BENCHMARK.json."""
    spec = load_spec(spec_path)
    status = 0
    for w in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            log = io.StringIO()
            code, _, result = run_one(spec, exe, w, 42, 0.1, trace, smoke=True,
                                      out=log)
            if code != 0 or result is None or not result["correct"]:
                sys.stderr.write(log.getvalue())
                print("perfbench smoke: %s --trace %d failed" % (w, trace),
                      file=sys.stderr)
                status = 1
    return status


def main():
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if len(sys.argv) > 1 and sys.argv[1] == "agree":
        if len(sys.argv) != 4:
            die("usage: run.py agree A.jsonl B.jsonl", 2)
        return agree(load_spec(), sys.argv[2], sys.argv[3])
    if len(sys.argv) > 1 and sys.argv[1] == "smoke":
        if len(sys.argv) != 4:
            die("usage: run.py smoke MAIN_EXE BENCHMARK_JSON", 2)
        return smoke(sys.argv[2], sys.argv[3])
    p = argparse.ArgumentParser(description="Build and run the repository benchmark.")
    p.add_argument("--workload", default="all")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes: a quick end-to-end check, goldens skipped")
    p.add_argument("--out", help="append stamped results to this JSON-lines file")
    return run(p.parse_args())


if __name__ == "__main__":
    sys.exit(main())
