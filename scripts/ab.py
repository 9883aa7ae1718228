#!/usr/bin/env python3
"""A/B one benchmark workload between a parent revision and the working tree.

    python3 scripts/ab.py --parent <rev> --workload <name> [--pairs 10] [--seed 1]

(or `make ab PARENT=<rev> WORKLOAD=<name> PAIRS=10 SEED=1`).

The parent revision is exported with `git archive` into a scratch
directory, and each side runs through its own tree's
`benchmark/run.sh --workload <name> --seed <seed> --seconds <s> --trace 0`,
which builds that tree's benchmark binary; <s> is BENCHMARK.json's
run_seconds, as for the benchmark itself. The side that runs first
alternates: the parent in odd pairs, the working tree in even ones.
--pairs must be even, so each side runs first equally often: the
second run of a pair can read slower on a busy host, and an odd count
would put that against one side.

For every end-to-end metric in BENCHMARK.json (read, never written) it
prints both medians, the parent's interquartile range, the change in
the median, and in how many pairs the working tree read better. It
exits 2 when a median is worse than the metric's bound, when the working
tree fails a larger share of operations, or when a run reports an
incorrect result; 1 on a usage or build error (an odd or non-positive
--pairs among them); 0 otherwise.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile


def quantile(xs, q):
    """Linear interpolation between order statistics (as benchmark/stats.go)."""
    s = sorted(xs)
    pos = q * (len(s) - 1)
    lo, hi = int(pos), min(int(pos) + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def worse_by(better, a, b):
    """How much worse b is than a as a share of a; positive is a regression."""
    if a == 0:
        return 0.0 if b == 0 else 1.0
    rel = (b - a) / a
    return -rel if better == "higher" else rel


def run_side(tree, args):
    """One timed run of the workload in tree; returns its result object."""
    cmd = ["bash", os.path.join(tree, "benchmark", "run.sh"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr[-4000:])
        sys.exit(f"ab: {' '.join(cmd)} exited {out.returncode}")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision to compare against")
    ap.add_argument("--workload", required=True, help="BENCHMARK.json workload name")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--dir", default=None,
                    help="scratch directory for the parent tree, kept to reuse its build cache "
                         "(default: a temporary directory, removed afterwards)")
    args = ap.parse_args()
    if args.pairs < 2 or args.pairs % 2:
        sys.exit(f"ab: --pairs {args.pairs}: must be even and positive, so each side runs first equally often")

    root = subprocess.run(["git", "rev-parse", "--show-toplevel"], check=True,
                          stdout=subprocess.PIPE, text=True).stdout.strip()
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    if args.workload not in {w["name"] for w in manifest["workloads"]}:
        sys.exit(f"ab: unknown workload {args.workload!r}")
    args.seconds = manifest["run_seconds"]
    sha = subprocess.run(["git", "-C", root, "rev-parse", "--short", args.parent + "^{commit}"],
                         check=True, stdout=subprocess.PIPE, text=True).stdout.strip()

    work = args.dir or tempfile.mkdtemp(prefix="april-ab-")
    parent = os.path.join(work, "parent-" + sha)
    try:
        if not os.path.isdir(parent):
            os.makedirs(parent)
            archive = subprocess.Popen(["git", "-C", root, "archive", sha], stdout=subprocess.PIPE)
            subprocess.run(["tar", "-x", "-C", parent], stdin=archive.stdout, check=True)
            if archive.wait() != 0:
                sys.exit(f"ab: git archive {sha} failed")
        sides = {"parent": parent, "change": root}
        runs = {"parent": [], "change": []}
        print(f"ab: {args.workload}, seed {args.seed}, {args.pairs} pairs, "
              f"{args.seconds} s per run: parent {args.parent} ({sha}) vs working tree",
              flush=True)
        for i in range(args.pairs):
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            for side in order:
                runs[side].append(run_side(sides[side], args))
            p, c = (runs[s][-1]["metrics"]["run_s"]["value"] for s in ("parent", "change"))
            print(f"pair {i + 1:2d} ({order[0]} first): run_s parent {p:.6g} change {c:.6g}", flush=True)
    finally:
        if args.dir is None:
            shutil.rmtree(work, ignore_errors=True)

    breaches = []
    for side, rs in runs.items():
        if not all(r["correct"] for r in rs):
            breaches.append(f"{side}: a run reported an incorrect result")
    share = {s: sum(r["failed"] for r in rs) / max(1, sum(r["attempted"] for r in rs))
             for s, rs in runs.items()}
    if share["change"] > share["parent"]:
        breaches.append(f"failed share {share['parent']:.4f} -> {share['change']:.4f}")

    print(f"\n{'metric':<18} {'parent':>12} {'parent q1':>12} {'parent q3':>12} {'change':>12} "
          f"{'median':>8} {'wins':>6} {'bound':>6}")
    for m in manifest["end_to_end"]:
        name, better = m["name"], m["better"]
        pv = [r["metrics"][name]["value"] for r in runs["parent"]]
        cv = [r["metrics"][name]["value"] for r in runs["change"]]
        pm, cm = quantile(pv, 0.5), quantile(cv, 0.5)
        wins = sum(worse_by(better, p, c) < 0 for p, c in zip(pv, cv))
        rel = worse_by(better, pm, cm)
        signed = (cm - pm) / pm if pm else 0.0
        flag = ""
        if rel > m["bound"]:
            flag = "  BREACH"
            breaches.append(f"{name} worse by {100 * rel:.1f}% (bound {100 * m['bound']:.0f}%)")
        print(f"{name:<18} {pm:>12.6g} {quantile(pv, 0.25):>12.6g} {quantile(pv, 0.75):>12.6g} "
              f"{cm:>12.6g} {100 * signed:>+7.1f}% {wins:>3d}/{len(pv):<2d} {100 * m['bound']:>5.0f}%{flag}")
    if breaches:
        print("\nab: " + "; ".join(breaches))
        return 2
    print("\nab: every end-to-end metric within its bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
