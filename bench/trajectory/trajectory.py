#!/usr/bin/env python3
"""Record and compare the committed end-to-end performance trajectory.

Usage, from the repository root:

    python3 bench/trajectory/trajectory.py record
    python3 bench/trajectory/trajectory.py compare A B [--model-change W]...

record runs `perfbench/run.py --trace 0` for every workload that
BENCHMARK.json lists, over seeds 1-5 at 3 s each, and appends one row to
bench/trajectory/rows.jsonl: per workload and end-to-end metric the
median, min and max over the seeds, the ops attempted and failed, plus
nproc and the commit. A tree with uncommitted changes outside
bench/trajectory/ is recorded as "<HEAD>+".

compare looks up the rows labelled A and B (a label or a unique prefix
of one) and prints every metric side by side. It exits 1 when any sim_*
value differs, since those are a pure function of the seed. A change
that alters the simulated model on purpose names each workload it
affects with --model-change: there, sim_* differences print as
declared, and exit 1 only when a median moves the wrong way by more
than its BENCHMARK.json bound; every other workload keeps the identity
check. It warns,
without failing, when a wall-clock median moves the wrong way by more
than its BENCHMARK.json bound or a larger share of ops fails; wall
metrics depend on the host and its load, so one row pair cannot decide
a regression.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
ROWS = os.path.join(HERE, "rows.jsonl")
SEEDS = (1, 2, 3, 4, 5)
SECONDS = 3


def fail(message, code=2):
    print(f"trajectory: {message}", file=sys.stderr)
    sys.exit(code)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, text=True,
                          stdout=subprocess.PIPE).stdout.strip()


def commit_label():
    head = git("rev-parse", "--short=7", "HEAD")
    dirty = git("status", "--porcelain", "--", ".", ":!bench/trajectory")
    return head + "+" if dirty else head


def run_once(workload, seed):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, text=True, stdout=subprocess.PIPE)
    if done.returncode != 0:
        fail(f"{workload} seed {seed} exited {done.returncode}", 1)
    return json.loads(done.stdout.strip().splitlines()[-1])


def record():
    bench = spec()
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = [m["name"] for m in bench["end_to_end"]]
    label = commit_label()
    runs = {w: [] for w in workloads}
    for seed in SEEDS:  # seed-major, so host drift spreads over workloads
        for w in workloads:
            print(f"trajectory: {label} {w} seed {seed}", file=sys.stderr)
            runs[w].append(run_once(w, seed))
    row = {"commit": label, "nproc": os.cpu_count(), "seeds": list(SEEDS),
           "seconds": SECONDS, "workloads": {}}
    for w in workloads:
        entry = {"attempted": sum(r["attempted"] for r in runs[w]),
                 "failed": sum(r["failed"] for r in runs[w])}
        for m in metrics:
            values = [r["metrics"][m]["value"] for r in runs[w]]
            entry[m] = {"median": statistics.median(values),
                        "min": min(values), "max": max(values)}
        row["workloads"][w] = entry
    with open(ROWS, "a", encoding="utf-8") as f:
        f.write(json.dumps(row, sort_keys=True) + "\n")
    print(f"trajectory: appended {label} to {os.path.relpath(ROWS, ROOT)}")


def find_row(rows, label):
    exact = [r for r in rows if r["commit"] == label]
    found = exact or [r for r in rows if r["commit"].startswith(label)]
    if len(found) != 1:
        fail(f"{len(found)} rows match {label!r}")
    return found[0]


def compare(label_a, label_b, declared):
    if not os.path.isfile(ROWS):
        fail(f"no {os.path.relpath(ROWS, ROOT)}; run record first")
    with open(ROWS, encoding="utf-8") as f:
        rows = [json.loads(line) for line in f if line.strip()]
    a, b = find_row(rows, label_a), find_row(rows, label_b)
    bench = spec()
    unknown = set(declared) - {w["name"] for w in bench["workloads"]}
    if unknown:
        fail(f"--model-change names no workload: {', '.join(sorted(unknown))}")
    metrics = bench["end_to_end"]
    sim_diffs = 0
    declared_diffs = 0
    past_bound = 0
    print(f"{'workload':<12} {'metric':<18} {a['commit']:>12} "
          f"{b['commit']:>12} {'change':>8}")
    for w in sorted(set(a["workloads"]) & set(b["workloads"])):
        wa, wb = a["workloads"][w], b["workloads"][w]
        for m in metrics:
            name = m["name"]
            if name not in wa or name not in wb:
                continue
            va, vb = wa[name]["median"], wb[name]["median"]
            change = (vb - va) / va if va else 0.0
            worse = change if m["better"] == "lower" else -change
            note = ""
            if name.startswith("sim_"):
                if wa[name] == wb[name]:
                    pass
                elif w not in declared:
                    sim_diffs += 1
                    note = "  SIM DIFF"
                elif worse > m["bound"]:
                    past_bound += 1
                    note = f"  declared, worse than the {m['bound']:.0%} bound"
                else:
                    declared_diffs += 1
                    note = "  declared"
            elif worse > m["bound"]:
                note = f"  warn: worse than the {m['bound']:.0%} bound"
            print(f"{w:<12} {name:<18} {va:>12.4g} {vb:>12.4g} "
                  f"{change:>+8.1%}{note}")
        share_a = wa["failed"] / max(1, wa["attempted"])
        share_b = wb["failed"] / max(1, wb["attempted"])
        if share_b > share_a:
            print(f"{w:<12} warn: failed share {share_a:.3%} -> {share_b:.3%}")
    if sim_diffs:
        print(f"trajectory: {sim_diffs} undeclared sim_* value(s) differ")
    if past_bound:
        print(f"trajectory: {past_bound} declared sim_* change(s) past "
              "their bound")
    if sim_diffs or past_bound:
        sys.exit(1)
    if declared_diffs:
        print(f"trajectory: {declared_diffs} declared sim_* change(s) within "
              "their bounds; every other sim_* value is identical")
    else:
        print("trajectory: every sim_* value is identical")


def main():
    parser = argparse.ArgumentParser(
        description="Record and compare the performance trajectory.")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("record")
    cmp = sub.add_parser("compare")
    cmp.add_argument("a")
    cmp.add_argument("b")
    cmp.add_argument("--model-change", action="append", default=[],
                     metavar="WORKLOAD",
                     help="a workload whose simulated model changes on "
                          "purpose (repeatable)")
    args = parser.parse_args()
    if args.command == "record":
        record()
    else:
        compare(args.a, args.b, args.model_change)


if __name__ == "__main__":
    main()
