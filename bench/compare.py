#!/usr/bin/env python3
"""Compare two result sets written by ``bench/run.py --out``.

    python3 bench/compare.py BEFORE.jsonl AFTER.jsonl

For each workload and metric it prints each side's median and quartiles.
An end-to-end metric gets a verdict against its bound in BENCHMARK.json:

- better: the after run beats the before run in at least 9 of 10 pairs
  (runs paired by seed) and the medians differ by more than the before
  set's quartile spread;
- worse: the after median is worse than the before median by more than the bound;
- unresolved: the before set's quartile spread exceeds the bound, and not
  every after run beats every before run;
- unchanged: none of these.

It also pools the step latencies of each set, checks that the deterministic
counts repeat exactly for a seed, and that result files of runs with the same
seed are byte-identical.  Exit status 1 when any end-to-end metric is worse.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXACT_COUNTS = ("search.iterations", "search.objective_state_prep.calls", "ec.run_ec_trial.calls")


def load(path: str) -> dict[tuple[str, int], list[dict]]:
    groups = defaultdict(list)
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                doc = json.loads(line)
                groups[(doc["workload"], doc["trace"])].append(doc)
    return groups


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def by_seed(docs: list[dict], metric: str) -> dict[int, float]:
    return {d["seed"]: d["metrics"][metric]["value"] for d in docs if metric in d["metrics"]}


def verdict(before: dict[int, float], after: dict[int, float], lower_better: bool, bound: float):
    """(relative change toward worse, verdict) for one end-to-end metric."""
    a, b = list(before.values()), list(after.values())
    q1, med_a, q3 = quartiles(a)
    med_b = statistics.median(b)
    sign = 1 if lower_better else -1
    worse_by = sign * (med_b - med_a) / med_a
    spread = (q3 - q1) / med_a

    def beats(x, y):
        return sign * (y - x) > 0

    pairs = [(before[s], after[s]) for s in sorted(before.keys() & after.keys())]
    wins = sum(beats(y, x) for x, y in pairs)
    all_beat = all(beats(y, x) for x in a for y in b)
    if pairs and wins >= 0.9 * len(pairs) and -worse_by > spread:
        return worse_by, "better"
    if worse_by > bound:
        return worse_by, "worse"
    if spread > bound and not all_beat:
        return worse_by, "unresolved"
    return worse_by, "unchanged"


def pooled_steps(docs: list[dict]) -> str:
    steps = sorted(s for d in docs for s in d["samples"]["step_s"])
    if len(steps) < 2:
        return f"{len(steps)} samples"
    p90 = statistics.quantiles(steps, n=10, method="inclusive")[8]
    beyond = sum(s > p90 for s in steps)
    note = "" if beyond >= 10 else "  (fewer than 10 beyond p90: add runs)"
    return f"p50 {statistics.median(steps):.4g} s  p90 {p90:.4g} s  n={len(steps)}, {beyond} beyond p90{note}"


def repeat_report(name: str, docs_a: list[dict], docs_b: list[dict], key) -> str:
    """Whether ``key`` of the runs is the same for every run with the same seed."""
    seen = defaultdict(lambda: defaultdict(set))
    for label, docs in (("before", docs_a), ("after", docs_b)):
        for d in docs:
            seen[d["seed"]][label].add(json.dumps(key(d), sort_keys=True))
    within = sorted(s for s, sides in seen.items() if any(len(v) > 1 for v in sides.values()))
    between = sorted(s for s, sides in seen.items() if len(sides) == 2 and sides["before"] != sides["after"])
    if not within and not between:
        return f"  {name}: the same for every seed, within and between the sets"
    return f"  {name}: differ within a set for seeds {within}, between the sets for seeds {between}"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    layer = {m["name"]: m for m in spec["per_layer"]}
    before, after = load(argv[0]), load(argv[1])
    any_worse = False
    for key in sorted(before.keys() & after.keys()):
        workload, trace = key
        docs_a, docs_b = before[key], after[key]
        print(f"\n== {workload}  trace {trace}  ({len(docs_a)} before vs {len(docs_b)} after runs)")
        print(f"{'metric':40s} {'unit':8s} {'before median [q1, q3]':34s} {'after median [q1, q3]':34s} "
              f"{'worse by':>9s} {'bound':>6s}  verdict")
        for name, m in (layer if trace else e2e).items():
            a, b = by_seed(docs_a, name), by_seed(docs_b, name)
            if not a or not b:
                continue
            qa, qb = quartiles(list(a.values())), quartiles(list(b.values()))
            fa = f"{qa[1]:.5g} [{qa[0]:.5g}, {qa[2]:.5g}]"
            fb = f"{qb[1]:.5g} [{qb[0]:.5g}, {qb[2]:.5g}]"
            if trace:
                change = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
                print(f"{name:40s} {m['unit']:8s} {fa:34s} {fb:34s} {change:>+9.1%} {'':>6s}  -")
                continue
            worse_by, word = verdict(a, b, m["better"] == "lower", m["bound"])
            any_worse |= word == "worse"
            print(f"{name:40s} {m['unit']:8s} {fa:34s} {fb:34s} {worse_by:>+9.1%} {m['bound']:>6.0%}  {word}")
        if trace:
            for count in EXACT_COUNTS:
                print(repeat_report(count, docs_a, docs_b, lambda d: d["metrics"][count]["value"]))
        else:
            print(f"  pooled step_s before: {pooled_steps(docs_a)}")
            print(f"  pooled step_s after:  {pooled_steps(docs_b)}")
        print(repeat_report("result files", docs_a, docs_b, lambda d: d["outputs_sha256"]))
        for label, docs in (("before", docs_a), ("after", docs_b)):
            for d in docs:
                if not d["correct"] or d["failed"]:
                    print(f"  {label} seed {d['seed']}: correct={d['correct']} failed={d['failed']} {d['failures'][:3]}")
    for label, groups in (("before", before), ("after", after)):
        commits = {(d["provenance"]["commit"], d["provenance"]["source_sha256"][:12]) for g in groups.values() for d in g}
        print(f"{label}: commit/source {sorted(commits)}")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
