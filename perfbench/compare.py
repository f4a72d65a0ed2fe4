#!/usr/bin/env python3
"""Compare two sets of benchmark runs, workload by workload.

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds the run records perfbench/run.py saves with
--record-dir. Runs of one workload pair up by seed (or in order, when
the seeds differ). For every workload and end-to-end metric of
BENCHMARK.json it prints the pairs the change won, lost and tied, each
side's quartiles, the wider relative spread, and a verdict against the
metric's bound: improved, no worse, worse or unresolved (see
benchstats.verdict). Exits 1 when any verdict is worse or unresolved,
and 2, judging nothing, when a run failed any output check: a change
that is fast because it answers wrongly must not count as a gain.
"""

import glob
import json
import os
import sys

sys.dont_write_bytecode = True
import benchstats  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class FailedRun(Exception):
    pass


def runs_of(records):
    """{workload: [(seed, {metric: value})]} of the untraced runs among
    (path, record) pairs. Raises FailedRun, naming the file, for any run
    with a failed operation or an output check that did not hold."""
    runs = {}
    for path, record in records:
        if record["failed"] != 0 or record["correct"] is not True:
            raise FailedRun("%s: %d of %d operations failed their output checks"
                            % (path, record["failed"], record["attempted"]))
        host = record["host"]
        if host["trace"] != 0:
            continue
        values = {k: v["value"] for k, v in record["metrics"].items()}
        runs.setdefault(host["workload"], []).append((host["seed"], values))
    return runs


def load(directory):
    """runs_of the run records saved in directory."""
    records = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        if path.endswith(".trace.json"):
            continue
        with open(path) as f:
            records.append((path, json.load(f)))
    return runs_of(records)


def pair(base, change):
    """Pairs of metric dicts: by seed where both sides ran it, else by order."""
    by_seed = dict(change)
    if all(seed in by_seed for seed, _ in base) and len(base) == len(change):
        return [(values, by_seed[seed]) for seed, values in base]
    return list(zip((v for _, v in base), (v for _, v in change)))


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    try:
        base, change = load(sys.argv[1]), load(sys.argv[2])
    except FailedRun as e:
        print("compare: refused: %s" % e, file=sys.stderr)
        return 2
    header = "%-14s %-13s %5s %-7s %-29s %-29s %7s %6s  %s" % (
        "workload", "metric", "pairs", "w/l/t", "base q1|median|q3",
        "change q1|median|q3", "spread", "bound", "verdict")
    print(header)
    bad = 0
    for w in spec["workloads"]:
        name = w["name"]
        pairs = pair(base.get(name, []), change.get(name, []))
        for m in spec["end_to_end"]:
            b = [p[0][m["name"]] for p in pairs]
            c = [p[1][m["name"]] for p in pairs]
            if len(pairs) < 2:
                print("%-14s %-13s %5d %s" % (name, m["name"], len(pairs), "too few pairs"))
                bad += 1
                continue
            verdict, wins, losses, ties = benchstats.verdict(b, c, m["bound"], m["better"])
            spread = max(benchstats.relative_spread(b), benchstats.relative_spread(c))
            fmt = lambda q: "%.4g|%.4g|%.4g" % q  # noqa: E731
            print("%-14s %-13s %5d %-7s %-29s %-29s %6.1f%% %5.0f%%  %s" % (
                name, m["name"], len(pairs), "%d/%d/%d" % (wins, losses, ties),
                fmt(benchstats.quartiles(b)), fmt(benchstats.quartiles(c)),
                100 * spread, 100 * m["bound"], verdict))
            bad += verdict in ("worse", "unresolved")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
