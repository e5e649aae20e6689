"""Summarize paired benchmark runs of a parent and a change checkout.

Reads the untraced run records ``.bench_out/<workload>-seed<n>-trace0.json``
that ``benchmarks/run.py`` writes in each checkout, pairs them by workload
and seed, and prints one JSON object. For every end-to-end metric that the
change's ``BENCHMARK.json`` declares it gives, per workload: the median,
inclusive quartiles and n of each side; in how many pairs the change is
better (ties count for neither); the change's median minus the parent's;
the parent's interquartile range; the relative change of the medians
against the metric's bound; and two judgements:

- ``verdict``: ``worse`` when the change's median is worse than the
  parent's by more than the bound, relative to the parent's median;
  otherwise ``unresolved`` when the parent's IQR, relative to its median,
  exceeds the bound and not every change run beats every parent run;
  otherwise ``no_worse``.
- ``gain``: true when the change wins at least 9 in 10 pairs and its
  median is better than the parent's by more than the parent's IQR.

It also gives the failed and attempted checks of each side and the
provenance the runs recorded.

    python3 tools/bench_summary.py PARENT_CHECKOUT CHANGE_CHECKOUT [--note TEXT]

Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

RECORD_SUFFIX = "-trace0.json"


def load_records(checkout: Path) -> dict[tuple[str, int], dict]:
    """The untraced run records of a checkout, keyed by (workload, seed)."""
    records = {}
    for path in sorted((checkout / ".bench_out").glob("*" + RECORD_SUFFIX)):
        record = json.loads(path.read_text())
        prov = record["provenance"]
        records[(prov["workload"], int(prov["seed"]))] = record
    return records


def describe(values: list[float]) -> dict:
    """Median, inclusive quartiles and count."""
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def judge(p: list[float], c: list[float], bound: float, sign: float) -> dict:
    """Verdict and gain of paired runs ``p`` (parent) and ``c`` (change);
    ``sign`` is 1 when lower is better and -1 when higher is."""
    ps, cs = describe(p), describe(c)
    scale, iqr = abs(ps["median"]), ps["q3"] - ps["q1"]
    worse_by = sign * (cs["median"] - ps["median"])
    if worse_by > bound * scale:
        verdict = "worse"
    elif iqr > bound * scale and not all(sign * (a - b) > 0.0 for a in p for b in c):
        verdict = "unresolved"
    else:
        verdict = "no_worse"
    wins = sum(sign * (a - b) > 0.0 for a, b in zip(p, c))
    return {"verdict": verdict, "gain": wins >= 0.9 * len(p) and -worse_by > iqr}


def provenance(records: list[dict]) -> dict:
    """Each provenance field, a list where the runs disagree; seeds apart."""
    keys = sorted({k for r in records for k in r["provenance"]} - {"seed"})
    out = {}
    for key in keys:
        seen = list(dict.fromkeys(r["provenance"].get(key) for r in records))
        out[key] = seen[0] if len(seen) == 1 else seen
    return out


def side(records: list[dict]) -> dict:
    return {"attempted": sum(r["result"]["attempted"] for r in records),
            "failed": sum(r["result"]["failed"] for r in records),
            "correct": all(r["result"]["correct"] for r in records),
            "provenance": provenance(records)}


def summarize(parent_dir: Path, change_dir: Path) -> dict:
    spec = json.loads((change_dir / "BENCHMARK.json").read_text())
    parent, change = load_records(parent_dir), load_records(change_dir)
    workloads = {}
    for name in sorted({wl for wl, _ in parent}):
        seeds = sorted(s for wl, s in parent if wl == name and (wl, s) in change)
        if not seeds:
            continue
        before = [parent[(name, s)] for s in seeds]
        after = [change[(name, s)] for s in seeds]
        metrics = {}
        for metric in spec["end_to_end"]:
            key, sign = metric["name"], (1.0 if metric["better"] == "lower" else -1.0)
            p = [r["result"]["metrics"][key]["value"] for r in before]
            c = [r["result"]["metrics"][key]["value"] for r in after]
            ps, cs = describe(p), describe(c)
            metrics[key] = {
                "unit": metric["unit"], "better": metric["better"],
                "bound": metric["bound"],
                "parent": ps, "change": cs,
                "change_wins": sum(sign * (a - b) > 0.0 for a, b in zip(p, c)),
                "median_diff": cs["median"] - ps["median"],
                "parent_iqr": ps["q3"] - ps["q1"],
                "median_rel_change": ((cs["median"] - ps["median"]) / abs(ps["median"])
                                      if ps["median"] else None),
                **judge(p, c, metric["bound"], sign),
            }
        workloads[name] = {"pairs": len(seeds), "seeds": seeds,
                           "parent": side(before), "change": side(after),
                           "metrics": metrics}
    return {"workloads": workloads}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--note", help="free text stored under 'note'")
    args = ap.parse_args(argv)
    summary = summarize(args.parent, args.change)
    if args.note:
        summary = {"note": args.note, **summary}
    json.dump(summary, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
