"""tools/bench_summary.py on two small synthetic sets of run records."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_summary.py"
_spec = importlib.util.spec_from_file_location("bench_summary", _PATH)
bench_summary = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_summary)

_SPEC = {"end_to_end": [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1}]}


def _checkout(root: Path, runs: dict, commit: str) -> Path:
    """A checkout whose .bench_out holds one record per (workload, seed)."""
    out = root / ".bench_out"
    out.mkdir(parents=True)
    (root / "BENCHMARK.json").write_text(json.dumps(_SPEC))
    for (workload, seed), (wall, rate, failed) in runs.items():
        record = {
            "provenance": {"workload": workload, "seed": seed, "trace": 0,
                           "git_commit": commit, "python": "3.11.7"},
            "result": {"correct": failed == 0, "attempted": 10, "failed": failed,
                       "metrics": {"wall_s": {"value": wall, "unit": "s"},
                                   "rate": {"value": rate, "unit": "1/s"}}}}
        (out / f"{workload}-seed{seed}-trace0.json").write_text(json.dumps(record))
    # a traced record is never paired
    (out / "a-seed1-trace1.json").write_text("not json")
    return root


@pytest.fixture
def summary(tmp_path):
    parent = _checkout(tmp_path / "parent", {
        ("a", 1): (1.0, 5.0, 0), ("a", 2): (2.0, 5.0, 0), ("a", 3): (3.0, 5.0, 0),
        ("a", 4): (4.0, 5.0, 0), ("a", 5): (5.0, 5.0, 0),
        ("a", 9): (0.1, 5.0, 0),  # no partner in the change
        ("b", 1): (7.0, 1.0, 0)}, "p")
    change = _checkout(tmp_path / "change", {
        ("a", 1): (0.5, 6.0, 0), ("a", 2): (2.0, 4.0, 0), ("a", 3): (2.5, 6.0, 0),
        ("a", 4): (4.5, 5.0, 1), ("a", 5): (4.0, 6.0, 0),
        ("b", 1): (6.0, 2.0, 0)}, "c")
    return bench_summary.summarize(parent, change)


def test_records_pair_by_workload_and_seed(summary):
    a = summary["workloads"]["a"]
    assert a["pairs"] == 5 and a["seeds"] == [1, 2, 3, 4, 5]
    assert summary["workloads"]["b"]["pairs"] == 1


def test_median_quartiles_wins_and_spread(summary):
    wall = summary["workloads"]["a"]["metrics"]["wall_s"]
    assert wall["parent"] == {"median": 3.0, "q1": 2.0, "q3": 4.0, "n": 5}
    assert wall["change"] == {"median": 2.5, "q1": 2.0, "q3": 4.0, "n": 5}
    # lower is better: seeds 1, 3 and 5 win, seed 2 ties, seed 4 loses
    assert wall["change_wins"] == 3
    assert wall["median_diff"] == -0.5
    assert wall["parent_iqr"] == 2.0
    assert wall["median_rel_change"] == pytest.approx(-1.0 / 6.0)
    assert wall["bound"] == 0.25
    # higher is better: seeds 1, 3 and 5 win, seed 2 loses, seed 4 ties
    assert summary["workloads"]["a"]["metrics"]["rate"]["change_wins"] == 3


def test_single_pair_and_failures_and_provenance(summary):
    b = summary["workloads"]["b"]
    assert b["metrics"]["wall_s"]["parent"] == {"median": 7.0, "q1": 7.0,
                                                 "q3": 7.0, "n": 1}
    a = summary["workloads"]["a"]
    assert (a["parent"]["failed"], a["change"]["failed"]) == (0, 1)
    assert a["change"]["attempted"] == 50 and not a["change"]["correct"]
    assert a["parent"]["provenance"] == {"git_commit": "p", "python": "3.11.7",
                                         "trace": 0, "workload": "a"}


def test_main_prints_the_summary_with_a_note(tmp_path, capsys):
    parent = _checkout(tmp_path / "parent", {("a", 1): (1.0, 1.0, 0)}, "p")
    change = _checkout(tmp_path / "change", {("a", 1): (1.0, 1.0, 0)}, "c")
    assert bench_summary.main([str(parent), str(change), "--note", "n"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["note"] == "n"
    assert doc["workloads"]["a"]["metrics"]["wall_s"]["change_wins"] == 0


def test_verdicts_and_gains_of_the_fixture(summary):
    a = summary["workloads"]["a"]["metrics"]
    # wall_s: better median, but the parent's IQR is 2/3 of its median,
    # above the 0.25 bound, and the runs overlap
    assert (a["wall_s"]["verdict"], a["wall_s"]["gain"]) == ("unresolved", False)
    # rate: the parent never varies, the change's median is better, 3/5 wins
    assert (a["rate"]["verdict"], a["rate"]["gain"]) == ("no_worse", False)
    # one pair, won, by more than the parent's zero IQR
    b = summary["workloads"]["b"]["metrics"]["wall_s"]
    assert (b["verdict"], b["gain"]) == ("no_worse", True)


@pytest.mark.parametrize("change, verdict, gain", [
    ((1.5, 1.5, 1.5, 1.5, 1.5), "worse", False),
    ((1.05, 1.05, 1.1, 1.1, 1.2), "no_worse", False),
    ((0.1, 0.2, 0.3, 0.4, 0.5), "no_worse", True),
], ids=["worse", "within_bound", "gain"])
def test_verdict_against_a_steady_parent(tmp_path, change, verdict, gain):
    # parent medians 1.0 and 5.0 with small spreads; lower wall_s and
    # higher rate are better, so the change's rate mirrors its wall_s
    walls = (0.98, 1.0, 1.0, 1.01, 1.02)
    parent = _checkout(tmp_path / "parent", {
        ("w", s): (x, 5.0 / x, 0) for s, x in enumerate(walls)}, "p")
    change = _checkout(tmp_path / "change", {
        ("w", s): (x, 5.0 / x, 0) for s, x in enumerate(change)}, "c")
    metrics = bench_summary.summarize(parent, change)["workloads"]["w"]["metrics"]
    for key in ("wall_s", "rate"):
        assert (metrics[key]["verdict"], metrics[key]["gain"]) == (verdict, gain)


def test_spread_parent_is_resolved_when_every_run_wins(tmp_path):
    parent = _checkout(tmp_path / "parent", {
        ("w", s): (x, 1.0, 0) for s, x in enumerate((1.0, 2.0, 3.0, 4.0, 5.0))}, "p")
    change = _checkout(tmp_path / "change", {
        ("w", s): (x, 1.0, 0) for s, x in enumerate((0.9, 0.8, 0.7, 0.6, 0.5))}, "c")
    wall = bench_summary.summarize(parent, change)["workloads"]["w"]["metrics"]["wall_s"]
    # no_worse despite a relative IQR of 2/3; a median gain of 2.3 beats the IQR of 2
    assert (wall["verdict"], wall["gain"]) == ("no_worse", True)
