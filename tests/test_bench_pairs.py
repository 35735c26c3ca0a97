"""``tools/bench_pairs.py``'s summary of paired benchmark runs."""

import importlib.util
import os

import pytest

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "bench_pairs.py")
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = {
    "rate": {"name": "rate", "better": "higher", "bound": 0.25},
    "wall": {"name": "wall", "better": "lower", "bound": 0.25},
}
PARENT_RATE = [100, 101, 99, 102, 98, 100, 103, 97, 100, 101]


def _runs(rate: dict[str, list[float]], wall: dict[str, list[float]]) -> list[dict]:
    runs = []
    for seed in range(len(rate["parent"])):
        for side in ("parent", "change"):
            metrics = {"rate": {"value": rate[side][seed]}, "wall": {"value": wall[side][seed]}}
            runs.append({"workload": "w", "seed": seed, "side": side, "checks_failed": [],
                         "result": {"correct": True, "failed": 0, "metrics": metrics}})
    return runs


def _summary(change_rate: list[float], change_wall: list[float]) -> dict:
    runs = _runs({"parent": PARENT_RATE, "change": change_rate},
                 {"parent": [1.0] * 10, "change": change_wall})
    return bench_pairs.summarize(runs, METRICS)["w"]


def test_a_clear_gain_meets_the_claim():
    table = _summary([r * 1.2 for r in PARENT_RATE], [0.8] * 10)
    assert table["rate"]["change_wins"] == 10
    assert table["rate"]["median_ratio"] == pytest.approx(1.2)
    assert table["rate"]["claim_met"] and table["rate"]["within_bound"]
    assert table["wall"]["claim_met"] and table["wall"]["within_bound"]
    assert table["all_correct"] == {"parent": True, "change": True}


def test_eight_wins_in_ten_do_not_meet_the_claim():
    change = [r * 1.2 for r in PARENT_RATE[:8]] + [r * 0.9 for r in PARENT_RATE[8:]]
    table = _summary(change, [1.0] * 10)
    assert table["rate"]["change_wins"] == 8
    assert not table["rate"]["claim_met"]
    assert table["rate"]["within_bound"]


def test_nine_wins_in_ten_meet_the_claim():
    change = [r * 1.2 for r in PARENT_RATE[:9]] + [r * 0.9 for r in PARENT_RATE[9:]]
    assert _summary(change, [1.0] * 10)["rate"]["claim_met"]


def test_a_gain_inside_the_parents_spread_does_not_meet_the_claim():
    # every pair won, but the medians differ by 1, less than q3 - q1 = 1.75
    table = _summary([r + 1 for r in PARENT_RATE], [1.0] * 10)
    assert table["rate"]["change_wins"] == 10
    assert table["rate"]["parent"]["q3"] - table["rate"]["parent"]["q1"] == pytest.approx(1.75)
    assert not table["rate"]["claim_met"]


@pytest.mark.parametrize("factor, inside", [(0.76, True), (0.74, False)])
def test_within_bound_on_a_higher_is_better_metric(factor, inside):
    assert _summary([r * factor for r in PARENT_RATE], [1.0] * 10)["rate"]["within_bound"] is inside


@pytest.mark.parametrize("wall, inside", [(1.24, True), (1.26, False)])
def test_within_bound_on_a_lower_is_better_metric(wall, inside):
    table = _summary(PARENT_RATE, [wall] * 10)
    assert table["wall"]["within_bound"] is inside
    assert table["wall"]["change_wins"] == 0 and not table["wall"]["claim_met"]


R2_ALARM = "check failed: fit r_squared ['0.978229'] below 0.98"


def _runs_with_checks(parent: list[str], change: list[str]) -> list[dict]:
    runs = _runs({"parent": PARENT_RATE[:2], "change": PARENT_RATE[:2]},
                 {"parent": [1.0] * 2, "change": [1.0] * 2})
    for run, checks in zip(runs[2:], (parent, change)):
        run["checks_failed"] = checks
        run["result"]["correct"] = not checks
    return runs


def test_a_failed_check_that_the_parent_shares_is_marked_shared():
    table = bench_pairs.summarize(_runs_with_checks([R2_ALARM], [R2_ALARM]), METRICS)["w"]
    assert table["checks_failed"] == [
        {"seed": 1, "side": "parent", "line": R2_ALARM, "other_side_same": True},
        {"seed": 1, "side": "change", "line": R2_ALARM, "other_side_same": True},
    ]
    assert table["all_correct"] == {"parent": False, "change": False}


def test_a_failed_check_on_the_change_alone_is_marked_its_own():
    own = "check failed: run_sweep returned 59 runs, expected 60"
    table = bench_pairs.summarize(_runs_with_checks([R2_ALARM], [own]), METRICS)["w"]
    assert table["checks_failed"] == [
        {"seed": 1, "side": "parent", "line": R2_ALARM, "other_side_same": False},
        {"seed": 1, "side": "change", "line": own, "other_side_same": False},
    ]
    assert table["all_correct"] == {"parent": False, "change": False}


def test_a_failed_check_whose_other_side_has_not_run_is_marked_unknown():
    # the change's run at seed 1 is missing, as after an interrupted invocation
    runs = _runs_with_checks([R2_ALARM], [])[:-1]
    table = bench_pairs.summarize(runs, METRICS)["w"]
    assert table["checks_failed"] == [
        {"seed": 1, "side": "parent", "line": R2_ALARM, "other_side_same": None},
    ]
