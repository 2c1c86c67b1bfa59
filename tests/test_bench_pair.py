"""``scripts/bench_pair.py``: the summary of synthetic runs."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pair.py"
_spec = importlib.util.spec_from_file_location("bench_pair", SCRIPT)
bench_pair = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pair)


def _run(attempted, failed, **metrics):
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def _pair(base, change):
    return {"first": "base", "base": base, "change": change}


def test_quartiles_of_one_run_are_its_value():
    assert bench_pair.quartiles([0.5]) == [0.5, 0.5]
    assert bench_pair.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == [2.0, 4.0]


def test_wins_follow_the_declared_direction_and_ties_count_for_neither():
    better = {"wall_s": "lower", "decided_share": "higher"}
    runs = [
        _pair(_run(10, 0, wall_s=2.0, decided_share=0.5),
              _run(12, 1, wall_s=1.0, decided_share=0.75)),
        _pair(_run(10, 0, wall_s=1.0, decided_share=0.5),
              _run(11, 0, wall_s=3.0, decided_share=0.25)),
        _pair(_run(10, 2, wall_s=1.5, decided_share=0.5),
              _run(10, 0, wall_s=1.5, decided_share=0.5)),
    ]
    summary = bench_pair.summarize(runs, better)
    for name in better:
        assert summary[name]["change_wins"] == 1
        assert summary[name]["base_wins"] == 1
        assert summary[name]["pairs"] == 3
    assert summary["wall_s"]["base_median"] == 1.5
    assert summary["wall_s"]["change_median"] == 1.5
    assert summary["decided_share"]["change_median"] == 0.5
    assert summary["operations"] == {
        "base": {"attempted": 30, "failed": 2},
        "change": {"attempted": 33, "failed": 1},
    }


def test_a_single_pair_summarizes_to_its_own_values():
    runs = [_pair(_run(4, 0, wall_s=0.25), _run(4, 0, wall_s=0.2))]
    entry = bench_pair.summarize(runs, {"wall_s": "lower"})["wall_s"]
    assert entry["base_quartiles"] == [0.25, 0.25]
    assert entry["base_median"] == 0.25
    assert entry["change_median"] == 0.2
    assert (entry["change_wins"], entry["base_wins"]) == (1, 0)
