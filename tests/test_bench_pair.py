"""``scripts/bench_pair.py``: the summary of synthetic runs."""

import importlib.util
import io
import tarfile
from pathlib import Path

import pytest

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


def _archive(tmp_path):
    path = tmp_path / "rev.tar"
    with tarfile.open(path, "w") as tar:
        data = b"print('base')\n"
        info = tarfile.TarInfo("scripts/run.py")
        info.size = len(data)
        tar.addfile(info, io.BytesIO(data))
    return path


@pytest.mark.parametrize("has_filter", [True, False])
def test_unpack_passes_the_data_filter_only_where_tarfile_has_it(
    tmp_path, monkeypatch, has_filter
):
    # before 3.10.12 and 3.11.4 there is no data_filter, and extractall
    # raises TypeError on a filter argument
    calls = []
    extractall = tarfile.TarFile.extractall

    def old_or_new(self, path, *args, **kwargs):
        calls.append(kwargs)
        if "filter" in kwargs and not has_filter:
            raise TypeError("extractall() got an unexpected keyword argument 'filter'")
        return extractall(self, path, *args, **kwargs)

    if has_filter and not hasattr(tarfile, "data_filter"):
        pytest.skip("this Python's tarfile has no data filter")
    monkeypatch.setattr(tarfile.TarFile, "extractall", old_or_new)
    if not has_filter:
        monkeypatch.delattr(tarfile, "data_filter", raising=False)
    into = tmp_path / "base"
    into.mkdir()
    bench_pair.unpack(_archive(tmp_path), into)
    assert (into / "scripts" / "run.py").read_text() == "print('base')\n"
    assert calls == [{"filter": "data"} if has_filter else {}]
