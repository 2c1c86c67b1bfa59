"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q``."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

workloads = run.load_workloads()

# tiny batches: every identity kind and every pair class appears once or more
TINY = {"corpus": None, "identities": 8, "pairs": 3}


def bench(workload, trace, cwd=ROOT, size=None):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    size = size or TINY[workload]
    if size:
        cmd += ["--size", str(size)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result(proc):
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(out) == ["attempted", "correct", "failed", "metrics"]
    return out


@pytest.fixture(scope="module")
def declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module", params=sorted(TINY))
def smoke(request):
    name = request.param
    return name, result(bench(name, 0)), result(bench(name, 1))


def test_smoke_run_is_correct(smoke):
    name, e2e, traced = smoke
    for out in (e2e, traced):
        assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    for entry in e2e["metrics"].values():
        assert entry["value"] > 0


def test_emitted_metrics_are_declared(smoke, declared):
    _, e2e, traced = smoke
    assert {m["name"] for m in declared["end_to_end"]} == set(e2e["metrics"])
    assert {m["name"] for m in declared["per_layer"]} == set(traced["metrics"])
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    for out in (e2e, traced):
        for name, entry in out["metrics"].items():
            assert entry["unit"] == units[name], name


def test_declared_workloads_exist(declared):
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", ["identities", "pairs"])
def test_traced_counts_repeat(name):
    first, second = (result(bench(name, 1))["metrics"] for _ in range(2))
    counts = {k: v["value"] for k, v in first.items() if v["unit"] == "count"}
    assert counts == {k: second[k]["value"] for k in counts}
    assert counts["coeff.new.calls"] > 0


@pytest.mark.parametrize("name", sorted(TINY))
def test_verdict_mix_and_oracles(name):
    wl = workloads.WORKLOADS[name](3, TINY[name])
    wl.build()
    verdicts = wl.run_pass()
    assert all(wl.verify(verdicts))
    assert set(wl.mix) <= {v.status for v in verdicts}
    # flipped verdicts must not all get past the oracles
    flip = {"pass": "fail", "fail": "pass", "not-decided": "pass"}
    wrong = [v._replace(status=flip[v.status]) for v in verdicts]
    assert not all(wl.verify(wrong))


def test_pairs_decided_share_is_fixed_by_construction():
    wl = workloads.WORKLOADS["pairs"](5, 6)
    wl.build()
    statuses = [v.status for v in wl.run_pass()]
    decided = sum(s in ("pass", "fail") for s in statuses)
    assert (decided, len(statuses)) == (26, 32)


def test_fails_without_jacv_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("identities", 0, cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stdout.strip() == ""
