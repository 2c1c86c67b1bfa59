"""Before/after benchmark of a git revision against the working tree.

    python3 scripts/bench_pair.py REV --out BENCH.json [--pairs 10]

``REV`` is extracted with ``git archive`` into a temporary directory.  For
each workload of ``BENCHMARK.json`` the script runs ``perfbench/run.py`` of
that copy and of the working tree ``--pairs`` times each, alternating which
side runs first, so a slow spell of the host falls on both sides alike.
Every run uses the held-out seed 9001 and the run length ``run_seconds`` of
``BENCHMARK.json``.  It then makes one traced run (``--trace 1``, 3 s) per
side and workload.

The output file holds every run's metrics, the median of each end-to-end
metric per side, the quartiles of the base side, and for each metric the
number of pairs in which the working tree was better (by the direction
declared in ``BENCHMARK.json``).  Nothing under ``perfbench/`` is changed and
no network is used.  The exit code is 1 when a run fails or reports a wrong
verdict.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 9001
TRACE_SECONDS = 3


def extract(rev, into):
    """Write the files of ``rev`` under ``into`` and return its full hash."""
    full = subprocess.run(
        ["git", "rev-parse", "--verify", rev + "^{commit}"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout.strip()
    archive = into / "rev.tar"
    with archive.open("wb") as out:
        subprocess.run(["git", "archive", full], cwd=ROOT, check=True, stdout=out)
    checkout = into / "base"
    checkout.mkdir()
    with tarfile.open(archive) as tar:
        tar.extractall(checkout, filter="data")
    archive.unlink()
    return full, checkout


def run(checkout, workload, seconds, trace):
    """One perfbench run in ``checkout``; its final JSON line."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(SEED), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode not in (0, 1):
        raise RuntimeError(f"{cmd} in {checkout} exited {proc.returncode}: {proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["metrics"] = {k: v["value"] for k, v in result["metrics"].items()}
    return result


def quartiles(values):
    if len(values) < 2:
        return [values[0], values[0]]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return [q[0], q[2]]


def summarize(runs, better):
    """Medians per side, base quartiles and win counts of one workload."""
    out = {}
    for name, direction in better.items():
        base = [r["base"]["metrics"][name] for r in runs]
        change = [r["change"]["metrics"][name] for r in runs]
        if direction == "lower":
            wins = sum(c < b for b, c in zip(base, change))
        else:
            wins = sum(c > b for b, c in zip(base, change))
        out[name] = {
            "base_median": statistics.median(base),
            "change_median": statistics.median(change),
            "base_quartiles": quartiles(base),
            "change_wins": wins,
            "pairs": len(runs),
        }
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("rev")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = declared["run_seconds"]
    better = {m["name"]: m["better"] for m in declared["end_to_end"]}
    workloads = [w["name"] for w in declared["workloads"]]
    report = {
        "seed": SEED,
        "seconds": seconds,
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "workloads": {},
    }
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        report["base_rev"], base = extract(args.rev, Path(tmp))
        sides = {"base": base, "change": ROOT}
        for workload in workloads:
            runs = []
            for i in range(args.pairs):
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                pair = {"first": order[0]}
                for side in order:
                    pair[side] = run(sides[side], workload, seconds, 0)
                    ok = ok and pair[side]["correct"]
                runs.append(pair)
                print(workload, i, {s: pair[s]["metrics"]["wall_s"] for s in order},
                      file=sys.stderr)
            entry = {"runs": runs, "summary": summarize(runs, better), "traced": {}}
            for side, path in sides.items():
                traced = run(path, workload, TRACE_SECONDS, 1)
                ok = ok and traced["correct"]
                entry["traced"][side] = traced["metrics"]
            report["workloads"][workload] = entry
    args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
