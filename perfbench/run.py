"""Benchmark of the jacv checker: one closed-loop caller on one thread.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 35 --trace 0

Workloads are ``corpus``, ``identities`` and ``pairs`` (see README.md in
this directory).  A run imports jacv from ``src/`` of the checkout it sits
in, builds its inputs from ``--seed``, then repeats passes over them until
``--seconds`` have gone by; the caller asks for the next verdict only after
the previous one has returned.  Every verdict is checked against its oracle.

With ``--trace 0`` the run prints the end-to-end metrics; their times take
each verdict at its fastest over the run's passes.  With
``--trace 1`` it makes one untraced and one traced pass and prints the
per-layer metrics.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; a copy with
machine details goes to ``.bench_out/`` in the checkout.  The exit code is 0
when every verdict agrees with its oracle, 1 when one does not and 2 when
the run could not start (for instance, no jacv sources beside this directory).
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("corpus", "identities", "pairs")
# fresh processes that time set-up, at most one after each pass
SETUP_WORKERS = 6
WORKER_TIMEOUT_S = 150


class SetupError(Exception):
    """The run cannot start: no sources, or jacv imported from elsewhere."""


def load_workloads():
    """Import jacv from the checkout's ``src/`` and the workload module."""
    if not (SRC / "jacv" / "__init__.py").is_file():
        raise SetupError(f"no jacv sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import jacv

    if Path(jacv.__file__).resolve().parent != (SRC / "jacv").resolve():
        raise SetupError(f"jacv was imported from {jacv.__file__}, not from {SRC}")
    import workloads

    return workloads


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def git_revision():
    """Commit of the checkout, read from ``.git`` without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine():
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "git_revision": git_revision(),
        "clock": "time.perf_counter",
        "memory": "getrusage ru_maxrss",
    }


# -- one pass, checked -------------------------------------------------------


class Totals:
    """Verdicts of every pass of a run."""

    def __init__(self):
        self.pass_walls = []
        self.pass_verdicts = []  # per pass, the seconds of each verdict
        self.statuses = {}
        self.attempted = 0
        self.failed = 0
        self.decided = 0

    def add_pass(self, workload, verdicts):
        oks = workload.verify(verdicts)
        self.pass_walls.append(sum(v.seconds for v in verdicts))
        self.pass_verdicts.append([v.seconds for v in verdicts])
        for v, ok in zip(verdicts, oks):
            self.statuses[v.status] = self.statuses.get(v.status, 0) + 1
            self.attempted += 1
            self.failed += not ok
            self.decided += v.status in ("pass", "fail")


def timed_setup(workloads, name, seed, size, started):
    wl = workloads.WORKLOADS[name](seed, size)
    wl.build()
    return wl, perf_counter() - started


# -- worker processes ----------------------------------------------------------


def worker(args):
    """Set-up time of a fresh process: import jacv and build the inputs."""
    started = perf_counter()
    workloads = load_workloads()
    _, setup_s = timed_setup(workloads, args.workload, args.seed, args.size, started)
    print(json.dumps({"setup_s": setup_s}))
    return 0


def run_worker(args):
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--worker",
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    if args.size:
        cmd += ["--size", str(args.size)]
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up worker failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- the two kinds of run --------------------------------------------------------


def end_to_end(args, wl, setup_s, totals):
    # fresh-process set-ups go between passes, so they sample the whole run
    setups = [setup_s]
    start = perf_counter()
    while True:
        totals.add_pass(wl, wl.run_pass())
        if len(setups) <= SETUP_WORKERS:
            setups.append(run_worker(args)["setup_s"])
        if perf_counter() - start >= args.seconds:
            break
    best = [min(times) for times in zip(*totals.pass_verdicts)]
    n = len(best)
    passes = len(totals.pass_verdicts)
    metrics = {
        "setup_s": (statistics.median(setups), "s", f"median of {len(setups)} set-ups"),
        "wall_s": (sum(best), "s", f"each of {n} verdicts at its fastest of {passes} passes"),
        "verdict_ms_p50": (statistics.median(best) * 1e3, "ms", f"n={n}, fastest of {passes} each"),
        "verdict_ms_p90": (statistics.quantiles(best, n=10, method="inclusive")[-1] * 1e3, "ms",
                           f"n={n}, fastest of {passes} each"),
        "decided_share": (totals.decided / sum(map(len, totals.pass_verdicts)), "share",
                          f"of {n} verdicts x {passes} passes"),
        "peak_rss_mb": (peak_rss_mb(), "MB", "this process, after every pass"),
    }
    return metrics


def traced(args, workloads, wl, totals):
    from tracer import LAYERS, Tracer

    untraced = wl.run_pass()
    totals.add_pass(wl, untraced)
    tr = Tracer()
    tr.install()
    try:
        verdicts = wl.run_pass(tr)
    finally:
        tr.uninstall()
    totals.add_pass(wl, verdicts)
    OUT_DIR.mkdir(exist_ok=True)
    tr.write_spans(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.tsv.gz")

    count, self_time, total_time = tr.count, tr.self_time, tr.total_time
    closures = count("structures.graph_closure_check")
    courants = count("structures.courant_bracket")
    m = {
        "coeff.mul.calls": count("coeff.ExpPoly.__mul__", "coeff.ExpPoly.__rmul__"),
        "coeff.mul.term_products": tr.term_products,
        "coeff.add.calls": count("coeff.ExpPoly.__add__", "coeff.ExpPoly.__radd__"),
        "coeff.diff.calls": count("coeff.ExpPoly.diff"),
        "coeff.new.calls": count("coeff.ExpPoly.__init__"),
        "calculus.differential.calls": count("calculus.differential"),
        "calculus.differential.self_s": self_time("calculus.differential"),
        "calculus.schouten.calls": count("calculus.schouten"),
        "calculus.schouten.self_s": self_time("calculus.schouten"),
        "calculus.wedge.calls": count("calculus.wedge"),
        "calculus.wedge.self_s": self_time("calculus.wedge"),
        "calculus.contract.calls": count("calculus.contract"),
        "algebroid.bracket_sections.calls": count("algebroid.bracket_sections"),
        "algebroid.anchor_deriv.calls": count("algebroid.AlgebroidPatch.anchor_deriv"),
        "algebroid.validate.calls": count("algebroid.validate_algebroid"),
        "structures.courant_bracket.calls": courants,
        "structures.courant_per_closure": courants / closures if closures else 0.0,
        "structures.determinant.calls": count("structures.TensorMap.determinant"),
        "structures.determinant.self_s": self_time("structures.TensorMap.determinant"),
        "structures.inverse.calls": count("structures.TensorMap.inverse"),
        "structures.inverse.self_s": self_time("structures.TensorMap.inverse"),
        "dirac.pair_check.calls": count("dirac.dirac_pair_check"),
        "dirac.torsion_tensor.calls": count("dirac.torsion_tensor"),
        "lift.crosscheck.calls": count("lift.theorem_main1_crosscheck"),
        "dsl.parse_s": total_time("dsl.parse"),
        "cli.decl_s": total_time("bench.decl"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = tr.layer_self_time(layer)
    for kind in workloads.CORPUS_CHECK_KINDS:
        m[f"check.{kind}.s"] = total_time(f"bench.check.{kind}")
    m["trace.overhead_s"] = totals.pass_walls[1] - totals.pass_walls[0]

    def unit(name):
        if name.endswith(".calls") or name.endswith("term_products"):
            return "count"
        return "ratio" if name.endswith("_per_closure") else "s"

    return {name: (value, unit(name), None) for name, value in m.items()}


def main(argv=None):
    started = perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: batch size for the self-tests, and the fresh-process workers
    parser.add_argument("--size", type=int, default=None, help=argparse.SUPPRESS)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        if args.worker:
            return worker(args)
        workloads = load_workloads()
    except (SetupError, ImportError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    wl, setup_s = timed_setup(workloads, args.workload, args.seed, args.size, started)
    totals = Totals()
    if hasattr(wl, "check_entry_point"):
        totals.attempted += 1
        totals.failed += not wl.check_entry_point()
    if args.trace:
        metrics = traced(args, workloads, wl, totals)
    else:
        metrics = end_to_end(args, wl, setup_s, totals)

    correct = totals.failed == 0
    failed_share = totals.failed / totals.attempted
    for name, (value, unit, note) in metrics.items():
        print(f"{name} = {value:.6g} {unit}" + (f"  ({note})" if note else ""))
    print(f"failed_share = {failed_share:.6g} share  ({totals.failed} of {totals.attempted})")
    print(f"verdicts: {json.dumps(totals.statuses, sort_keys=True)}")
    result = {
        "correct": correct,
        "attempted": totals.attempted,
        "failed": totals.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, failed_share=failed_share, statuses=totals.statuses,
                  pass_walls=totals.pass_walls, pass_verdicts=totals.pass_verdicts,
                  notes={name: note for name, (_, _, note) in metrics.items() if note},
                  machine=machine())
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
