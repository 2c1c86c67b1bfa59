"""The three benchmark workloads.

Each workload builds its inputs once (``build``), then produces all of its
verdicts in one ``run_pass``.  A pass returns one ``Verdict`` per verdict,
timed by one ``perf_counter`` pair (a lap, for the corpus) and carrying
what ``verify`` needs to check it against its oracle afterwards, outside
the timed region and outside any trace.

jacv is reached through module attributes (``calculus.differential``), never
names bound at import time, so that a tracer that patches the modules sees
every call the benchmark makes.
"""

import contextlib
import hashlib
import io
from collections import namedtuple
from pathlib import Path
from time import perf_counter

import gen
from jacv import calculus, cli, dirac, dsl, lift, structures

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "scripts" / "paper.jac"
# sha256 of `jacv check scripts/paper.jac --json`; the default document must stay byte-stable
CORPUS_SHA256 = "94478a36e522267689a81ce64a5333f5b3d640009ac30b0ac3a832ee7dcf30ab"
CORPUS_CHECKS = 40
# every check kind used by the corpus, each with its own traced time
CORPUS_CHECK_KINDS = (
    "algebroid", "presymplectic", "zero", "equal", "nondegenerate", "torsion",
    "dirac_pair", "jacobi", "jomega", "omegan", "symplectic_pair", "presymplectic_pair",
    "hamiltonian_pair", "condition31", "bialgebroid", "mc", "closure", "main1",
    "lift_scaling", "lift_formulas",
)

PASS, FAIL, NOT_DECIDED, ERROR = "pass", "fail", "not-decided", "error"
# the spellings of "undecided" across jacv's report types
_UNDECIDED = frozenset(("not-decided", "not_decided", "inconclusive"))

Verdict = namedtuple("Verdict", "seconds status detail")


def normalize(status):
    return NOT_DECIDED if status in _UNDECIDED else status


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _no_span(name):
    return contextlib.nullcontext()


class Corpus:
    """``scripts/paper.jac`` through the interpreter, one statement at a time.

    The seed does not change the input: this is the shipped script.
    """

    name = "corpus"
    mix = (PASS,)

    def __init__(self, seed, size=None):
        self.seed = seed

    def build(self):
        self.text = CORPUS.read_text(encoding="utf-8")

    def check_entry_point(self):
        """Run ``jacv check paper.jac --json`` once: exit code 0 and the recorded hash."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["check", str(CORPUS), "--json"])
        return code == 0 and sha256(out.getvalue()) == CORPUS_SHA256

    def run_pass(self, tracer=None):
        span = tracer.span if tracer else _no_span
        verdicts = []
        interp = cli.Interpreter()
        report = None
        lap = perf_counter()
        script = dsl.parse(self.text)
        for stmt in script.statements:
            is_check = isinstance(stmt, dsl.CheckStmt)
            with span(f"bench.check.{stmt.subcommand}" if is_check else "bench.decl"):
                report = interp.run(dsl.Script((stmt,)))
            if is_check:
                now = perf_counter()
                verdicts.append(Verdict(now - lap, None, None))
                lap = now
        # statuses and the JSON document come from the interpreter's own report
        document = cli.emit_json(report)
        whole = report.exit_code() == 0 and sha256(document) == CORPUS_SHA256
        records = report.records
        if not len(records) == len(verdicts) == CORPUS_CHECKS:
            return [v._replace(status=ERROR) for v in verdicts]
        return [
            v._replace(status=normalize(rec.status), detail=whole)
            for v, rec in zip(verdicts, records)
        ]

    def verify(self, verdicts):
        """Every check passes and the whole document hashes to the recorded value."""
        return [v.status == PASS and v.detail is True for v in verdicts]


class Identities:
    """Graded identities of the twisted calculus on the rank-6 extension."""

    name = "identities"
    mix = (PASS, FAIL)
    default_size = gen.IDENTITY_PERIOD

    def __init__(self, seed, size=None):
        self.seed = seed
        self.size = size or self.default_size

    def build(self):
        self.batch = gen.identity_batch(self.seed, self.size)

    @staticmethod
    def _residue(kind, J, args):
        if kind == "antisymmetry":
            P, Q = args
            sign = (-1) ** ((P.degree - 1) * (Q.degree - 1))
            return calculus.phi0_schouten(J, P, Q) + sign * calculus.phi0_schouten(J, Q, P)
        (w,) = args
        return calculus.differential(J, calculus.differential(J, w))

    def run_pass(self, tracer=None):
        span = tracer.span if tracer else _no_span
        verdicts = []
        for kind, J, args in self.batch:
            with span(f"bench.verdict.{kind}"):
                start = perf_counter()
                try:
                    residue = self._residue(kind, J, args)
                    status = PASS if residue.is_zero else FAIL
                    if status == FAIL:
                        str(residue)  # the witness a report would carry
                except Exception as exc:  # a raising verdict is recorded, not fatal
                    residue, status = repr(exc), ERROR
                seconds = perf_counter() - start
            verdicts.append(Verdict(seconds, status, residue))
        return verdicts

    def verify(self, verdicts):
        """``closed_dd`` and ``antisymmetry`` give 0; ``twisted_dd`` gives d(phi) ^ w."""
        out = []
        for (kind, J, args), v in zip(self.batch, verdicts):
            if v.status == ERROR:
                ok = False
            elif kind == "twisted_dd":
                expected = calculus.wedge(calculus.differential(J.algebroid, J.phi0), args[0])
                ok = v.detail == expected and (v.status == PASS) == expected.is_zero
            else:
                ok = v.detail.is_zero and v.status == PASS
            out.append(ok)
        return out


class Pairs:
    """Pair checks on seeded closed two-forms of contact type.

    Per instance (omega1, omega2): the flat/flat Dirac pair in both orders,
    nondegeneracy of omega1, and when it is nondegenerate the Jacobi check
    of pi_from_omega(omega1) and the mixed sharp/flat pair; last the
    downstairs/upstairs transport check.
    """

    name = "pairs"
    mix = (PASS, FAIL, NOT_DECIDED)
    default_size = 21  # seven of each class: 112 verdicts per pass

    def __init__(self, seed, size=None):
        self.seed = seed
        self.size = size or self.default_size

    def build(self):
        self.C, self.batch = gen.pair_batch(self.seed, self.size)

    def _steps(self, cls, om1, om2):
        C = self.C
        flat1 = dirac.GraphRelation.of_two_form(om1)
        flat2 = dirac.GraphRelation.of_two_form(om2)
        held = {}

        def jacobi():
            held["pi"] = structures.pi_from_omega(C, om1)
            return structures.jacobi_check(C, held["pi"])

        def mixed():
            sharp = dirac.GraphRelation.of_bivector(held["pi"])
            return dirac.dirac_pair_check(C, sharp, flat2)

        yield "pair", lambda: dirac.dirac_pair_check(C, flat1, flat2)
        yield "pair_reversed", lambda: dirac.dirac_pair_check(C, flat2, flat1)
        yield "nondegenerate", lambda: structures.nondegenerate_check(structures.flat_map(om1))
        if cls != "both_degenerate":
            yield "jacobi", jacobi
            yield "mixed", mixed
        yield "transport", lambda: lift.theorem_main1_crosscheck(C, flat1, flat2)

    def run_pass(self, tracer=None):
        span = tracer.span if tracer else _no_span
        verdicts = []
        for cls, om1, om2 in self.batch:
            for step, call in self._steps(cls, om1, om2):
                with span(f"bench.verdict.{step}"):
                    start = perf_counter()
                    try:
                        status = normalize(call().status)
                    except Exception:  # a raising verdict is recorded, not fatal
                        status = ERROR
                    seconds = perf_counter() - start
                verdicts.append(Verdict(seconds, status, (cls, step)))
        return verdicts

    def verify(self, verdicts):
        """Both orders agree; nondegeneracy matches the construction; the
        Jacobi check of pi_from_omega passes; the mixed pair is decided; the
        transport check never fails."""
        out = []
        for v in verdicts:
            cls, step = v.detail
            if v.status == ERROR:
                ok = False
            elif step == "pair":
                pair_status = v.status
                ok = (v.status == NOT_DECIDED) == (cls == "both_degenerate")
            elif step == "pair_reversed":
                ok = v.status == pair_status
            elif step == "nondegenerate":
                ok = v.status == (FAIL if cls == "both_degenerate" else PASS)
            elif step == "jacobi":
                ok = v.status == PASS
            elif step == "mixed":
                ok = v.status in (PASS, FAIL)
            else:
                ok = v.status != FAIL
            out.append(ok)
        return out


WORKLOADS = {w.name: w for w in (Corpus, Identities, Pairs)}
