"""Pair reports of a seeded batch of contact-type two-forms, pinned.

The batch follows the pairs workload of ``perfbench``: per instance
(omega1, omega2) the flat/flat Dirac pair in both orders, nondegeneracy of
omega1, and when omega1 is nondegenerate the Jacobi check of its bivector
and the mixed sharp/flat pair; then the downstairs/upstairs transport
check; last the symplectic pair (omega1, omega2), which the workload does
not run.  The forms come from ``tests.gen.contact_form``, four instances of
each class (both nondegenerate, first nondegenerate, both degenerate), with
integer and with rational slopes; in one instance omega2 is a multiple of
omega1, so that pair is compatible.  Every (step, status, strategy, witness)
is compared with ``tests/golden/pairs.txt``.  To write that file again:

    PYTHONPATH=src python -c "from tests.test_pair_golden import render; \\
        print(render(), end='')" > tests/golden/pairs.txt
"""

import random
from fractions import Fraction
from pathlib import Path

from jacv import dirac, lift, structures
from tests.gen import contact, contact_form

GOLDEN = Path(__file__).resolve().parent / "golden" / "pairs.txt"
CLASSES = ("both_nondegenerate", "first_nondegenerate", "both_degenerate")
SEED = 20
PER_CLASS = 4


def _slope(r, rational):
    value = r.choice((-3, -2, -1, 1, 2, 3))
    return Fraction(value, r.choice((2, 3))) if rational else value


def _form(r, nondegenerate, rational):
    """A closed two-form whose Pfaffian s1 s2 - s0 s3 is nonzero exactly
    when ``nondegenerate``."""
    s0, s1 = _slope(r, rational), _slope(r, rational)
    if nondegenerate:
        while True:
            s2, s3 = _slope(r, rational), _slope(r, rational)
            if s1 * s2 != s0 * s3:
                break
    else:
        k = r.choice((-2, -1, 1, 2))
        s2, s3 = k * s0, k * s1
    shifts = [r.randint(-2, 2) for _ in range(3)]
    return contact_form((s0, s1, s2, s3), shifts)


def batch():
    """(class, omega1, omega2) for the seeded instances, classes in turn."""
    r = random.Random(SEED)
    out = []
    for n in range(PER_CLASS * len(CLASSES)):
        cls = CLASSES[n % len(CLASSES)]
        rational = n >= len(CLASSES) * (PER_CLASS - 1)  # the last round
        om1 = _form(r, cls != "both_degenerate", rational)
        om2 = _form(r, cls == "both_nondegenerate", rational)
        if n == len(CLASSES):
            om2 = om1 * 3
        out.append((cls, om1, om2))
    return out


def steps(om1, om2, nondegenerate):
    """(step, report) in the order of the pairs workload, then the
    symplectic pair."""
    C = contact().C
    flat1 = dirac.GraphRelation.of_two_form(om1)
    flat2 = dirac.GraphRelation.of_two_form(om2)
    yield "pair", dirac.dirac_pair_check(C, flat1, flat2)
    yield "pair_reversed", dirac.dirac_pair_check(C, flat2, flat1)
    yield "nondegenerate", structures.nondegenerate_check(structures.flat_map(om1))
    if nondegenerate:
        pi = structures.pi_from_omega(C, om1)
        yield "jacobi", structures.jacobi_check(C, pi)
        sharp = dirac.GraphRelation.of_bivector(pi)
        yield "mixed", dirac.dirac_pair_check(C, sharp, flat2)
    yield "transport", lift.theorem_main1_crosscheck(C, flat1, flat2)
    yield "symplectic", dirac.symplectic_pair_check(C, om1, om2)


def render():
    lines = []
    for n, (cls, om1, om2) in enumerate(batch()):
        for step, report in steps(om1, om2, cls != "both_degenerate"):
            fields = (str(n), cls, step, report.status, report.strategy)
            lines.append(" | ".join(fields + (str(report.witness),)))
    return "\n".join(lines) + "\n"


def test_pair_reports_match_the_golden_copy():
    text = render()
    assert text == GOLDEN.read_text(encoding="utf-8")
    rows = [line.split(" | ") for line in text.splitlines()]
    assert {row[1] for row in rows} == set(CLASSES)
    assert {row[2] for row in rows} == {
        "pair", "pair_reversed", "nondegenerate", "jacobi", "mixed", "transport",
        "symplectic",
    }
    assert {row[3] for row in rows} == {"pass", "fail", "not-decided"}
