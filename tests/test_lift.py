import random

import pytest

from jacv.algebroid import JacobiAlgebroidData, Patch, Report, make_tangent
from jacv.calculus import Form, MismatchError, MultiVector, rebase, schouten
from jacv.coeff import ExpPoly
from jacv.dirac import GraphRelation
from jacv import lift
from jacv.lift import (
    lift_bialgebroid,
    lift_instance,
    lift_section,
    theorem_main1_crosscheck,
    verify_bracket_scaling,
    verify_hat_bar_differentials,
)
from jacv.structures import flat_map, sharp_map
from tests.gen import (
    closed_twist,
    contact,
    rand_form,
    rand_multivector,
    rand_scalar,
    solvable_bialgebroid,
)


def test_lift_section_weights():
    c = contact()
    up = lift_bialgebroid(c.C)
    bar = up.A
    emt = ExpPoly.exp(bar.patch.variables, -1)
    ept = ExpPoly.exp(bar.patch.variables, 1)
    assert lift_section(bar, c.Pi) == emt * rebase(c.Pi, bar)
    assert lift_section(bar, c.Om) == ept * rebase(c.Om, bar)
    with pytest.raises(MismatchError):
        lift_section(bar, Form.coframe(c.ext, 0))


def test_lift_bialgebroid_shape():
    c = contact()
    up = lift_bialgebroid(c.C)
    assert up.A.patch.has_time
    assert up.A.rank == c.ext.rank
    assert up.Astar.rank == c.ext.rank
    assert up.phi0.is_zero
    assert up.X0.is_zero
    # plain lift keeps brackets, weighted lift damps them by the exponential
    B = solvable_bialgebroid()
    up2 = lift_bialgebroid(B)
    e1, e2 = MultiVector.frame(up2.A, 0), MultiVector.frame(up2.A, 1)
    assert schouten(e1, e2) == e2
    f1, f2 = MultiVector.frame(up2.Astar, 0), MultiVector.frame(up2.Astar, 1)
    emt = ExpPoly.exp(up2.Astar.patch.variables, -1)
    assert schouten(f1, f2) == emt * f2


def test_lift_instance_wiring():
    c = contact()
    L = lift_instance(c.C)
    assert L.source.A is c.ext
    assert L.upstairs.A.patch.has_time and L.upstairs.A.rank == c.ext.rank
    other = make_tangent(Patch(("u",)))
    stray = MultiVector(other, 2, {})
    with pytest.raises(MismatchError, match="different algebroid"):
        verify_bracket_scaling(L, [c.Pi, stray])
    with pytest.raises(MismatchError, match="no sections"):
        verify_bracket_scaling(L, [])


def test_bracket_scaling_on_corpus():
    c = contact()
    report = verify_bracket_scaling(lift_instance(c.C), [c.Pi, c.Om, c.wH, c.wP])
    assert report.ok, report.witness


def test_bracket_scaling_random_instances():
    names = [("x", "y"), ("x", "y", "z"), ("x1", "x2", "x3", "x4")]
    for seed in range(20):
        r = random.Random(seed)
        p = Patch(names[seed % 3])
        A = make_tangent(p)
        J = JacobiAlgebroidData(A, closed_twist(r, A))
        sections = [
            rand_multivector(r, A, 2, max_degree=2, terms=2),
            rand_form(r, A, 2, max_degree=2, terms=2),
        ]
        report = verify_bracket_scaling(lift_instance(J), sections)
        assert report.ok, f"seed={seed}: {report.witness}"


def test_bracket_scaling_detects_wrong_weight(monkeypatch):
    c = contact()
    # drop the exponential weight: the lifted section no longer matches
    monkeypatch.setattr(lift, "lift_section", lambda up, s: rebase(s, up))
    report = verify_bracket_scaling(lift_instance(c.C), [c.Pi])
    assert (report.status, report.strategy, report.witness) == (
        "fail",
        "independent double computation",
        "bivector bracket scaling fails for section 0: "
        "-2*ddx1^ddy1^ddz + -2*ddx2^ddy2^ddz",
    )


def test_hat_bar_differentials_on_time_dependent_inputs():
    c = contact()
    for seed in range(15):
        r = random.Random(seed)
        scalar = rand_scalar(r, c.p, max_degree=2, terms=2, with_t=True, exp_range=1)
        cosection = rand_form(r, c.ext, 1, max_degree=2, terms=2, with_t=True, exp_range=1)
        report = verify_hat_bar_differentials(c.C, scalar, cosection)
        assert report.ok, f"seed={seed}: {report.witness}"


def test_hat_bar_differentials_input_validation():
    c = contact()
    with pytest.raises(MismatchError):
        verify_hat_bar_differentials(c.C, c.p.const(1), c.Om)
    other = Patch(("u",))
    with pytest.raises(MismatchError):
        verify_hat_bar_differentials(c.C, other.const(1), Form.coframe(c.ext, 0))


def test_recursion_map_commutes_with_the_lift():
    c = contact()
    up = lift_bialgebroid(c.C)
    bar = up.A
    for om in (c.wH, c.wE, c.wP):
        lifted_pi = lift_section(bar, c.Pi)
        lifted_om = lift_section(bar, om)
        # the opposite weights cancel in the composition
        n_up = sharp_map(lifted_pi).compose(flat_map(lifted_om))
        expected = sharp_map(rebase(c.Pi, bar)).compose(flat_map(rebase(om, bar)))
        assert n_up == expected


def test_main1_crosscheck_corpus():
    c = contact()
    cases = (
        (GraphRelation.of_bivector(c.Pi), GraphRelation.of_two_form(c.wH)),
        (GraphRelation.of_bivector(c.Pi), GraphRelation.of_two_form(c.wE)),
        (GraphRelation.of_bivector(c.Pi), GraphRelation.of_bivector(c.Pi)),
    )
    for left, right in cases:
        report = theorem_main1_crosscheck(c.C, left, right)
        assert report.ok, report.witness
        assert report.witness == "both levels: pass"


def test_main1_crosscheck_transports_failures():
    c = contact()
    bad = c.wH + Form(c.ext, 2, {(0, 1): c.p.coord("x1")})
    report = theorem_main1_crosscheck(
        c.C, GraphRelation.of_bivector(c.Pi), GraphRelation.of_two_form(bad)
    )
    assert report.ok
    assert report.witness == "both levels: fail"


def test_main1_crosscheck_fails_when_the_levels_disagree(monkeypatch):
    # a pair that passes at both levels, with a failure planted upstairs only
    c = contact()
    left = GraphRelation.of_bivector(c.Pi)
    right = GraphRelation.of_two_form(c.wH)
    real = lift.dirac_pair_check
    planted = Report("fail", strategy="planted", witness="planted residue")

    def upstairs_fails(data, first, second):
        return real(data, first, second) if first.algebroid is c.ext else planted

    monkeypatch.setattr(lift, "dirac_pair_check", upstairs_fails)
    report = theorem_main1_crosscheck(c.C, left, right)
    assert (report.status, report.strategy) == ("fail", "verdict transport")
    assert report.witness.startswith("downstairs pass (")
    assert report.witness.endswith("), upstairs fail (planted residue)")


def test_main1_crosscheck_stays_undecided_without_a_strategy():
    p = Patch(("x1", "x2", "x3", "x4"))
    A = make_tangent(p)
    J = JacobiAlgebroidData(A, Form.zero(A, 1))
    pi1 = MultiVector(A, 2, {(0, 1): p.coord("x3")})
    pi2 = MultiVector(A, 2, {(2, 3): p.coord("x1")})
    report = theorem_main1_crosscheck(
        J, GraphRelation.of_bivector(pi1), GraphRelation.of_bivector(pi2)
    )
    assert report.status == "not-decided"
    assert "downstairs not-decided" in report.witness
