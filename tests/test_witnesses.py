"""Full reports of failing checks: status, strategy and witness.

Each input below fails exactly one identity of its check, and the test pins
the whole report, so a change in which residue is reported, how it is
labelled or under which strategy shows up here.  The last test spies on the
residues a check computes and shows that none after the first failure is.
"""

import pytest

from jacv import dirac, lift, structures
from jacv.algebroid import (
    JacobiAlgebroidData,
    Patch,
    make_explicit,
    validate_algebroid,
)
from jacv.calculus import Form, MultiVector
from jacv.dirac import (
    GraphRelation,
    dirac_pair_check,
    hamiltonian_pair_check,
    jomega_check,
    omegan_check,
    torsion_tensor_check,
)
from jacv.structures import (
    SIDE_A,
    JacobiBialgebroidData,
    TensorMap,
    bialgebroid_compat_check,
    flat_map,
    graph_closure_check,
    make_standard_bialgebroid,
)
from tests.gen import small_tangent, solvable_bialgebroid
from tests.test_dirac import _incompatible_pair, _kernel_torsion_map, _plane4


def _triple(report):
    return (report.status, report.strategy, report.witness)


def _space3():
    """Tangent algebroid of (x, y, z) and its untwisted data."""
    p, A = small_tangent(("x", "y", "z"))
    J = JacobiAlgebroidData(A, Form.zero(A, 1))
    return p, A, J


def _not_closed(p, A):
    """z dx^dy, whose differential is dx^dy^dz."""
    return Form(A, 2, {(0, 1): p.coord("z")})


# -- algebroid and twist ------------------------------------------------------


def test_algebroid_anchor_failure_report():
    p = Patch(("x", "y"))
    zero, one = p.zero(), p.const(1)
    A = make_explicit(p, 2, ((p.coord("y"), zero), (zero, one)), {})
    assert _triple(validate_algebroid(A)) == (
        "fail", "frame identities", "anchor([e1,e2]) on x: 1",
    )


def test_algebroid_jacobi_failure_report():
    p = Patch(("q",))
    zero, one = p.zero(), p.const(1)
    brackets = {(0, 1): (zero, one, zero), (1, 2): (one, zero, zero)}
    A = make_explicit(p, 3, ((zero, zero, zero),), brackets)
    assert _triple(validate_algebroid(A)) == (
        "fail", "frame identities", "jacobi(e1,e2,e3): 1*e1",
    )


def test_twist_not_closed_report():
    p, A = small_tangent(("x", "y"))
    J = JacobiAlgebroidData(A, p.coord("x") * Form.coframe(A, 1))
    assert _triple(validate_algebroid(J)) == (
        "fail", "frame identities", "d(phi0): 1*dx^dy",
    )


# -- dual pairs and graphs ----------------------------------------------------


def _solvable_with_twists(primal, dual):
    B = solvable_bialgebroid()
    A, D = B.A, B.Astar
    return JacobiBialgebroidData(
        JacobiAlgebroidData(A, primal(A)), JacobiAlgebroidData(D, dual(D))
    )


def test_bialgebroid_derivation_identity_report():
    B = _solvable_with_twists(lambda A: Form.coframe(A, 0), lambda D: Form.zero(D, 1))
    assert _triple(bialgebroid_compat_check(B)) == (
        "fail",
        "verified on test family",
        "derivation identity on (1*e1, 1*e2): -1*e1^e2",
    )


def test_bialgebroid_twist_identity_report():
    B = _solvable_with_twists(lambda A: Form.zero(A, 1), lambda D: Form.coframe(D, 0))
    assert _triple(bialgebroid_compat_check(B)) == (
        "fail", "verified on test family", "twist derivative identity on 1*e2: 1*e2",
    )


def test_graph_closure_failure_report():
    p, A, J = _space3()
    report = graph_closure_check(make_standard_bialgebroid(J), _not_closed(p, A))
    assert _triple(report) == (
        "fail",
        "graph closure on scaled frame pairs",
        "bracket of graph couples at (1*ddx, 1*ddy): 1*dz",
    )


# -- torsion --------------------------------------------------------------------


def test_torsion_failure_report():
    p, A, _ = _plane4()
    assert _triple(torsion_tensor_check(_kernel_torsion_map(p, A))) == (
        "fail",
        "torsion on frame pairs",
        "torsion at (ddx1, ddx2) = x3*ddx3 + -x4*ddx4",
    )


def _standard_plane4():
    p, A, J = _plane4()
    om = Form(A, 2, {(0, 1): p.const(1), (2, 3): p.const(1)})
    return p, A, J, om


def test_flattened_torsion_failure_report():
    # N = flat(om)^-1 flat(w) commutes with flat(om); its torsion is flattened
    p, A, J, om = _standard_plane4()
    w = Form(A, 2, {(0, 1): p.coord("x3")})
    N = flat_map(om).inverse().compose(flat_map(w))
    assert _triple(omegan_check(J, om, N, weak=True)) == (
        "fail", "torsion on frame pairs", "flattened torsion at (ddx1, ddx3) = x3*dx2",
    )


# -- bivector-form and form-endomorphism pairs --------------------------------


def test_jomega_failure_reports():
    p, A, J, om = _standard_plane4()
    x1, x3 = p.coord("x1"), p.coord("x3")
    poisson = MultiVector(A, 2, {(0, 1): p.const(1), (2, 3): p.const(1)})
    not_poisson = MultiVector(A, 2, {(0, 1): x1, (2, 3): x1})
    assert _triple(jomega_check(J, not_poisson, om)) == (
        "fail", "component checks", "bivector: -2*x1*ddx2^ddx3^ddx4",
    )
    assert _triple(jomega_check(J, poisson, Form(A, 2, {(0, 1): x3}))) == (
        "fail", "component checks", "form not closed: 1*dx1^dx2^dx3",
    )
    recursing = MultiVector(A, 2, {(0, 1): x3, (1, 2): x1})
    assert _triple(jomega_check(J, recursing, om)) == (
        "fail",
        "component checks",
        "recursion image of the form not closed: -1*dx1^dx2^dx3",
    )


def test_omegan_closedness_failure_reports():
    p, A, J = _space3()
    assert _triple(omegan_check(J, _not_closed(p, A), TensorMap.identity(A))) == (
        "fail", "closedness", "form not closed: 1*dx^dy^dz",
    )
    # z times the identity commutes with every flat and has no torsion, but
    # z dx^dy is not closed
    z, zero = p.coord("z"), A.zero_scalar()
    rows = tuple(tuple(z if i == j else zero for j in range(3)) for i in range(3))
    N = TensorMap(A, SIDE_A, SIDE_A, rows)
    closed = Form(A, 2, {(0, 1): p.const(1)})
    assert _triple(omegan_check(J, closed, N)) == (
        "fail", "closedness", "composed form not closed: 1*dx^dy^dz",
    )


# -- member gates -----------------------------------------------------------------


@pytest.mark.parametrize("side", ["left", "right"])
def test_member_gate_reports(side):
    p, A, J, _, good = _incompatible_pair()
    broken = MultiVector(A, 2, {(0, 1): p.coord("x1"), (2, 3): p.coord("x1")})
    pair = (broken, good) if side == "left" else (good, broken)
    message = f"{side} member fails its structure equation: "
    assert _triple(hamiltonian_pair_check(J, *pair)) == (
        "fail", "member validity", message + "-2*x1*ddx2^ddx3^ddx4",
    )
    graphs = [GraphRelation.of_bivector(pi) for pi in pair]
    assert _triple(dirac_pair_check(J, *graphs)) == (
        "fail", "member validity", message + "-x1*ddx2^ddx3^ddx4",
    )


# -- pair ladder ------------------------------------------------------------------


@pytest.mark.parametrize("order", ["sharp first", "flat first"])
def test_mixed_pair_failure_reports(order):
    # both members valid; sharp(x3 ddx1^ddx2) after flat(dx1^dx2 + dx3^dx4)
    # has torsion, and transposing the pair keeps it
    p, A, J, pi, _ = _incompatible_pair()
    om = Form(A, 2, {(0, 1): p.const(1), (2, 3): p.const(1)})
    sharp, flat = GraphRelation.of_bivector(pi), GraphRelation.of_two_form(om)
    strategy = "tensor composition sharp after flat"
    if order == "sharp first":
        report = dirac_pair_check(J, sharp, flat)
    else:
        report = dirac_pair_check(J, flat, sharp)
        strategy += " (transposed)"
    assert _triple(report) == ("fail", strategy, "torsion at (ddx1, ddx3) = x3*ddx1")


def test_matched_pair_reduction_failure_report():
    # the mixed bracket is nonzero, so the pair reaches the tensor reduction
    _, _, J, pi1, pi2 = _incompatible_pair()
    graphs = [GraphRelation.of_bivector(pi) for pi in (pi1, pi2)]
    assert _triple(dirac_pair_check(J, *graphs)) == (
        "fail",
        "tensor reduction through the second sharp",
        "torsion at (ddx1, ddx3) = x3*ddx1",
    )


# -- lifts ----------------------------------------------------------------------


def test_lift_formula_failure_report(monkeypatch):
    # the plain lift replaced by the weighted one: the two weighted formulas
    # still hold, the first plain one does not
    p, A = small_tangent(("x", "y"))
    J = JacobiAlgebroidData(A, Form.coframe(A, 0))
    monkeypatch.setattr(lift, "lift_bar", lift.lift_hat)
    report = lift.verify_hat_bar_differentials(J, p.coord("y"), Form.coframe(A, 1))
    assert _triple(report) == (
        "fail",
        "formula against direct evaluation",
        "plain lift on a scalar: residue (exp(-t) - 1)*dy",
    )


# -- laziness ---------------------------------------------------------------------


def test_no_residue_is_computed_after_the_first_failure(monkeypatch):
    # closure fails on its first graph couple of three, torsion on its first
    # frame pair of six: each computes one residue
    calls = []

    def spy(owner, name):
        real = getattr(owner, name)

        def counting(*args):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(owner, name, counting)

    spy(structures, "courant_bracket")
    spy(dirac._FrameTorsion, "at")  # one frame pair's torsion
    p, A, J = _space3()
    assert not graph_closure_check(make_standard_bialgebroid(J), _not_closed(p, A)).ok
    p4, A4, _ = _plane4()
    assert not torsion_tensor_check(_kernel_torsion_map(p4, A4)).ok
    assert calls == ["courant_bracket", "at"]
