import random
from fractions import Fraction
from itertools import combinations

import pytest

from jacv.algebroid import (
    JacobiAlgebroidData,
    Patch,
    Report,
    extend_with_R,
    make_tangent,
    make_trivial,
)
from jacv.calculus import Form, MismatchError, MultiVector, differential
from jacv import dirac, structures
from jacv.dirac import (
    GraphRelation,
    condition_image_check,
    dirac_pair_check,
    hamiltonian_pair_check,
    jacobi_pair_check,
    jomega_check,
    omegan_check,
    presymplectic_pair_check,
    symplectic_pair_check,
    torsion_tensor_check,
)
from jacv.lift import lift_bialgebroid
from jacv.structures import (
    SIDE_A,
    TensorMap,
    flat_map,
    jacobi_check,
    pi_from_omega,
    sharp_map,
    two_form_of,
)
from tests.gen import (
    action_algebroids,
    contact,
    contact_form,
    rand_form,
    rand_scalar,
    rand_unit_two_form,
    torsion_tensor,
)


def _plane4():
    p = Patch(("x1", "x2", "x3", "x4"))
    A = make_tangent(p)
    return p, A, JacobiAlgebroidData(A, Form.zero(A, 1))


def _kernel_torsion_map(p, A):
    """Torsionful endomorphism over four coordinates whose torsion at
    (e1, e2) lies in the kernel of the flat map of dx1^dx2."""
    z = A.zero_scalar()
    return TensorMap(
        A,
        SIDE_A,
        SIDE_A,
        (
            (z, z, z, z),
            (z, z, z, z),
            (z, p.coord("x4"), z, z),
            (p.coord("x3"), z, z, z),
        ),
    )


def test_torsion_tensor_corpus_recursion_maps():
    c = contact()
    for N in (c.NH, c.NE, c.NP):
        assert torsion_tensor_check(N).ok
    # a torsionful endomorphism fails, and the report names the frame pair
    p, A, _ = _plane4()
    report = torsion_tensor_check(_kernel_torsion_map(p, A))
    assert report.status == "fail"
    assert "torsion at (" in report.witness


@pytest.mark.parametrize("rank", [0, 1])
def test_wrong_sided_maps_are_rejected_at_low_rank(rank):
    # the frame loop is empty below rank 2, so the side check runs before it
    p = Patch(("x",))
    A = make_tangent(p) if rank == 1 else make_trivial(p, 0)
    with pytest.raises(MismatchError, match="endomorphism of the algebroid side"):
        torsion_tensor_check(flat_map(Form.zero(A, 2)))


def _incompatible_pair():
    """Both Poisson, second sharp invertible, mutual bracket nonzero."""
    p, A, J = _plane4()
    pi1 = MultiVector(A, 2, {(0, 1): p.coord("x3")})
    pi2 = MultiVector(A, 2, {(0, 1): p.const(1), (2, 3): p.const(1)})
    return p, A, J, pi1, pi2


def test_incompatible_pair_fails_through_the_second_sharp():
    p, A, J, pi1, pi2 = _incompatible_pair()
    assert jacobi_check(J, pi1).ok and jacobi_check(J, pi2).ok
    v = jacobi_pair_check(J, pi1, pi2)
    assert v.status == "fail"
    assert v.strategy == "tensor reduction through the second sharp"


def test_strategy_ladder_on_corpus_pairs():
    c = contact()
    PiE = pi_from_omega(c.C, c.wE)
    auto = jacobi_pair_check(c.C, c.Pi, PiE)
    assert auto.ok and auto.strategy == "bracket compatibility"
    # the complete reduction, which the bracket test short-cuts, agrees
    reduced = dirac._reduction(sharp_map(c.Pi), sharp_map(PiE))
    assert reduced.ok
    assert reduced.strategy.startswith("tensor reduction")


def test_incomplete_strategies_stay_inconclusive():
    p, A, J = _plane4()
    # both sharps degenerate, mutual bracket nonzero
    pi1 = MultiVector(A, 2, {(0, 1): p.coord("x3")})
    pi2 = MultiVector(A, 2, {(2, 3): p.coord("x1")})
    assert jacobi_check(J, pi1).ok and jacobi_check(J, pi2).ok
    v = jacobi_pair_check(J, pi1, pi2)
    assert (v.status, v.strategy, v.witness) == (
        "not-decided", "tensor reduction", "neither sharp map has unit determinant"
    )


def test_reduction_ladder_pins_every_outcome():
    # two degenerate sharps are pinned in test_incomplete_strategies_stay_inconclusive
    p, A, J = _plane4()
    one = p.const(1)
    pi_unit = MultiVector(A, 2, {(0, 1): one, (2, 3): one})
    pi_deg = MultiVector(A, 2, {(0, 1): p.coord("x3")})
    om_unit = Form(A, 2, {(0, 1): one, (2, 3): one})
    om_deg = Form(A, 2, {(0, 1): p.coord("x2"), (0, 2): p.coord("x1")})
    om_deg2 = Form(A, 2, {(2, 3): one})
    # either order inverts the unit map, so both reduce to the same endomorphism
    sharp_torsion = "torsion at (ddx1, ddx3) = x3*ddx1"
    flat_torsion = "torsion at (ddx1, ddx2) = -x1*ddx4"
    cases = [
        (jacobi_pair_check, pi_deg, pi_unit,
         ("fail", "tensor reduction through the second sharp", sharp_torsion)),
        (jacobi_pair_check, pi_unit, pi_deg,
         ("fail", "tensor reduction through the first sharp", sharp_torsion)),
        (presymplectic_pair_check, om_deg, om_unit,
         ("fail", "tensor reduction through the second flat", flat_torsion)),
        (presymplectic_pair_check, om_unit, om_deg,
         ("fail", "tensor reduction through the first flat", flat_torsion)),
        (presymplectic_pair_check, om_deg, om_deg2,
         ("not-decided", "tensor reduction", "neither flat map has unit determinant")),
    ]
    for check, first, second, expected in cases:
        v = check(J, first, second)
        assert (v.status, v.strategy, v.witness) == expected, expected


def test_member_gate_rejects_invalid_graphs():
    c = contact()
    bad = c.wH + Form(c.ext, 2, {(0, 1): c.p.coord("x1")})
    v = dirac_pair_check(
        c.C, GraphRelation.of_two_form(bad), GraphRelation.of_two_form(c.Om)
    )
    assert v.status == "fail"
    assert v.strategy == "member validity"
    assert "left member" in v.witness


def test_mixed_pairs_are_orientation_independent():
    c = contact()
    for om in (c.wH, c.wE, c.wP):
        fwd = dirac_pair_check(
            c.C, GraphRelation.of_bivector(c.Pi), GraphRelation.of_two_form(om)
        )
        rev = dirac_pair_check(
            c.C, GraphRelation.of_two_form(om), GraphRelation.of_bivector(c.Pi)
        )
        assert fwd.ok and rev.ok
        assert "transposed" in rev.strategy


def test_flat_flat_reduction_and_degenerate_fallback():
    c = contact()
    v = presymplectic_pair_check(c.C, c.Om, c.wP)
    assert v.ok
    assert v.strategy == "tensor reduction through the first flat"
    sym = symplectic_pair_check(c.C, c.wH, c.wE)
    assert sym.ok
    deg = symplectic_pair_check(c.C, c.Om, c.wP)
    assert deg.status == "fail"
    assert "right form is degenerate" in deg.witness
    # two degenerate closed forms leave the matched pair undecided
    p, A, J = _plane4()
    om1 = Form(A, 2, {(0, 1): p.const(1)})
    om2 = Form(A, 2, {(2, 3): p.const(1)})
    und = presymplectic_pair_check(J, om1, om2)
    assert und.status == "not-decided"


def test_symplectic_pair_gates_nondegeneracy_before_the_pair(monkeypatch):
    # two nondegenerate forms give the reports of the presymplectic pair; a
    # degenerate left form stops the gate after its own flat is expanded
    c = contact()
    om1 = contact_form((1, 2, 3, 4), (1, 0, 0))
    om2 = contact_form((2, 1, -1, 3), (0, 1, 1))
    failing = presymplectic_pair_check(c.C, om1, om2)
    assert failing.status == "fail"
    expanded = []

    def recording(algebroid, matrix, _real=structures._pfaffians):
        expanded.append(matrix)
        return _real(algebroid, matrix)

    monkeypatch.setattr(structures, "_pfaffians", recording)
    for left, right, report in [
        (c.wH, c.wE, Report("pass", "tensor reduction through the second flat")),
        (om1, om2, failing),
        (c.wP, c.Om, Report("fail", "non-degeneracy", "left form is degenerate: det = 0")),
    ]:
        del expanded[:]
        assert symplectic_pair_check(c.C, left, right) == report
    assert expanded == [flat_map(c.wP).matrix]


def _poly_in(r, p, names, degrees=(0, 1, 2)):
    """A sum of two random monomials in the coordinates ``names`` of the
    patch ``p``, each of a degree drawn from ``degrees``."""
    out = p.const(0)
    for _ in range(2):
        monomial = p.const(r.choice((-3, -2, -1, 1, 2, 3)))
        for _ in range(r.choice(degrees)):
            monomial = monomial * p.coord(r.choice(names))
        out = out + monomial
    return out


def test_presymplectic_pairs_agree_with_the_magri_morosi_hierarchy():
    """An oracle for two flats that shares no code with the torsion on frame
    pairs.  For closed w1 and a symplectic w2 over an untwisted algebroid,
    N = w2^-1 w1 has zero torsion exactly when the third member of the
    Magri-Morosi hierarchy, w1 w2^-1 w1, is closed (Magri and Morosi, 1984).
    Nothing is claimed here for a twisted differential.  The block forms
    l1(x1, y1) dx1^dy1 + l2(x2, y2) dx2^dy2 give N = diag(l1, l1, l2, l2),
    which passes; the exact forms d(alpha), alpha a random quadratic 1-form,
    fail."""
    p = Patch(("x1", "y1", "x2", "y2"))
    A = make_tangent(p)
    J = JacobiAlgebroidData(A, Form.zero(A, 1))
    om2 = Form(A, 2, {(0, 1): p.const(1), (2, 3): p.const(1)})
    flat2_inverse = flat_map(om2).inverse()
    r = random.Random(5)
    verdicts = []
    for n in range(60):
        if n % 2:
            alpha = Form(A, 1, {(i,): _poly_in(r, p, p.coords, (2,)) for i in range(4)})
            om1 = differential(J, alpha)
        else:
            om1 = Form(A, 2, {
                (0, 1): _poly_in(r, p, ("x1", "y1")),
                (2, 3): _poly_in(r, p, ("x2", "y2")),
            })
        flat1 = flat_map(om1)
        third = two_form_of(flat1.compose(flat2_inverse).compose(flat1))
        expected = "pass" if differential(J, third).is_zero else "fail"
        for left, right in ((om1, om2), (om2, om1)):
            assert presymplectic_pair_check(J, left, right).status == expected, n
        verdicts.append(expected)
    assert verdicts.count("pass") == verdicts.count("fail") == 30


def test_hamiltonian_pair_grading():
    c = contact()
    assert hamiltonian_pair_check(c.C, c.Pi, c.Pi).ok
    p, A, J, pi1, pi2 = _incompatible_pair()
    v = hamiltonian_pair_check(J, pi1, pi2)
    assert v.status == "fail" and v.strategy == "bracket compatibility"
    assert v.witness.startswith("mixed bracket = ")
    broken = MultiVector(A, 2, {(0, 1): p.coord("x1"), (2, 3): p.coord("x1")})
    assert not jacobi_check(J, broken).ok
    gate = hamiltonian_pair_check(J, broken, pi2)
    assert gate.status == "fail" and "left member" in gate.witness


def test_hamiltonian_pair_agrees_with_jacobi_pair_on_contact_bivectors():
    # both members integrable: pi1 + pi2 is Jacobi iff [pi1, pi2]_phi = 0,
    # while jacobi_pair decides a nonzero bracket by the tensor reduction
    c = contact()
    r = random.Random(0)
    pis = []
    while len(pis) < 6:
        slopes = [r.choice((-1, 0, 1)) for _ in range(4)]
        if slopes[1] * slopes[2] != slopes[0] * slopes[3]:
            shifts = [r.choice((0, 1)) for _ in range(3)]
            pis.append(pi_from_omega(c.C, contact_form(slopes, shifts)))
    statuses = set()
    for pi1, pi2 in combinations(pis, 2):
        ham = hamiltonian_pair_check(c.C, pi1, pi2)
        pair = jacobi_pair_check(c.C, pi1, pi2)
        assert ham.status == pair.status
        if pair.status == "fail":
            assert pair.strategy.startswith("tensor reduction")
        statuses.add(ham.status)
    assert statuses == {"pass", "fail"}


def _inputs_over_two_algebroids():
    """Each check with an input over the tangent of ``_plane4`` and another
    over its extension, in the order that used to reach a verdict."""
    p, A, J = _plane4()
    C = extend_with_R(A)
    E = C.algebroid
    one, one_e = p.const(1), E.patch.const(1)
    Z = Form(A, 2, {(0, 1): one})
    om = Form(A, 2, {(0, 1): one, (2, 3): one})
    om_e = Form(E, 2, {(0, 1): one_e, (2, 3): one_e})
    bad = MultiVector(A, 2, {(0, 1): p.coord("x3"), (2, 3): one})
    good = MultiVector(E, 2, {(0, 1): one_e, (2, 3): one_e})
    N = sharp_map(bad).compose(flat_map(om))
    return {
        "symplectic_pair": lambda: symplectic_pair_check(C, Z, om),
        "hamiltonian_pair": lambda: hamiltonian_pair_check(J, bad, good),
        "omegan": lambda: omegan_check(C, om, N),
        "jomega": lambda: jomega_check(J, bad, om_e),
    }


@pytest.mark.parametrize("check", ["symplectic_pair", "hamiltonian_pair", "omegan", "jomega"])
def test_inputs_over_another_algebroid_are_rejected_before_any_verdict(check):
    with pytest.raises(MismatchError, match="different algebroid"):
        _inputs_over_two_algebroids()[check]()


def test_image_condition_only_decided_for_units():
    c = contact()
    PiE = pi_from_omega(c.C, c.wE)
    assert condition_image_check(c.Pi, PiE).ok
    degenerate = MultiVector(c.ext, 2, {(0, 1): c.p.const(1)})
    report = condition_image_check(c.Pi, degenerate)
    assert report.status == "not-decided"
    assert "second" in report.witness
    both = condition_image_check(degenerate, degenerate)
    assert "first and second" in both.witness


def test_jomega_agrees_with_graph_verdicts_on_corpus():
    c = contact()
    for om in (c.wH, c.wE, c.wP):
        assert jomega_check(c.C, c.Pi, om).ok
        assert dirac_pair_check(
            c.C, GraphRelation.of_bivector(c.Pi), GraphRelation.of_two_form(om)
        ).ok
    bad = c.wH + Form(c.ext, 2, {(0, 1): c.p.coord("x1")})
    assert jomega_check(c.C, c.Pi, bad).status == "fail"
    assert dirac_pair_check(
        c.C, GraphRelation.of_bivector(c.Pi), GraphRelation.of_two_form(bad)
    ).status == "fail"


def test_omegan_full_on_corpus():
    c = contact()
    for N in (c.NH, c.NE, c.NP):
        assert omegan_check(c.C, c.Om, N).ok


def test_omegan_fails_on_a_map_the_flat_does_not_intertwine():
    p, A, J = _plane4()
    om = Form(A, 2, {(0, 1): p.const(1), (2, 3): p.const(1)})
    one, z = A.scalar(1), A.zero_scalar()
    # diag(1, 2, 1, 1): flat . N and N^T . flat differ on (e1, e2)
    diagonal = [[z] * 4 for _ in range(4)]
    for i, value in enumerate((one, A.scalar(2), one, one)):
        diagonal[i][i] = value
    N = TensorMap(A, SIDE_A, SIDE_A, diagonal)
    for weak in (False, True):
        report = omegan_check(J, om, N, weak=weak)
        assert (report.status, report.strategy, report.witness) == (
            "fail",
            "matrix commutation",
            "flat does not intertwine the endomorphism with its dual: A->A* "
            "[[0, -1, 0, 0]; [-1, 0, 0, 0]; [0, 0, 0, 0]; [0, 0, 0, 0]]",
        )


def test_omegan_weak_is_strictly_weaker():
    p, A, J = _plane4()
    om = Form(A, 2, {(0, 1): p.const(1)})
    N = _kernel_torsion_map(p, A)
    # torsion lands in the kernel of the flat map, so only the full check sees it
    t = torsion_tensor(N, MultiVector.frame(A, 0), MultiVector.frame(A, 1))
    assert not t.is_zero
    assert flat_map(om).apply(t).is_zero
    full = omegan_check(J, om, N)
    assert full.status == "fail"
    assert "torsion" in full.witness
    assert omegan_check(J, om, N, weak=True).ok


def test_omegan_rejects_wrong_sided_maps():
    c = contact()
    with pytest.raises(MismatchError):
        omegan_check(c.C, c.Om, flat_map(c.Om))


def test_graph_relation_validation():
    c = contact()
    # the section's class is the graph's kind
    assert GraphRelation(c.Pi).kind == "sharp"
    assert GraphRelation(c.Om).kind == "flat"
    with pytest.raises(MismatchError, match="a sharp graph needs a bivector"):
        GraphRelation.of_bivector(c.Om)
    with pytest.raises(MismatchError, match="a flat graph needs a two-form"):
        GraphRelation.of_two_form(c.Pi)
    with pytest.raises(MismatchError, match="degree-2 sections"):
        GraphRelation(c.ext.scalar(1))
    with pytest.raises(MismatchError, match="degree-2 sections"):
        GraphRelation.of_bivector(MultiVector.frame(c.ext, 0))
    rel = GraphRelation.of_two_form(c.Om)
    assert rel.music() == flat_map(c.Om)
    assert rel.algebroid is c.ext
    assert str(rel) == f"flat graph of {c.Om}"


def test_dirac_pair_input_validation():
    c = contact()
    other_patch, other = (Patch(("u", "v")), None)
    other = make_tangent(other_patch)
    pi = MultiVector(other, 2, {(0, 1): other_patch.const(1)})
    with pytest.raises(MismatchError):
        dirac_pair_check(
            c.C, GraphRelation.of_bivector(c.Pi), GraphRelation.of_bivector(pi)
        )


def _torsion_by_the_public_formula(N):
    """The labelled torsion of N on every frame pair, from the reference
    ``torsion_tensor``, which brackets sections, pair by pair."""
    A = N.algebroid
    for i, j in combinations(range(A.rank), 2):
        value = torsion_tensor(N, MultiVector.frame(A, i), MultiVector.frame(A, j))
        yield f"torsion at ({A.frame_labels[i]}, {A.frame_labels[j]}) = ", value


def _frame_pair_verdict(pairs, strategy="torsion on frame pairs"):
    """``fail`` at the first nonzero (label, value) of ``pairs``, else ``pass``."""
    for label, value in pairs:
        if not value.is_zero:
            return Report("fail", strategy, f"{label}{value}")
    return Report("pass", strategy)


def _frame_loop_cases():
    """(J, omega, N) with N commuting with the flat map of omega."""
    c = contact()
    cases = [(c.C, c.Om, N) for N in (c.NH, c.NE, c.NP)]
    p, A, J = _plane4()
    cases.append((J, Form(A, 2, {(0, 1): p.const(1)}), _kernel_torsion_map(p, A)))
    # fl^-1 . flat(w) commutes with fl; its torsion is not in the kernel of fl
    r = random.Random(10)
    om = rand_unit_two_form(r, A)
    N = flat_map(om).inverse().compose(flat_map(rand_form(r, A, 2)))
    cases.append((J, om, N))
    # rank 7, upstairs over the line: the zero form commutes with every map,
    # and this one lives on the last four frame elements, so early pairs pass
    patch = Patch(tuple(f"x{i}" for i in range(1, 7)))
    up = lift_bialgebroid(extend_with_R(make_tangent(patch))).a_side
    A7 = up.algebroid
    rows = tuple(
        tuple(
            rand_scalar(r, A7.patch, max_degree=1, terms=1, with_t=True, exp_range=1)
            if min(i, j) >= 3 and r.random() < 0.5 else A7.zero_scalar()
            for j in range(A7.rank)
        )
        for i in range(A7.rank)
    )
    cases.append((up, Form.zero(A7, 2), TensorMap(A7, SIDE_A, SIDE_A, rows)))
    return cases + _bracketed_cases()


def _weighted_map(r, A, density=0.5, first=0):
    """Endomorphism with entries of exp weights -1..1 and rational
    coefficients, zero outside rows and columns ``first``.. ."""
    zero = A.zero_scalar()

    def entry(i, j):
        if min(i, j) < first or r.random() >= density:
            return zero
        f = rand_scalar(r, A.patch, max_degree=1, terms=2, with_t=True, exp_range=1)
        return f * Fraction(1, r.choice((1, 2, 3)))

    rows = tuple(tuple(entry(i, j) for j in range(A.rank)) for i in range(A.rank))
    return TensorMap(A, SIDE_A, SIDE_A, rows)


def _bracketed_cases():
    """(J, omega, N) over algebroids with nonzero structure functions, the
    lifted ones anchored along d/dt too: f Id, whose torsion is zero for
    every function f; a dense map; a map on the last two frame elements,
    so that early pairs pass; on rank 4, fl^-1 . flat(w)."""
    r = random.Random(20)
    cases = []
    for J in action_algebroids():
        A = J.algebroid
        zero = Form.zero(A, 2)
        f = A.patch.coord("x").times_exp(1) * Fraction(2, 3)
        cases.append((J, zero, f * TensorMap.identity(A)))
        cases.append((J, zero, _weighted_map(r, A)))
        cases.append((J, zero, _weighted_map(r, A, density=1, first=A.rank - 2)))
        if A.rank % 2 == 0:
            om = rand_unit_two_form(r, A)
            cases.append((J, om, f * TensorMap.identity(A)))
            N = flat_map(om).inverse().compose(flat_map(rand_form(r, A, 2)))
            cases.append((J, om, N))
    return cases


def test_frame_loop_matches_the_public_formula():
    statuses = {True: 0, False: 0}
    for J, om, N in _frame_loop_cases():
        fl = flat_map(om)
        full = _frame_pair_verdict(_torsion_by_the_public_formula(N))
        weak = _frame_pair_verdict(
            (f"flattened {label}", fl.apply(value))
            for label, value in _torsion_by_the_public_formula(N)
        )
        assert torsion_tensor_check(N) == full
        for report, expected in ((omegan_check(J, om, N), full),
                                 (omegan_check(J, om, N, weak=True), weak)):
            if expected.ok:
                assert report.strategy != expected.strategy
            else:
                assert report == expected
        statuses[full.ok] += 1
        statuses[weak.ok] += 1
    assert statuses[True] and statuses[False]
