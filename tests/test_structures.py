import random
from fractions import Fraction
from itertools import combinations

import pytest

from jacv import structures
from jacv.algebroid import (
    PASS,
    JacobiAlgebroidData,
    Patch,
    Report,
    make_tangent,
    make_trivial,
)
from jacv.calculus import (
    Form,
    MismatchError,
    MultiVector,
    contract,
    differential,
    phi0_schouten,
    schouten,
    wedge,
)
from jacv.coeff import ExpPoly, NotInvertible
from jacv.lift import lift_bialgebroid
from jacv.structures import (
    SIDE_A,
    SIDE_DUAL,
    CouplePair,
    JacobiBialgebroidData,
    TensorMap,
    bialgebroid_compat_check,
    bivector_of,
    courant_bracket,
    dual_differential,
    flat_map,
    graph_closure_check,
    jacobi_bracket,
    jacobi_check,
    make_standard_bialgebroid,
    maurer_cartan_check,
    nondegenerate_check,
    omega_from_pi,
    pairing_pm,
    pi_from_omega,
    presymplectic_check,
    sharp_map,
    two_form_of,
)
from tests.gen import (
    closed_twist,
    contact,
    rand_form,
    rand_graph_section,
    rand_multivector,
    rand_scalar,
    rand_unit_bivector,
    rand_unit_two_form,
    small_tangent,
    solvable_bialgebroid,
    standard_flat,
    unit_triangular,
)


def _plane():
    p = Patch(("x", "y"))
    A = make_tangent(p)
    J = JacobiAlgebroidData(A, Form.zero(A, 1))
    return p, A, J


def test_sharp_flat_sign_pins():
    p, A, _ = _plane()
    pi = MultiVector(A, 2, {(0, 1): p.const(1)})  # ddx ^ ddy
    om = Form(A, 2, {(0, 1): p.const(1)})  # dx ^ dy
    dx, dy = Form.coframe(A, 0), Form.coframe(A, 1)
    ex, ey = MultiVector.frame(A, 0), MultiVector.frame(A, 1)
    # <sharp(dx), dy> = pi(dx, dy) = 1
    assert sharp_map(pi).apply(dx) == ey
    assert sharp_map(pi).apply(dy) == -ex
    # <flat(ex), ey> = om(ex, ey) = 1
    assert flat_map(om).apply(ex) == dy
    assert flat_map(om).apply(ey) == -dx


def test_section_map_round_trips():
    c = contact()
    assert bivector_of(sharp_map(c.Pi)) == c.Pi
    assert two_form_of(flat_map(c.Om)) == c.Om
    r = random.Random(5)
    p4 = Patch(("x1", "x2", "x3", "x4"))
    A4 = make_tangent(p4)
    for _ in range(5):
        om = rand_unit_two_form(r, A4)
        pi = rand_unit_bivector(r, A4)
        assert two_form_of(flat_map(om)) == om
        assert bivector_of(sharp_map(pi)) == pi


def test_omega_pi_correspondence_pin():
    # flat of the induced two-form is minus the inverse of sharp
    p, A, J = _plane()
    pi = MultiVector(A, 2, {(0, 1): p.const(1)})
    om = omega_from_pi(J, pi)
    assert om == Form(A, 2, {(0, 1): p.const(1)})
    assert pi_from_omega(J, om) == pi
    fl = flat_map(om)
    sh = sharp_map(pi)
    assert fl == sh.inverse().scale(Fraction(-1))


def test_correspondence_round_trip_random():
    p4 = Patch(("x1", "x2", "x3", "x4"))
    A4 = make_tangent(p4)
    J = JacobiAlgebroidData(A4, Form.zero(A4, 1))
    for seed in range(25):
        r = random.Random(seed)
        pi = rand_unit_bivector(r, A4)
        assert pi_from_omega(J, omega_from_pi(J, pi)) == pi, f"seed={seed}"
        om = rand_unit_two_form(r, A4)
        assert omega_from_pi(J, pi_from_omega(J, om)) == om, f"seed={seed}"


def test_degenerate_rejections():
    p, A, J = _plane()
    degenerate = MultiVector.zero(A, 2)
    with pytest.raises(NotInvertible):
        omega_from_pi(J, degenerate)
    report = nondegenerate_check(sharp_map(degenerate))
    assert report.status == "fail"
    assert "det" in report.witness


def test_nondegenerate_needs_unit_not_just_nonzero():
    p, A, _ = _plane()
    # determinant x^2 is nonzero but not invertible in the coefficient ring
    pi = MultiVector(A, 2, {(0, 1): p.coord("x")})
    assert not sharp_map(pi).is_unit_determinant()
    assert nondegenerate_check(sharp_map(pi)).status == "fail"


def test_tensor_map_algebra():
    c = contact()
    N = c.NH
    ident = TensorMap.identity(c.ext)
    assert N.compose(ident) == N
    assert ident.compose(N) == N
    assert N.dual().dual() == N
    fl = flat_map(c.Om)
    assert fl.compose(fl.inverse()) == TensorMap.identity(c.ext, SIDE_DUAL)
    assert fl.inverse().compose(fl) == ident
    # contravariance of the transpose
    assert fl.compose(N).dual() == N.dual().compose(fl.dual())
    assert (N + (-N)).is_zero
    det = fl.determinant()
    assert det == c.ext.scalar(1)


def _oracle_matrix(r, A, skew, density):
    """Seeded entries in the coordinates, t and e^{+-t}; skew on request.

    Dense matrices get one-term entries, which keeps the oracle fast."""
    terms = 1 if density == 1.0 else 2
    zero = A.zero_scalar()
    rows = [[zero] * A.rank for _ in range(A.rank)]
    for i in range(A.rank):
        for j in range(A.rank):
            if (skew and i >= j) or r.random() >= density:
                continue
            entry = rand_scalar(
                r, A.patch, max_degree=1, terms=terms, with_t=True, exp_range=1
            )
            rows[i][j] = entry
            if skew:
                rows[j][i] = -entry
    return TensorMap(A, SIDE_A, SIDE_A, tuple(map(tuple, rows)))


def _unit_determinant_matrix(r, A, skew):
    """Products of unitriangular factors: L D U with a diagonal of units, or
    L J L^T with J the standard skew block matrix."""

    def endo(m):
        return TensorMap(A, SIDE_A, SIDE_A, m.matrix)

    L = endo(unit_triangular(r, A).dual())
    if skew:
        return L.compose(endo(standard_flat(A)).compose(endo(L.dual())))
    zero = A.zero_scalar()
    diagonal = [
        A.scalar(r.choice([-2, -1, 1, 3])).times_exp(r.randint(-1, 1))
        for _ in range(A.rank)
    ]
    D = TensorMap(A, SIDE_A, SIDE_A, tuple(
        tuple(diagonal[i] if i == j else zero for j in range(A.rank))
        for i in range(A.rank)
    ))
    return L.compose(D.compose(unit_triangular(r, A)))


def test_determinant_and_inverse_match_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    QQ = sympy.QQ
    names = ("x", "y", "z", "u", "v", "w")
    for rank in range(1, 7):
        A = make_tangent(Patch(names[:rank]))
        # polynomials in the variables and E = e^t; values are shifted by a
        # power of E first, so that no negative power is left
        R = QQ[A.patch.variables + ("E",)]

        def e_power(k):
            return R.ring.from_dict({(0,) * rank + (0, k): QQ(1)})

        def poly(value, shift):
            return R.ring.from_dict({
                e + (weight + shift,): QQ(c.numerator, c.denominator)
                for weight, terms in value.terms.items()
                for e, c in terms.items()
            })

        def matrix(m, shift):
            rows = [[poly(c, shift) for c in row] for row in m.matrix]
            return DomainMatrix(rows, (rank, rank), R)

        for seed in range(4):
            r = random.Random(100 * rank + seed)
            skew = seed % 2 == 1
            m = _oracle_matrix(r, A, skew, density=0.4 if seed < 2 else 1.0)
            det = m.determinant()
            # entries have weights >= -1, so E m is polynomial
            assert poly(det, rank) == matrix(m, 1).det(), (rank, seed)
            if not det.is_unit():
                with pytest.raises(NotInvertible):
                    m.inverse()
            if seed >= 2 or (skew and rank % 2):
                continue
            unit = _unit_determinant_matrix(r, A, skew)
            low = max(0, -min(k for row in unit.matrix for c in row for k in c.terms))
            # inverse(E^low unit) = num / den, i.e. adjugate / det; inv_den
            # stands in for adjugate(), which raises a TypeError in sympy 1.14
            # on some polynomial matrices (a charpoly with a zero coefficient)
            num, den = matrix(unit, low).inv_den()
            inv = unit.inverse()
            high = max(0, -min(k for row in inv.matrix for c in row for k in c.terms))
            for i in range(rank):
                for j in range(rank):
                    assert poly(inv.matrix[i][j], high) * den == (
                        e_power(high + low) * num[i, j].element
                    ), (rank, seed, i, j)
    # a nonzero determinant that is not a unit: x e^t
    A = make_tangent(Patch(("x",)))
    m = TensorMap(A, SIDE_A, SIDE_A, ((A.patch.coord("x").times_exp(1),),))
    assert not m.is_unit_determinant()
    with pytest.raises(NotInvertible):
        m.inverse()


def test_jacobi_and_presymplectic_on_corpus():
    c = contact()
    assert jacobi_check(c.C, c.Pi).ok
    for om in (c.Om, c.wH, c.wE, c.wP):
        assert presymplectic_check(c.C, om).ok
    # perturbing with a non-closed extra term breaks closedness with a witness
    bad = c.wH + Form(c.ext, 2, {(0, 1): c.p.coord("x1")})
    report = presymplectic_check(c.C, bad)
    assert report.status == "fail"
    assert report.witness


def test_pairing_oracle_for_self_bracket():
    # 1/2 [pi,pi](xi,eta,.) = [sharp xi, sharp eta] - sharp([xi,eta] induced)
    _, A = small_tangent()
    for seed in range(25):
        r = random.Random(seed)
        J = JacobiAlgebroidData(A, closed_twist(r, A))
        pi = rand_multivector(r, A, 2, max_degree=1, terms=1)
        xi = rand_form(r, A, 1, max_degree=1, terms=1)
        eta = rand_form(r, A, 1, max_degree=1, terms=1)
        sh = sharp_map(pi)
        sx, se = sh.apply(xi), sh.apply(eta)
        lhs = Fraction(1, 2) * contract(eta, contract(xi, phi0_schouten(J, pi, pi)))
        plain = schouten(sx, se)
        # the two candidate readings of the vector-field bracket coincide
        assert phi0_schouten(J, sx, se) == plain
        rhs = plain - sh.apply(jacobi_bracket(J, pi, xi, eta))
        assert lhs == rhs, f"seed={seed}"


def _restricted_scalar(r, patch, names):
    out = ExpPoly.zero(patch.variables)
    for _ in range(2):
        c = Fraction(r.randint(-3, 3))
        if c == 0:
            continue
        mono = ExpPoly.const(patch.variables, c)
        for _ in range(r.randint(1, 2)):
            mono = mono * ExpPoly.var(patch.variables, r.choice(names))
        out = out + mono
    return out


def poisson_pair(r, patch, A):
    """Two Poisson bivectors whose mutual bracket is generically nonzero."""
    f = _restricted_scalar(r, patch, ["x3", "x4"])
    g = _restricted_scalar(r, patch, ["x1", "x2"])
    one = patch.const(1)
    comps1 = {(2, 3): one}
    if not g.is_zero:
        comps1[(0, 1)] = g
    pi1 = MultiVector(A, 2, comps1)
    pi2 = MultiVector(A, 2, {(0, 1): f if not f.is_zero else one})
    return pi1, pi2


def test_mixed_bracket_four_term_identity():
    patch = Patch(("x1", "x2", "x3", "x4"))
    A = make_tangent(patch)
    J = JacobiAlgebroidData(A, Form.zero(A, 1))
    nontrivial = 0
    for seed in range(25):
        r = random.Random(seed)
        pi1, pi2 = poisson_pair(r, patch, A)
        assert jacobi_check(J, pi1).ok and jacobi_check(J, pi2).ok
        xi = rand_form(r, A, 1, max_degree=1, terms=1)
        eta = rand_form(r, A, 1, max_degree=1, terms=1)
        s1, s2 = sharp_map(pi1), sharp_map(pi2)
        mixed = phi0_schouten(J, pi1, pi2)
        if not mixed.is_zero:
            nontrivial += 1
        lhs = contract(eta, contract(xi, mixed))
        rhs = (
            schouten(s1.apply(xi), s2.apply(eta))
            + schouten(s2.apply(xi), s1.apply(eta))
            - s1.apply(jacobi_bracket(J, pi2, xi, eta))
            - s2.apply(jacobi_bracket(J, pi1, xi, eta))
        )
        assert lhs == rhs, f"seed={seed}"
    assert nontrivial >= 15  # the family must exercise nonzero brackets


def test_mixed_bracket_identity_twisted_corpus():
    c = contact()
    others = [pi_from_omega(c.C, om) for om in (c.wH, c.wE)]
    for q in others:
        assert jacobi_check(c.C, q).ok
    for seed in range(5):
        r = random.Random(seed)
        xi = rand_form(r, c.ext, 1, max_degree=1, terms=1)
        eta = rand_form(r, c.ext, 1, max_degree=1, terms=1)
        for q in others:
            s1, s2 = sharp_map(c.Pi), sharp_map(q)
            lhs = contract(eta, contract(xi, phi0_schouten(c.C, c.Pi, q)))
            rhs = (
                schouten(s1.apply(xi), s2.apply(eta))
                + schouten(s2.apply(xi), s1.apply(eta))
                - s1.apply(jacobi_bracket(c.C, q, xi, eta))
                - s2.apply(jacobi_bracket(c.C, c.Pi, xi, eta))
            )
            assert lhs == rhs, f"seed={seed}"


def test_standard_bialgebroid_shape():
    c = contact()
    B = make_standard_bialgebroid(c.C)
    assert B.A is c.ext
    assert B.phi0 == c.C.phi0
    assert B.X0.is_zero
    assert B.Astar.rank == c.ext.rank
    assert bialgebroid_compat_check(B).ok


def test_trivial_duals_are_recognised():
    assert make_trivial(Patch(("x",)), 3).is_trivial
    B = make_standard_bialgebroid(contact().C)
    assert B.Astar.is_trivial and not B.A.is_trivial
    # lift_hat of the standard dual: its e^{-t} * 0 entries are dropped
    up = lift_bialgebroid(B)
    assert up.Astar.is_trivial and not up.A.is_trivial


def test_trivial_untwisted_dual_passes_with_no_dual_differential(monkeypatch):
    calls = []
    real = structures.dual_differential

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(structures, "dual_differential", counting)
    report = bialgebroid_compat_check(make_standard_bialgebroid(contact().C))
    assert report == Report(PASS, "verified on test family")
    assert calls == []
    # a dual with a bracket runs the family, through the counted function
    assert bialgebroid_compat_check(solvable_bialgebroid()).ok
    assert calls


def test_trivial_dual_with_a_twist_still_runs_the_family():
    p, _, J = _plane()
    D = make_standard_bialgebroid(J).Astar
    eps1 = Form.coframe(D, 0)  # printed as ddx on the primal side
    for twist, witness in [
        (eps1, "derivation identity on (x*ddx, 1*ddy): 1*ddx^ddy"),
        (p.coord("x") * eps1, "derivation identity on (1*ddx, 1*ddy): -1*ddx^ddy"),
    ]:
        B = JacobiBialgebroidData(J, JacobiAlgebroidData(D, twist))
        report = bialgebroid_compat_check(B)
        assert (report.status, report.witness) == ("fail", witness)


def test_solvable_bialgebroid_compat():
    B = solvable_bialgebroid()
    assert bialgebroid_compat_check(B).ok
    # a nonzero primal twist against the same dual side breaks compatibility
    A = B.a_side.algebroid
    broken = type(B)(
        JacobiAlgebroidData(A, Form.coframe(A, 0)),
        B.astar_side,
    )
    report = bialgebroid_compat_check(broken)
    assert report.status == "fail"
    assert report.witness


def test_dual_differential_on_solvable():
    # the dual side is a genuine Lie algebra: d_* e2 = eps-dual structure term
    B = solvable_bialgebroid()
    e1 = MultiVector.frame(B.A, 0)
    e2 = MultiVector.frame(B.A, 1)
    d1 = dual_differential(B, e1)
    d2 = dual_differential(B, e2)
    assert d1.is_zero
    assert d2 == -wedge(e1, e2)
    # square-zero carries over to the dual differential
    assert dual_differential(B, d2).is_zero


def test_maurer_cartan_reduces_to_closedness_for_standard_pair():
    c = contact()
    B = make_standard_bialgebroid(c.C)
    for om in (c.Om, c.wH, c.wE, c.wP):
        assert maurer_cartan_check(B, om).ok
    assert maurer_cartan_check(B, c.Pi).ok
    bad = c.wH + Form(c.ext, 2, {(0, 1): c.p.coord("x1")})
    assert maurer_cartan_check(B, bad).status == "fail"


def test_mc_equals_graph_closure():
    c = contact()
    B = make_standard_bialgebroid(c.C)
    candidates = [c.Om, c.wP, c.Pi]
    for seed in range(20):
        r = random.Random(seed)
        kind = "sharp" if seed % 2 == 0 else "flat"
        candidates.append(rand_graph_section(r, c.ext, kind))
    verdicts = set()
    for i, s in enumerate(candidates):
        mc = maurer_cartan_check(B, s)
        cl = graph_closure_check(B, s)
        assert mc.status == cl.status, f"instance={i}"
        verdicts.add(mc.status)
    # both verdicts must occur for the agreement to mean anything
    assert verdicts == {"pass", "fail"}


def _graph_couple(s, b):
    """The couple over the basis section b in the graph of s."""
    if isinstance(s, MultiVector):
        return CouplePair(sharp_map(s).apply(b), b)
    return CouplePair(b, flat_map(s).apply(b))


def _graph_defect(B, s, u, v):
    """The part of the bracket of two graph couples off the graph of s."""
    w = courant_bracket(B, u, v)
    if isinstance(s, MultiVector):
        return w.vector - sharp_map(s).apply(w.covector)
    return w.covector - flat_map(s).apply(w.vector)


def _graph_basis(A, s):
    if isinstance(s, MultiVector):
        return [Form.coframe(A, i) for i in range(A.rank)]
    return [MultiVector.frame(A, i) for i in range(A.rank)]


def _scaled_family_closure(B, s):
    """Oracle: closure over all pairs of basis and coordinate-scaled basis sections."""
    A = B.A
    basis = _graph_basis(A, s)
    family = basis + [A.patch.coord(name) * b for name in A.patch.coords for b in basis]
    for a, b in enumerate(family):
        for c in family[a + 1 :]:
            u, v = _graph_couple(s, b), _graph_couple(s, c)
            if not _graph_defect(B, s, u, v).is_zero:
                return "fail"
    return "pass"


def _couple(r, A):
    """A dual pair of two tangent algebroids with random twists on both sides."""
    D = make_tangent(A.patch)
    return JacobiBialgebroidData(
        JacobiAlgebroidData(A, rand_form(r, A, 1, max_degree=1)),
        JacobiAlgebroidData(D, rand_form(r, D, 1, max_degree=1)),
    )


def test_graph_closure_defect_is_tensorial():
    nonzero = set()
    for seed in range(3):
        r = random.Random(seed)
        p, A = small_tangent()
        open_twist = p.coord("x") * Form.coframe(A, 1)
        assert not differential(A, open_twist).is_zero
        couple = _couple(r, A)
        pairs = {
            "standard": make_standard_bialgebroid(JacobiAlgebroidData(A, open_twist)),
            "lift": lift_bialgebroid(couple),
            "couple": couple,
            "solvable": solvable_bialgebroid(),
        }
        for name, B in pairs.items():
            vs = B.A.patch.variables
            t = ExpPoly.var(vs, "t")
            f = (
                rand_scalar(r, B.A.patch, with_t=True, exp_range=1)
                + t.times_exp(1)
                + ExpPoly.exp(vs, -1)
            )
            for s in (
                rand_multivector(r, B.A, 2, max_degree=1, terms=1),
                rand_form(r, B.A, 2, max_degree=1, terms=1),
            ):
                couples = [_graph_couple(s, b) for b in _graph_basis(B.A, s)]
                for u, v in combinations(couples, 2):
                    fu = CouplePair(f * u.vector, f * u.covector)
                    fv = CouplePair(f * v.vector, f * v.covector)
                    base = _graph_defect(B, s, u, v)
                    where = f"seed={seed} pair={name} s={s}"
                    assert _graph_defect(B, s, u, fv) == f * base, where
                    assert _graph_defect(B, s, fu, v) == f * base, where
                    if not base.is_zero:
                        nonzero.add((name, type(s).__name__))
    # the identity must be exercised on nonzero defects in both branches; on
    # the rank-2 solvable pair every defect vanishes
    for name in ("standard", "lift", "couple"):
        assert {(name, "MultiVector"), (name, "Form")} <= nonzero, name


def test_frame_closure_agrees_with_the_scaled_family():
    seen = {"couple": set(), "solvable": set()}
    for seed in range(6):
        r = random.Random(seed)
        _, A = small_tangent(("x", "y", "z", "w"))
        pairs = {"couple": _couple(r, A), "solvable": solvable_bialgebroid()}
        for name, B in pairs.items():
            for max_degree in (0, 1):
                for s in (
                    rand_multivector(r, B.A, 2, max_degree=max_degree, terms=1),
                    rand_form(r, B.A, 2, max_degree=max_degree, terms=1),
                ):
                    old = _scaled_family_closure(B, s)
                    new = graph_closure_check(B, s).status
                    assert new == old, f"seed={seed} pair={name} s={s}"
                    if not s.is_zero:
                        seen[name].add(old)
    # both verdicts must occur on nonzero sections for the agreement to mean
    # anything; on the rank-2 solvable pair every section passes
    assert seen == {"couple": {"pass", "fail"}, "solvable": {"pass"}}


def test_courant_bracket_and_pairings():
    B = solvable_bialgebroid()
    e1 = MultiVector.frame(B.A, 0)
    e2 = MultiVector.frame(B.A, 1)
    z = Form.zero(B.A, 1)
    u = CouplePair(e1, z)
    v = CouplePair(e2, z)
    out = courant_bracket(B, u, v)
    assert out.vector == e2  # [e1,e2] = e2 on the primal side
    assert out.covector.is_zero
    assert pairing_pm(u, u, -1).is_zero
    w = CouplePair(e1, Form.coframe(B.A, 0))
    assert pairing_pm(w, w, +1) == B.A.scalar(1)


def test_graphs_are_plus_isotropic():
    c = contact()
    sh = sharp_map(c.Pi)
    for i in range(c.ext.rank):
        xi = Form.coframe(c.ext, i)
        for j in range(c.ext.rank):
            eta = Form.coframe(c.ext, j)
            u = CouplePair(sh.apply(xi), xi)
            v = CouplePair(sh.apply(eta), eta)
            assert pairing_pm(u, v, +1).is_zero, (i, j)


def test_jacobi_iff_presymplectic_for_unit_bivectors():
    p4 = Patch(("x1", "x2", "x3", "x4"))
    A4 = make_tangent(p4)
    J = JacobiAlgebroidData(A4, Form.zero(A4, 1))
    hits = {True: 0, False: 0}
    for seed in range(20):
        r = random.Random(seed)
        pi = rand_unit_bivector(r, A4)
        left = jacobi_check(J, pi).ok
        right = presymplectic_check(J, omega_from_pi(J, pi)).ok
        assert left == right, f"seed={seed}"
        hits[left] += 1
    assert hits[True] and hits[False]


def test_tensor_map_shape_errors():
    c = contact()
    _, A = small_tangent()
    with pytest.raises(ValueError):
        TensorMap(A, SIDE_A, SIDE_A, ((A.scalar(1),),))
    with pytest.raises(MismatchError):
        c.NH.apply(MultiVector.frame(A, 0))
    with pytest.raises(MismatchError):
        c.NH.compose(flat_map(c.Om))  # target A* does not feed source A
