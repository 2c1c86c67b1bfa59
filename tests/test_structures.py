import random
import re
from fractions import Fraction
from itertools import combinations

import pytest

from jacv import structures
from jacv.algebroid import (
    PASS,
    AlgebroidPatch,
    JacobiAlgebroidData,
    Patch,
    Report,
    extend_with_R,
    lift_hat,
    make_explicit,
    make_tangent,
    make_trivial,
    validate_algebroid,
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
from jacv.coeff import ExpPoly, NotInvertible, sum_products
from jacv.dirac import GraphRelation, dirac_pair_check, torsion_tensor_check
from jacv.lift import lift_bialgebroid, lift_section, theorem_main1_crosscheck
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
    dual_schouten,
    flat_map,
    graph_closure_check,
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
    action_algebroids,
    closed_twist,
    contact,
    contact_form,
    jacobi_bracket,
    poisson_bialgebroid,
    rand_form,
    rand_graph_section,
    rand_multivector,
    rand_scalar,
    rand_unit_bivector,
    rand_unit_two_form,
    record_products,
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
    assert fl == Fraction(-1) * sh.inverse()


def test_a_scalar_scales_a_map_from_either_side():
    p, A, _ = _plane()
    sh = sharp_map(MultiVector(A, 2, {(0, 1): p.coord("x")}))
    for f in (3, Fraction(-1, 2), p.coord("y").times_exp(1)):
        scaled = sharp_map(MultiVector(A, 2, {(0, 1): f * p.coord("x")}))
        assert f * sh == scaled and sh * f == scaled
    # a map scales only by a scalar, as a section does
    for other in (sh, MultiVector.frame(A, 0), 1.5):
        with pytest.raises(TypeError):
            sh * other
        with pytest.raises(TypeError):
            other * sh


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
    assert nondegenerate_check(sharp_map(pi)).status == "fail"


def _identity(A, side):
    ident = TensorMap.identity(A)
    return ident if side is SIDE_A else ident.dual()


def test_tensor_map_algebra():
    c = contact()
    N = c.NH
    ident = TensorMap.identity(c.ext)
    assert N.compose(ident) == N
    assert ident.compose(N) == N
    assert N.dual().dual() == N
    fl = flat_map(c.Om)
    # inverse after m and m after inverse are the identities of both sides,
    # on flats, a sharp, a lifted e^t Om, whose Pfaffian is e^(3t), and a
    # unitriangular map, which is not skew
    bar = lift_bialgebroid(c.C).A
    lifted = lift_section(bar, c.Om)
    skew = (fl, flat_map(c.wH), flat_map(c.wE), sharp_map(c.Pi), flat_map(lifted))
    for m in skew + (unit_triangular(random.Random(1), c.ext),):
        inv = m.inverse()
        assert inv.compose(m) == _identity(m.algebroid, m.source)
        assert m.compose(inv) == _identity(m.algebroid, m.target)
    # contravariance of the transpose
    assert fl.compose(N).dual() == N.dual().compose(fl.dual())
    assert (N + (-N)).is_zero and (N - N).is_zero
    assert N - ident == N + (-ident) and (N - ident) + ident == N
    det = fl.determinant()
    assert det == c.ext.scalar(1)


def test_skew_inverse_forms_few_products(monkeypatch):
    # flat(Om) is inverted from one Pfaffian memo in 9 products; its skew
    # block matrix, which a map that is not skew expands, takes 20
    m = flat_map(contact().Om)
    products = record_products(monkeypatch)
    inv = m.inverse()
    assert len(products) < 20, len(products)
    assert inv.compose(m) == TensorMap.identity(m.algebroid)


def test_general_inverse_forms_few_products(monkeypatch):
    # a rank-6 map that is not skew is inverted from the one Pfaffian memo of
    # its block matrix in 812 products; a fresh memo per dropped row of the
    # cofactors takes 1,072
    A = make_tangent(Patch(("x", "y", "z", "u", "v", "w")))
    m = _unit_determinant_matrix(random.Random(6), A, skew=False)
    products = record_products(monkeypatch)
    inv = m.inverse()
    assert len(products) < 900, len(products)
    monkeypatch.undo()
    assert inv.compose(m) == TensorMap.identity(A)


def test_composition_builds_one_value_per_entry(monkeypatch):
    # each entry of inverse(flat Om) . flat wH sums its products into one
    # value: 10 entries have a product, and a sum of partial values took 18
    c = contact()
    left, right = flat_map(c.Om).inverse(), flat_map(c.wH)
    with_products = sum(
        any(not a.is_zero and not b.is_zero for a, b in zip(row, column))
        for row in left.matrix
        for column in zip(*right.matrix)
    )
    built = []
    init = ExpPoly.__init__

    def counting_init(self, variables, terms):
        built.append(self)
        init(self, variables, terms)

    monkeypatch.setattr(ExpPoly, "__init__", counting_init)
    N = left.compose(right)
    assert with_products == 10
    assert len(built) <= with_products, len(built)
    monkeypatch.undo()
    assert N == c.NH


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

    def unit():
        return A.scalar(r.choice([-2, -1, 1, 3])).times_exp(r.randint(-1, 1))

    L = endo(unit_triangular(r, A).dual())
    if skew:
        # Pf = u^(rank/2) for the unit u scaling J
        J = unit() * endo(standard_flat(A))
        return L.compose(J.compose(endo(L.dual())))
    zero = A.zero_scalar()
    diagonal = [unit() for _ in range(A.rank)]
    D = TensorMap(A, SIDE_A, SIDE_A, tuple(
        tuple(diagonal[i] if i == j else zero for j in range(A.rank))
        for i in range(A.rank)
    ))
    return L.compose(D.compose(unit_triangular(r, A)))


# (skew, density, zero row 0 or column 1) per seed: sparse and dense maps,
# then skew ones with two-term entries, whose odd principal minors vanish,
# and maps with a zero row or column, where every term of the expansion
# meets a zero entry or a zero sub-minor
ORACLE_CASES = (
    (False, 0.4, None), (True, 0.4, None), (False, 1.0, None), (True, 1.0, None),
    (True, 0.7, None), (False, 0.7, 0), (False, 0.7, 1),
)


def _not_a_unit(det):
    """The NotInvertible of a non-unit determinant, message and all."""
    return pytest.raises(NotInvertible, match=re.escape(f"{det} is not a unit in the ring"))


def test_determinant_and_inverse_match_sympy(monkeypatch):
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    # one Pfaffian expansion per determinant or inverse, and the matrix alone
    # picks what it expands: a skew map itself, any other its block matrix
    # [[0, m], [-m^T, 0]], twice as wide
    paths = []

    def spy(algebroid, matrix, _real=structures._pfaffians):
        paths.append(len(matrix[0]))
        return _real(algebroid, matrix)

    monkeypatch.setattr(structures, "_pfaffians", spy)

    def path(m):
        return [m.algebroid.rank * (1 if structures._is_skew(m.matrix) else 2)]

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
                for weight, e, c in value.monomials()
            })

        def matrix(m, shift):
            rows = [[poly(c, shift) for c in row] for row in m.matrix]
            return DomainMatrix(rows, (rank, rank), R)

        def check_det(m, where):
            del paths[:]
            det = m.determinant()
            assert paths == path(m), where
            # entries have weights >= -1, so E m is polynomial
            assert poly(det, rank) == matrix(m, 1).det(), where
            if not det.is_unit():
                with _not_a_unit(det):
                    m.inverse()
            return det

        def lowest_weight(m):
            return min(k for row in m.matrix for c in row for k, _, _ in c.monomials())

        def check_inverse(unit, where):
            low = max(0, -lowest_weight(unit))
            # inverse(E^low unit) = num / den, i.e. adjugate / det; inv_den
            # stands in for adjugate(), which raises a TypeError in sympy 1.14
            # on some polynomial matrices (a charpoly with a zero coefficient)
            num, den = matrix(unit, low).inv_den()
            del paths[:]
            inv = unit.inverse()
            assert paths == path(unit), where
            high = max(0, -lowest_weight(inv))
            for i in range(rank):
                for j in range(rank):
                    assert poly(inv.matrix[i][j], high) * den == (
                        e_power(high + low) * num[i, j].element
                    ), (where, i, j)

        for seed, (skew, density, zero_line) in enumerate(ORACLE_CASES):
            r = random.Random(100 * rank + seed)
            m = _oracle_matrix(r, A, skew, density)
            if zero_line is not None:
                line = r.randrange(rank)
                m = TensorMap(A, SIDE_A, SIDE_A, tuple(
                    tuple(A.zero_scalar() if (i, j)[zero_line] == line else c
                          for j, c in enumerate(row))
                    for i, row in enumerate(m.matrix)
                ))
            det = check_det(m, (rank, seed))
            if (skew and rank % 2) or zero_line is not None:
                assert det.is_zero, (rank, seed)
            # every skew case at even rank, and the first general one
            if (skew and rank % 2 == 0) or seed == 0:
                check_inverse(_unit_determinant_matrix(r, A, skew), (rank, seed))
        # near-skew: one nonzero diagonal entry, or (rank >= 2) one entry
        # equal to its mirror instead of its negative, is not skew
        r = random.Random(100 * rank + 99)
        m = _oracle_matrix(r, A, True, 1.0)
        k = r.randrange(rank)
        rows = [list(row) for row in m.matrix]
        rows[k][k] = A.patch.coord(names[k]) + 1
        near = [TensorMap(A, SIDE_A, SIDE_A, rows)]
        if rank >= 2:
            rows = [list(row) for row in m.matrix]
            rows[1][0] = rows[0][1]
            near.append(TensorMap(A, SIDE_A, SIDE_A, rows))
        for variant, m in enumerate(near):
            assert not structures._is_skew(m.matrix)
            check_det(m, (rank, "near-skew", variant))
    # a nonzero determinant that is not a unit: x e^t
    A = make_tangent(Patch(("x",)))
    m = TensorMap(A, SIDE_A, SIDE_A, ((A.patch.coord("x").times_exp(1),),))
    assert not nondegenerate_check(m).ok
    with _not_a_unit(m.determinant()):
        m.inverse()
    # an odd-rank skew map: det 0, and its inverse names that determinant
    A = make_tangent(Patch(names[:3]))
    m = _oracle_matrix(random.Random(7), A, True, 1.0)
    assert structures._is_skew(m.matrix) and m.determinant().is_zero
    assert not nondegenerate_check(m).ok
    with pytest.raises(NotInvertible, match="^0 is not a unit in the ring$"):
        m.inverse()


def _recursive_pfaffians(algebroid, matrix):
    """The first-index expansion by recursion, the route ``_pfaffians`` took
    before its explicit stack: a reference for its products and their order."""
    zero = algebroid.zero_scalar()
    memo = {0: algebroid.patch.one()}

    def pf(mask):
        if mask not in memo:
            first = mask & -mask
            row = matrix[first.bit_length() - 1]
            rest, sign, terms = mask ^ first, 1, []
            for j in range(len(row)):
                if rest >> j & 1:
                    if not row[j].is_zero:
                        sub = pf(rest ^ (1 << j))
                        if not sub.is_zero:
                            terms.append((sign, row[j], sub))
                    sign = -sign
            memo[mask] = sum_products(terms) if terms else zero
        return memo[mask]

    return pf


def test_the_stacked_pfaffian_forms_the_products_of_the_recursion(monkeypatch):
    # the same values from the same products in the same order, over the
    # whole matrix and then every mask an inverse reads: without two indices
    # of a skew matrix, or without one index of each half of a block matrix
    for rank, skew, density, seed in (
        (4, True, 1.0, 1), (6, True, 0.6, 2), (3, False, 0.7, 3), (4, False, 1.0, 4)
    ):
        A = make_tangent(Patch(("x", "y", "z", "u", "v", "w")[:rank]))
        m = _oracle_matrix(random.Random(seed), A, skew, density)
        if skew:
            matrix, full = m.matrix, (1 << rank) - 1
            pairs = combinations(range(rank), 2)
        else:
            zeros = (A.zero_scalar(),) * rank
            matrix, full = tuple(zeros + row for row in m.matrix), (1 << 2 * rank) - 1
            pairs = ((j, rank + i) for i in range(rank) for j in range(rank))
        masks = [full] + [full ^ (1 << i) ^ (1 << j) for i, j in pairs]
        runs = []
        for expand in (structures._pfaffians, _recursive_pfaffians):
            products = record_products(monkeypatch)
            pf = expand(A, matrix)
            values = [pf(mask) for mask in masks]
            monkeypatch.undo()
            runs.append((values, products))
        assert runs[0] == runs[1], (rank, skew)
        assert runs[0][1], "the expansion formed no product"


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


def test_jacobi_check_takes_each_anchored_derivative_once(monkeypatch):
    # [Pi, Pi] sweeps each stored component of Pi at most once for all its
    # anchored derivatives, d omega each stored component of omega, the
    # frame identities each anchor entry and each stored structure function,
    # and the frame torsion each nonzero entry of the map
    c = contact()
    calls = []
    anchor_derivs = AlgebroidPatch.anchor_derivs

    def counting(self, f):
        calls.append(f)
        return anchor_derivs(self, f)

    monkeypatch.setattr(AlgebroidPatch, "anchor_derivs", counting)
    assert jacobi_check(c.C, c.Pi).ok
    assert 0 < len(calls) <= len(c.Pi.components), len(calls)
    del calls[:]
    assert differential(c.C, c.Om).is_zero
    assert 0 < len(calls) <= len(c.Om.components), len(calls)
    r = random.Random(3)
    algebroids = [J.algebroid for J in action_algebroids()] + [lift_hat(c.C)]
    for A in algebroids:
        del calls[:]
        assert validate_algebroid(A).ok
        stored = sum(map(len, A.anchor)) + sum(map(len, A.brackets.values()))
        assert 0 < len(calls) <= stored, (A.frame_labels, len(calls), stored)
        f_id = A.patch.coord(A.patch.coords[0]) * TensorMap.identity(A)
        for N in (f_id, unit_triangular(r, A)):
            del calls[:]
            report = torsion_tensor_check(N)
            entries = sum(not m.is_zero for row in N.matrix for m in row)
            assert len(calls) <= entries, (A.frame_labels, len(calls), entries)
            if N is f_id:  # zero torsion, so every frame pair is computed
                assert report.ok and calls


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


def test_member_gate_of_a_form_over_a_trivial_dual_builds_no_bracket(monkeypatch):
    # d_* = 0 and the dual bracket is 0, so the residue is d_phi(omega)
    c = contact()
    B = make_standard_bialgebroid(c.C)
    x1 = c.ext.patch.coord("x1")
    forms = [c.Om, c.wH, contact_form((1, 2, 3, 4), (1, 0, 0)), c.Om + x1 * c.wP]
    reports = [maurer_cartan_check(B, omega) for omega in forms]
    assert [r.status for r in reports] == ["pass", "pass", "pass", "fail"]
    assert reports[-1].witness == str(differential(c.C, forms[-1]))

    def no_bracket(*args):
        raise AssertionError("the dual bracket was built")

    monkeypatch.setattr(structures, "dual_schouten", no_bracket)
    assert [maurer_cartan_check(B, omega) for omega in forms] == reports
    # a dual with a bracket still brackets the form
    with pytest.raises(AssertionError, match="dual bracket"):
        maurer_cartan_check(solvable_bialgebroid(), Form.zero(solvable_bialgebroid().A, 2))


def test_graph_closure_over_a_trivial_dual_computes_no_dual_term(monkeypatch):
    # the dual Lie derivatives, differential and bracket are 0 over a
    # trivial dual, so the Courant bracket leaves them out; the reports are
    # those of the route that computes and adds them
    r = random.Random(28)
    c = contact()
    B = make_standard_bialgebroid(c.C)
    x1 = c.p.coord("x1")
    sections = [c.Om, c.wH, c.Pi, c.Om + x1 * c.wP, x1 * c.Pi]
    sections += [rand_graph_section(r, c.ext, kind) for kind in ("sharp", "flat") * 2]
    with monkeypatch.context() as patched:
        patched.setattr(structures, "_trivial_dual", lambda B: False)
        reports = [graph_closure_check(B, s) for s in sections]
    kinds = {(type(s).__name__, report.status) for s, report in zip(sections, reports)}
    assert kinds == {(k, v) for k in ("MultiVector", "Form") for v in ("pass", "fail")}

    def no_dual_term(*args):
        raise AssertionError("a dual term was computed")

    for name in ("dual_lie", "dual_differential", "dual_schouten"):
        monkeypatch.setattr(structures, name, no_dual_term)
    assert [graph_closure_check(B, s) for s in sections] == reports
    # a dual with a bracket still computes them
    solvable = solvable_bialgebroid()
    for s in (MultiVector.zero(solvable.A, 2), Form.zero(solvable.A, 2)):
        with pytest.raises(AssertionError, match="dual term"):
            graph_closure_check(solvable, s)


def test_member_gate_of_a_bivector_over_a_trivial_dual_skips_d_star(monkeypatch):
    # d_* = 0, so the residue is (1/2)[pi, pi] alone; the reports are those
    # of the route that computes d_* pi and adds it
    r = random.Random(24)
    c = contact()
    B = make_standard_bialgebroid(c.C)
    bivectors = [c.Pi, *_rational_bivectors(r, c.ext, 3)]
    bivectors.append(pi_from_omega(c.C, contact_form((1, 2, 2, 0), (1, -1, 2))))
    assert all(dual_differential(B, pi).is_zero for pi in bivectors)
    reports = [_unscaled_mc(B, pi) for pi in bivectors]
    assert {report.status for report in reports} == {"pass", "fail"}
    calls = []
    counted = structures.dual_differential

    def counting(B, P):
        calls.append(P)
        return counted(B, P)

    monkeypatch.setattr(structures, "dual_differential", counting)
    assert [maurer_cartan_check(B, pi) for pi in bivectors] == reports
    assert calls == []
    # a dual with a bracket still computes d_* of the bivector
    solvable = solvable_bialgebroid()
    zero = MultiVector.zero(solvable.a_side.algebroid, 2)
    assert maurer_cartan_check(solvable, zero).ok
    assert calls == [zero]


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


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the test family pairs a scaled frame only with plain frames",
)
def test_tangent_pair_with_identity_dual_anchor_fails():
    # (TM, T*M) over (x, y, z) with dual anchor dx_i -> d/dx_i, zero dual
    # bracket and zero twists: rho rho_*^T + rho_* rho^T = 2 I, so the
    # derivation identity leaves 2 ddx^ddy on (x ddx, x ddy)
    p, A = small_tangent(("x", "y", "z"))
    zero, one = p.zero(), p.const(1)
    rows = tuple(tuple(one if i == j else zero for j in range(3)) for i in range(3))
    D = make_explicit(p, 3, rows, {})
    B = JacobiBialgebroidData(
        JacobiAlgebroidData(A, Form.zero(A, 1)), JacobiAlgebroidData(D, Form.zero(D, 1))
    )
    assert validate_algebroid(A).ok and validate_algebroid(D).ok
    assert bialgebroid_compat_check(B).status == "fail"


def _poisson_pair():
    """T*M_pi for pi = z ddx^ddy on (x, y, z): an anchored dual, d_* != 0."""
    p, A = small_tangent(("x", "y", "z"))
    pi = MultiVector(A, 2, {(0, 1): p.coord("z")})
    return p, A, pi, poisson_bialgebroid(pi)


def test_poisson_dual_differential_is_the_bracket_with_pi():
    p, A, pi, B = _poisson_pair()
    x, z = p.coord("x"), p.coord("z")
    assert validate_algebroid(B.astar_side).ok
    f = MultiVector.scalar_section(A, x * z)
    expected = MultiVector(A, 1, {(1,): -z * z})  # pins the sign of the anchor
    assert dual_differential(B, f) == expected
    assert phi0_schouten(B.a_side, pi, f) == expected
    assert bialgebroid_compat_check(B).ok


def test_poisson_pair_member_gates():
    p, A, pi, B = _poisson_pair()
    for s in (pi, 2 * pi, -pi, MultiVector(A, 2, {(1, 2): p.coord("x")})):
        assert maurer_cartan_check(B, s).ok, s
        assert graph_closure_check(B, s).ok, s
    w = Form(A, 2, {(0, 1): p.one()})
    report = maurer_cartan_check(B, w)
    assert (report.status, report.witness) == ("fail", "1*dx^dy^dz")
    assert graph_closure_check(B, w).status == "fail"


def test_poisson_sharp_pair_passes_at_both_levels():
    _, _, pi, B = _poisson_pair()
    left, right = GraphRelation.of_bivector(pi), GraphRelation.of_bivector(2 * pi)
    report = dirac_pair_check(B, left, right)
    assert (report.status, report.strategy) == ("pass", "bracket compatibility")
    transport = theorem_main1_crosscheck(B, left, right)
    assert (transport.status, transport.witness) == ("pass", "both levels: pass")


def _extended_solvable():
    """The solvable pair with each side extended by a trivial line and its
    canonical twist: rank 3, so a self-bracket of degree 2 can be nonzero."""
    B = solvable_bialgebroid()
    return JacobiBialgebroidData(extend_with_R(B.A), extend_with_R(B.Astar))


@pytest.mark.parametrize(
    "build", [solvable_bialgebroid, _extended_solvable], ids=["solvable", "extended"]
)
def test_dual_self_bracket_flips_the_form_once(monkeypatch, build):
    # dual_schouten(B, w, w) hands phi0_schouten one object twice, so
    # maurer_cartan_check takes the self-bracket path on a nontrivial dual;
    # the bracket and the verdict are those of an equal copy of w
    B = build()
    assert not B.Astar.is_trivial
    same = []
    real = structures.phi0_schouten

    def spy(J, D1, D2):
        same.append(D1 is D2)
        return real(J, D1, D2)

    nonzero = 0
    for seed in range(12):
        r = random.Random(seed)
        w = rand_form(r, B.A, 2, density=0.9, max_degree=1, terms=2)
        copy = Form(B.A, 2, dict(w.components))
        monkeypatch.setattr(structures, "phi0_schouten", spy)
        bracket = dual_schouten(B, w, w)
        report = maurer_cartan_check(B, w)
        monkeypatch.undo()
        assert same == [True, True]
        del same[:]
        assert bracket == dual_schouten(B, w, copy), seed
        residue = differential(B.a_side, w) + Fraction(1, 2) * dual_schouten(B, w, copy)
        if residue.is_zero:
            assert report == Report(PASS), seed
        else:
            assert report == Report("fail", witness=str(residue)), seed
        nonzero += not bracket.is_zero
    if B.A.rank >= 3:
        assert nonzero >= 6, nonzero


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


def _apply_by_the_matrix(N, section):
    """N applied to a degree-1 section, entry by entry from its matrix."""
    A = N.algebroid
    comps = {}
    zero = A.zero_scalar()
    for i in range(A.rank):
        total = zero
        for j in range(A.rank):
            total = total + N.matrix[i][j] * section.components.get((j,), zero)
        comps[(i,)] = total
    return N.target(A, 1, comps)


@pytest.mark.parametrize("source", [SIDE_A, SIDE_DUAL], ids=["A", "A*"])
def test_tensor_map_apply_matches_the_matrix_product(source):
    r = random.Random(11)
    _, A = small_tangent(("x", "y", "z", "w"))
    assert (SIDE_A, SIDE_DUAL) == (MultiVector, Form)
    for target in (SIDE_A, SIDE_DUAL):
        for density in (0.3, 1.0):
            rows = tuple(
                tuple(
                    rand_scalar(r, A.patch) if r.random() < density else A.zero_scalar()
                    for _ in range(A.rank)
                )
                for _ in range(A.rank)
            )
            N = TensorMap(A, source, target, rows)
            for section_density in (0.3, 1.0):
                for _ in range(5):
                    comps = {
                        (j,): rand_scalar(r, A.patch)
                        for j in range(A.rank) if r.random() < section_density
                    }
                    s = source(A, 1, comps)
                    assert N.apply(s) == _apply_by_the_matrix(N, s)
            for i in range(A.rank):
                frame = source(A, 1, {(i,): A.scalar(1)})
                column = {(k,): N.matrix[k][i] for k in range(A.rank)}
                assert N.apply(frame) == target(A, 1, column)
            assert N.apply(source.zero(A, 1)).is_zero


def test_tensor_map_shape_errors():
    c = contact()
    _, A = small_tangent()
    with pytest.raises(ValueError):
        TensorMap(A, SIDE_A, SIDE_A, ((A.scalar(1),),))
    # a side is a section class; the names of the printed sides are not sides
    with pytest.raises(ValueError, match="bad source side 'A'"):
        TensorMap(A, "A", SIDE_A, c.NH.matrix)
    with pytest.raises(ValueError, match="bad target side 'A\\*'"):
        TensorMap(A, SIDE_A, "A*", c.NH.matrix)
    with pytest.raises(MismatchError, match="different algebroid"):
        c.NH.apply(MultiVector.frame(A, 0))
    with pytest.raises(MismatchError, match="degree-1 MultiVector"):
        c.NH.apply(Form.coframe(c.ext, 0))
    with pytest.raises(MismatchError, match="degree-1 sections"):
        c.NH.apply(c.Pi)
    with pytest.raises(MismatchError):
        c.NH.compose(flat_map(c.Om))  # target A* does not feed source A


# -- self-brackets of rational bivectors, cleared of denominators ----------

def _unscaled_jacobi(J, pi):
    return structures._report_zero(phi0_schouten(J, pi, pi))


def _unscaled_mc(B, pi):
    square = phi0_schouten(B.a_side, pi, pi)
    residue = dual_differential(B, pi) + Fraction(1, 2) * square
    return structures._report_zero(residue)


def _rational_bivectors(r, A, count):
    for _ in range(count):
        pi = rand_multivector(r, A, 2, max_degree=1, terms=2, with_t=True)
        yield pi * Fraction(r.choice((1, -2, 5)), r.choice((2, 3, 6)))


def test_self_brackets_of_rational_bivectors_match_the_unscaled_route():
    # twisted data with and without structure functions, and the Poisson
    # pair, whose d_* is not zero; multiples of a Poisson bivector pass
    r = random.Random(21)
    c = contact()
    p, A, pi0, poisson = _poisson_pair()
    statuses = set()
    for J in (c.C, *action_algebroids()):
        pis = list(_rational_bivectors(r, J.algebroid, 4))
        if J is c.C:
            pis.append(pi_from_omega(J, contact_form((1, 2, 2, 0), (1, -1, 2))))
        B = make_standard_bialgebroid(J)
        for pi in pis:
            report = jacobi_check(J, pi)
            assert report == _unscaled_jacobi(J, pi)
            assert maurer_cartan_check(B, pi) == _unscaled_mc(B, pi)
            statuses.add(report.status)
    x = p.coord("x")
    for pi in (pi0 * Fraction(1, 3), pi0 * Fraction(-2, 5), pi0 * (x * Fraction(1, 2))):
        report = maurer_cartan_check(poisson, pi)
        assert report == _unscaled_mc(poisson, pi)
        statuses.add(report.status)
    assert statuses == {"pass", "fail"}


def _fractional(value):
    return value.denominator() != 1


def test_self_brackets_multiply_integers_before_the_one_scaling(monkeypatch):
    # pi_from_omega of an integer contact form with Pf = 4 has denominator
    # d = 4; the bracket of 4 pi multiplies integers, and only a nonzero
    # residue is scaled, by 1 / d^2 for jacobi and 1 / (2 d^2) for mc
    c = contact()
    pi = pi_from_omega(c.C, contact_form((1, 2, 2, 0), (1, -1, 2)))
    assert max(v.denominator() for v in pi.components.values()) == 4
    failing = pi * c.p.coord("x1")
    B = make_standard_bialgebroid(c.C)
    for check, c2 in ((lambda s: jacobi_check(c.C, s), Fraction(1, 16)),
                      (lambda s: maurer_cartan_check(B, s), Fraction(1, 32))):
        with monkeypatch.context() as patched:
            products = record_products(patched)
            assert check(pi).ok
        assert products
        assert not any(_fractional(a) or _fractional(b) for a, b in products)
        with monkeypatch.context() as patched:
            products = record_products(patched)
            assert check(failing).status == "fail"
        scaled = next(
            n for n, (a, b) in enumerate(products) if _fractional(a) or _fractional(b)
        )
        assert scaled > 0
        for a, b in products[scaled:]:
            assert a == c2 and not _fractional(b)
