import random
from fractions import Fraction

import pytest

from jacv.algebroid import (
    JacobiAlgebroidData,
    Patch,
    anchor_apply,
    bracket_sections,
    extend_with_R,
    make_tangent,
)
from jacv.calculus import (
    Form,
    MismatchError,
    MultiVector,
    contract,
    differential,
    eval_on,
    flip_dual,
    lie_derivative,
    merge,
    pair,
    phi0_schouten,
    rebase,
    schouten,
    split,
    wedge,
    wedge_power,
)
from tests.gen import (
    closed_twist,
    contact,
    rand_form,
    rand_multivector,
    small_tangent,
    solvable_bialgebroid,
)


def test_pairing_and_contraction_pins():
    _, A = small_tangent()
    e1, e2 = MultiVector.frame(A, 0), MultiVector.frame(A, 1)
    eps1, eps2 = Form.coframe(A, 0), Form.coframe(A, 1)
    two = wedge(eps1, eps2)
    assert pair(two, wedge(e1, e2)) == A.scalar(1)
    assert eval_on(two, [e1, e2]) == A.scalar(1)
    assert eval_on(two, [e2, e1]) == A.scalar(-1)
    # contraction fills the first slot
    assert contract(e1, two) == eps2
    assert contract(e2, two) == -eps1
    with pytest.raises(MismatchError):
        contract(e1, Form(A, 0, {(): A.scalar(1)}))


def test_wedge_graded_commutativity():
    _, A = small_tangent(("x", "y", "z", "w"))
    for seed in range(25):
        r = random.Random(seed)
        p = r.randint(1, 3)
        q = r.randint(1, 3)
        u = rand_form(r, A, p, max_degree=1, terms=1)
        v = rand_form(r, A, q, max_degree=1, terms=1)
        lhs = wedge(u, v)
        rhs = wedge(v, u)
        if (p * q) % 2:
            rhs = -rhs
        assert lhs == rhs, f"seed={seed} degrees=({p},{q})"


def test_wedge_associativity():
    _, A = small_tangent(("x", "y", "z", "w"))
    for seed in range(15):
        r = random.Random(seed)
        u = rand_multivector(r, A, 1, max_degree=1)
        v = rand_multivector(r, A, 1, max_degree=1)
        w = rand_multivector(r, A, 2, max_degree=1)
        assert wedge(wedge(u, v), w) == wedge(u, wedge(v, w))


def test_wedge_power_matches_iteration():
    c = contact()
    cubed = wedge(wedge(c.Om, c.Om), c.Om)
    assert wedge_power(c.Om, 3) == cubed
    assert not cubed.is_zero
    # past the rank the power is zero, of the full degree
    _, A = small_tangent()
    w = Form(A, 2, {(0, 2): A.scalar(1), (1, 2): A.patch.coord("x")})
    assert wedge_power(w, 50) == Form.zero(A, 100)


def test_differential_squares_to_zero():
    _, A = small_tangent()
    ext = contact().ext
    for seed in range(25):
        r = random.Random(seed)
        for base in (A, ext):
            deg = r.randint(0, 2)
            w = rand_form(r, base, deg, max_degree=2, terms=1)
            assert differential(base, differential(base, w)).is_zero, f"seed={seed}"


def test_twisted_differential_squares_to_zero():
    _, A = small_tangent()
    for seed in range(25):
        r = random.Random(seed)
        J = JacobiAlgebroidData(A, closed_twist(r, A))
        w = rand_form(r, A, r.randint(0, 2), max_degree=1, terms=1)
        assert differential(J, differential(J, w)).is_zero, f"seed={seed}"


def test_nonclosed_twist_breaks_d_squared():
    p, A = small_tangent()
    twist = p.coord("x") * Form.coframe(A, 1)  # x dy, not closed
    J = JacobiAlgebroidData(A, twist)
    dtwist = differential(A, twist)
    assert not dtwist.is_zero
    for seed in range(10):
        r = random.Random(seed)
        w = rand_form(r, A, r.randint(0, 1), max_degree=1, terms=1)
        got = differential(J, differential(J, w))
        # the defect is exactly (d twist) ^ w
        assert got == wedge(dtwist, w), f"seed={seed}"
    one = Form(A, 0, {(): p.const(1)})
    assert not differential(J, differential(J, one)).is_zero


def test_schouten_graded_antisymmetry():
    c = contact()
    for seed in range(25):
        r = random.Random(seed)
        p = r.randint(1, 3)
        q = r.randint(1, 3)
        P = rand_multivector(r, c.TA, p, max_degree=1, terms=1)
        Q = rand_multivector(r, c.TA, q, max_degree=1, terms=1)
        lhs = schouten(P, Q)
        rhs = schouten(Q, P)
        if ((p - 1) * (q - 1)) % 2 == 0:
            rhs = -rhs
        assert lhs == rhs, f"seed={seed} degrees=({p},{q})"


def test_schouten_graded_leibniz():
    _, A = small_tangent(("x", "y", "z", "w"))
    for seed in range(25):
        r = random.Random(seed)
        p = r.randint(1, 2)
        q = r.randint(1, 2)
        s = r.randint(1, 2)
        P = rand_multivector(r, A, p, max_degree=1, terms=1)
        Q = rand_multivector(r, A, q, max_degree=1, terms=1)
        R = rand_multivector(r, A, s, max_degree=1, terms=1)
        lhs = schouten(P, wedge(Q, R))
        rhs = wedge(schouten(P, Q), R)
        cross = wedge(Q, schouten(P, R))
        if ((p - 1) * q) % 2:
            cross = -cross
        assert lhs == rhs + cross, f"seed={seed} degrees=({p},{q},{s})"


def test_schouten_on_scalars_vanishes():
    _, A = small_tangent()
    f = MultiVector(A, 0, {(): A.patch.coord("x")})
    g = MultiVector(A, 0, {(): A.patch.coord("y")})
    assert schouten(f, g).is_zero


def test_twisted_schouten_zero_twist_reduction():
    _, A = small_tangent()
    J = JacobiAlgebroidData(A, Form.zero(A, 1))
    for seed in range(25):
        r = random.Random(seed)
        P = rand_multivector(r, A, r.randint(1, 3), max_degree=1, terms=1)
        Q = rand_multivector(r, A, r.randint(1, 3), max_degree=1, terms=1)
        assert phi0_schouten(J, P, Q) == schouten(P, Q), f"seed={seed}"


def test_twisted_schouten_antisymmetry():
    _, A = small_tangent()
    for seed in range(15):
        r = random.Random(seed)
        J = JacobiAlgebroidData(A, closed_twist(r, A))
        p = r.randint(1, 2)
        q = r.randint(1, 2)
        P = rand_multivector(r, A, p, max_degree=1, terms=1)
        Q = rand_multivector(r, A, q, max_degree=1, terms=1)
        lhs = phi0_schouten(J, P, Q)
        rhs = phi0_schouten(J, Q, P)
        if ((p - 1) * (q - 1)) % 2 == 0:
            rhs = -rhs
        assert lhs == rhs, f"seed={seed}"


def test_twisted_bracket_on_vector_fields_matches_plain():
    _, A = small_tangent()
    for seed in range(15):
        r = random.Random(seed)
        J = JacobiAlgebroidData(A, closed_twist(r, A))
        X = rand_multivector(r, A, 1, max_degree=1)
        Y = rand_multivector(r, A, 1, max_degree=1)
        assert phi0_schouten(J, X, Y) == schouten(X, Y)


def test_lie_derivative_against_derivation_oracle():
    # Cartan formula vs the bracket-derivation definition on 1-forms
    _, A = small_tangent()
    solv = solvable_bialgebroid().A
    for seed in range(25):
        r = random.Random(seed)
        for base in (A, solv):
            X = rand_multivector(r, base, 1, max_degree=1)
            u = rand_form(r, base, 1, max_degree=1)
            got = lie_derivative(base, X, u)
            for j in range(base.rank):
                ej = MultiVector.frame(base, j)
                direct = anchor_apply(base, X, pair(u, ej)) - pair(
                    u, bracket_sections(base, X, ej)
                )
                assert pair(got, ej) == direct, f"seed={seed} j={j}"


def test_split_merge_round_trip():
    c = contact()
    for seed in range(10):
        r = random.Random(seed)
        deg = r.randint(1, 2)
        P = rand_form(r, c.TA, deg, max_degree=1, terms=1)
        Q = rand_form(r, c.TA, deg - 1, max_degree=1, terms=1)
        u = merge(c.ext, P, Q)
        back_P, back_Q = split(u)
        assert back_P == P
        assert back_Q == Q


def test_merge_with_zero_tail_has_no_hat_components():
    c = contact()
    r = random.Random(3)
    P = rand_multivector(r, c.TA, 2, max_degree=1)
    u = merge(c.ext, P, MultiVector.zero(c.TA, 1))
    h = c.ext.rank - 1
    assert all(h not in key for key in u.components)


def test_split_wedge_formula():
    c = contact()
    for seed in range(10):
        r = random.Random(seed)
        a1 = r.randint(1, 2)
        a2 = r.randint(1, 2)
        alpha1 = rand_form(r, c.TA, a1, max_degree=1, terms=1)
        beta1 = rand_form(r, c.TA, a1 - 1, max_degree=1, terms=1)
        alpha2 = rand_form(r, c.TA, a2, max_degree=1, terms=1)
        beta2 = rand_form(r, c.TA, a2 - 1, max_degree=1, terms=1)
        u = wedge(merge(c.ext, alpha1, beta1), merge(c.ext, alpha2, beta2))
        gotP, gotQ = split(u)
        assert gotP == wedge(alpha1, alpha2)
        cross = wedge(alpha1, beta2)
        if a1 % 2:
            cross = -cross
        assert gotQ == wedge(beta1, alpha2) + cross, f"seed={seed}"


def test_extension_differential_is_the_pair_formula():
    # d(alpha, beta) = (d alpha, alpha - d beta) on a rank-one extension
    p, A = small_tangent(("x", "y"))
    C = extend_with_R(A)
    for seed in range(10):
        r = random.Random(seed)
        deg = r.randint(1, 2)
        alpha = rand_form(r, A, deg, max_degree=2, terms=1)
        beta = rand_form(r, A, deg - 1, max_degree=2, terms=1)
        got_a, got_b = split(differential(C, merge(C.algebroid, alpha, beta)))
        assert got_a == differential(A, alpha)
        assert got_b == alpha - differential(A, beta), f"seed={seed}"


def test_flip_dual_round_trip():
    B = solvable_bialgebroid()
    r = random.Random(1)
    P = rand_multivector(r, B.A, 2, max_degree=1)
    flipped = flip_dual(P, B.Astar)
    assert isinstance(flipped, Form)
    assert flip_dual(flipped, B.A) == P


def test_rebase_round_trip_through_lift():
    from jacv.algebroid import lift_bar

    c = contact()
    up = lift_bar(c.J)
    r = random.Random(2)
    w = rand_form(r, c.TA, 2, max_degree=1)
    there = rebase(w, up)
    assert rebase(there, c.TA) == w


def test_mismatch_errors():
    _, A = small_tangent()
    _, A2 = small_tangent(("a", "b", "c"))
    e1 = MultiVector.frame(A, 0)
    eps1 = Form.coframe(A, 0)
    with pytest.raises(MismatchError):
        wedge(e1, eps1)
    with pytest.raises(MismatchError):
        wedge(e1, MultiVector.frame(A2, 0))
    with pytest.raises(MismatchError):
        pair(eps1, wedge(e1, MultiVector.frame(A, 1)))
    with pytest.raises(MismatchError):
        contract(wedge(e1, MultiVector.frame(A, 1)), wedge(eps1, Form.coframe(A, 1)))
    with pytest.raises(MismatchError):
        differential(A, e1)
    with pytest.raises(MismatchError):
        eval_on(wedge(eps1, Form.coframe(A, 1)), [e1])
