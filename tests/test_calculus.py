import math
import random
from itertools import combinations

import pytest

from jacv import calculus
from jacv.algebroid import (
    JacobiAlgebroidData,
    Patch,
    extend_with_R,
    lift_bar,
    lift_hat,
    make_explicit,
    make_trivial,
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
    action_algebroids,
    anchor_apply,
    closed_twist,
    contact,
    rand_form,
    rand_multivector,
    rand_scalar,
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


def test_section_subtraction_adds_the_negative():
    # componentwise in one pass: keys of either side, and cancelling keys dropped
    _, A = small_tangent()
    for seed in range(10):
        r = random.Random(900 + seed)
        for make in (rand_multivector, rand_form):
            u, v = (make(r, A, 2, density=0.5, max_degree=1) for _ in range(2))
            assert u - v == u + (-v), seed
            assert (u - u).is_zero and (u - (u - v)) == v, seed
    with pytest.raises(MismatchError):
        MultiVector.frame(A, 0) - Form.coframe(A, 0)


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


def test_wedge_power_matches_iteration(monkeypatch):
    c = contact()
    cubed = wedge(wedge(c.Om, c.Om), c.Om)
    assert wedge_power(c.Om, 3) == cubed
    assert not cubed.is_zero
    # past the rank the power is zero, of the full degree
    _, A = small_tangent()
    w = Form(A, 2, {(0, 2): A.scalar(1), (1, 2): A.patch.coord("x")})
    assert wedge_power(w, 50) == Form.zero(A, 100)
    x, y = A.patch.coord("x"), A.patch.coord("y")
    sections = [
        c.Om, c.wP, w, Form(A, 0, {(): x + 2 * y}), Form.zero(A, 2),
        MultiVector(A, 1, {(0,): x, (2,): y}),
        MultiVector(A, 2, {(0, 1): A.scalar(1), (1, 2): x}),
    ]
    for u in sections:
        expected = type(u).scalar_section(u.algebroid, u.algebroid.patch.one())
        for n in range(9):
            assert wedge_power(u, n) == expected, (u, n)
            expected = wedge(expected, u)
    wedges = []
    counted = calculus.wedge

    def counting(u, v):
        wedges.append((u, v))
        return counted(u, v)

    monkeypatch.setattr(calculus, "wedge", counting)
    assert wedge_power(Form(A, 0, {(): x}), 200) == Form(A, 0, {(): x ** 200})
    # repeated squaring: 7 squarings and 2 wedges for 200 = 0b11001000
    assert len(wedges) <= 2 * math.log2(200)


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


def _twisted_hat():
    """lift_hat of a 3-d tangent algebroid twisted by a closed cosection:
    nonzero structure functions and anchor entries in e^{-t}."""
    _, A = small_tangent()
    twist = closed_twist(random.Random(3), A)
    assert not twist.is_zero
    return lift_hat(JacobiAlgebroidData(A, twist))


def _rand_mv(r, A, degree, density=0.6, terms=1):
    """Random multivector with t and e^{+-t} in its coefficients on lifted patches."""
    lifted = A.patch.has_time
    return rand_multivector(
        r, A, degree, density, max_degree=1, terms=terms, with_t=lifted,
        exp_range=int(lifted),
    )


def test_schouten_graded_antisymmetry():
    for A in (contact().TA, _twisted_hat()):
        for seed in range(25):
            r = random.Random(seed)
            p = r.randint(1, 3)
            q = r.randint(1, 3)
            P = _rand_mv(r, A, p)
            Q = _rand_mv(r, A, q)
            lhs = schouten(P, Q)
            rhs = schouten(Q, P)
            if ((p - 1) * (q - 1)) % 2 == 0:
                rhs = -rhs
            assert lhs == rhs, f"rank={A.rank} seed={seed} degrees=({p},{q})"


def test_schouten_graded_leibniz():
    for A in (small_tangent(("x", "y", "z", "w"))[1], _twisted_hat()):
        for seed in range(25):
            r = random.Random(seed)
            p = r.randint(1, 2)
            q = r.randint(1, 2)
            s = r.randint(1, 2)
            P = _rand_mv(r, A, p)
            Q = _rand_mv(r, A, q)
            R = _rand_mv(r, A, s)
            lhs = schouten(P, wedge(Q, R))
            rhs = wedge(schouten(P, Q), R)
            cross = wedge(Q, schouten(P, R))
            if ((p - 1) * q) % 2:
                cross = -cross
            where = f"rank={A.rank} seed={seed} degrees=({p},{q},{s})"
            assert lhs == rhs + cross, where


def test_schouten_graded_jacobi():
    # [P,[Q,R]] = [[P,Q],R] + (-1)^((p-1)(q-1)) [Q,[P,R]]
    for A in (small_tangent()[1], _twisted_hat(), solvable_bialgebroid().A):
        for seed in range(20):
            r = random.Random(seed)
            p, q, s = (r.randint(1, 2) for _ in range(3))
            P, Q, R = (_rand_mv(r, A, d) for d in (p, q, s))
            lhs = schouten(P, schouten(Q, R))
            cross = schouten(Q, schouten(P, R))
            if ((p - 1) * (q - 1)) % 2:
                cross = -cross
            rhs = schouten(schouten(P, Q), R) + cross
            assert lhs == rhs, f"rank={A.rank} seed={seed} degrees=({p},{q},{s})"


def _rho(A, i, f):
    """Oracle: rho(e_i) f as the sum of entry * df/dx over the anchor
    entries of e_i, one ``diff`` per entry."""
    total = A.zero_scalar()
    for name, entry in A.anchor[i]:
        total = total + entry * f.diff(name)
    return total


def _recursive_schouten(P, Q):
    """Oracle: the Schouten bracket by recursion over lists of atoms, ("f",
    scalar) or ("e", frame index), applying the graded rules one atom at a
    time.  This was the library's implementation before the closed form."""
    A = P.algebroid

    def degree(items):
        return sum(1 for kind, _ in items if kind == "e")

    def to_section(items):
        out = MultiVector.scalar_section(A, A.scalar(1))
        for kind, value in items:
            if kind == "f":
                out = value * out
            else:
                out = wedge(out, MultiVector.frame(A, value))
        return out

    def atom_bracket(a, b):
        (ka, va), (kb, vb) = a, b
        if ka == "f" and kb == "f":
            return MultiVector.zero(A, 0)
        if ka == "e" and kb == "f":
            return MultiVector.scalar_section(A, _rho(A, va, vb))
        if ka == "f" and kb == "e":
            return MultiVector.scalar_section(A, -_rho(A, vb, va))
        # only i < j is stored; [e_j, e_i] = -[e_i, e_j] and [e_i, e_i] = 0
        if va == vb:
            return MultiVector.zero(A, 1)
        stored = A.brackets.get((min(va, vb), max(va, vb)), ())
        section = MultiVector(A, 1, {(k,): c for k, c in stored})
        return section if va < vb else -section

    def bracket(left, right):
        p, q = degree(left), degree(right)
        if len(left) == 1 and len(right) == 1:
            return atom_bracket(left[0], right[0])
        if len(right) > 1:
            # a genuinely zero summand may carry the wrong formal degree, so
            # only nonzero pieces are accumulated
            head, tail = right[0], right[1:]
            du = 0 if head[0] == "f" else 1
            total = MultiVector.zero(A, p + q - 1)
            inner = bracket(left, [head])
            if not inner.is_zero:
                total = total + wedge(inner, to_section(tail))
            inner = bracket(left, tail)
            if not inner.is_zero:
                piece = wedge(to_section([head]), inner)
                if ((p + 1) * du) % 2:
                    piece = -piece
                total = total + piece
            return total
        flipped = bracket(right, left)
        return -flipped if ((p - 1) * (q - 1)) % 2 == 0 else flipped

    total = MultiVector.zero(A, P.degree + Q.degree - 1)
    for I, f in P.components.items():
        for J, g in Q.components.items():
            term = bracket(
                [("f", f)] + [("e", i) for i in I], [("f", g)] + [("e", j) for j in J]
            )
            if not term.is_zero:
                total = total + term
    return total


def _gathered_differential(arg, w):
    """Oracle: the differential gathered per output key, summing over each
    key's positions for the anchor terms and over its index pairs for the
    bracket terms (the library's formula before it built the anchor terms
    from the stored components), plus twist ^ w when twisted."""
    A, phi0 = getattr(arg, "algebroid", arg), getattr(arg, "phi0", None)
    zero = A.zero_scalar()
    comps = {}
    for key in combinations(range(A.rank), w.degree + 1):
        total = zero
        for pos, idx in enumerate(key):
            c = w.components.get(key[:pos] + key[pos + 1 :])
            if c is not None:
                term = _rho(A, idx, c)
                total = total - term if pos % 2 else total + term
        for pa in range(len(key)):
            for pb in range(pa + 1, len(key)):
                rest = key[:pa] + key[pa + 1 : pb] + key[pb + 1 :]
                outer = -1 if (pa + pb) % 2 else 1
                for m, cm in A.brackets.get((key[pa], key[pb]), ()):
                    if m in rest:
                        continue
                    full = tuple(sorted((m,) + rest))
                    wc = w.components.get(full)
                    if wc is not None:
                        sign = -1 if sum(i < m for i in rest) % 2 else 1
                        total = total + sign * outer * cm * wc
        comps[key] = total
    out = Form(A, w.degree + 1, comps)
    return out if phi0 is None else out + wedge(phi0, w)


def test_differential_matches_the_gathered_formula():
    _, TA = small_tangent()
    J = JacobiAlgebroidData(TA, closed_twist(random.Random(5), TA))
    plain = [TA, extend_with_R(TA).algebroid, lift_bar(J), lift_hat(J)]
    for data in action_algebroids():  # each downstairs one, then its lift_hat
        plain.append(data.algebroid)
        if not data.algebroid.patch.has_time:
            plain.append(lift_bar(data))
    assert any(A.brackets for A in plain)
    nonzero = []
    for A in plain:
        # an exact twist, closed on every algebroid
        f = rand_scalar(random.Random(A.rank), A.patch, max_degree=2, terms=3)
        twisted = JacobiAlgebroidData(A, differential(A, Form(A, 0, {(): f})))
        assert not twisted.phi0.is_zero
        for seed in range(12):
            r = random.Random(seed)
            degree = seed % 4
            lifted = A.patch.has_time
            w = rand_form(
                r, A, degree, density=0.7, max_degree=2, terms=2,
                with_t=lifted, exp_range=int(lifted),
            )
            for arg in (A, twisted):
                got = differential(arg, w)
                assert got == _gathered_differential(arg, w), (A.rank, seed)
                nonzero.append(not got.is_zero)
            for arg in (A, twisted):
                assert differential(arg, differential(arg, w)).is_zero, (A.rank, seed)
    assert 2 * sum(nonzero) >= len(nonzero), f"{sum(nonzero)} of {len(nonzero)}"


def test_closed_form_schouten_matches_the_recursion():
    solv = solvable_bialgebroid().A
    algebroids = (solv, _twisted_hat(), extend_with_R(solv).algebroid)
    nonzero = []
    for A in algebroids:
        assert any(not c.is_zero for row in A.brackets.values() for _, c in row)
        for seed in range(40):
            r = random.Random(seed)
            # degrees 0-3, kept to p + q - 1 <= rank so the result can be nonzero
            p = r.randint(0, min(3, A.rank))
            q = r.randint(0, min(3, A.rank + 1 - p))
            P, Q = (_rand_mv(r, A, d, density=0.8, terms=2) for d in (p, q))
            got = schouten(P, Q)
            assert got == _recursive_schouten(P, Q), f"rank={A.rank} seed={seed}"
            assert got.degree == p + q - 1
            nonzero.append(not got.is_zero)
    assert 3 * sum(nonzero) >= len(nonzero), f"{sum(nonzero)} of {len(nonzero)} nonzero"


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


def test_zero_twist_builds_no_correction(monkeypatch):
    # the full formula with a zero twist, scalars included, is the plain
    # bracket, and phi0_schouten returns it without contracting
    from jacv import calculus

    _, A = small_tangent()
    zero = Form.zero(A, 1)
    J = JacobiAlgebroidData(A, zero)
    cases = []
    for seed in range(12):
        r = random.Random(seed)
        a1, a2 = r.randint(0, 3), r.randint(0, 3)
        P = rand_multivector(r, A, a1, max_degree=1, terms=2)
        Q = rand_multivector(r, A, a2, max_degree=1, terms=2)
        full = schouten(P, Q)
        if a1 != 1 and a2:
            full = full + (a1 - 1) * wedge(P, contract(zero, Q))
        if a2 != 1 and a1:
            full = full - (-1) ** (a1 + 1) * (a2 - 1) * wedge(contract(zero, P), Q)
        cases.append((P, Q, full))

    def no_contract(*args):
        raise AssertionError("contract called under a zero twist")

    monkeypatch.setattr(calculus, "contract", no_contract)
    for P, Q, full in cases:
        assert phi0_schouten(J, P, Q) == full, (P.degree, Q.degree)


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


def test_twisted_self_bracket_keeps_its_twist_terms():
    # in rank 4 and above a bivector need not be decomposable, so the twist
    # terms 2(a-1) P ^ iota(P) of a self-bracket are nonzero; the self-bracket
    # path must give what an equal copy gives through the general formula
    J = extend_with_R(small_tangent()[1])
    A = J.algebroid
    twist_terms = 0
    for seed in range(10):
        r = random.Random(seed)
        for degree in (2, 3, 4):
            P = rand_multivector(r, A, degree, density=0.9, max_degree=1, terms=2)
            copy = MultiVector(A, degree, dict(P.components))
            assert phi0_schouten(J, P, P) == phi0_schouten(J, P, copy), (seed, degree)
            if degree == 2:
                twist_terms += not wedge(P, contract(J.phi0, P)).is_zero
    assert twist_terms >= 5, twist_terms


def test_twisted_bracket_on_vector_fields_matches_plain():
    _, A = small_tangent()
    for seed in range(15):
        r = random.Random(seed)
        J = JacobiAlgebroidData(A, closed_twist(r, A))
        X = rand_multivector(r, A, 1, max_degree=1)
        Y = rand_multivector(r, A, 1, max_degree=1)
        assert phi0_schouten(J, X, Y) == schouten(X, Y)


def test_trivial_algebroid_keeps_only_the_twist_terms():
    p = Patch(("x", "y"))
    A = make_trivial(p, 3)
    assert A.is_trivial
    for seed in range(15):
        r = random.Random(seed)
        # d = 0 here, so every 1-form is a closed twist
        twist = p.coord("x") * Form.coframe(A, seed % 3) + rand_form(
            r, A, 1, max_degree=1, terms=1
        )
        assert not twist.is_zero, f"seed={seed}"
        J = JacobiAlgebroidData(A, twist)
        w = rand_form(r, A, r.randint(0, 2), max_degree=1, terms=2)
        assert differential(A, w) == Form.zero(A, w.degree + 1)
        assert differential(J, w) == wedge(twist, w), f"seed={seed}"
        a1, a2 = r.randint(0, 3), r.randint(0, 3)
        P = rand_multivector(r, A, a1, max_degree=1, terms=2)
        Q = rand_multivector(r, A, a2, max_degree=1, terms=2)
        zero = MultiVector.zero(A, a1 + a2 - 1)
        assert schouten(P, Q) == zero, f"seed={seed}"
        # the twisted bracket is its two twist terms alone
        expected = zero
        if a2:
            expected = expected + (a1 - 1) * wedge(P, contract(twist, Q))
        if a1:
            expected = expected - (-1) ** (a1 + 1) * (a2 - 1) * wedge(
                contract(twist, P), Q
            )
        assert phi0_schouten(J, P, Q) == expected, f"seed={seed}"


def test_almost_trivial_algebroids_run_the_frame_formulas():
    # one anchor entry, or one bracket, is enough to leave the shortcut
    p = Patch(("x", "y"))
    x, y, zero = p.coord("x"), p.coord("y"), p.zero()
    # rho(e1) = x d/dx, no bracket
    anchored = make_explicit(p, 2, ((x, zero), (zero, zero)), {})
    # [e1, e2] = y e2, no anchor
    bracketed = make_explicit(p, 2, ((zero, zero), (zero, zero)), {(0, 1): (zero, y)})
    assert not anchored.is_trivial and not bracketed.is_trivial

    A = anchored
    e1, e2 = MultiVector.frame(A, 0), MultiVector.frame(A, 1)
    assert differential(A, Form(A, 0, {(): x * y})) == x * y * Form.coframe(A, 0)
    assert differential(A, x * Form.coframe(A, 1)) == Form(A, 2, {(0, 1): x})
    assert schouten(e1, e2).is_zero
    assert schouten(e1, x * e2) == x * e2

    A = bracketed
    e1, e2 = MultiVector.frame(A, 0), MultiVector.frame(A, 1)
    assert differential(A, Form.coframe(A, 0)).is_zero
    assert differential(A, Form.coframe(A, 1)) == Form(A, 2, {(0, 1): -y})
    assert schouten(e1, e2) == y * e2
    assert schouten(y * e1, e2) == y * y * e2


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
                    u, schouten(X, ej)
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


@pytest.mark.parametrize("kind", [Form, MultiVector])
def test_split_of_a_scalar_has_a_second_slot_of_degree_minus_one(kind):
    p, A = small_tangent(("x", "y"))
    ext = extend_with_R(A).algebroid
    f = kind(ext, 0, {(): p.coord("x")})
    P, Q = split(f)
    assert P == kind(A, 0, {(): p.coord("x")})
    assert Q.is_zero and Q.degree == -1
    assert merge(ext, P, Q) == f


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


def test_placement_table_matches_permutation_parity():
    """An independent count for every placement over range(6), which holds
    every key over a smaller range: the sign of e_L ^ e_R is the parity of
    the permutation sorting L + R, and overlapping keys give None.  A wrong
    memoized entry would be reused by every later call, so the table read
    through the cache must equal the one derived afresh after a clear."""
    Permutation = pytest.importorskip("sympy.combinatorics").Permutation
    keys = [key for n in range(7) for key in combinations(range(6), n)]
    expected = {}
    for left in keys:
        for right in keys:
            if set(left) & set(right):
                expected[left, right] = None
                continue
            merged = left + right
            order = sorted(range(len(merged)), key=merged.__getitem__)
            sign = -1 if Permutation(order).parity() else 1
            expected[left, right] = (sign, tuple(sorted(merged)))
    wedge_keys = calculus._wedge_keys
    cached = {(a, b): wedge_keys(a, b) for a, b in expected}
    wedge_keys.cache_clear()
    fresh = {(a, b): wedge_keys(a, b) for a, b in expected}
    assert cached == expected
    assert fresh == expected


@pytest.mark.parametrize("cls", [Form, MultiVector])
def test_public_constructor_rejects_invalid_components(cls):
    _, A = small_tangent()
    _, other = small_tangent(("a", "b", "c"))
    one = A.scalar(1)
    for degree, comps in [
        (2, {(1, 0): one}),  # decreasing
        (2, {(1, 1): one}),  # repeated index
        (1, {(3,): one}),  # out of range
        (1, {(-1,): one}),  # out of range
        (2, {(0,): one}),  # wrong length
        (1, {(0,): other.scalar(1)}),  # another variable tuple
    ]:
        with pytest.raises(MismatchError):
            cls(A, degree, comps)
    s = cls(A, 1, {(0,): A.zero_scalar(), (1,): one})
    assert s.components == {(1,): one}


def _trusted_path_cases():
    """Twisted data on three algebroids: the tangent algebroid with a closed
    twist, its extension by a line with a twist that is not closed, and an
    action algebroid with structure functions."""
    r = random.Random(27)
    _, A = small_tangent()
    ext = extend_with_R(A)
    E = ext.algebroid
    open_twist = ext.phi0 + rand_form(r, E, 1, max_degree=1)
    return [
        JacobiAlgebroidData(A, closed_twist(r, A)),
        JacobiAlgebroidData(E, open_twist),
        action_algebroids()[0],
    ]


@pytest.mark.parametrize("case", range(3))
def test_calculus_results_pass_the_public_constructor(case):
    """Every result built through the trusted path holds no zero component
    and no key the public constructor would reject: rebuilding it through
    ``Form``/``MultiVector`` gives the same components."""
    J = _trusted_path_cases()[case]
    A = J.algebroid
    r = random.Random(2700 + case)
    results = []
    for _ in range(3):
        for p in range(3):
            P = rand_multivector(r, A, p, max_degree=1)
            u = rand_form(r, A, p, max_degree=1)
            results += [differential(A, u), differential(J, u), P - P, u - u]
            results += [schouten(P, P), phi0_schouten(J, P, P)]
            if p:
                x = rand_multivector(r, A, 1, max_degree=1)
                y = rand_form(r, A, 1, max_degree=1)
                results += [contract(x, u), contract(y, P)]
            for q in range(3):
                Q = rand_multivector(r, A, q, max_degree=1)
                v = rand_form(r, A, q, max_degree=1)
                results += [wedge(P, Q), wedge(u, v)]
                results += [schouten(P, Q), phi0_schouten(J, P, Q)]
                if p == q:
                    results += [P + Q, P - Q, u + v, u - v]
    assert any(not s.is_zero for s in results)
    for s in results:
        rebuilt = type(s)(s.algebroid, s.degree, dict(s.components))
        assert rebuilt == s
        assert rebuilt.components == s.components
