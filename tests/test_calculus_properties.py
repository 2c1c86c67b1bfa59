"""Property tests of the twisted calculus over generated algebroids.

Each example draws one algebroid built from ``tests.gen``, a closed twist on
it and seeded random sections, and checks d∘d = 0, Cartan's identities or
the graded Jacobi identity of the twisted bracket on them, or round trips
through split/merge and through the frame-data constructor.  The trivial
algebroid is among them, so the shortcut that skips the frame loops there is
under the same properties as the loops.  Derandomized with a fixed number
of examples, so every run checks the same values and the suite stays
deterministic."""

import random
from itertools import combinations

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from jacv.algebroid import (  # noqa: E402
    JacobiAlgebroidData,
    Patch,
    extend_with_R,
    make_explicit,
    make_trivial,
)
from jacv.calculus import (  # noqa: E402
    Form,
    MultiVector,
    contract,
    differential,
    lie_derivative,
    merge,
    phi0_schouten,
    schouten,
    split,
)
from tests.gen import (  # noqa: E402
    rand_form,
    rand_multivector,
    rand_scalar,
    small_tangent,
    solvable_bialgebroid,
)
from tests.test_calculus import _twisted_hat  # noqa: E402

ALGEBROIDS = {
    "tangent": lambda: small_tangent()[1],
    "solvable": lambda: solvable_bialgebroid().A,
    "extension": lambda: extend_with_R(small_tangent(("x", "y"))[1]).algebroid,
    "hat lift": _twisted_hat,
    "trivial": lambda: make_trivial(Patch(("x", "y")), 3),
}

PROPERTY = settings(derandomize=True, max_examples=100, deadline=None, database=None)


def _twisted(name, seed):
    """The named algebroid with a closed twist: the differential of a random
    scalar, plus a random 1-form when that one is closed (on the trivial
    algebroid every 1-form is)."""
    r = random.Random(seed)
    A = ALGEBROIDS[name]()
    twist = differential(A, Form(A, 0, {(): rand_scalar(r, A.patch)}))
    extra = rand_form(r, A, 1, max_degree=1, terms=1)
    if differential(A, extra).is_zero:
        twist = twist + extra
    assert differential(A, twist).is_zero
    return r, JacobiAlgebroidData(A, twist)


@PROPERTY
@given(st.sampled_from(sorted(ALGEBROIDS)), st.integers(0, 2**16), st.integers(0, 2))
def test_twisted_differential_squares_to_zero(name, seed, degree):
    r, J = _twisted(name, seed)
    w = rand_form(r, J.algebroid, degree, max_degree=1, terms=2)
    assert differential(J, differential(J, w)).is_zero


@PROPERTY
@given(st.sampled_from(sorted(ALGEBROIDS)), st.integers(0, 2**16), st.integers(1, 2))
def test_twisted_cartan_identities(name, seed, degree):
    # d L_X = L_X d, and L_X i_Y - i_Y L_X = i_[X,Y]: the twist adds phi0(X)
    # to L_X, which commutes with i_Y, and the bracket of two degree-1
    # sections carries no twist term
    r, J = _twisted(name, seed)
    A = J.algebroid
    X, Y = (rand_multivector(r, A, 1, max_degree=1) for _ in range(2))
    w = rand_form(r, A, degree, max_degree=1, terms=2)
    assert differential(J, lie_derivative(J, X, w)) == lie_derivative(
        J, X, differential(J, w)
    )
    commutator = lie_derivative(J, X, contract(Y, w)) - contract(
        Y, lie_derivative(J, X, w)
    )
    assert commutator == contract(lie_derivative(J, X, Y), w)


@PROPERTY
@given(
    st.sampled_from(sorted(ALGEBROIDS)), st.integers(0, 2**16), st.integers(0, 3)
)
def test_self_bracket_matches_an_equal_copy(name, seed, degree):
    # schouten(P, P) and phi0_schouten(J, P, P) take the self-bracket path
    # (odd degree: 0; even degree: unordered monomial pairs, twist terms
    # 2(a-1) P ^ iota(P)); a copy that is not the same object takes the
    # general one
    r, J = _twisted(name, seed)
    A = J.algebroid
    P = rand_multivector(r, A, degree, density=0.8, max_degree=1, terms=2)
    copy = MultiVector(A, degree, dict(P.components))
    untwisted = JacobiAlgebroidData(A, Form.zero(A, 1))
    for bracket in (
        lambda X, Y: schouten(X, Y),
        lambda X, Y: phi0_schouten(J, X, Y),
        lambda X, Y: phi0_schouten(untwisted, X, Y),
    ):
        own = bracket(P, P)
        assert own == bracket(P, copy)
        assert own.degree == 2 * degree - 1
        if degree % 2:
            assert own.is_zero


@PROPERTY
@given(
    st.sampled_from(sorted(ALGEBROIDS)),
    st.integers(0, 2**16),
    st.tuples(*(st.integers(0, 2) for _ in range(3))),
)
def test_twisted_schouten_graded_jacobi(name, seed, degrees):
    _check_graded_jacobi(name, seed, degrees)


def test_schouten_of_two_scalars_has_degree_minus_one():
    # [f, g] is the zero of degree -1, so [[f, g], R] has the degree of the
    # other two terms of the Jacobi identity
    r, J = _twisted("extension", 0)
    f, g = (rand_multivector(r, J.algebroid, 0, max_degree=1) for _ in range(2))
    for bracket in (schouten(f, g), phi0_schouten(J, f, g)):
        assert bracket.is_zero and bracket.degree == -1
    _check_graded_jacobi("extension", 0, (0, 0, 2))


def _check_graded_jacobi(name, seed, degrees):
    # [P,[Q,R]] = [[P,Q],R] + (-1)^((p-1)(q-1)) [Q,[P,R]] for the twisted bracket
    r, J = _twisted(name, seed)
    P, Q, R = (rand_multivector(r, J.algebroid, d, max_degree=1) for d in degrees)
    p, q, _ = degrees
    cross = phi0_schouten(J, Q, phi0_schouten(J, P, R))
    if (p - 1) * (q - 1) % 2:
        cross = -cross
    lhs = phi0_schouten(J, P, phi0_schouten(J, Q, R))
    assert lhs == phi0_schouten(J, phi0_schouten(J, P, Q), R) + cross


@PROPERTY
@given(
    st.sampled_from(sorted(ALGEBROIDS)),
    st.integers(0, 2**16),
    st.integers(0, 3),
    st.sampled_from([Form, MultiVector]),
)
def test_split_and_merge_are_inverse(name, seed, degree, kind):
    r = random.Random(seed)
    ext = extend_with_R(ALGEBROIDS[name]()).algebroid
    base = ext.ext_base
    draw = rand_form if kind is Form else rand_multivector
    u = draw(r, ext, degree, max_degree=1, terms=2)
    assert merge(ext, *split(u)) == u
    P = draw(r, base, degree, max_degree=1, terms=2)
    # a degree-0 pair has no second slot; split gives it the zero of degree -1
    Q = kind.zero(base, -1)
    if degree:
        Q = draw(r, base, degree - 1, max_degree=1, terms=2)
    assert split(merge(ext, P, Q)) == (P, Q)


def _dense(A):
    """The anchor rows (one per anchor coordinate) and the bracket table of
    every pair i < j, zeros written out."""
    zero = A.zero_scalar()
    columns = [dict(column) for column in A.anchor]
    rows = [[column.get(x, zero) for column in columns] for x in A.patch.anchor_coords]
    table = {
        key: [dict(A.brackets.get(key, ())).get(k, zero) for k in range(A.rank)]
        for key in combinations(range(A.rank), 2)
    }
    return rows, table


@PROPERTY
@given(st.sampled_from(sorted(ALGEBROIDS)), st.integers(0, 2**16))
def test_make_explicit_round_trips_frame_data(name, seed):
    # an algebroid's own dense data stores its anchor and brackets again
    A = ALGEBROIDS[name]()
    B = make_explicit(A.patch, A.rank, *_dense(A))
    assert (B.anchor, B.brackets) == (A.anchor, A.brackets)
    # random dense data with zeros is stored sparsely and read back unchanged
    r = random.Random(seed)

    def entry():
        if r.random() < 0.5:
            return A.zero_scalar()
        return rand_scalar(r, A.patch, max_degree=1, terms=1)

    rows = [[entry() for _ in range(A.rank)] for _ in A.patch.anchor_coords]
    pairs = combinations(range(A.rank), 2)
    table = {key: [entry() for _ in range(A.rank)] for key in pairs}
    assert _dense(make_explicit(A.patch, A.rank, rows, table)) == (rows, table)
