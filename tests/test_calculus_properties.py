"""Property tests of the twisted calculus over generated algebroids.

Each example draws one algebroid built from ``tests.gen``, a closed twist on
it and seeded random sections, and checks d∘d = 0, Cartan's identities or
the graded Jacobi identity of the twisted bracket on them.  The trivial
algebroid is among them, so the shortcut that skips the frame loops there is
under the same properties as the loops.  Derandomized with a fixed number
of examples, so every run checks the same values and the suite stays
deterministic."""

import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from jacv.algebroid import (  # noqa: E402
    JacobiAlgebroidData,
    Patch,
    extend_with_R,
    make_trivial,
)
from jacv.calculus import (  # noqa: E402
    Form,
    MismatchError,
    MultiVector,
    contract,
    differential,
    lie_derivative,
    phi0_schouten,
    schouten,
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
        assert own.degree == max(2 * degree - 1, 0)
        if degree % 2:
            assert own.is_zero


@PROPERTY
@given(
    st.sampled_from(sorted(ALGEBROIDS)),
    st.integers(0, 2**16),
    # at most one scalar, so that no inner bracket has the formal degree -1;
    # test_schouten_of_two_scalars_has_degree_minus_one pins that case
    st.tuples(*(st.integers(0, 2) for _ in range(3))).filter(
        lambda degrees: degrees.count(0) <= 1
    ),
)
def test_twisted_schouten_graded_jacobi(name, seed, degrees):
    _check_graded_jacobi(name, seed, degrees)


@pytest.mark.xfail(
    raises=MismatchError,
    strict=True,
    reason="schouten gives [scalar, scalar] the degree 0, not -1, so [[P,Q],R] "
    "has degree 1 where the other two terms have degree 0",
)
def test_schouten_of_two_scalars_has_degree_minus_one():
    # once this passes, drop the filter on two scalars in the property above
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
