"""Property tests of the ExpPoly ring over generated values.

Derandomized with a fixed number of examples, so every run checks the same
values and the suite stays deterministic."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from jacv.coeff import ExpPoly  # noqa: E402
from tests.test_coeff import VARS, _assert_stored_form  # noqa: E402

coefficients = st.one_of(
    st.integers(-5, 5),
    st.fractions(min_value=-5, max_value=5, max_denominator=4),
)
monomials = st.tuples(
    coefficients,
    st.tuples(*(st.integers(0, 2) for _ in VARS)),
    st.integers(-2, 2),
)
values = st.lists(monomials, max_size=4).map(
    lambda ms: sum(
        (ExpPoly(VARS, {w: {e: c}}) for c, e, w in ms), ExpPoly.zero(VARS)
    )
)


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(values, values, values)
def test_ring_axioms_and_product_rule(a, b, c):
    zero, one = ExpPoly.zero(VARS), ExpPoly.const(VARS, 1)
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a + zero == a and (a - a) == zero
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * one == a and a * zero == zero
    assert a * (b + c) == a * b + a * c
    for value in (a + b, a - b, -a, a * b, a * (b + c)):
        _assert_stored_form(value)
    for name in VARS:
        derivative = (a * b).diff(name)
        assert derivative == a.diff(name) * b + a * b.diff(name)
        _assert_stored_form(derivative)
