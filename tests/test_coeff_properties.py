"""Property tests of the ExpPoly ring over generated values.

Derandomized with a fixed number of examples, so every run checks the same
values and the suite stays deterministic."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from jacv.coeff import MAX_POWER, ExponentOverflow, ExpPoly, NotInvertible  # noqa: E402
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


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(values, values, coefficients)
def test_subtraction_adds_the_negative(a, b, n):
    zero = ExpPoly.zero(VARS)
    assert a - b == a + (-b)
    assert b - a == -(a - b)
    assert a - zero is a and a - a == zero and zero - a == -a
    # an int or Fraction on either side
    assert n - a == ExpPoly.const(VARS, n) + (-a)
    assert a - n == a + ExpPoly.const(VARS, -n)
    for value in (a - b, b - a, zero - a, n - a, a - n):
        assert type(value) is ExpPoly
        _assert_stored_form(value)


def _assert_partials_match_diff(a):
    """``partials`` along every variable against one ``diff`` per variable:
    a missing key means the derivative is zero."""
    partials = a.partials(range(len(VARS)))
    for i, name in enumerate(VARS):
        derivative = a.diff(name)
        if derivative.is_zero:
            assert i not in partials, name
        else:
            assert partials[i] == derivative, name
            _assert_stored_form(partials[i])
    return partials


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(values)
def test_partials_match_diff_along_every_variable(a):
    _assert_partials_match_diff(a)
    # a subset of the indices is the same map restricted to it
    assert a.partials((0, 2)) == {
        i: d for i, d in a.partials(range(len(VARS))).items() if i in (0, 2)
    }


# polynomials in x alone times exp weights: no power of y or t
x_values = st.lists(
    st.tuples(coefficients, st.integers(0, 2), st.integers(-2, 2)), max_size=4
).map(
    lambda ms: sum(
        (ExpPoly(VARS, {w: {(p, 0, 0): c}}) for c, p, w in ms), ExpPoly.zero(VARS)
    )
)


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(x_values)
def test_derivatives_along_variables_a_value_does_not_involve(a):
    partials = _assert_partials_match_diff(a)
    assert 1 not in partials and a.diff("y").is_zero
    # d/dt still counts the exp weights: exp(k t) p -> k exp(k t) p
    expected = sum(
        (k * ExpPoly(VARS, {k: {e: c}}) for k, e, c in a.monomials()),
        ExpPoly.zero(VARS),
    )
    assert partials.get(2, ExpPoly.zero(VARS)) == expected
    assert (2 in partials) == any(weight for weight, _, _ in a.monomials())


# powers at the edge of a packed field: products reach past MAX_POWER
edge_powers = st.one_of(
    st.integers(0, 2),
    st.integers(MAX_POWER // 2 - 1, MAX_POWER // 2 + 1),
    st.integers(MAX_POWER - 1, MAX_POWER),
)
# weights near 0 and far from it, of both signs: the weight field of a key
# has no width limit and a negative weight borrows through every field above
# the exponents
edge_weights = st.one_of(
    st.integers(-2, 2),
    st.sampled_from([sign * ((1 << 20) + d) for sign in (1, -1) for d in (1, -1)]),
)
edge_monomials = st.lists(
    st.tuples(coefficients, st.tuples(*(edge_powers for _ in VARS)), edge_weights),
    max_size=3,
)


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(edge_monomials, edge_monomials, coefficients.filter(bool), edge_weights)
def test_ring_operations_at_the_field_edge_match_sympy(ma, mb, q, k):
    """sympy's polynomials in the variables and E = e^t, as in
    ``test_ring_operations_match_sympy``: values are compared after
    multiplying by E^s, with s the least shift that makes both operands
    polynomial.  A product raises ``ExponentOverflow`` exactly when some
    pair of stored monomials has powers of one variable summing past
    MAX_POWER, whatever the weights; otherwise it equals sympy's.  The unit
    q e^{kt} and ``times_exp(k)`` are checked on the same weights."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.rings import ring

    R, *gens = ring(VARS + ("E",), sympy.QQ)
    syms, E = dict(zip(VARS, gens)), gens[-1]

    def value(ms):
        return sum((ExpPoly(VARS, {w: {e: c}}) for c, e, w in ms), ExpPoly.zero(VARS))

    def shifted(v, shift):
        return R.from_dict({
            e + (w + shift,): sympy.QQ(c.numerator, c.denominator)
            for w, e, c in v.monomials()
        })

    def tops(v):
        """The highest stored power of each variable."""
        return [max((e[i] for _, e, _ in v.monomials()), default=0) for i in range(len(VARS))]

    def derivative(p, name, shift):
        """d/d(name) of the value whose E^shift multiple is p."""
        if name == "t":
            return p.diff(syms["t"]) + E * p.diff(E) - shift * p
        return p.diff(syms[name])

    a, b = value(ma), value(mb)
    s = max([0] + [-w for v in (a, b) for w, _, _ in v.monomials()])
    pa, pb = shifted(a, s), shifted(b, s)
    assert shifted(a + b, s) == pa + pb
    assert shifted(a - b, s) == pa - pb
    partials = a.partials(range(len(VARS)))
    for i, name in enumerate(VARS):
        expected = derivative(pa, name, s)
        assert shifted(a.diff(name), s) == expected, name
        assert shifted(partials.get(i, ExpPoly.zero(VARS)), s) == expected, name
        assert (i in partials) == bool(expected), name
    # times_exp(k) = E^k times the value; m makes E^(k + m) a polynomial
    m = max(0, -k)
    assert shifted(a.times_exp(k), s + m) == pa * E ** (k + m)
    overflow = not (a.is_zero or b.is_zero) and any(
        p + q > MAX_POWER for p, q in zip(tops(a), tops(b))
    )
    if overflow:
        with pytest.raises(ExponentOverflow):
            a * b
    else:
        product = a * b
        assert shifted(product, 2 * s) == pa * pb
        _assert_stored_form(product)
    # the unit q e^{kt} and its parts
    unit = ExpPoly(VARS, {k: {(0,) * len(VARS): q}})
    assert unit.is_unit() and unit.unit_parts() == (q, k)
    monomials = list(a.monomials())
    constant = len(monomials) == 1 and not any(monomials[0][1])
    assert a.is_unit() == constant
    if not constant:
        with pytest.raises(NotInvertible):
            a.unit_parts()
