import math
import random
from fractions import Fraction

import pytest

from jacv.coeff import (
    MAX_POWER,
    ExponentOverflow,
    ExpPoly,
    NotInvertible,
    UnknownVariable,
    VariableSetMismatch,
    add_product,
    sum_products,
)
from tests.gen import record_products

VARS = ("x", "y", "t")


def rand_poly(r, terms=3, exp_range=1):
    out = ExpPoly.zero(VARS)
    for _ in range(terms):
        c = Fraction(r.randint(-4, 4), r.randint(1, 3))
        mono = ExpPoly.const(VARS, c)
        for _ in range(r.randint(0, 2)):
            mono = mono * ExpPoly.var(VARS, r.choice(VARS))
        out = out + mono.times_exp(r.randint(-exp_range, exp_range))
    return out


def test_canonical_form_collapses_duplicates():
    x = ExpPoly.var(VARS, "x")
    assert x + x == ExpPoly.const(VARS, 2) * x
    assert (x - x).is_zero
    assert ExpPoly.zero(VARS) == ExpPoly.const(VARS, 0)
    # equal values built in two ways hash alike
    y = ExpPoly.var(VARS, "y")
    for a, b in [
        (x + x, ExpPoly.const(VARS, 2) * x),
        ((x + y) * (x - y), x * x - y * y),
        (x.times_exp(1) * y.times_exp(-1), x * y),
        (ExpPoly.const(VARS, Fraction(4, 2)), ExpPoly.const(VARS, 2)),
    ]:
        assert a == b and hash(a) == hash(b)


def test_exp_zero_weight_is_one():
    assert ExpPoly.exp(VARS, 0) == ExpPoly.const(VARS, 1)
    e = ExpPoly.exp(VARS, 3)
    assert e * ExpPoly.exp(VARS, -3) == ExpPoly.const(VARS, 1)


def test_ring_axioms_on_random_triples():
    for seed in range(25):
        r = random.Random(seed)
        a, b, c = (rand_poly(r) for _ in range(3))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_int_and_fraction_coercion():
    x = ExpPoly.var(VARS, "x")
    assert 2 * x == x + x
    assert x * Fraction(1, 2) + x * Fraction(1, 2) == x
    assert (x + 1) - 1 == x


def test_diff_product_rule():
    for seed in range(25):
        r = random.Random(seed)
        a, b = rand_poly(r), rand_poly(r)
        for name in VARS:
            lhs = (a * b).diff(name)
            rhs = a.diff(name) * b + a * b.diff(name)
            assert lhs == rhs, f"seed={seed} d/d{name}"


def test_diff_sees_exponential_weight():
    x = ExpPoly.var(VARS, "x")
    t = ExpPoly.var(VARS, "t")
    u = (x * t).times_exp(2)
    # d/dt also differentiates the e^{2t} factor
    assert u.diff("t") == (x + 2 * x * t).times_exp(2)
    assert u.diff("x") == t.times_exp(2)
    with pytest.raises(UnknownVariable):
        u.diff("nope")


def test_pow_matches_repeated_product(monkeypatch):
    values = [rand_poly(random.Random(seed), terms=2) for seed in range(10)]
    values += [ExpPoly.zero(VARS), ExpPoly.exp(VARS, -3), ExpPoly.var(VARS, "y")]
    for a in values:
        expected = ExpPoly.const(VARS, 1)
        for n in range(9):
            assert a ** n == expected, (a, n)
            expected = expected * a
    x = ExpPoly.var(VARS, "x")
    products = record_products(monkeypatch)
    assert x.times_exp(-1) ** 200 == ExpPoly(VARS, {-200: {(200, 0, 0): 1}})
    # repeated squaring: 7 squarings and 2 products for 200 = 0b11001000
    assert len(products) <= 2 * math.log2(200)


def test_units_and_inverses():
    half_e = ExpPoly.const(VARS, Fraction(1, 2)).times_exp(-4)
    assert half_e.is_unit()
    assert half_e.unit_parts() == (Fraction(1, 2), -4)

    x = ExpPoly.var(VARS, "x")
    assert not x.is_unit()
    assert not (ExpPoly.const(VARS, 1) + x).is_unit()
    # sums across weights are never units here
    mixed = ExpPoly.const(VARS, 1) + ExpPoly.exp(VARS, 1)
    assert not mixed.is_unit()
    for bad in (x, mixed, ExpPoly.zero(VARS)):
        with pytest.raises(NotInvertible):
            bad.unit_parts()


def test_variable_set_mismatch_raises():
    a = ExpPoly.var(("x", "t"), "x")
    b = ExpPoly.var(VARS, "x")
    with pytest.raises(VariableSetMismatch):
        a + b


def test_str_is_deterministic():
    for seed in range(5):
        r = random.Random(seed)
        a = rand_poly(r)
        r2 = random.Random(seed)
        b = rand_poly(r2)
        assert str(a) == str(b)
        assert a == b


def _recipe(r, terms=3):
    """Seeded monomials (coefficient, exponent tuple, weight): int and
    Fraction coefficients, degree at most 2, weights -2..2."""
    out = []
    for _ in range(terms):
        if r.random() < 0.5:
            c = r.choice([-3, -2, -1, 1, 2, 5])
        else:
            c = Fraction(r.choice([-5, -3, -1, 1, 2, 4, 7]), r.choice([1, 2, 3, 4]))
        e = [0] * len(VARS)
        for _ in range(r.randint(0, 2)):
            e[r.randrange(len(VARS))] += 1
        out.append((c, tuple(e), r.randint(-2, 2)))
    return out


def _from_recipe(recipe):
    """The recipe as an ExpPoly, half of it through the public constructor
    and half through const, var and exp."""
    out = ExpPoly.zero(VARS)
    for i, (c, e, weight) in enumerate(recipe):
        if i % 2:
            out = out + ExpPoly(VARS, {weight: {e: c}})
            continue
        mono = ExpPoly.const(VARS, c) * ExpPoly.exp(VARS, weight)
        for name, power in zip(VARS, e):
            mono = mono * ExpPoly.var(VARS, name) ** power
        out = out + mono
    return out


def _stored(value):
    """``{(weight, exponent tuple): coefficient}`` read through the
    ``monomials`` view."""
    return {(weight, e): c for weight, e, c in value.monomials()}


def _assert_stored_form(value, label=None):
    """The view lists each monomial once, and the public constructor builds
    the same value from it, so no zero coefficient is stored out of its
    sight; every coefficient is a nonzero int or a Fraction that is not
    integral, never a float."""
    monomials = list(value.monomials())
    assert len({(weight, e) for weight, e, _ in monomials}) == len(monomials), (
        label, monomials)
    rebuilt = {}
    for weight, e, c in monomials:
        rebuilt.setdefault(weight, {})[e] = c
    assert ExpPoly(value.vars, rebuilt) == value, (label, monomials)
    for weight, e, c in monomials:
        assert type(weight) is int, (label, monomials)
        assert len(e) == len(value.vars), (label, e)
        if type(c) is int:
            assert c, (label, monomials)
        else:
            assert type(c) is Fraction and c.denominator != 1, (label, e, c)


def test_terms_is_the_constructor_form():
    for seed in range(20):
        r = random.Random(8500 + seed)
        value = _from_recipe(_recipe(r)).times_exp(r.choice((-(1 << 20), 0, 1 << 20)))
        assert ExpPoly(VARS, value.terms) == value, seed
        # one entry per monomial, as a count of the monomials per weight reads
        assert sum(map(len, value.terms.values())) == len(list(value.monomials())), seed
        # each read builds a fresh dict; changing it changes no value
        value.terms.clear()
        assert ExpPoly(VARS, value.terms) == value, seed


def test_ring_operations_keep_the_stored_form():
    half, two = ExpPoly.const(VARS, Fraction(1, 2)), ExpPoly.const(VARS, 2)
    x, t = ExpPoly.var(VARS, "x"), ExpPoly.var(VARS, "t")
    # results whose Fractions become integral
    assert _stored(half * two) == {(0, (0, 0, 0)): 1}
    assert type(_stored(half * x + half * x)[0, (1, 0, 0)]) is int
    assert type(_stored((half * t * t).diff("t"))[0, (0, 0, 1)]) is int
    assert type(_stored((half * x).times_exp(2).diff("t"))[2, (1, 0, 0)]) is int
    assert _stored(ExpPoly(VARS, {0: {(0, 0, 0): Fraction(4, 2), (1, 0, 0): 0}})) == {
        (0, (0, 0, 0)): 2
    }
    assert _stored(half + (-half)) == {}
    for seed in range(30):
        r = random.Random(8000 + seed)
        a, b = _from_recipe(_recipe(r)), _from_recipe(_recipe(r, terms=2))
        _, _, weight = _recipe(r, terms=1)[0]
        results = {
            "a": a, "b": b, "+": a + b, "-": a - b, "neg": -a, "*": a * b,
            "**": b ** (seed % 4), "times_exp": a.times_exp(weight),
            "int+": a + 3, "fraction*": Fraction(2, 3) * a,
            "int-": a - 3, "fraction-": Fraction(2, 3) - a,
        }
        results.update((f"d/d{n}", (a * b).diff(n)) for n in VARS)
        for label, value in results.items():
            _assert_stored_form(value, (seed, label))


def test_every_value_is_stored_through_init(monkeypatch):
    # The trusted constructor skips the checks but not __init__: the
    # perfbench tracer counts the values built (coeff.new.calls) by it.
    stored = []
    init = ExpPoly.__init__

    def counting_init(self, variables, terms):
        stored.append(self)
        init(self, variables, terms)

    monkeypatch.setattr(ExpPoly, "__init__", counting_init)
    x, t = ExpPoly.var(VARS, "x"), ExpPoly.var(VARS, "t")
    half = ExpPoly.const(VARS, Fraction(1, 2))
    values = [
        x, t, half, ExpPoly(VARS, {1: {(1, 0, 0): 2}}), ExpPoly.zero(VARS),
        ExpPoly.exp(VARS, 2), x + t, -x, x - t, x * t, (x + t) ** 2,
        x.times_exp(1), (x * t).diff("x"),
    ]
    assert len(stored) >= len(values)
    assert all(any(v is s for s in stored) for v in values)


def test_subtraction_builds_one_value(monkeypatch):
    # a - b is one pass, not -b and then a sum; a zero operand builds at
    # most the negated value
    x, t = ExpPoly.var(VARS, "x"), ExpPoly.var(VARS, "t")
    a, b, zero = x * t + 1, x.times_exp(1) - 3 * t, ExpPoly.zero(VARS)
    built = []
    init = ExpPoly.__init__

    def counting_init(self, variables, terms):
        built.append(self)
        init(self, variables, terms)

    monkeypatch.setattr(ExpPoly, "__init__", counting_init)
    for value, count in ((a, b), 1), ((zero, a), 1), ((a, zero), 0):
        del built[:]
        lhs, rhs = value
        assert lhs - rhs is not None and len(built) == count, (lhs, rhs)


def test_partials_build_only_the_nonzero_derivatives(monkeypatch):
    # one value per nonzero derivative; a variable the value does not
    # involve builds nothing, and neither does a value free of them all
    x, t = ExpPoly.var(VARS, "x"), ExpPoly.var(VARS, "t")
    a, c = x * t + x.times_exp(1), x + 1
    built = []
    init = ExpPoly.__init__

    def counting_init(self, variables, terms):
        built.append(self)
        init(self, variables, terms)

    monkeypatch.setattr(ExpPoly, "__init__", counting_init)
    partials = a.partials(range(3))
    assert sorted(partials) == [0, 2] and len(built) == 2
    assert partials[0] == t + ExpPoly.exp(VARS, 1)
    del built[:]
    assert c.partials((1, 2)) == {} and built == []


def test_a_nonzero_exp_weight_needs_t():
    # exp(t) over a tuple with no t could not be differentiated along t
    with pytest.raises(ValueError, match="needs 't'"):
        ExpPoly(("x",), {1: {(0,): 1}})
    with pytest.raises(ValueError, match="needs 't'"):
        ExpPoly.exp(("x",), -2)
    with pytest.raises(ValueError, match="needs 't'"):
        ExpPoly.var(("x",), "x").times_exp(1)
    # weight 0, and a zero value, need no t
    assert ExpPoly(("x",), {0: {(1,): 1}}) == ExpPoly.var(("x",), "x")
    assert ExpPoly(("x",), {1: {(0,): 0}}).is_zero
    assert ExpPoly.exp(("x",), 0) == 1 and ExpPoly.zero(("x",)).times_exp(1).is_zero


def test_powers_stop_below_the_guard_bit():
    # one 16-bit field per variable, whose top bit is the guard
    assert MAX_POWER == 2**15 - 1 and issubclass(ExponentOverflow, ValueError)
    x, y, t = (ExpPoly.var(VARS, name) for name in VARS)
    top = ExpPoly(VARS, {0: {(MAX_POWER, 0, 0): 1}})
    assert str(top * y) == "x^32767*y" and (top * y).diff("y") == top
    assert top.diff("x") == MAX_POWER * ExpPoly(VARS, {0: {(MAX_POWER - 1, 0, 0): 1}})
    # a product past the guard raises before its field carries into y's
    with pytest.raises(ExponentOverflow, match="the power of x exceeds 32767"):
        top * x
    with pytest.raises(ExponentOverflow, match="the power of x exceeds 32767"):
        sum_products([(1, y, None), (2, x, top)])
    t_top = ExpPoly(VARS, {1: {(0, 0, MAX_POWER): 1}})
    assert str(t_top * x) == "x*t^32767*exp(t)"
    with pytest.raises(ExponentOverflow, match="the power of t exceeds 32767"):
        t_top * (t + 1)
    # sums and derivatives never raise a power
    assert top + top == 2 * top and (t_top - t_top).is_zero
    with pytest.raises(ExponentOverflow, match="above 32767"):
        ExpPoly(VARS, {0: {(0, MAX_POWER + 1, 0): 1}})


def test_a_factor_one_forms_no_product(monkeypatch):
    # the kernel is the one place that skips a 1, read off the stored terms
    # whatever object holds it: * hands back the other operand, a lone
    # unscaled term of sum_products is its other factor, and a longer sum
    # adds the other factor unmultiplied
    x, y = ExpPoly.var(VARS, "x"), ExpPoly.var(VARS, "y")
    ones = ExpPoly.const(VARS, 1), ExpPoly.const(VARS, Fraction(3, 3))
    expected = ExpPoly(VARS, {0: {(1, 0, 0): 2, (0, 1, 0): -1}})
    products = record_products(monkeypatch)
    assert 1 * x is x and x * 1 is x
    for one in ones:
        assert one * x is x and x * one is x and one * one is one
        assert sum_products([(1, one, x)]) is x and sum_products([(1, x, one)]) is x
        assert sum_products([(2, one, x), (-1, y, one)]) == expected
    assert products == []
    assert sum_products([(1, x, y)]) == x * y and len(products) == 2


@pytest.mark.parametrize(
    "build, error",
    [
        pytest.param(lambda: ExpPoly.exp(VARS, 1.5), TypeError, id="exp-float"),
        pytest.param(
            lambda: ExpPoly.exp(VARS, Fraction(3, 2)), ValueError, id="exp-fraction"
        ),
        pytest.param(
            lambda: ExpPoly.var(VARS, "x").times_exp(Fraction(3, 2)), ValueError,
            id="times_exp-fraction",
        ),
        pytest.param(
            lambda: ExpPoly.var(VARS, "x").times_exp(1.0), TypeError,
            id="times_exp-float",
        ),
        pytest.param(
            lambda: ExpPoly(VARS, {0: {(1, 0, 0): 0.5}}), TypeError, id="float-coefficient"
        ),
        pytest.param(
            lambda: ExpPoly(VARS, {0: {(1, 0, 0): 1.0}}), TypeError,
            id="integral-float-coefficient",
        ),
        pytest.param(
            lambda: ExpPoly(VARS, {0: {(1, 0, 0): "1"}}), TypeError, id="str-coefficient"
        ),
        pytest.param(
            lambda: ExpPoly(VARS, {Fraction(1, 2): {(1, 0, 0): 1}}), ValueError,
            id="fraction-weight",
        ),
        pytest.param(
            lambda: ExpPoly(VARS, {0.5: {(1, 0, 0): 1}}), TypeError, id="float-weight"
        ),
        pytest.param(
            lambda: ExpPoly(VARS, {0.5: {(1, 0, 0): 0}}), TypeError,
            id="float-weight-of-zero",
        ),
        pytest.param(
            lambda: ExpPoly(VARS, {0: {(-1, 0, 0): 1}}), ValueError, id="negative-power"
        ),
        pytest.param(
            lambda: ExpPoly(VARS, {0: {(0.5, 0, 0): 1}}), TypeError, id="float-power"
        ),
        pytest.param(
            lambda: ExpPoly(VARS, {0: {(1, 0): 1}}), ValueError, id="short-exponent"
        ),
        pytest.param(lambda: ExpPoly.const(VARS, 0.25), TypeError, id="const-float"),
    ],
)
def test_public_constructors_reject_inexact_data(build, error):
    with pytest.raises(error):
        build()


def test_public_constructors_accept_integral_fractions():
    assert ExpPoly.exp(VARS, Fraction(2)) == ExpPoly.exp(VARS, 2)
    x = ExpPoly.var(VARS, "x")
    assert x.times_exp(Fraction(-1)) == x * ExpPoly.exp(VARS, -1)
    value = ExpPoly(VARS, {Fraction(1): {(1, 0, 0): Fraction(3, 1)}})
    assert value == 3 * x.times_exp(1)
    _assert_stored_form(value)


def test_ring_operations_match_sympy():
    """An independent oracle: sympy's polynomials in the variables and E,
    where E stands for e^t.  A value is compared after multiplying it by
    E^shift, which clears the negative weights; on E^-s P(E) the derivative
    d/dt is E^-s (dP/dt + E dP/dE - s P)."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.rings import ring

    R, *gens = ring(VARS + ("E",), sympy.QQ)
    syms, E = dict(zip(VARS, gens)), gens[-1]

    def rational(c):
        return sympy.QQ(c.numerator, c.denominator)

    def monomial(c, e, power):
        return R.from_dict({e + (power,): rational(c)})

    def shifted(value, shift):
        return sum(
            (monomial(c, e, weight + shift) for weight, e, c in value.monomials()),
            R.zero,
        )

    def d(p, name, shift):
        if name == "t":
            return p.diff(syms["t"]) + E * p.diff(E) - shift * p
        return p.diff(syms[name])

    for seed in range(30):
        r = random.Random(7000 + seed)
        ra, rb = _recipe(r), _recipe(r, terms=r.randint(1, 3))
        a, b = _from_recipe(ra), _from_recipe(rb)
        # weights are -2..2, so E^2 a and E^2 b are polynomials
        pa = sum((monomial(c, e, w + 2) for c, e, w in ra), R.zero)
        pb = sum((monomial(c, e, w + 2) for c, e, w in rb), R.zero)
        assert shifted(a, 2) == pa and shifted(b, 2) == pb, seed
        assert shifted(a + b, 2) == pa + pb, (seed, "+")
        assert shifted(a - b, 2) == pa - pb, (seed, "-")
        assert shifted(-a, 2) == -pa, (seed, "neg")
        assert shifted(a * b, 4) == pa * pb, (seed, "*")
        n = seed % 4
        assert shifted(b ** n, 2 * n) == pb**n, (seed, "**", n)
        k = r.randint(-2, 2)
        assert shifted(a.times_exp(k), 4) == pa * E ** (k + 2), (seed, "times_exp", k)
        for name in VARS:
            assert shifted(a.diff(name), 2) == d(pa, name, 2), (seed, "diff", name)
            assert shifted((a * b).diff(name), 4) == d(pa * pb, name, 4), (
                seed, "diff*", name)
        # signed sums of products through the kernel, which must not change
        # an operand's terms while it fills a buffer that started from them
        before = (list(a.monomials()), list(b.monomials()))
        total = sum_products(
            [(1, a, b), (-2, b, None), (2, a, a), (-1, b, a), (1, a, None)]
        )
        expected = pa * pb - 2 * pb * E**2 + 2 * pa * pa - pb * pa + pa * E**2
        assert shifted(total, 4) == expected, (seed, "sum_products")
        _assert_stored_form(total, (seed, "sum_products"))
        buffer = {}
        add_product(buffer, 1, a)
        add_product(buffer, -1, b)
        add_product(buffer, -2, a, b)
        add_product(buffer, 1, a)
        expected = (2 * pa - pb) * E**2 - 2 * pa * pb
        assert shifted(ExpPoly._make(VARS, buffer), 4) == expected, (seed, "add_product")
        assert (list(a.monomials()), list(b.monomials())) == before, (
            seed, "operands changed")
        assert sum_products([(1, a, None)]) is a
