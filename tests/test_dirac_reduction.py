"""The fraction-free tensor reductions of ``dirac_pair_check`` against the
route they replace, and the lemma they rest on.

A matched pair reduces to N = M / q, where Pf = q exp(kt) is the Pfaffian of
the inverted map and M is composed from its adjugate; a mixed pair reduces
to N = M / d, with d clearing the denominators of the sharp.  The torsion of
N is read off as c^2 times the torsion of M.  The reference here takes the
old route instead: ``inverse().compose()``, then the public
``torsion_tensor`` on each frame pair.  Both must give the same status,
strategy and witness on closed contact-type two-forms whose Pfaffian has a
rational part other than 1 and -1, with integer and with rational
coefficients, and on their lifts, whose Pfaffian carries exp(3t).
"""

import random
from fractions import Fraction
from math import lcm

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from jacv import dirac  # noqa: E402
from jacv.algebroid import NOT_DECIDED, Report, lift_hat  # noqa: E402
from jacv.calculus import MultiVector  # noqa: E402
from jacv.coeff import ExpPoly, NotInvertible  # noqa: E402
from jacv.dirac import (  # noqa: E402
    KIND_FLAT,
    GraphRelation,
    dirac_pair_check,
    torsion_tensor,
)
from jacv.lift import lift_bialgebroid, lift_section  # noqa: E402
from jacv.structures import SIDE_A, TensorMap, flat_map, pi_from_omega  # noqa: E402
from tests.gen import (  # noqa: E402
    action_algebroids,
    contact,
    contact_form,
    rand_multivector,
    rand_scalar,
    rand_unit_two_form,
    record_products,
)
from tests.test_dirac import _torsion_by_the_public_formula  # noqa: E402

PROPERTY = settings(derandomize=True, max_examples=25, deadline=None, database=None)

COEFFICIENTS = {
    "integer": st.integers(-3, 3),
    "rational": st.sampled_from(
        sorted({Fraction(n, d) for n in range(-3, 4) for d in (1, 2, 3)})
    ),
}


def _reference_pair(left, right):
    """The composition of ``dirac_pair_check`` by inverse and compose, past
    its member gate, for the pairs drawn here: two flats, or a mixed pair."""
    if left.kind != right.kind:
        transposed = left.kind == KIND_FLAT
        sharp, flat = (right, left) if transposed else (left, right)
        strategy = "tensor composition sharp after flat"
        if transposed:
            strategy += " (transposed)"
        return _torsion_by_the_public_formula(
            sharp.music().compose(flat.music()), strategy=strategy
        )
    m1, m2 = left.music(), right.music()
    for inner, outer, which in ((m2, m1, "second"), (m1, m2, "first")):
        try:
            inverse = inner.inverse()
        except NotInvertible:
            continue
        strategy = f"tensor reduction through the {which} flat"
        return _torsion_by_the_public_formula(inverse.compose(outer), strategy=strategy)
    return Report(NOT_DECIDED, strategy="tensor reduction")


def _agree(data, left, right):
    got = dirac_pair_check(data, left, right)
    expected = _reference_pair(left, right)
    assert (got.status, got.strategy, got.witness) == (
        expected.status, expected.strategy, expected.witness
    )


@st.composite
def _pair_of_forms(draw, case):
    """(w1, w2): w1 has a Pfaffian whose rational part is not 1 or -1; w2 is
    another contact form (maybe degenerate) or a rational multiple of w1."""
    slopes = [draw(COEFFICIENTS[case]) for _ in range(4)]
    q = slopes[1] * slopes[2] - slopes[0] * slopes[3]
    assume(q not in (0, 1, -1))
    shifts = [draw(st.integers(-2, 2)) for _ in range(3)]
    w1 = contact_form(slopes, shifts)
    if draw(st.integers(0, 3)) == 0:
        return w1, w1 * draw(COEFFICIENTS[case].filter(bool))
    other = [draw(COEFFICIENTS[case]) for _ in range(4)]
    return w1, contact_form(other, [draw(st.integers(-2, 2)) for _ in range(3)])


def _flats(w1, w2):
    return GraphRelation.of_two_form(w1), GraphRelation.of_two_form(w2)


@PROPERTY
@given(st.sampled_from(sorted(COEFFICIENTS)), st.data())
def test_flat_pairs_agree_with_the_inverse_route(case, data):
    w1, w2 = data.draw(_pair_of_forms(case))
    c = contact()
    assert not flat_map(w1).determinant().is_zero
    left, right = _flats(w1, w2)
    _agree(c.C, left, right)
    _agree(c.C, right, left)


@PROPERTY
@given(st.sampled_from(sorted(COEFFICIENTS)), st.data())
def test_mixed_pairs_agree_with_the_inverse_route(case, data):
    w1, w2 = data.draw(_pair_of_forms(case))
    c = contact()
    sharp = GraphRelation.of_bivector(pi_from_omega(c.C, w1))
    flat = GraphRelation.of_two_form(w2)
    _agree(c.C, sharp, flat)
    _agree(c.C, flat, sharp)


@PROPERTY
@given(st.sampled_from(sorted(COEFFICIENTS)), st.data())
def test_lifted_pairs_agree_with_the_inverse_route(case, data):
    # the upstairs half of theorem_main1_crosscheck
    w1, w2 = data.draw(_pair_of_forms(case))
    up = lift_bialgebroid(contact().C)
    lifted = [lift_section(up.A, w) for w in (w1, w2)]
    # det = Pf^2 carries exp(6t)
    assert flat_map(lifted[0]).determinant().unit_parts()[1] == 6
    left, right = _flats(*lifted)
    _agree(up, left, right)
    _agree(up, right, left)


@PROPERTY
@given(st.integers(0, 2**16), st.sampled_from((2, 3)))
def test_reductions_over_bracketed_algebroids_agree_with_the_inverse_route(seed, n):
    # rank 4 with nonzero structure functions, upstairs also anchored along
    # d/dt; the Pfaffian of w1 is q^2 exp(2kt) with q^2 != 1, and the sharp
    # has denominators, so each reduction scales by some c^2 != 1.  The
    # member gate is no part of the reduction, and these members need not
    # pass it.
    J = action_algebroids()[n]
    A = J.algebroid
    r = random.Random(seed)
    unit = ExpPoly.exp(A.patch.variables, r.randint(-1, 1))
    q = r.choice((Fraction(3, 2), 2, Fraction(-1, 3)))
    w1 = rand_unit_two_form(r, A) * (unit * q)
    if r.random() < 0.3:  # compatible: the reductions pass
        w2 = w1 * Fraction(r.choice((-2, 1, 5)), r.choice((1, 3)))
        pi = pi_from_omega(J, w1)
    else:
        w2 = rand_unit_two_form(r, A) * unit
        pi = rand_multivector(r, A, 2, max_degree=1, with_t=True) * Fraction(1, 6)
    assert flat_map(w1).determinant().unit_parts()[0] not in (1, -1)
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(dirac, "_member_gate", lambda *args: None)
        left, right = _flats(w1, w2)
        _agree(J, left, right)
        _agree(J, right, left)
        sharp = GraphRelation.of_bivector(pi)
        _agree(J, sharp, right)
        _agree(J, right, sharp)


# -- the lemma: torsion is homogeneous of degree 2 over rational constants --

def _random_endomorphism(r, A, density=0.3):
    zero = A.zero_scalar()
    rows = tuple(
        tuple(
            rand_scalar(r, A.patch, max_degree=1, terms=2, with_t=True, exp_range=1)
            if r.random() < density else zero
            for _ in range(A.rank)
        )
        for _ in range(A.rank)
    )
    return TensorMap(A, SIDE_A, SIDE_A, rows)


@PROPERTY
@given(
    st.integers(0, 2**16),
    st.sampled_from([Fraction(n, d) for n in (-3, -1, 2, 5) for d in (1, 2, 7)]),
)
def test_torsion_of_a_rational_multiple_is_scaled_by_its_square(seed, c):
    # the weighted lift has brackets, and it anchors ehat along d/dt, so the
    # anchor differentiates exp weights
    A = lift_hat(contact().C)
    assert A.brackets
    assert any(name == "t" for name, _ in A.anchor[A.rank - 1])
    r = random.Random(seed)
    N = _random_endomorphism(r, A)
    i, j = r.sample(range(A.rank), 2)
    X, Y = MultiVector.frame(A, i), MultiVector.frame(A, j)
    assert torsion_tensor(N.scale(c), X, Y) == torsion_tensor(N, X, Y) * (c * c)


def test_an_exponential_factor_breaks_the_homogeneity_on_lift_bar():
    # upstairs, ehat is anchored along d/dt, so rho(ehat) exp(t) = exp(t):
    # this is why a reduction puts the weight of the Pfaffian into M
    up = lift_bialgebroid(contact().C).A
    hat = up.rank - 1
    assert up.anchor[hat] and up.anchor[hat][-1][0] == "t"
    zero, one = up.zero_scalar(), up.patch.one()
    rows = [[zero] * up.rank for _ in range(up.rank)]
    rows[hat][0] = one  # N e_0 = ehat
    rows[1][1] = one  # N e_1 = e_1
    N = TensorMap(up, SIDE_A, SIDE_A, rows)
    X, Y = MultiVector.frame(up, 0), MultiVector.frame(up, 1)
    e_t = ExpPoly.exp(up.patch.variables, 1)
    assert torsion_tensor(N, X, Y).is_zero
    assert torsion_tensor(N.scale(3), X, Y).is_zero
    # [e^t ehat, e^t e_1] = e^t rho(ehat)(e^t) e_1 = e^(2t) e_1
    assert torsion_tensor(N.scale(e_t), X, Y) == Y * (e_t * e_t)


# -- integer arithmetic ------------------------------------------------------

def _fractional(value):
    return any(c.__class__ is not int for _, _, c in value.monomials())


def test_reductions_of_integer_forms_multiply_integers(monkeypatch):
    # Pf = 4: the flat/flat reduction divides by q = 4 and the mixed one by
    # d = 4, the denominator of pi_from_omega, each once per residue
    c = contact()
    w1 = contact_form((1, 2, 2, 0), (1, -1, 2))
    w2 = contact_form((1, 2, 3, 1), (0, 1, 1))
    assert flat_map(w1).determinant() == c.ext.scalar(16)
    pi = pi_from_omega(c.C, w1)
    d = lcm(*(v.denominator() for v in pi.components.values()))
    assert d == 4
    flat1, flat2 = _flats(w1, w2)
    for left, right, c2 in (
        (flat2, flat1, Fraction(1, 16)),
        (GraphRelation.of_bivector(pi), flat2, Fraction(1, d * d)),
    ):
        with monkeypatch.context() as patched:
            # the member gate is no part of the reduction
            patched.setattr(dirac, "_member_gate", lambda *args: None)
            products = record_products(patched)
            report = dirac_pair_check(c.C, left, right)
        assert report.status == "fail"
        scaled = next(
            n for n, (a, b) in enumerate(products) if _fractional(a) or _fractional(b)
        )
        assert scaled > 0  # the reduction itself formed products
        # from the first operand with a Fraction on, every product scales a
        # component of the failing residue by c^2
        for a, b in products[scaled:]:
            assert a == c2 and not _fractional(b)
