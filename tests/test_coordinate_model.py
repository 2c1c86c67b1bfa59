"""An independent coordinate model of the calculus, in sympy.

jacv brackets, differentiates and takes torsions on frame data; the model
does it in coordinates, with sympy's polynomials and none of jacv's
calculus.  A value of jacv's ring becomes E^-s p for a polynomial p in
x, y, z, t and E, where E stands for e^t and the shift s clears the
negative weights; d/dt of E^-s p is E^-s (dp/dt + E dp/dE - s p).

A frame is a matrix F over the slots of the model: column i is e_i.  A slot
is a coordinate, whose derivation is d/dx, or the trivial line ehat, which
has none.  Over the slots:

* a degree-1 section is a vector X = sum_k X^k d_k, acting on scalars by
  X(f) = sum over the coordinate slots of X^k df/dx_k, and
  [X, Y]^k = X(Y^k) - Y(X^k) in every slot.  On the line this is
  [X + f ehat, Y + g ehat] = [X, Y] + (X g - Y f) ehat;
* a form of degree p has the components w_K = w(d_k1, ..., d_kp) on
  increasing slots, d is the coordinate differential
  (dw)_K = sum_a (-1)^a d(w_(K without k_a))/dx_(k_a), with no derivative
  along the line, and the twisted differential adds
  (phi ^ w)_K = sum_a (-1)^a phi_(k_a) w_(K without k_a);
* the torsion of an endomorphism N is
  [NX, NY] - N[NX, Y] - N[X, NY] + N N[X, Y].

The frames are ``tangent(p)`` over (x, y, z); its ``extend_with_R``,
twisted by ``epshat``; ``lift_bar`` of that extension, where ehat is d/dt
and the weights e^(kt) differentiate; and the non-holonomic frame
e'_i = sum_k P_ki d_k of a unit triangular P with polynomial entries, whose
structure functions c_ij^k = (P^-1 [P e_i, P e_j])_k the model computes and
hands to ``make_explicit``.  That last frame is the only check of the
structure-function terms of the frame torsion and of the differential that
does not go through jacv's own bracket, and its algebroid must pass the
frame identities.
"""

import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations

import pytest

sympy = pytest.importorskip("sympy")
from sympy.polys.rings import ring  # noqa: E402

from jacv.algebroid import (  # noqa: E402
    JacobiAlgebroidData,
    Patch,
    extend_with_R,
    lift_bar,
    make_explicit,
    make_tangent,
    validate_algebroid,
)
from jacv.calculus import Form, MultiVector, differential, schouten  # noqa: E402
from jacv.coeff import ExpPoly  # noqa: E402
from jacv.dirac import _frame_pair_torsion  # noqa: E402
from jacv.structures import SIDE_A, TensorMap  # noqa: E402
from tests.gen import rand_form, rand_multivector, rand_scalar  # noqa: E402

VARS = ("x", "y", "z", "t")
R, *GENS = ring(VARS + ("E",), sympy.QQ)
GEN = dict(zip(VARS, GENS))
E = GENS[-1]


class Weighted:
    """E^-shift p, with p in R: one value of jacv's ring."""

    def __init__(self, p, shift=0):
        self.p, self.shift = p, shift

    def _at(self, shift):
        return self.p * E ** (shift - self.shift)

    def __add__(self, other):
        shift = max(self.shift, other.shift)
        return Weighted(self._at(shift) + other._at(shift), shift)

    def __neg__(self):
        return Weighted(-self.p, self.shift)

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        return Weighted(self.p * other.p, self.shift + other.shift)

    def __eq__(self, other):
        return self.p * E**other.shift == other.p * E**self.shift

    def diff(self, name):
        p, s = self.p, self.shift
        if name == "t":
            return Weighted(p.diff(GEN["t"]) + E * p.diff(E) - s * p, s)
        return Weighted(p.diff(GEN[name]), s)


ZERO, ONE = Weighted(R.zero), Weighted(R.one)


def total(values):
    out = ZERO
    for value in values:
        out = out + value
    return out


def weighted(f):
    """The model of an ExpPoly."""
    shift = max([0] + [-w for w, _, _ in f.monomials()])
    p = R.from_dict({
        e + (w + shift,): sympy.QQ(c.numerator, c.denominator)
        for w, e, c in f.monomials()
    })
    return Weighted(p, shift)


def exppoly(value):
    """The ExpPoly of a model value."""
    terms = {}
    for e, c in value.p.terms():
        weight = terms.setdefault(e[-1] - value.shift, {})
        weight[e[:-1]] = Fraction(int(c.numerator), int(c.denominator))
    return ExpPoly(VARS, terms)


def matmul(a, b):
    return [
        [total(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def identity(n):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


class Model:
    """Vector fields, forms and torsions over ``slots`` (coordinate names,
    and None for the line) in the frame whose column i of ``F`` is e_i."""

    def __init__(self, slots, F=None):
        n = len(slots)
        self.slots = slots
        self.F = F or identity(n)
        # F is unit triangular: with L = I - F nilpotent, F^-1 = sum_m L^m
        L = [[(ONE if i == j else ZERO) - self.F[i][j] for j in range(n)]
             for i in range(n)]
        self.Q, power = identity(n), identity(n)
        for _ in range(n - 1):
            power = matmul(power, L)
            self.Q = [[a + b for a, b in zip(u, v)] for u, v in zip(self.Q, power)]

    def act(self, X, f):
        return total(X[k] * f.diff(name)
                     for k, name in enumerate(self.slots) if name is not None)

    def bracket(self, X, Y):
        return [self.act(X, Y[k]) - self.act(Y, X[k]) for k in range(len(X))]

    def apply(self, N, X):
        return [total(N[k][l] * X[l] for l in range(len(X))) for k in range(len(N))]

    def torsion(self, N, X, Y):
        NX, NY = self.apply(N, X), self.apply(N, Y)
        inner = [a + b - c for a, b, c in zip(
            self.bracket(NX, Y), self.bracket(X, NY),
            self.apply(N, self.bracket(X, Y)))]
        return [a - b for a, b in zip(self.bracket(NX, NY), self.apply(N, inner))]

    def d(self, w, degree, phi=None):
        out = {}
        for K in combinations(range(len(self.slots)), degree + 1):
            terms = []
            for a, k in enumerate(K):
                rest = w.get(K[:a] + K[a + 1:], ZERO)
                term = ZERO if self.slots[k] is None else rest.diff(self.slots[k])
                if phi is not None:
                    term = term + phi.get((k,), ZERO) * rest
                terms.append(term if a % 2 == 0 else -term)
            out[K] = total(terms)
        return out

    # -- jacv's frame sections in the slots ---------------------------------

    def frame(self, i):
        return [row[i] for row in self.F]

    def vector(self, X):
        out = [ZERO] * len(self.slots)
        for (i,), c in X.components.items():
            c = weighted(c)
            out = [a + c * b for a, b in zip(out, self.frame(i))]
        return out

    def form(self, w):
        """Components on the slots: w(d_K) = sum_I w_I det(Q[I, K]), since
        d_k = sum_i Q_ik e_i."""
        out = {}
        for K in combinations(range(len(self.slots)), w.degree):
            out[K] = total(
                weighted(c) * _det([[self.Q[i][k] for k in K] for i in I])
                for I, c in w.components.items()
            )
        return out

    def endomorphism(self, N):
        """F N F^-1: the map N of frame components, in the slots."""
        matrix = [[weighted(m) for m in row] for row in N.matrix]
        return matmul(matmul(self.F, matrix), self.Q)


def _det(rows):
    n = len(rows)
    out = ZERO
    for perm in permutations(range(n)):
        term = ONE
        for i, j in enumerate(perm):
            term = term * rows[i][j]
        inversions = sum(perm[a] > perm[b] for a, b in combinations(range(n), 2))
        out = out + (-term if inversions % 2 else term)
    return out


NAMES = ("tangent", "extension", "lift_bar", "reframed")


@lru_cache(maxsize=None)
def frames():
    """{name: (algebroid, model)} for the four frames of the module docstring."""
    p = Patch(("x", "y", "z"))
    TA = make_tangent(p)
    J = extend_with_R(TA)
    bar = lift_bar(J)
    # P = [[1, a, b], [0, 1, c], [0, 0, 1]], entries polynomial in x, y, z
    x, y, z = (p.coord(n) for n in p.coords)
    zero, one = p.zero(), p.const(1)
    P = [[one, y * z + 2 * x, x * x - z], [zero, one, x * y + 1], [zero, zero, one]]
    slots = ("x", "y", "z")
    model = Model(slots, [[weighted(m) for m in row] for row in P])
    brackets = {}
    for i, j in combinations(range(3), 2):
        c = model.apply(model.Q, model.bracket(model.frame(i), model.frame(j)))
        brackets[i, j] = tuple(exppoly(value) for value in c)
    reframed = make_explicit(p, 3, P, brackets)
    return dict(zip(NAMES, (
        (TA, Model(slots)),
        (J.algebroid, Model(slots + (None,))),
        (bar, Model(slots + ("t",))),
        (reframed, model),
    )))


def _draw(r, A, kind, degree):
    return kind(r, A, degree, max_degree=2, terms=2, with_t=True, exp_range=1)


def test_the_reframed_algebroid_is_valid_and_not_holonomic():
    A, model = frames()["reframed"]
    assert matmul(model.F, model.Q) == identity(A.rank)
    assert A.brackets
    assert validate_algebroid(A).ok
    for i, j in combinations(range(A.rank), 2):
        bracket = schouten(MultiVector.frame(A, i), MultiVector.frame(A, j))
        assert model.vector(bracket) == model.bracket(model.frame(i), model.frame(j))


@pytest.mark.parametrize("name", NAMES)
def test_schouten_of_degree_one_sections_matches_the_model(name):
    A, model = frames()[name]
    r = random.Random(11)
    for seed in range(8):
        X, Y = _draw(r, A, rand_multivector, 1), _draw(r, A, rand_multivector, 1)
        got = model.vector(schouten(X, Y))
        assert got == model.bracket(model.vector(X), model.vector(Y)), (name, seed)


@pytest.mark.parametrize("name", NAMES)
def test_differential_matches_the_model(name):
    A, model = frames()[name]
    r = random.Random(12)
    twists = [_draw(r, A, rand_form, 1) for _ in range(2)]
    if name == "extension":
        twists.append(Form.coframe(A, A.rank - 1))  # epshat
    for seed in range(6):
        degree = seed % 3
        w = _draw(r, A, rand_form, degree)
        cw = model.form(w)
        got = model.form(differential(A, w))
        assert got == model.d(cw, degree), (name, seed)
        phi = twists[seed % len(twists)]
        got = model.form(differential(JacobiAlgebroidData(A, phi), w))
        expected = model.d(cw, degree, model.form(phi))
        assert got == expected, (name, seed, "twisted")


def _endomorphism(r, A):
    zero = A.zero_scalar()
    rows = tuple(
        tuple(
            rand_scalar(r, A.patch, max_degree=1, terms=2, with_t=True, exp_range=1)
            if r.random() < 0.5 else zero
            for _ in range(A.rank)
        )
        for _ in range(A.rank)
    )
    return TensorMap(A, SIDE_A, SIDE_A, rows)


@pytest.mark.parametrize("name", NAMES)
def test_frame_torsion_matches_the_model(name):
    A, model = frames()[name]
    r = random.Random(13)
    f = A.patch.coord("x") * A.patch.coord("y") + A.patch.const(1).times_exp(1)
    # f Id has zero torsion in every frame; the drawn maps mostly do not
    maps = [f * TensorMap.identity(A)] + [_endomorphism(r, A) for _ in range(3)]
    pairs = list(combinations(range(A.rank), 2))
    labels = A.frame_labels
    seen = set()
    for n, N in enumerate(maps):
        cN = model.endomorphism(N)
        residues = list(_frame_pair_torsion(N))
        assert [label for label, _ in residues] == [
            f"torsion at ({labels[i]}, {labels[j]}) = " for i, j in pairs
        ]
        for (_, value), (i, j) in zip(residues, pairs):
            expected = model.torsion(cN, model.frame(i), model.frame(j))
            assert model.vector(value) == expected, (name, n, i, j)
            seen.add(value.is_zero)
    assert seen == {True, False}
