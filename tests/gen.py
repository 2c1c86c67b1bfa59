"""Shared builders for the test suite: seeded random data, fixed corpora and
reference routes that bracket sections where the library uses a closed form."""

import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from types import SimpleNamespace

from jacv import coeff
from jacv.algebroid import (
    JacobiAlgebroidData,
    Patch,
    extend_with_R,
    lift_hat,
    make_explicit,
    make_tangent,
)
from jacv.calculus import (
    Form,
    MultiVector,
    differential,
    lie_derivative,
    merge,
    pair,
    phi0_schouten,
    schouten,
)
from jacv.coeff import ExpPoly, sum_products
from jacv.structures import (
    SIDE_A,
    JacobiBialgebroidData,
    TensorMap,
    bivector_of,
    flat_map,
    pi_from_omega,
    sharp_map,
    two_form_of,
)


def record_products(monkeypatch):
    """The list of the operand pairs of the products the ring kernel forms
    from now on.  Every product, inside ``*`` or a sum of products, is
    formed by ``coeff.add_product``, which reads its overflow guard once
    for each product it forms and never for a sum or a factor 1; so a call
    counts when it reads the guard, whatever it was handed."""
    products, current = [], [None]
    kernel = coeff.add_product

    class Guards(coeff._Guards):
        def __getitem__(self, n):
            products.append(current[0])
            return super().__getitem__(n)

    def recording(terms, k, a, b=None):
        current[0] = a, b
        kernel(terms, k, a, b)

    monkeypatch.setattr(coeff, "_GUARD", Guards())
    monkeypatch.setattr(coeff, "add_product", recording)
    return products


def anchor_apply(A, X, f):
    """The derivation of a degree-1 section X over ``A`` applied to a
    scalar: the sum over X's components X^i of X^i rho(e_i) f."""
    derivs = A.anchor_derivs(f)
    terms = [(1, c, derivs[i]) for (i,), c in X.components.items() if i in derivs]
    return sum_products(terms) if terms else A.zero_scalar()


def bracketed_frame_residues(A, twist=None):
    """The frame identities of ``validate_algebroid`` by bracketing frame
    sections and applying anchors to coordinates: every (label, residue),
    zero or not, in the library's order."""
    e = [MultiVector.frame(A, i) for i in range(A.rank)]
    labels = A.frame_labels
    out = []
    for i, j in combinations(range(A.rank), 2):
        eij = schouten(e[i], e[j])
        for name in A.patch.anchor_coords:
            coord = A.patch.coord(name)
            lhs = anchor_apply(A, eij, coord)
            rhs = anchor_apply(A, e[i], anchor_apply(A, e[j], coord))
            rhs = rhs - anchor_apply(A, e[j], anchor_apply(A, e[i], coord))
            out.append((f"anchor([{labels[i]},{labels[j]}]) on {name}: ", lhs - rhs))
    for i, j, k in combinations(range(A.rank), 3):
        total = schouten(schouten(e[i], e[j]), e[k])
        total = total + schouten(schouten(e[j], e[k]), e[i])
        total = total + schouten(schouten(e[k], e[i]), e[j])
        out.append((f"jacobi({labels[i]},{labels[j]},{labels[k]}): ", total))
    if twist is not None:
        out.append(("d(phi0): ", differential(A, twist)))
    return out


def torsion_tensor(N, X, Y):
    """The torsion [NX,NY] - N([NX,Y] + [X,NY] - N[X,Y]) of an endomorphism
    N on two degree-1 sections, by bracketing sections: the reference for
    the closed form of ``dirac._FrameTorsion``."""
    NX, NY = N.apply(X), N.apply(Y)
    inner = schouten(NX, Y) + schouten(X, NY) - N.apply(schouten(X, Y))
    return schouten(NX, NY) - N.apply(inner)


def jacobi_bracket(J, pi, xi, eta):
    """The bracket L_{sharp xi} eta - L_{sharp eta} xi - d<sharp xi, eta>
    induced on two 1-forms by a bivector over twisted data, all three terms
    twisted: the reference for the self-bracket of the bivector."""
    sharp = sharp_map(pi)
    sx, se = sharp.apply(xi), sharp.apply(eta)
    return (
        lie_derivative(J, sx, eta)
        - lie_derivative(J, se, xi)
        - differential(J, Form.scalar_section(J.algebroid, pair(eta, sx)))
    )


def rand_scalar(r, patch, max_degree=2, terms=2, with_t=False, exp_range=0):
    """Random polynomial in the patch coordinates, optionally in t and e^t."""
    vs = patch.variables
    names = list(patch.coords) + (["t"] if with_t else [])
    out = ExpPoly.zero(vs)
    for _ in range(terms):
        c = Fraction(r.randint(-3, 3))
        if c == 0:
            continue
        mono = ExpPoly.const(vs, c)
        for _ in range(r.randint(0, max_degree)):
            mono = mono * ExpPoly.var(vs, r.choice(names))
        if exp_range:
            mono = mono.times_exp(r.randint(-exp_range, exp_range))
        out = out + mono
    return out


def _rand_components(r, A, degree, density, **kw):
    comps = {}
    for key in combinations(range(A.rank), degree):
        if r.random() < density:
            c = rand_scalar(r, A.patch, **kw)
            if not c.is_zero:
                comps[key] = c
    return comps


def rand_multivector(r, A, degree, density=0.6, **kw):
    return MultiVector(A, degree, _rand_components(r, A, degree, density, **kw))


def rand_form(r, A, degree, density=0.6, **kw):
    return Form(A, degree, _rand_components(r, A, degree, density, **kw))


def small_tangent(names=("x", "y", "z")):
    patch = Patch(tuple(names))
    return patch, make_tangent(patch)


def closed_twist(r, A):
    """A twist cosection with vanishing plain differential: d of a scalar,
    plus a constant-coefficient coframe element."""
    f = Form(A, 0, {(): rand_scalar(r, A.patch, max_degree=2)})
    exact = differential(A, f)
    idx = r.randrange(A.rank)
    return exact + Fraction(r.randint(-2, 2)) * Form.coframe(A, idx)


def unit_triangular(r, A, max_degree=1):
    """Endomorphism with unit diagonal and random strictly-upper entries."""
    one = A.scalar(1)
    zero = A.zero_scalar()
    rows = []
    for i in range(A.rank):
        row = []
        for j in range(A.rank):
            if i == j:
                row.append(one)
            elif i < j:
                row.append(rand_scalar(r, A.patch, max_degree=max_degree, terms=1))
            else:
                row.append(zero)
        rows.append(tuple(row))
    return TensorMap(A, SIDE_A, SIDE_A, tuple(rows))


def standard_flat(A):
    """Block two-form pairing consecutive frame elements; rank must be even."""
    assert A.rank % 2 == 0
    comps = {(2 * i, 2 * i + 1): A.scalar(1) for i in range(A.rank // 2)}
    return flat_map(Form(A, 2, comps))


def rand_unit_two_form(r, A, max_degree=1):
    """Random closed-under-nothing two-form whose flat map has unit determinant."""
    L = unit_triangular(r, A, max_degree=max_degree)
    b = L.dual().compose(standard_flat(A).compose(L))
    return two_form_of(b)


def rand_unit_bivector(r, A, max_degree=1):
    L = unit_triangular(r, A, max_degree=max_degree)
    J0 = standard_flat(A).inverse()
    m = L.compose(J0.compose(L.dual()))
    return bivector_of(m)


@lru_cache(maxsize=None)
def contact():
    """The five-coordinate contact corpus and its derived objects."""
    p = Patch(("x1", "x2", "y1", "y2", "z"))
    TA = make_tangent(p)
    J = JacobiAlgebroidData(TA, Form.zero(TA, 1))
    C = extend_with_R(TA)
    ext = C.algebroid

    x = {name: p.coord(name) for name in p.coords}
    b_O = Form(TA, 1, {(0,): -x["y1"], (1,): -x["y2"], (4,): p.const(1)})
    b_H = Form(TA, 1, {(0,): -x["y1"], (1,): x["y2"], (4,): p.const(1)})
    b_E = Form(TA, 1, {(0,): -x["y2"], (1,): x["y1"], (4,): p.const(1)})
    b_P = Form(TA, 1, {(0,): -x["y2"], (4,): p.const(1)})

    def merged(b):
        return merge(ext, differential(J, b), b)

    Om, wH, wE, wP = (merged(b) for b in (b_O, b_H, b_E, b_P))
    Pi = pi_from_omega(C, Om)
    fl = flat_map(Om)
    NH = fl.inverse().compose(flat_map(wH))
    NE = fl.inverse().compose(flat_map(wE))
    NP = fl.inverse().compose(flat_map(wP))

    Lam = MultiVector(
        TA,
        2,
        {(0, 2): p.const(1), (1, 3): p.const(1), (2, 4): -x["y1"], (3, 4): -x["y2"]},
    )
    Ez = MultiVector(TA, 1, {(4,): p.const(1)})

    return SimpleNamespace(
        p=p, TA=TA, J=J, C=C, ext=ext,
        b_O=b_O, b_H=b_H, b_E=b_E, b_P=b_P,
        Om=Om, wH=wH, wE=wE, wP=wP,
        Pi=Pi, NH=NH, NE=NE, NP=NP,
        Lam=Lam, Ez=Ez,
    )


def contact_form(slopes, shifts=(0, 0, 0)):
    """Closed two-form on the extension of ``contact()``, merged from
    b = dz - a1 dx1 - a2 dx2 with a1 = s0 y1 + s1 y2 + h0 x2 and
    a2 = s2 y1 + s3 y2 + h1 x1 + h2 z.  Its Pfaffian is the constant
    s1 s2 - s0 s3, so the coefficients of ``slopes`` (ints or Fractions)
    decide its rational part."""
    c = contact()
    x = {name: c.p.coord(name) for name in c.p.coords}
    s, h = slopes, shifts
    a1 = s[0] * x["y1"] + s[1] * x["y2"] + h[0] * x["x2"]
    a2 = s[2] * x["y1"] + s[3] * x["y2"] + h[1] * x["x1"] + h[2] * x["z"]
    b = Form(c.TA, 1, {(0,): -a1, (1,): -a2, (4,): c.p.const(1)})
    return merge(c.ext, differential(c.J, b), b)


@lru_cache(maxsize=None)
def solvable_bialgebroid():
    """Dual pair of two-dimensional solvable Lie algebras over a one-point base."""
    p = Patch(("q",))
    zero = p.zero()
    one = p.const(1)
    A = make_explicit(p, 2, ((zero, zero),), {(0, 1): (zero, one)})
    D = make_explicit(
        p, 2, ((zero, zero),), {(0, 1): (zero, one)},
        frame_labels=("eps1", "eps2"), coframe_labels=("e1", "e2"),
    )
    return JacobiBialgebroidData(
        JacobiAlgebroidData(A, Form.zero(A, 1)),
        JacobiAlgebroidData(D, Form.zero(D, 1)),
    )


def poisson_bialgebroid(pi):
    """The Jacobi bialgebroid (TM, T*M_pi) of a Poisson bivector, zero twists.

    ``pi`` lives over a tangent algebroid, whose frame is the coordinate
    frame d/dx_1..d/dx_r.  The dual's frame is the coordinate coframe
    dx_1..dx_r, labelled as in ``make_standard_bialgebroid``, with anchor
    dx_i -> sum_j pi^ij d/dx_j and bracket [dx_i, dx_j] = sum_k
    (d pi^ij / dx_k) dx_k.  With these signs the dual differential of a
    scalar is d_* f = [pi, f] in jacv's Schouten bracket.
    """
    A = pi.algebroid
    patch, r = A.patch, A.rank
    zero = patch.zero()
    entries = [[zero] * r for _ in range(r)]
    for (i, j), c in pi.components.items():
        entries[i][j], entries[j][i] = c, -c
    # one anchor row per coordinate x_j, holding pi^ij for each coframe dx_i
    anchor = [[entries[i][j] for i in range(r)] for j in range(r)]
    brackets = {
        (i, j): [entries[i][j].diff(name) for name in patch.anchor_coords]
        for i in range(r)
        for j in range(i + 1, r)
    }
    dual = make_explicit(
        patch, r, anchor, brackets,
        frame_labels=A.coframe_labels, coframe_labels=A.frame_labels,
    )
    return JacobiBialgebroidData(
        JacobiAlgebroidData(A, Form.zero(A, 1)),
        JacobiAlgebroidData(dual, Form.zero(dual, 1)),
    )


@lru_cache(maxsize=None)
def action_algebroids():
    """Twisted action algebroids with nonzero structure functions, and their
    weighted lifts, which also anchor along d/dt.

    sl(2) acts on the line by e1, e2, e3 -> d/dx, x d/dx, x^2 d/dx, so
    [e1, e2] = e1, [e1, e3] = 2 e2, [e2, e3] = e3 (rank 3, patch (x, y));
    aff(1) x aff(1) acts on the plane by e1, e2, e3, e4 -> d/dx, x d/dx,
    d/dy, y d/dy, so [e1, e2] = e1 and [e3, e4] = e3 (rank 4).  Each is
    twisted by the exact cosection d(x + y), and ``lift_hat`` of that data
    (zero twist upstairs) brackets every pair through the twist.  Returns
    the four twisted data, ranks 3, 3, 4, 4, each a valid algebroid.
    """
    p = Patch(("x", "y"))
    x, y, z, one = p.coord("x"), p.coord("y"), p.zero(), p.const(1)
    sl2 = make_explicit(
        p, 3, ((one, x, x * x), (z, z, z)),
        {(0, 1): (one, z, z), (0, 2): (z, p.const(2), z), (1, 2): (z, z, one)},
    )
    aff2 = make_explicit(
        p, 4, ((one, x, z, z), (z, z, one, y)),
        {(0, 1): (one, z, z, z), (2, 3): (z, z, one, z)},
    )
    out = []
    for A in (sl2, aff2):
        J = JacobiAlgebroidData(A, differential(A, Form(A, 0, {(): x + y})))
        H = lift_hat(J)
        out += [J, JacobiAlgebroidData(H, Form.zero(H, 1))]
    return tuple(out)


def rand_graph_section(r, A, kind):
    """Random degree-2 section of either kind for graph/MC tests."""
    if kind == "sharp":
        return rand_multivector(r, A, 2, max_degree=1, terms=1)
    return rand_form(r, A, 2, max_degree=1, terms=1)


RESIDUE_KINDS = ("twisted_dd", "self_bracket", "mixed_bracket")


def _rational_components(r, A, degree, count):
    """``count`` components on distinct frame keys, each a random scalar in
    the coordinates, t and e^t, scaled by a Fraction."""
    keys = list(combinations(range(A.rank), degree))
    return {
        key: rand_scalar(r, A.patch, terms=2, with_t=True, exp_range=1)
        * Fraction(r.randint(1, 3), r.randint(2, 4))
        for key in r.sample(keys, min(count, len(keys)))
    }


def residue_batch(seed, count):
    """``count`` nonzero residues of the twisted calculus, as (kind, residue).

    Each instance is drawn over one of the ``action_algebroids`` (structure
    functions; the lifts also anchor along d/dt with weight e^-t), twisted
    by a random one-form that is not closed.  ``twisted_dd`` is
    d_phi d_phi w = d(phi) ^ w for a random form w of degree 0 or 1;
    ``self_bracket`` is the Jacobi residue [P, P]_phi of a random bivector;
    ``mixed_bracket`` is the compatibility residue [P, Q]_phi of two.  Their
    coefficients hold exp weights, powers of t and Fractions.  A zero draw
    is skipped, so every residue of the batch is nonzero.
    """
    r = random.Random(seed)
    out = []
    while len(out) < count:
        A = r.choice(action_algebroids()).algebroid
        J = JacobiAlgebroidData(A, Form(A, 1, _rational_components(r, A, 1, 2)))
        kind = RESIDUE_KINDS[len(out) % len(RESIDUE_KINDS)]
        if kind == "twisted_dd":
            w = Form(A, r.randint(0, 1), {})
            w = Form(A, w.degree, _rational_components(r, A, w.degree, 2))
            residue = differential(J, differential(J, w))
        else:
            P = MultiVector(A, 2, _rational_components(r, A, 2, 2))
            Q = P if kind == "self_bracket" else MultiVector(
                A, 2, _rational_components(r, A, 2, 1)
            )
            residue = phi0_schouten(J, P, Q)
        if not residue.is_zero:
            out.append((kind, residue))
    return out
