"""Seeded inputs for the benchmark workloads.

Adapted from the test helpers in ``tests/gen.py`` but kept here, so that a
change to the tests cannot change what the benchmark measures.  Every
instance is drawn from its own ``random.Random`` stream, keyed by workload,
seed and index: a smaller batch is a prefix of a larger one, and the same
seed always gives the same instances.

The shape of each instance (its kind, degrees and number of terms) is fixed
by its index; the seed picks coefficients, components and twists.  That
keeps the cost and the verdict mix of a batch close across seeds, so
seed-to-seed spread does not drown a real change.
"""

import random
from itertools import combinations

from jacv.algebroid import JacobiAlgebroidData, Patch, extend_with_R, make_tangent
from jacv.calculus import Form, MultiVector, differential, merge
from jacv.coeff import ExpPoly

COORDS = ("x1", "x2", "y1", "y2", "z")


def stream(workload, seed, index):
    return random.Random(f"{workload}/{seed}/{index}")


def contact_extension():
    """Tangent algebroid of the five-coordinate patch and its rank-6 extension."""
    TA = make_tangent(Patch(COORDS))
    return TA, extend_with_R(TA)


def _nonzero(r, top=3):
    return r.choice([k for k in range(-top, top + 1) if k])


def rand_scalar(r, variables, names, terms=2, poly_degree=1, exp_range=0):
    """``terms`` nonzero monomials in ``names``; the n-th has degree
    min(n, poly_degree) and is multiplied by e^{kt} with |k| <= exp_range."""
    out = ExpPoly.zero(variables)
    for n in range(terms):
        mono = ExpPoly.const(variables, _nonzero(r))
        for _ in range(min(n, poly_degree)):
            mono = mono * ExpPoly.var(variables, r.choice(names))
        if exp_range:
            mono = mono.times_exp(r.randint(-exp_range, exp_range))
        out = out + mono
    return out


def _components(r, A, degree, count, **kw):
    """``count`` components on distinct frame keys (all keys if fewer)."""
    variables = A.patch.variables
    names = A.patch.coords + ("t",)
    keys = list(combinations(range(A.rank), degree))
    return {
        key: rand_scalar(r, variables, names, **kw)
        for key in r.sample(keys, min(count, len(keys)))
    }


def rand_form(r, A, degree, count, **kw):
    return Form(A, degree, _components(r, A, degree, count, **kw))


def rand_multivector(r, A, degree, count, **kw):
    return MultiVector(A, degree, _components(r, A, degree, count, **kw))


def closed_twist(r, A):
    """d of a quadratic coordinate polynomial plus a constant coframe
    element: closed by construction."""
    f = rand_scalar(r, A.patch.variables, A.patch.coords, terms=3, poly_degree=2)
    exact = differential(A, Form(A, 0, {(): f}))
    return exact + _nonzero(r, 2) * Form.coframe(A, r.randrange(A.rank))


def open_twist(r, A):
    """A one-form with affine coordinate coefficients; rarely closed."""
    names = A.patch.coords
    comps = {(i,): rand_scalar(r, A.patch.variables, names) for i in range(A.rank)}
    return Form(A, 1, comps)


# -- identities --------------------------------------------------------------

IDENTITY_KINDS = ("closed_dd", "twisted_dd", "antisymmetry", "twisted_dd")
# components of a random form of degree 0..3, and of a multivector of degree 1..3
FORM_COMPONENTS = (1, 3, 4, 4)
MULTIVECTOR_COMPONENTS = 3
# coefficients: a constant plus a linear monomial, each times e^{-t}, 1 or e^t
COEFF = dict(terms=2, poly_degree=1, exp_range=1)
# the smallest batch holding every (kind, degree) combination equally often
IDENTITY_PERIOD = 144


def identity_instance(seed, index, C):
    """One calculus identity over the rank-6 extension ``C``.

    ``closed_dd`` and ``antisymmetry`` have the known answer 0;
    ``twisted_dd`` has the known answer d(phi) ^ w for its twist phi.
    """
    r = stream("identities", seed, index)
    A = C.algebroid
    kind = IDENTITY_KINDS[index % 4]
    shape = index // 4
    if kind == "antisymmetry":
        J = JacobiAlgebroidData(A, closed_twist(r, A))
        P = rand_multivector(r, A, 1 + shape % 3, MULTIVECTOR_COMPONENTS, **COEFF)
        Q = rand_multivector(r, A, 1 + (shape // 3) % 3, MULTIVECTOR_COMPONENTS, **COEFF)
        return kind, J, (P, Q)
    phi = closed_twist(r, A) if kind == "closed_dd" else open_twist(r, A)
    degree = shape % 4
    w = rand_form(r, A, degree, FORM_COMPONENTS[degree], **COEFF)
    return kind, JacobiAlgebroidData(A, phi), (w,)


def identity_batch(seed, count):
    _, C = contact_extension()
    return [identity_instance(seed, i, C) for i in range(count)]


# -- pairs -------------------------------------------------------------------

PAIR_CLASSES = ("both_nondegenerate", "first_nondegenerate", "both_degenerate")


def _linear(r, p, ys):
    """Linear function with the given (y1, y2) slopes and random nonzero x, z slopes."""
    out = ys[0] * p.coord("y1") + ys[1] * p.coord("y2")
    for name in ("x1", "x2", "z"):
        out = out + _nonzero(r, 3) * p.coord(name)
    return out


def contact_two_form(r, TA, C, nondegenerate):
    """Closed two-form on the extension merged from  b = dz - a1 dx1 - a2 dx2.

    The a_i are linear with nonzero slopes.  b ^ db ^ db is a constant
    multiple of the volume form, nonzero exactly when the (y1, y2) slopes of
    a1 and a2 are independent; that decides whether the merged form has a
    unit determinant.
    """
    p = TA.patch
    s0 = [_nonzero(r, 3), _nonzero(r, 3)]
    if nondegenerate:
        while True:
            s1 = [_nonzero(r, 3), _nonzero(r, 3)]
            if s0[0] * s1[1] != s0[1] * s1[0]:
                break
    else:
        k = r.choice((-1, 1))
        s1 = [k * s0[0], k * s0[1]]
    b = Form(TA, 1, {(0,): -_linear(r, p, s0), (1,): -_linear(r, p, s1), (4,): p.const(1)})
    J = JacobiAlgebroidData(TA, Form.zero(TA, 1))
    return merge(C.algebroid, differential(J, b), b)


def pair_instance(seed, index, TA, C):
    r = stream("pairs", seed, index)
    cls = PAIR_CLASSES[index % 3]
    om1 = contact_two_form(r, TA, C, cls != "both_degenerate")
    om2 = contact_two_form(r, TA, C, cls == "both_nondegenerate")
    return cls, om1, om2


def pair_batch(seed, count):
    TA, C = contact_extension()
    return C, [pair_instance(seed, i, TA, C) for i in range(count)]
