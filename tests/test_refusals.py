"""Every refusal of the library that no other test reaches: one row per
``raise``, giving the call, its exception class and a fragment of its
message.

One ``raise`` has no row because no caller can reach it:
``calculus._Section._labels`` is abstract, and every constructor builds a
``MultiVector`` or a ``Form``, which override it.
"""

from types import SimpleNamespace

import pytest

from jacv.algebroid import (
    AlgebroidPatch,
    JacobiAlgebroidData,
    Patch,
    extend_with_R,
    make_tangent,
    make_trivial,
)
from jacv.calculus import (
    Form,
    MismatchError,
    MultiVector,
    contract,
    differential,
    flip_dual,
    lie_derivative,
    merge,
    pair,
    rebase,
    schouten,
    split,
    wedge,
    wedge_power,
)
from jacv.coeff import ExpPoly, UnknownVariable
from jacv.dirac import omegan_check
from jacv.structures import (
    SIDE_A,
    SIDE_DUAL,
    CouplePair,
    JacobiBialgebroidData,
    TensorMap,
    bivector_of,
    dual_differential,
    dual_lie,
    flat_map,
    graph_closure_check,
    jacobi_check,
    make_standard_bialgebroid,
    maurer_cartan_check,
    pairing_pm,
    presymplectic_check,
    sharp_map,
    two_form_of,
)


def _data():
    """Sections and maps over a rank-2 tangent algebroid A, over a second
    tangent algebroid B on the same patch, and over others that differ in
    rank or variables."""
    p = Patch(("x", "y"))
    A, B = make_tangent(p), make_tangent(p)
    J = JacobiAlgebroidData(A, Form.zero(A, 1))
    e1, e2 = MultiVector.frame(A, 0), MultiVector.frame(A, 1)
    eps1, eps2 = Form.coframe(A, 0), Form.coframe(A, 1)
    C = extend_with_R(A).algebroid
    wide = make_trivial(p, 3)
    other = make_tangent(Patch(("u", "v")))
    return SimpleNamespace(
        p=p, A=A, B=B, J=J, e1=e1, eps1=eps1, pi=wedge(e1, e2),
        om=wedge(eps1, eps2), x=p.coord("x"), C=C, wide=wide, other=other,
        Bi=make_standard_bialgebroid(J),
        J_wide=JacobiAlgebroidData(wide, Form.zero(wide, 1)),
        J_other=JacobiAlgebroidData(other, Form.zero(other, 1)),
        e1_B=MultiVector.frame(B, 0), eps1_B=Form.coframe(B, 0),
    )


REFUSALS = [
    # algebroid
    pytest.param(
        lambda d: AlgebroidPatch(d.p, 2, ((), ()), {}, frame_labels=("u",)),
        ValueError, "frame label count does not match rank", id="label-count",
    ),
    pytest.param(
        lambda d: JacobiAlgebroidData(d.A, d.om),
        ValueError, "twist cosection must have degree 1", id="twist-degree",
    ),
    pytest.param(
        lambda d: JacobiAlgebroidData(d.A, d.eps1_B),
        ValueError, "twist cosection must live on the same algebroid",
        id="twist-algebroid",
    ),
    # coeff
    pytest.param(
        lambda d: ExpPoly.var(("x",), "y"),
        UnknownVariable, "'y' is not one of", id="unknown-variable",
    ),
    pytest.param(
        lambda d: d.x ** -1,
        ValueError, "only nonnegative integer powers", id="negative-power",
    ),
    pytest.param(
        lambda d: setattr(d.x, "vars", ()),
        AttributeError, "ExpPoly is immutable", id="immutable",
    ),
    # calculus
    pytest.param(
        lambda d: d.eps1.scalar_value(),
        MismatchError, "scalar_value on a positive-degree section", id="scalar-value",
    ),
    pytest.param(
        lambda d: d.eps1 + d.eps1_B,
        MismatchError, "sections live over different algebroids", id="add-algebroids",
    ),
    pytest.param(
        lambda d: hash(d.eps1),
        TypeError, "sections are not hashable", id="hash",
    ),
    pytest.param(
        lambda d: wedge_power(d.eps1, -1),
        MismatchError, "negative wedge power", id="wedge-power",
    ),
    pytest.param(
        lambda d: contract(d.e1, d.pi),
        MismatchError, "contraction pairs a multivector with a form",
        id="contract-kind",
    ),
    pytest.param(
        lambda d: contract(d.e1, d.eps1_B),
        MismatchError, "sections live over different algebroids",
        id="contract-algebroids",
    ),
    pytest.param(
        lambda d: pair(d.eps1, d.eps1),
        MismatchError, "pairing needs opposite kinds", id="pair-kind",
    ),
    pytest.param(
        lambda d: pair(d.eps1, d.e1_B),
        MismatchError, "sections live over different algebroids", id="pair-algebroids",
    ),
    pytest.param(
        lambda d: differential(d.A, d.eps1_B),
        MismatchError, "form lives over a different algebroid",
        id="differential-algebroid",
    ),
    pytest.param(
        lambda d: lie_derivative(d.A, d.eps1, d.eps1),
        MismatchError, "lie_derivative needs a degree-1 multivector",
        id="lie-direction",
    ),
    pytest.param(
        lambda d: lie_derivative(d.A, d.e1_B, d.eps1),
        MismatchError, "sections live over different algebroids", id="lie-algebroids",
    ),
    pytest.param(
        lambda d: schouten(d.eps1, d.eps1),
        MismatchError, "the Schouten bracket acts on multivectors", id="schouten-kind",
    ),
    pytest.param(
        lambda d: split(d.eps1),
        MismatchError, "not an extended algebroid", id="split-base",
    ),
    pytest.param(
        lambda d: merge(d.C, d.om, d.e1),
        MismatchError, "pair components must have the same kind", id="merge-kind",
    ),
    pytest.param(
        lambda d: merge(d.C, d.om, d.eps1_B),
        MismatchError, "pair components must live over the base algebroid",
        id="merge-algebroid",
    ),
    pytest.param(
        lambda d: merge(d.C, Form.scalar_section(d.A, d.x), d.eps1),
        MismatchError, "a degree-0 pair has no second slot", id="merge-degree-0",
    ),
    pytest.param(
        lambda d: merge(d.C, d.om, d.om),
        MismatchError, "second slot must have degree one less", id="merge-degree",
    ),
    pytest.param(
        lambda d: flip_dual(d.eps1, d.wide),
        MismatchError, "dual flip needs matching rank and variables", id="flip-dual",
    ),
    pytest.param(
        lambda d: rebase(d.eps1, d.wide),
        MismatchError, "rebase needs matching rank and variables", id="rebase",
    ),
    # structures
    pytest.param(
        lambda d: TensorMap(
            d.A, SIDE_A, SIDE_A, [[d.other.scalar(1)] * 2 for _ in range(2)]
        ),
        ValueError, "matrix entry over the wrong variables", id="map-entry-variables",
    ),
    pytest.param(
        lambda d: TensorMap.identity(d.A) + TensorMap.identity(d.B),
        MismatchError, "maps live over different algebroids", id="add-maps-algebroids",
    ),
    pytest.param(
        lambda d: sharp_map(d.pi) - flat_map(d.om),
        MismatchError, "maps have different sides", id="add-maps-sides",
    ),
    pytest.param(
        lambda d: TensorMap.identity(d.A).compose(TensorMap.identity(d.B)),
        MismatchError, "maps live over different algebroids", id="compose-algebroids",
    ),
    pytest.param(
        lambda d: sharp_map(d.om),
        MismatchError, "sharp_map needs a degree-2 multivector", id="sharp-degree",
    ),
    pytest.param(
        lambda d: flat_map(d.pi),
        MismatchError, "flat_map needs a degree-2 form", id="flat-degree",
    ),
    pytest.param(
        lambda d: bivector_of(
            TensorMap(d.A, SIDE_DUAL, SIDE_A, TensorMap.identity(d.A).matrix)
        ),
        MismatchError, "matrix does not come from an antisymmetric tensor",
        id="antisymmetric",
    ),
    pytest.param(
        lambda d: bivector_of(flat_map(d.om)),
        MismatchError, "bivector_of expects a map from the dual side", id="bivector-of",
    ),
    pytest.param(
        lambda d: two_form_of(sharp_map(d.pi)),
        MismatchError, "two_form_of expects a map into the dual side", id="two-form-of",
    ),
    pytest.param(
        lambda d: jacobi_check(d.J, d.e1),
        MismatchError, "jacobi_check needs a degree-2 multivector", id="jacobi-degree",
    ),
    pytest.param(
        lambda d: presymplectic_check(d.J, d.eps1),
        MismatchError, "presymplectic_check needs a degree-2 form",
        id="presymplectic-degree",
    ),
    pytest.param(
        lambda d: JacobiBialgebroidData(d.J, d.J_wide),
        ValueError, "the two sides must have equal rank", id="bialgebroid-rank",
    ),
    pytest.param(
        lambda d: JacobiBialgebroidData(d.J, d.J_other),
        ValueError, "the two sides must share the patch variables",
        id="bialgebroid-variables",
    ),
    pytest.param(
        lambda d: dual_differential(d.Bi, d.eps1),
        MismatchError, "dual_differential acts on multivectors", id="dual-differential",
    ),
    pytest.param(
        lambda d: dual_lie(d.Bi, d.om, d.pi),
        MismatchError, "dual_lie needs a degree-1 direction", id="dual-lie",
    ),
    pytest.param(
        lambda d: maurer_cartan_check(d.Bi, d.e1),
        MismatchError, "the Maurer-Cartan check needs a degree-2 section",
        id="mc-degree",
    ),
    pytest.param(
        lambda d: CouplePair(d.pi, d.eps1),
        MismatchError, "couple components must have degree 1", id="couple-degree",
    ),
    pytest.param(
        lambda d: CouplePair(d.e1, d.eps1_B),
        MismatchError, "couple components over different algebroids",
        id="couple-algebroids",
    ),
    pytest.param(
        lambda d: pairing_pm(CouplePair(d.e1, d.eps1), CouplePair(d.e1, d.eps1), 0),
        ValueError, "sign must be +1 or -1", id="pairing-sign",
    ),
    pytest.param(
        lambda d: graph_closure_check(d.Bi, d.e1),
        MismatchError, "graph closure needs a degree-2 section", id="closure-degree",
    ),
    # dirac
    pytest.param(
        lambda d: omegan_check(d.J, d.om, TensorMap.identity(d.B)),
        MismatchError, "the endomorphism lives over a different algebroid",
        id="omegan-algebroid",
    ),
]


@pytest.mark.parametrize("call, error, fragment", REFUSALS)
def test_library_refusals(call, error, fragment):
    with pytest.raises(error) as info:
        call(_data())
    assert type(info.value) is error
    assert fragment in str(info.value)
