"""Pair checks built on graph relations inside the double A + dual.

A degree-2 multivector and a degree-2 form each cut out a graph inside the
sum of the algebroid and its dual (through the sharp and the flat map).
Composing one graph with the transpose of the other produces a relation on
the algebroid itself; when that relation is the graph of an endomorphism
its deformation obstruction is the usual torsion tensor, and the pair is
"compatible as graphs" exactly when the obstruction vanishes.

The checkers here grade a pair of graphs in two escalating ways:

* a sufficient bracket-compatibility test for two bivectors,
* a complete reduction to a torsion tensor whenever the relation is forced
  to be a graph (mixed pairs always; matched pairs when one of the musical
  maps has unit determinant),

and report ``not-decided`` when neither applies.

Verdicts distinguish ``fail`` (a concrete obstruction was computed) from
``not-decided`` (no complete procedure applied), so a report never claims
more than the arithmetic shows.

A tensor reduction writes its endomorphism as N = c M with c a rational
constant and M free of the denominators the inverse would bring in, and
evaluates the torsion of M.  A matched pair inverts a map whose Pfaffian is
the unit Pf = q exp(kt): its inverse is B / q, where B is the matrix of
signed sub-Pfaffians times exp(-kt) (``TensorMap._adjugate``), so M is
``outer after B`` or ``B after outer`` and c = 1 / q.  A mixed pair has
N = sharp after flat; with d the least common multiple of the denominators
of the sharp's coefficients, M = (d sharp) after flat and c = 1 / d.  On
inputs with integer coefficients every product of the reduction then
multiplies integers.  Each nonzero residue is scaled by c^2 once, and not
at all when c^2 = 1.  This is exact by one lemma.

Lemma: the torsion T_N(X, Y) = [NX, NY] - N[NX, Y] - N[X, NY] + N N[X, Y]
is homogeneous of degree 2 over rational constants, T_(cN) = c^2 T_N.
Proof: the bracket is bilinear over Q.  It is additive, and
[fU, V] = f[U, V] - (rho(V) f) U and [U, fV] = f[U, V] + (rho(U) f) V,
where the anchor rho(V) is a derivation and so kills a constant c; N and
its application are linear over Q too.  Every term of T holds N exactly
twice, so c comes out of each as c^2.  Hence c^2 T_M = T_N, the same
canonical value and so the same witness, and T_M is zero exactly when T_N
is (c != 0): verdict, strategy and witness are those of N.  The weight
exp(kt) is no constant: upstairs, ``lift_bar`` anchors ``ehat`` along d/dt,
so rho(ehat) exp(kt) = k exp(kt) and the lemma fails for c = exp(kt).  That
is why the weight goes into M and only the rational q into c.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable, Iterator, Optional, Tuple, Union

from .algebroid import (
    FAIL,
    NOT_DECIDED,
    PASS,
    AlgebroidPatch,
    JacobiAlgebroidData,
    Report,
    _first_failure,
    bracket_sections,
)
from .calculus import (
    Form,
    MismatchError,
    MultiVector,
    Section,
    differential,
    phi0_schouten,
)
from .coeff import NotInvertible, Scalar
from .structures import (
    JacobiBialgebroidData,
    TensorMap,
    flat_map,
    jacobi_check,
    make_standard_bialgebroid,
    maurer_cartan_check,
    nondegenerate_check,
    sharp_map,
    two_form_of,
)

KIND_SHARP = "sharp"
KIND_FLAT = "flat"

@dataclass(eq=False)
class GraphRelation:
    """Graph of a musical map, tagged with the section that generates it.

    ``sharp`` wraps a degree-2 multivector (graph of its sharp map, oriented
    with the algebroid side first); ``flat`` wraps a degree-2 form (graph of
    its flat map, dual side first).  The orientation difference is invisible
    to the checks because relation torsion is orientation-independent.
    """

    kind: str
    section: Section

    def __post_init__(self) -> None:
        if self.kind not in (KIND_SHARP, KIND_FLAT):
            raise ValueError(f"unknown graph kind {self.kind!r}")
        wanted = MultiVector if self.kind == KIND_SHARP else Form
        if not isinstance(self.section, wanted):
            raise MismatchError(f"a {self.kind} graph needs a {wanted.__name__}")
        if self.section.degree != 2:
            raise MismatchError("graph relations are generated by degree-2 sections")

    @classmethod
    def of_bivector(cls, pi: MultiVector) -> "GraphRelation":
        return cls(KIND_SHARP, pi)

    @classmethod
    def of_two_form(cls, omega: Form) -> "GraphRelation":
        return cls(KIND_FLAT, omega)

    @property
    def algebroid(self) -> AlgebroidPatch:
        return self.section.algebroid

    def music(self) -> TensorMap:
        if self.kind == KIND_SHARP:
            return sharp_map(self.section)
        return flat_map(self.section)

    def __str__(self) -> str:
        return f"{self.kind} graph of {self.section}"


# -- torsion of an endomorphism ---------------------------------------------

def torsion_tensor(N: TensorMap, X: MultiVector, Y: MultiVector) -> MultiVector:
    """[NX,NY] - N[NX,Y] - N[X,NY] + N(N[X,Y]) with the plain bracket."""
    _check_endomorphism(N)
    if X.degree != 1 or Y.degree != 1:
        raise MismatchError("torsion arguments must be degree-1 multivectors")
    return _torsion(N, X, Y, N.apply(X), N.apply(Y))


def _check_endomorphism(N: TensorMap) -> None:
    if N.source != "A" or N.target != "A":
        raise MismatchError("torsion needs an endomorphism of the algebroid side")


def _torsion(
    N: TensorMap, X: MultiVector, Y: MultiVector, NX: MultiVector, NY: MultiVector
) -> MultiVector:
    """The torsion from the images ``NX``, ``NY``, grouped so that ``N`` is
    applied twice: [NX,NY] - N([NX,Y] + [X,NY] - N[X,Y])."""
    A = N.algebroid
    inner = bracket_sections(A, NX, Y) + bracket_sections(A, X, NY)
    inner = inner - N.apply(bracket_sections(A, X, Y))
    return bracket_sections(A, NX, NY) - N.apply(inner)


def torsion_tensor_check(N: TensorMap) -> Report:
    """Evaluate the torsion on every frame pair; tensoriality makes this full."""
    return _first_failure("torsion on frame pairs", _frame_pair_torsion(N))


def _frame_pair_torsion(
    M: TensorMap, flat: Optional[TensorMap] = None, c: Scalar = 1
) -> Iterator[Tuple[str, Section]]:
    """The torsion of N = c M on every frame pair, or its image under
    ``flat`` if given, labelled by the pair; ``c`` is a rational constant.

    The torsion is evaluated on ``M`` and scaled by c^2 (the lemma in the
    module docstring), which is skipped when c^2 = 1.  The frame and its
    images depend only on ``M``, so they are built once: ``M e_i`` is column
    ``i`` of the matrix.
    """
    _check_endomorphism(M)
    A = M.algebroid
    r = A.rank
    frame = [MultiVector.frame(A, i) for i in range(r)]
    images = [
        MultiVector(A, 1, {(k,): M.matrix[k][i] for k in range(r)}) for i in range(r)
    ]
    c2 = c * c
    kind = "torsion" if flat is None else "flattened torsion"
    for i in range(r):
        for j in range(i + 1, r):
            value = _torsion(M, frame[i], frame[j], images[i], images[j])
            if flat is not None:
                value = flat.apply(value)
            if c2 != 1 and not value.is_zero:
                value = value * c2
            where = f"({A.frame_labels[i]}, {A.frame_labels[j]})"
            yield f"{kind} at {where} = ", value


# -- pair verdicts ----------------------------------------------------------

DataLike = Union[JacobiAlgebroidData, JacobiBialgebroidData]


def _as_bialgebroid(data: DataLike) -> JacobiBialgebroidData:
    if isinstance(data, JacobiBialgebroidData):
        return data
    return make_standard_bialgebroid(data)


def _gate(
    strategy: str, failure: str, check: Callable[[Section], Report],
    left: Section, right: Section,
) -> Optional[Report]:
    """``fail`` naming the first of the two inputs that ``check`` fails,
    with that report's witness; None when both pass."""
    for section, side in ((left, "left"), (right, "right")):
        report = check(section)
        if not report.ok:
            witness = f"{side} {failure}: {report.witness}"
            return Report(FAIL, strategy=strategy, witness=witness)
    return None


def _member_gate(
    check: Callable[[Section], Report], left: Section, right: Section
) -> Optional[Report]:
    """The member gate of the pair checks: both members satisfy ``check``."""
    return _gate(
        "member validity", "member fails its structure equation", check, left, right
    )


def _reduction(kind: str, m1: TensorMap, m2: TensorMap) -> Report:
    """Torsion of the endomorphism a matched pair induces, if it is a graph.

    The second map is inverted if its Pfaffian Pf = q exp(kt) is a unit,
    else the first; each map's Pfaffian is expanded once, inside
    ``_adjugate``, which gives the inverse as B / q with B the signed
    sub-Pfaffians times exp(-kt).  The endomorphism is N = M / q, with M
    ``outer after B`` for two sharps and ``B after outer`` for two flats:
    the weight goes into M, and each residue of M is scaled by 1 / q^2
    (module docstring).  With neither map invertible the verdict is
    ``not-decided``.
    """
    for inner, outer, which in ((m2, m1, "second"), (m1, m2, "first")):
        try:
            q, adjugate = inner._adjugate()
        except NotInvertible:
            continue
        if kind == KIND_SHARP:
            M = outer.compose(adjugate)
        else:
            M = adjugate.compose(outer)
        note = f"tensor reduction through the {which} {kind}"
        return _first_failure(note, _frame_pair_torsion(M, c=Fraction(1) / q))
    return Report(
        NOT_DECIDED,
        strategy="tensor reduction",
        witness=f"neither {kind} map has unit determinant",
    )


def dirac_pair_check(
    data: DataLike, left: GraphRelation, right: GraphRelation
) -> Report:
    """Grade a pair of graphs: members first, then the composed relation.

    Mixed pairs always reduce to an honest endomorphism, so their verdicts
    are complete; the sharp is scaled by the common denominator d of its
    coefficients before it is composed, and each residue by 1 / d^2 (module
    docstring).  Two bivectors whose twisted mixed bracket vanishes pass by
    bracket compatibility; every other matched pair goes to the tensor
    reduction, which is ``not-decided`` when neither musical map has unit
    determinant.  ``not-decided`` never means an obstruction was found.
    """
    B = _as_bialgebroid(data)
    if left.algebroid is not B.A or right.algebroid is not B.A:
        raise MismatchError("graph members live over a different algebroid")
    gate = _member_gate(
        lambda s: maurer_cartan_check(B, s), left.section, right.section
    )
    if gate is not None:
        return gate
    if left.kind != right.kind:
        # Transposing the pair transposes the relation and keeps the torsion.
        transposed = left.kind == KIND_FLAT
        sharp, flat = (right, left) if transposed else (left, right)
        note = "tensor composition sharp after flat"
        if transposed:
            note += " (transposed)"
        d = lcm(*(c.denominator() for c in sharp.section.components.values()))
        M = sharp.music().scale(d).compose(flat.music())
        return _first_failure(note, _frame_pair_torsion(M, c=Fraction(1, d)))
    if left.kind == KIND_SHARP and phi0_schouten(
        B.a_side, left.section, right.section
    ).is_zero:
        return Report(PASS, strategy="bracket compatibility")
    return _reduction(left.kind, left.music(), right.music())


# -- bivector-with-form and form-with-endomorphism structures ----------------

def jomega_check(
    J: JacobiAlgebroidData, pi: MultiVector, omega: Form
) -> Report:
    """Bivector-form pair: bivector integrable, both forms closed.

    The partner form is the original one precomposed with the recursion
    endomorphism sharp-after-flat; its closedness is the only coupling
    condition between the two inputs.
    """
    base = jacobi_check(J, pi)
    if not base.ok:
        return Report(
            FAIL, witness=f"bivector: {base.witness}", strategy="component checks"
        )

    def residues() -> Iterator[Tuple[str, Form]]:
        yield "form not closed: ", differential(J, omega)
        N = sharp_map(pi).compose(flat_map(omega))
        omega_n = two_form_of(flat_map(omega).compose(N))
        yield "recursion image of the form not closed: ", differential(J, omega_n)

    return _first_failure("component checks", residues())


def omegan_check(
    J: JacobiAlgebroidData, omega: Form, N: TensorMap, weak: bool = False
) -> Report:
    """Form-endomorphism pair: commutation, torsion, and two closed forms.

    ``weak`` replaces vanishing of the torsion itself by vanishing of its
    image under the flat map of the form.
    """
    if N.source != "A" or N.target != "A":
        raise MismatchError("the endomorphism must act on the algebroid side")
    fl = flat_map(omega)
    commute = fl.compose(N) - N.dual().compose(fl)
    if not commute.is_zero:
        return Report(
            FAIL,
            witness="flat does not intertwine the endomorphism with its dual",
            strategy="matrix commutation",
        )
    torsion = _first_failure(
        "torsion on frame pairs", _frame_pair_torsion(N, fl if weak else None)
    )
    if not torsion.ok:
        return torsion

    def residues() -> Iterator[Tuple[str, Form]]:
        yield "form not closed: ", differential(J, omega)
        yield "composed form not closed: ", differential(J, two_form_of(fl.compose(N)))

    closed = _first_failure("closedness", residues())
    if not closed.ok:
        return closed
    label = "weak commutation/torsion/closedness" if weak else (
        "commutation/torsion/closedness"
    )
    return Report(PASS, strategy=label)


# -- named pair wrappers -----------------------------------------------------

def jacobi_pair_check(
    J: JacobiAlgebroidData, pi1: MultiVector, pi2: MultiVector
) -> Report:
    """Two integrable bivectors whose graphs form a compatible pair."""
    return dirac_pair_check(
        J, GraphRelation.of_bivector(pi1), GraphRelation.of_bivector(pi2)
    )


def presymplectic_pair_check(
    J: JacobiAlgebroidData, om1: Form, om2: Form
) -> Report:
    """Two closed forms whose graphs form a compatible pair."""
    return dirac_pair_check(
        J, GraphRelation.of_two_form(om1), GraphRelation.of_two_form(om2)
    )


def symplectic_pair_check(
    J: JacobiAlgebroidData, om1: Form, om2: Form
) -> Report:
    """Presymplectic pair with both flats invertible over the patch ring."""
    gate = _gate(
        "non-degeneracy",
        "form is degenerate",
        lambda omega: nondegenerate_check(flat_map(omega)),
        om1,
        om2,
    )
    if gate is not None:
        return gate
    return presymplectic_pair_check(J, om1, om2)


def hamiltonian_pair_check(
    J: JacobiAlgebroidData, pi1: MultiVector, pi2: MultiVector
) -> Report:
    """Sufficient test: both bivectors integrable and their bracket zero.

    A compatible pair is always a compatible graph pair; the converse needs
    an image condition this checker does not decide, so a nonzero bracket
    only downgrades the verdict to not-decided (unless a member fails).
    """
    gate = _member_gate(lambda pi: jacobi_check(J, pi), pi1, pi2)
    if gate is not None:
        return gate
    mixed = phi0_schouten(J, pi1, pi2)
    if mixed.is_zero:
        return Report(PASS, strategy="bracket compatibility")
    return Report(
        NOT_DECIDED,
        strategy="bracket compatibility",
        witness=f"mixed bracket = {mixed}; compatibility is only sufficient",
    )


def condition_image_check(
    pi1: MultiVector, pi2: MultiVector
) -> Report:
    """Full-preimage condition on the two sharps.

    The condition compares preimages of images of the two sharp maps; over
    this coefficient ring it is only decidable when both maps are invertible
    (then both preimages are everything).  Anything else is reported as
    not decided rather than guessed.
    """
    if pi1.algebroid is not pi2.algebroid:
        raise MismatchError("sections live over different algebroids")
    u1 = sharp_map(pi1).is_unit_determinant()
    u2 = sharp_map(pi2).is_unit_determinant()
    if u1 and u2:
        return Report(PASS, strategy="unit determinants: preimages are full")
    lacking = []
    if not u1:
        lacking.append("first")
    if not u2:
        lacking.append("second")
    which = " and ".join(lacking)
    return Report(
        NOT_DECIDED,
        witness=f"{which} sharp map lacks unit determinant",
        strategy="image condition undecidable over the coefficient ring",
    )
