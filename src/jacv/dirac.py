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
takes the torsion of M.  A matched pair inverts a map whose Pfaffian is
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

The torsion on frame pairs is read off a closed form.  Write M e_i =
sum_k m_ki e_k (column i of the matrix), [e_a, e_b] = sum_l c_ab^l e_l and
rho_a for the derivation rho(e_a).  The Leibniz rule for degree-1 sections,
[f e_a, g e_b] = f g [e_a, e_b] + f rho_a(g) e_b - g rho_b(f) e_a, expands
each bracket of T_M(e_i, e_j) = [M e_i, M e_j] - M I, where
I = [M e_i, e_j] + [e_i, M e_j] - M [e_i, e_j]:

    [M e_i, M e_j]_l = sum_k (m_ki rho_k(m_lj) - m_kj rho_k(m_li))
                       + sum_{k,k'} m_ki m_k'j c_kk'^l,
    [M e_i, e_j]_m   = sum_k m_ki c_kj^m - rho_j(m_mi),
    [e_i, M e_j]_m   = sum_k m_kj c_ik^m + rho_i(m_mj),
    (M [e_i, e_j])_m = sum_p m_mp c_ij^p,

so that component l of the torsion is

    T_M(e_i, e_j)_l = sum_k (m_ki rho_k(m_lj) - m_kj rho_k(m_li))
                      + sum_{k,k'} m_ki m_k'j c_kk'^l - sum_m m_lm I_m,
    I_m = sum_k (m_ki c_kj^m + m_kj c_ik^m) - rho_j(m_mi) + rho_i(m_mj)
          - sum_p m_mp c_ij^p.

Every anchored derivative in it is rho_a(m_bc) of an entry of M, the same
for every pair that asks for it, so one call of ``_frame_pair_torsion``
takes each at most once (``_FrameTorsion``).  Both sides are the same
element of the canonical coefficient ring, so the residue, and with it the
verdict and the witness, is that of bracketing sections.  The tests keep
two references: ``tests/gen.py::torsion_tensor`` brackets frame sections
with ``calculus.schouten``, and ``tests/test_coordinate_model.py`` brackets
vector fields in coordinates with sympy, sharing none of this calculus.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Union

from .algebroid import (
    FAIL,
    NOT_DECIDED,
    PASS,
    AlgebroidPatch,
    JacobiAlgebroidData,
    Report,
    _first_failure,
)
from .calculus import (
    Form,
    MismatchError,
    MultiVector,
    Section,
    _anchored,
    differential,
    phi0_schouten,
)
from .coeff import ExpPoly, Product, Scalar, sum_products
from .structures import (
    SIDE_A,
    JacobiBialgebroidData,
    TensorMap,
    _check_over,
    _cleared,
    flat_map,
    jacobi_check,
    make_standard_bialgebroid,
    maurer_cartan_check,
    nondegenerate_check,
    sharp_map,
    two_form_of,
)

@dataclass(eq=False)
class GraphRelation:
    """Graph of a musical map, generated by a degree-2 section whose class
    gives its kind.

    A ``sharp`` graph is that of a multivector's sharp map, oriented with
    the algebroid side first; a ``flat`` graph is that of a form's flat map,
    dual side first.  The orientation difference is invisible to the checks
    because relation torsion is orientation-independent.
    """

    section: Section

    def __post_init__(self) -> None:
        s = self.section
        if not isinstance(s, (MultiVector, Form)) or s.degree != 2:
            raise MismatchError("graph relations are generated by degree-2 sections")

    @classmethod
    def of_bivector(cls, pi: MultiVector) -> "GraphRelation":
        if not isinstance(pi, MultiVector):
            raise MismatchError("a sharp graph needs a MultiVector")
        return cls(pi)

    @classmethod
    def of_two_form(cls, omega: Form) -> "GraphRelation":
        if not isinstance(omega, Form):
            raise MismatchError("a flat graph needs a Form")
        return cls(omega)

    @property
    def kind(self) -> str:
        return "sharp" if isinstance(self.section, MultiVector) else "flat"

    @property
    def algebroid(self) -> AlgebroidPatch:
        return self.section.algebroid

    def music(self) -> TensorMap:
        return (sharp_map if self.kind == "sharp" else flat_map)(self.section)

    def __str__(self) -> str:
        return f"{self.kind} graph of {self.section}"


# -- torsion of an endomorphism ---------------------------------------------

def _check_endomorphism(N: TensorMap) -> None:
    if N.source != SIDE_A or N.target != SIDE_A:
        raise MismatchError("torsion needs an endomorphism of the algebroid side")


def torsion_tensor_check(N: TensorMap) -> Report:
    """Evaluate the torsion on every frame pair; tensoriality makes this full."""
    return _first_failure("torsion on frame pairs", _frame_pair_torsion(N))


class _FrameTorsion:
    """T_M(e_i, e_j) by the closed form of the module docstring, read off
    the entries m_kl of ``M``, the structure functions c_ab^l and the
    anchored derivatives rho_a(m_bc).

    The first time a pair asks for a derivative of an entry m_bc, all of
    that entry's anchored derivatives are taken in one sweep
    (``AlgebroidPatch.anchor_derivs``) and the map is kept in ``derivs`` by
    (b, c) through ``calculus._anchored`` for the life of the object, which
    is one call of ``_frame_pair_torsion``; a frame element with no anchor
    entry asks for none.  Zero entries and zero derivatives form no product, nor does a
    factor 1, which ``sum_products`` skips.  Each I_m and each component of
    the result is one ``sum_products``, and each pair builds one section.
    """

    def __init__(self, M: TensorMap) -> None:
        self.algebroid = M.algebroid
        self.m = M.matrix
        r = M.algebroid.rank
        # column i: the nonzero (k, m_ki), the components of M e_i
        self.columns = [
            [(k, self.m[k][i]) for k in range(r) if not self.m[k][i].is_zero]
            for i in range(r)
        ]
        self.anchored = [bool(entries) for entries in M.algebroid.anchor]
        self.derivs: Dict[tuple, Dict[int, ExpPoly]] = {}

    def _rho(self, a: int, b: int, col: int) -> Optional[ExpPoly]:
        """rho(e_a) m_(b, col), or None when it is zero; the entry's
        derivatives are taken once per object."""
        m_b = self.m[b][col]
        return _anchored(self.algebroid, self.derivs, (b, col), m_b).get(a)

    def at(self, i: int, j: int) -> MultiVector:
        """The torsion of M on the frame pair (e_i, e_j), i < j."""
        A, columns = self.algebroid, self.columns
        anchored = self.anchored
        col_i, col_j = columns[i], columns[j]
        out: Dict[int, List[Product]] = defaultdict(list)
        inner: Dict[int, List[Product]] = defaultdict(list)
        # [M e_i, M e_j] = sum m_ki rho_k(m_lj) e_l - m_kj rho_k(m_li) e_l
        #                  + m_ki m_k'j c_kk'^l e_l
        for col, sign, other in ((col_i, 1, j), (col_j, -1, i)):
            for k, m_k in col:
                if anchored[k]:
                    for l, _ in columns[other]:
                        d = self._rho(k, l, other)
                        if d is not None:
                            out[l].append((sign, m_k, d))
        if A.brackets:
            for k, m_ki in col_i:
                for k2, m_kj in col_j:
                    sign, row = A.signed_bracket(k, k2)
                    if row:
                        both = m_ki * m_kj
                        for l, c in row:
                            out[l].append((sign, both, c))
            # I_m, structure terms: m_ki c_kj^m + m_kj c_ik^m - m_mp c_ij^p
            for k, m_ki in col_i:
                sign, row = A.signed_bracket(k, j)
                for l, c in row:
                    inner[l].append((sign, m_ki, c))
            for k, m_kj in col_j:
                sign, row = A.signed_bracket(i, k)
                for l, c in row:
                    inner[l].append((sign, m_kj, c))
            for p, c in A.brackets.get((i, j), ()):
                for l, m_lp in columns[p]:
                    inner[l].append((-1, m_lp, c))
        # I_m, anchored terms: - rho_j(m_mi) + rho_i(m_mj)
        for col, a, index, sign in ((col_i, j, i, -1), (col_j, i, j, 1)):
            if anchored[a]:
                for l, _ in col:
                    d = self._rho(a, l, index)
                    if d is not None:
                        inner[l].append((sign, d, None))
        # - M I = - sum m_lm I_m e_l
        for m, products in inner.items():
            value = sum_products(products)
            if not value.is_zero:
                for l, m_lm in columns[m]:
                    out[l].append((-1, m_lm, value))
        return MultiVector(A, 1, {(l,): sum_products(p) for l, p in out.items()})


def _frame_pair_torsion(
    M: TensorMap, flat: Optional[TensorMap] = None, c: Scalar = 1
) -> Iterator[Tuple[str, Section]]:
    """The torsion of N = c M on every frame pair, or its image under
    ``flat`` if given, labelled by the pair; ``c`` is a rational constant.

    The torsion is taken of ``M`` by the closed form of the module
    docstring (``_FrameTorsion``), one pair at a time, and scaled by c^2
    (the lemma there), which is skipped when c^2 = 1.  The anchored
    derivatives of M's entries are taken once for the whole call, not once
    per pair.
    """
    _check_endomorphism(M)
    A = M.algebroid
    r = A.rank
    torsion = _FrameTorsion(M)
    c2 = c * c
    kind = "torsion" if flat is None else "flattened torsion"
    for i in range(r):
        for j in range(i + 1, r):
            value = torsion.at(i, j)
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
    else the first; ``_adjugate`` gives the inverse as B / q with B the
    signed sub-Pfaffians times exp(-kt).  The endomorphism is N = M / q,
    with M ``outer after B`` for two sharps and ``B after outer`` for two
    flats: the weight goes into M, and each residue of M is scaled by
    1 / q^2 (module docstring).  With neither map invertible the verdict is
    ``not-decided``.
    """
    for inner, outer, which in ((m2, m1, "second"), (m1, m2, "first")):
        pfaffian = inner._pfaffian()
        if not pfaffian[0].is_unit():
            continue
        q, adjugate = inner._adjugate(pfaffian)
        if kind == "sharp":
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
        transposed = isinstance(left.section, Form)
        sharp, flat = (right, left) if transposed else (left, right)
        note = "tensor composition sharp after flat"
        if transposed:
            note += " (transposed)"
        d, cleared = _cleared(sharp.section)
        M = sharp_map(cleared).compose(flat.music())
        return _first_failure(note, _frame_pair_torsion(M, c=Fraction(1, d)))
    if isinstance(left.section, MultiVector) and phi0_schouten(
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
    _check_over(J, pi, omega)
    base = jacobi_check(J, pi)
    if not base.ok:
        return Report(
            FAIL, witness=f"bivector: {base.witness}", strategy="component checks"
        )

    def residues() -> Iterator[Tuple[str, Form]]:
        yield "form not closed: ", differential(J, omega)
        fl = flat_map(omega)
        omega_n = two_form_of(fl.compose(sharp_map(pi).compose(fl)))
        yield "recursion image of the form not closed: ", differential(J, omega_n)

    return _first_failure("component checks", residues())


def omegan_check(
    J: JacobiAlgebroidData, omega: Form, N: TensorMap, weak: bool = False
) -> Report:
    """Form-endomorphism pair: commutation, torsion, and two closed forms.

    ``weak`` replaces vanishing of the torsion itself by vanishing of its
    image under the flat map of the form.
    """
    _check_over(J, omega)
    if N.algebroid is not J.algebroid:
        raise MismatchError("the endomorphism lives over a different algebroid")
    _check_endomorphism(N)
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
    """Presymplectic pair with both flats invertible over the patch ring.

    The non-degeneracy gate fails at the first form whose flat lacks a unit
    determinant.  Past it the verdict is that of ``presymplectic_pair_check``:
    the member gate, then the tensor reduction, which goes through the
    second flat."""
    _check_over(J, om1, om2)
    gate = _gate(
        "non-degeneracy", "form is degenerate",
        lambda om: nondegenerate_check(flat_map(om)), om1, om2,
    )
    if gate is not None:
        return gate
    return presymplectic_pair_check(J, om1, om2)


def hamiltonian_pair_check(
    J: JacobiAlgebroidData, pi1: MultiVector, pi2: MultiVector
) -> Report:
    """Two Jacobi structures whose sum is a Jacobi structure.

    The twisted bracket is bilinear and symmetric on bivectors, so
    [pi1 + pi2, pi1 + pi2]_phi = [pi1, pi1]_phi + 2 [pi1, pi2]_phi +
    [pi2, pi2]_phi.  Once the member gate has shown both members integrable,
    the sum is integrable exactly when the mixed bracket [pi1, pi2]_phi
    vanishes, an identity decided exactly; a nonzero one is the witness.
    """
    _check_over(J, pi1, pi2)
    gate = _member_gate(lambda pi: jacobi_check(J, pi), pi1, pi2)
    if gate is not None:
        return gate
    return _first_failure(
        "bracket compatibility", (("mixed bracket = ", phi0_schouten(J, pi1, pi2)),)
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
    u1 = nondegenerate_check(sharp_map(pi1)).ok
    u2 = nondegenerate_check(sharp_map(pi2)).ok
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
