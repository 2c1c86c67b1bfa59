"""Musical maps and structure-level checks over an algebroid patch.

Conventions pinned here:

* a bundle map is a rank x rank matrix acting on degree-1 components,
  ``out[i] = sum_j matrix[i][j] * in[j]``;
* ``sharp_map(pi)`` satisfies ``<sharp(xi), eta> = pi(xi, eta)`` and
  ``flat_map(omega)`` satisfies ``<flat(X), Y> = omega(X, Y)``;
* the two-form attached to an invertible bivector is fixed by
  ``flat = -(sharp)^(-1)`` and conversely;
* every determinant and inverse comes from ``_pfaffians``, one memoized
  Pfaffian expansion: of the matrix itself when it is skew (every musical
  map), else of its skew block matrix [[0, A], [-A^T, 0]]; inversion exists
  exactly when the determinant is a unit of the coefficient ring, that is
  when the Pfaffian is a unit Pf = q exp(kt);
* once its caller has found Pf a unit, ``_adjugate`` reads the signed
  sub-Pfaffians of that one memo, each times exp(-kt), and returns them
  with q, which the caller takes out once: ``inverse`` scales by 1/q, and
  the tensor reductions of ``dirac`` scale only a nonzero residue, so a
  map with integer coefficients has an integer adjugate;
* the dual of a map transposes the matrix and swaps bundle sides;
* check outcomes are values (``Report``); a failed check never raises.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Callable, Dict, Iterator, List, Tuple

from .coeff import ExpPoly, NotInvertible, Scalar, sum_products
from .algebroid import (
    FAIL,
    PASS,
    AlgebroidPatch,
    JacobiAlgebroidData,
    Report,
    _first_failure,
)
from . import calculus
from .calculus import (
    Form,
    Key,
    MismatchError,
    MultiVector,
    Section,
    _scalar_like,
    differential,
    flip_dual,
    lie_derivative,
    pair,
    phi0_schouten,
    wedge,
)

Matrix = Tuple[Tuple[ExpPoly, ...], ...]
# (Pf, pf, block) of ``TensorMap._pfaffian``: one Pfaffian memo of a map
Pfaffian = Tuple[ExpPoly, Callable[[int], ExpPoly], bool]

SIDE_A = MultiVector
SIDE_DUAL = Form


def _other_side(side: type) -> type:
    return SIDE_DUAL if side is SIDE_A else SIDE_A


@dataclass(eq=False)
class TensorMap:
    """A bundle map between degree-1 sections, stored as a component matrix;
    ``source`` and ``target`` are the section classes of its sides.  Maps
    add and subtract entrywise, and ``*`` scales one by an int, a
    ``Fraction`` or an ``ExpPoly`` on either side, as it does a section."""

    algebroid: AlgebroidPatch
    source: type
    target: type
    matrix: Matrix

    def __post_init__(self) -> None:
        if self.source not in (SIDE_A, SIDE_DUAL):
            raise ValueError(f"bad source side {self.source!r}")
        if self.target not in (SIDE_A, SIDE_DUAL):
            raise ValueError(f"bad target side {self.target!r}")
        r = self.algebroid.rank
        self.matrix = tuple(tuple(row) for row in self.matrix)
        if len(self.matrix) != r or any(len(row) != r for row in self.matrix):
            raise ValueError(f"matrix must be {r}x{r}")
        variables = self.algebroid.patch.variables
        for row in self.matrix:
            for entry in row:
                if entry.vars != variables:
                    raise ValueError("matrix entry over the wrong variables")

    # -- construction ------------------------------------------------------

    @classmethod
    def identity(cls, algebroid: AlgebroidPatch) -> "TensorMap":
        zero = algebroid.zero_scalar()
        one = algebroid.patch.one()
        r = algebroid.rank
        rows = tuple(
            tuple(one if i == j else zero for j in range(r)) for i in range(r)
        )
        return cls(algebroid, SIDE_A, SIDE_A, rows)

    # -- algebra -----------------------------------------------------------

    def _check_same_shape(self, other: "TensorMap") -> None:
        if self.algebroid is not other.algebroid:
            raise MismatchError("maps live over different algebroids")
        if self.source != other.source or self.target != other.target:
            raise MismatchError("maps have different sides")

    def _entrywise(self, op: Callable, other: "TensorMap") -> "TensorMap":
        self._check_same_shape(other)
        rows = tuple(
            tuple(map(op, ra, rb)) for ra, rb in zip(self.matrix, other.matrix)
        )
        return TensorMap(self.algebroid, self.source, self.target, rows)

    def __add__(self, other: "TensorMap") -> "TensorMap":
        return self._entrywise(operator.add, other)

    def __neg__(self) -> "TensorMap":
        rows = tuple(tuple(-a for a in row) for row in self.matrix)
        return TensorMap(self.algebroid, self.source, self.target, rows)

    def __sub__(self, other: "TensorMap") -> "TensorMap":
        return self._entrywise(operator.sub, other)

    def __mul__(self, other: object) -> "TensorMap":
        if not _scalar_like(other):
            return NotImplemented
        f = other if isinstance(other, ExpPoly) else self.algebroid.scalar(other)
        rows = tuple(tuple(f * a for a in row) for row in self.matrix)
        return TensorMap(self.algebroid, self.source, self.target, rows)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TensorMap):
            return NotImplemented
        return (
            self.algebroid is other.algebroid
            and self.source == other.source
            and self.target == other.target
            and self.matrix == other.matrix
        )

    __hash__ = None  # type: ignore[assignment]

    @property
    def is_zero(self) -> bool:
        return all(entry.is_zero for row in self.matrix for entry in row)

    # -- action ------------------------------------------------------------

    def apply(self, section: Section) -> Section:
        if not isinstance(section, self.source):
            raise MismatchError(
                f"map expects a degree-1 {self.source.__name__} on its source side"
            )
        if section.degree != 1:
            raise MismatchError("maps act on degree-1 sections")
        if section.algebroid is not self.algebroid:
            raise MismatchError("section lives over a different algebroid")
        # Only the stored components contribute: column j of the matrix,
        # scaled by the component on e_j, summed over them.
        sums: Dict[Key, List] = {}
        for (j,), c in section.components.items():
            for i, row in enumerate(self.matrix):
                entry = row[j]
                if not entry.is_zero:
                    sums.setdefault((i,), []).append((1, entry, c))
        comps = {key: sum_products(terms) for key, terms in sums.items()}
        return self.target(self.algebroid, 1, comps)

    def compose(self, inner: "TensorMap") -> "TensorMap":
        """The map ``self after inner``."""
        if inner.algebroid is not self.algebroid:
            raise MismatchError("maps live over different algebroids")
        if inner.target != self.source:
            raise MismatchError("inner target does not feed this map's source")
        zero = self.algebroid.zero_scalar()
        columns = tuple(zip(*inner.matrix))
        rows = []
        for row in self.matrix:
            out = []
            for column in columns:
                terms = [
                    (1, a, b)
                    for a, b in zip(row, column)
                    if not a.is_zero and not b.is_zero
                ]
                out.append(sum_products(terms) if terms else zero)
            rows.append(tuple(out))
        return TensorMap(self.algebroid, inner.source, self.target, tuple(rows))

    def dual(self) -> "TensorMap":
        """Transpose acting between the dual sides."""
        r = self.algebroid.rank
        rows = tuple(
            tuple(self.matrix[j][i] for j in range(r)) for i in range(r)
        )
        return TensorMap(
            self.algebroid,
            _other_side(self.target),
            _other_side(self.source),
            rows,
        )

    # -- determinant and inverse ------------------------------------------

    def determinant(self) -> ExpPoly:
        """Pf * Pf for a skew matrix, else (-1)^(r(r-1)/2) Pf of its block
        matrix (proofs at ``_pfaffians``)."""
        return self._determinant(self._pfaffian())

    def _determinant(self, pfaffian: Pfaffian) -> ExpPoly:
        """The determinant read off ``pfaffian``, this map's ``_pfaffian()``."""
        pf_full, _, block = pfaffian
        if not block:
            return pf_full * pf_full
        return -pf_full if self.algebroid.rank // 2 % 2 else pf_full

    def _pfaffian(self) -> Pfaffian:
        """``(Pf, pf, block)`` with ``pf`` of ``_pfaffians``.  A skew matrix
        is expanded itself; on odd rank Pf is 0 and nothing is expanded.  Any
        other matrix A expands its skew block matrix [[0, A], [-A^T, 0]],
        whose rows -A^T are never read (see ``_pfaffians``)."""
        r = self.algebroid.rank
        if _is_skew(self.matrix):
            pf = _pfaffians(self.algebroid, self.matrix)
            pf_full = self.algebroid.zero_scalar() if r % 2 else pf((1 << r) - 1)
            return pf_full, pf, False
        zeros = (self.algebroid.zero_scalar(),) * r
        pf = _pfaffians(self.algebroid, tuple(zeros + row for row in self.matrix))
        return pf((1 << 2 * r) - 1), pf, True

    def inverse(self) -> "TensorMap":
        """The inverse B / q (``_adjugate``) when the determinant is a unit;
        else NotInvertible, whose message names the determinant."""
        pfaffian = self._pfaffian()
        if not pfaffian[0].is_unit():
            det = self._determinant(pfaffian)
            raise NotInvertible(f"{det} is not a unit in the ring")
        q, adjugate = self._adjugate(pfaffian)
        return adjugate if q == 1 else adjugate * Fraction(1, q)

    def _adjugate(self, pfaffian: Pfaffian) -> Tuple[Scalar, "TensorMap"]:
        """``(q, B)`` with ``self^-1 = B / q``, for this map's ``_pfaffian()``
        whose Pf = q exp(kt) the caller has found a unit: entry (i, j) of B
        is a signed sub-Pfaffian of that one memo times exp(-kt) (formulas
        and proofs at ``_pfaffians``), so B has the coefficients of the
        sub-Pfaffians, integers when the map has integer coefficients.
        """
        pf_full, pf, block = pfaffian
        q, k = pf_full.unit_parts()
        r = self.algebroid.rank
        # (mask, cells): entry (i, j) of a cell is (-1)^odd pf(mask) exp(-kt)
        if block:
            full = (1 << 2 * r) - 1
            cofactors = [
                (full ^ (1 << j) ^ (1 << r + i), [(i, j, (i + j + r + 1) % 2)])
                for i in range(r)
                for j in range(r)
            ]
        else:  # A^-1 is skew: (i, j) and its mirror (j, i) for i < j
            full = (1 << r) - 1
            cofactors = [
                (
                    full ^ (1 << i) ^ (1 << j),
                    [(i, j, (i + j) % 2), (j, i, (i + j + 1) % 2)],
                )
                for i in range(r)
                for j in range(i + 1, r)
            ]
        rows = [[self.algebroid.zero_scalar()] * r for _ in range(r)]
        for mask, cells in cofactors:
            sub = pf(mask)
            if sub.is_zero:
                continue
            entry = sub.times_exp(-k) if k else sub
            for i, j, odd in cells:
                rows[i][j] = -entry if odd else entry
        return q, TensorMap(self.algebroid, self.target, self.source, rows)

    def __str__(self) -> str:
        rows = [
            "[" + ", ".join(str(entry) for entry in row) + "]"
            for row in self.matrix
        ]
        names = {SIDE_A: "A", SIDE_DUAL: "A*"}
        return f"{names[self.source]}->{names[self.target]} [" + "; ".join(rows) + "]"

    __repr__ = __str__


def _is_skew(matrix: Matrix) -> bool:
    """A zero diagonal and ``m[j][i] == -m[i][j]``, read from the stored
    terms without building a value."""
    for i, row in enumerate(matrix):
        if not row[i].is_zero:
            return False
        for j in range(i):
            if not row[j].negates(matrix[j][i]):
                return False
    return True


def _pfaffians(
    algebroid: AlgebroidPatch, matrix: Matrix
) -> Callable[[int], ExpPoly]:
    """``pf(mask)``: the Pfaffian of the principal submatrix of a skew
    ``matrix`` on the indices set in the bitmask ``mask`` (of even size);
    only the rows of the first indices of the masks asked for are read.

    Expansion along the first index s0 of S = (s0 < s1 < ...):
    Pf(S) = sum_{p >= 1} (-1)^(p+1) a_{s0 sp} Pf(S without s0, sp), with
    Pf() = 1.  Every Pfaffian is memoized by its mask for the life of the
    returned function, and expanded once, after its sub-Pfaffians: an
    explicit stack keeps the order of a depth-first recursion without
    Python's recursion limit.  A zero entry is skipped before its
    sub-Pfaffian is asked for, a zero sub-Pfaffian before it is multiplied,
    and the empty Pfaffian 1 is never multiplied (``sum_products`` skips a
    factor 1).

    Why ``TensorMap`` determinants and inverses are right, over the ring R
    of ``ExpPoly`` values (a commutative domain holding Q):

    * det = Pf^2 (Cayley).  Read the entries a_ij (i < j) as independent
      variables over Q.  Pf(A) is the coefficient of e_0 ^ ... ^ e_(n-1)
      in w^(n/2) / (n/2)!, w = sum_{i<j} a_ij e_i ^ e_j, whose first-index
      expansion is the recursion above; a linear change e -> B e scales
      that top wedge by det B, so Pf(B A B^T) = det(B) Pf(A).  Over the
      field Q(a_ij) the generic A is invertible, so A = B J B^T with J the
      standard skew block matrix, Pf(J) = 1, det(J) = 1.  Then
      det A = det(B)^2 = Pf(A)^2: an identity of integer polynomials in the
      a_ij, hence true in every commutative ring, R included.
    * det is a unit iff Pf is: if Pf u = 1 then Pf^2 u^2 = 1; if
      Pf^2 v = 1 then Pf (Pf v) = 1.
    * The inverse.  Moving index i to the front permutes A by i
      transpositions, so Pf(A) = (-1)^i Pf(moved), and the first-index
      expansion of the moved matrix is the expansion along i:
      Pf(A) = sum_{j != i} s_ij a_ij Pf(A without i, j), with
      s_ij = (-1)^(i+j+1) for j > i and (-1)^(i+j) for j < i.  Replacing
      row and column i of A by row and column k != i gives a skew matrix
      with two equal rows: its det is 0, so its Pfaffian is 0 (the
      generic polynomial ring is a domain), and its expansion along i reads
      sum_j s_ij a_kj Pf(A without i, j) = 0.  So A C^T = Pf(A) I for
      C_ij = s_ij Pf(A without i, j), and when Pf(A) is a unit
      A^-1 = C^T / Pf(A): for i < j, (A^-1)_ij = s_ji Pf(A without i, j)
      / Pf(A) = (-1)^(i+j) Pf(A without i, j) / Pf(A), and
      (A^-1)_ji = s_ij Pf(...) / Pf(A) = -(A^-1)_ij; the diagonal is 0.
    * On odd rank n, det A = det(A^T) = det(-A) = (-1)^n det A, so
      2 det A = 0, and det A = 0 because 2 is invertible over Q.  Nothing
      is expanded, and the inverse raises NotInvertible on the zero
      determinant.
    * Any other A of rank n goes through the skew M = [[0, A], [-A^T, 0]].
      Unrolled, the recursion sums sgn(i_1 j_1 ... i_m j_m) times
      a_(i_1 j_1) ... a_(i_m j_m) over the perfect matchings (i_k < j_k).
      M is zero between two indices below n and between two from n on, so
      a nonzero term pairs each i < n with n + s(i), s a permutation;
      unshuffling (0, n+s(0), 1, n+s(1), ...) to (0, ..., n-1, n+s(0), ...)
      takes n(n-1)/2 transpositions, so the term is (-1)^(n(n-1)/2) sgn(s)
      A_(0 s(0)) ... A_(n-1 s(n-1)), and Pf(M) = (-1)^(n(n-1)/2) det A.
      Block multiplication gives M^-1 = [[0, -A^-T], [A^-1, 0]], so the
      skew inverse above gives (A^-1)_ij = -(M^-1)_(j, n+i) =
      (-1)^(i+j+n+1) Pf(M without j, n+i) / Pf(M).  Each mask these ask for
      holds as many indices below n as from n on (expanding one removes one
      of each), so it starts below n: the rows -A^T are never read.
    """
    zero = algebroid.zero_scalar()
    memo: Dict[int, ExpPoly] = {0: algebroid.patch.one()}

    def pf(mask: int) -> ExpPoly:
        stack = [mask]
        while stack:
            top = stack[-1]
            if top in memo:
                stack.pop()
                continue
            first = top & -top
            row = matrix[first.bit_length() - 1]
            rest = top ^ first
            bits, sign = rest, 1
            terms, missing = [], []
            while bits:
                bit = bits & -bits
                bits ^= bit
                entry = row[bit.bit_length() - 1]
                if not entry.is_zero:
                    sub = memo.get(rest ^ bit)
                    if sub is None:
                        missing.append(rest ^ bit)
                    elif not sub.is_zero:
                        terms.append((sign, entry, sub))
                sign = -sign
            if missing:  # the first one on top, as a recursion takes them
                stack += reversed(missing)
            else:
                memo[stack.pop()] = sum_products(terms) if terms else zero
        return memo[mask]

    return pf


# -- musical maps ----------------------------------------------------------


def _skew_rows(s: Section) -> List[List[ExpPoly]]:
    """``rows[i][j]`` the component of ``s`` on (j, i), signed: each stored
    component is read once and negated once for its mirrored entry."""
    A = s.algebroid
    rows = [[A.zero_scalar()] * A.rank for _ in range(A.rank)]
    for (i, j), c in s.components.items():
        rows[j][i], rows[i][j] = c, -c
    return rows


def sharp_map(pi: MultiVector) -> TensorMap:
    """The map with <sharp(xi), eta> = pi(xi, eta)."""
    if not isinstance(pi, MultiVector) or pi.degree != 2:
        raise MismatchError("sharp_map needs a degree-2 multivector")
    return TensorMap(pi.algebroid, SIDE_DUAL, SIDE_A, _skew_rows(pi))


def flat_map(omega: Form) -> TensorMap:
    """The map with <flat(X), Y> = omega(X, Y)."""
    if not isinstance(omega, Form) or omega.degree != 2:
        raise MismatchError("flat_map needs a degree-2 form")
    return TensorMap(omega.algebroid, SIDE_A, SIDE_DUAL, _skew_rows(omega))


def _antisymmetric_tensor(m: TensorMap) -> Section:
    if not _is_skew(m.matrix):
        raise MismatchError("matrix does not come from an antisymmetric tensor")
    r = m.algebroid.rank
    comps: Dict[Key, ExpPoly] = {}
    for i in range(r):
        for j in range(i + 1, r):
            c = m.matrix[j][i]
            if not c.is_zero:
                comps[(i, j)] = c
    return m.target(m.algebroid, 2, comps)


def bivector_of(m: TensorMap) -> MultiVector:
    """Recover pi from its sharp matrix; inverse of ``sharp_map``."""
    if m.source != SIDE_DUAL or m.target != SIDE_A:
        raise MismatchError("bivector_of expects a map from the dual side")
    return _antisymmetric_tensor(m)


def two_form_of(m: TensorMap) -> Form:
    """Recover omega from its flat matrix; inverse of ``flat_map``."""
    if m.source != SIDE_A or m.target != SIDE_DUAL:
        raise MismatchError("two_form_of expects a map into the dual side")
    return _antisymmetric_tensor(m)


def omega_from_pi(J: JacobiAlgebroidData, pi: MultiVector) -> Form:
    """The two-form with flat = -(sharp of pi)^(-1); needs a unit determinant."""
    _check_over(J, pi)
    return -two_form_of(sharp_map(pi).inverse())


def pi_from_omega(J: JacobiAlgebroidData, omega: Form) -> MultiVector:
    """The bivector with sharp = -(flat of omega)^(-1); needs a unit determinant."""
    _check_over(J, omega)
    return -bivector_of(flat_map(omega).inverse())


# -- reports ---------------------------------------------------------------


def _report_zero(residue: Section) -> Report:
    return _first_failure("", (("", residue),))


def _check_over(J: JacobiAlgebroidData, *sections: Section) -> None:
    for s in sections:
        if s.algebroid is not J.algebroid:
            raise MismatchError("section lives over a different algebroid")


# -- Jacobi and presymplectic checks ---------------------------------------


def _cleared(s: Section) -> Tuple[int, Section]:
    """``(d, d s)`` with d the least common multiple of the denominators of
    the coefficients of ``s``: d s has integer coefficients.  It scales the
    stored coefficients by the integer d, which forms no product, and is
    ``s`` itself when d = 1."""
    d = lcm(*(c.denominator() for c in s.components.values()))
    if d == 1:
        return 1, s
    comps = {key: sum_products([(d, c, None)]) for key, c in s.components.items()}
    return d, type(s)(s.algebroid, s.degree, comps)


def _self_bracket(J: JacobiAlgebroidData, pi: MultiVector, c: Scalar = 1) -> Section:
    """c [pi, pi]_phi, with the bracket taken of d pi (``_cleared``) and a
    nonzero one scaled by c / d^2 once.

    Proof: the twisted bracket is bilinear over Q.  Its Schouten part is, by
    the graded Leibniz rules of ``calculus``, whose anchor terms are
    derivations and so kill a constant; its twist terms are a wedge with a
    contraction, each linear in both arguments.  So [d pi, d pi] =
    d^2 [pi, pi], and c d^-2 [d pi, d pi] is the same canonical value as
    c [pi, pi], zero exactly when [pi, pi] is and with the same text as a
    witness.  When the algebroid's data have integer coefficients, the
    bracket of d pi multiplies integers only.
    """
    d, cleared = _cleared(pi)
    square = phi0_schouten(J, cleared, cleared)
    if square.is_zero or c == d == 1:
        return square
    return square * Fraction(c, d * d)


def jacobi_check(J: JacobiAlgebroidData, pi: MultiVector) -> Report:
    """Pass iff the twisted self-bracket of the bivector vanishes
    (``_self_bracket``)."""
    _check_over(J, pi)
    if pi.degree != 2:
        raise MismatchError("jacobi_check needs a degree-2 multivector")
    return _report_zero(_self_bracket(J, pi))


def presymplectic_check(J: JacobiAlgebroidData, omega: Form) -> Report:
    """Pass iff the twisted differential of the two-form vanishes."""
    _check_over(J, omega)
    if omega.degree != 2:
        raise MismatchError("presymplectic_check needs a degree-2 form")
    return _report_zero(differential(J, omega))


def nondegenerate_check(m: TensorMap) -> Report:
    """Pass iff the determinant is a unit, read off the Pfaffian; a failure's
    witness is the determinant, formed from the same memo."""
    pfaffian = m._pfaffian()
    if pfaffian[0].is_unit():
        return Report(PASS, strategy="unit determinant")
    det = m._determinant(pfaffian)
    return Report(FAIL, witness=f"det = {det}", strategy="unit determinant")


# -- dual pairs of twisted algebroids ---------------------------------------


@dataclass(eq=False)
class JacobiBialgebroidData:
    """Twisted algebroid together with a twisted dual over the same patch.

    The dual side is its own algebroid object; its degree-1 twist plays the
    role the primal twist plays on the primal side.  Components move between
    the sides by the positional flip (a multivector of one side is a form of
    the other).
    """

    a_side: JacobiAlgebroidData
    astar_side: JacobiAlgebroidData

    def __post_init__(self) -> None:
        A = self.a_side.algebroid
        D = self.astar_side.algebroid
        if A.rank != D.rank:
            raise ValueError("the two sides must have equal rank")
        if A.patch.variables != D.patch.variables:
            raise ValueError("the two sides must share the patch variables")

    @property
    def A(self) -> AlgebroidPatch:
        return self.a_side.algebroid

    @property
    def Astar(self) -> AlgebroidPatch:
        return self.astar_side.algebroid

    @property
    def phi0(self) -> Form:
        return self.a_side.phi0

    @property
    def X0(self) -> MultiVector:
        """The dual-side twist read as a degree-1 multivector of the primal side."""
        return flip_dual(self.astar_side.phi0, self.A)


def make_standard_bialgebroid(J: JacobiAlgebroidData) -> JacobiBialgebroidData:
    """Pair a twisted algebroid with the trivial dual (zero bracket, anchor, twist)."""
    A = J.algebroid
    dual = AlgebroidPatch(
        A.patch,
        A.rank,
        ((),) * A.rank,
        {},
        frame_labels=A.coframe_labels,
        coframe_labels=A.frame_labels,
    )
    return JacobiBialgebroidData(J, JacobiAlgebroidData(dual, Form.zero(dual, 1)))


def dual_differential(B: JacobiBialgebroidData, P: MultiVector) -> MultiVector:
    """Twisted differential of the dual side acting on primal multivectors."""
    if not isinstance(P, MultiVector):
        raise MismatchError("dual_differential acts on multivectors")
    flipped = flip_dual(P, B.Astar)
    return flip_dual(differential(B.astar_side, flipped), B.A)


def dual_schouten(B: JacobiBialgebroidData, w1: Form, w2: Form) -> Form:
    """Twisted bracket of the dual side acting on primal forms."""
    f1 = flip_dual(w1, B.Astar)
    # one flip for a form bracketed with itself keeps the two arguments one
    # object, so the self-bracket path of phi0_schouten applies
    f2 = f1 if w2 is w1 else flip_dual(w2, B.Astar)
    return flip_dual(phi0_schouten(B.astar_side, f1, f2), B.A)


def dual_lie(B: JacobiBialgebroidData, xi: Form, target: Section) -> Section:
    """Twisted Lie derivative of the dual side along a primal 1-form."""
    if xi.degree != 1:
        raise MismatchError("dual_lie needs a degree-1 direction")
    direction = flip_dual(xi, B.Astar)
    flipped = flip_dual(target, B.Astar)
    return flip_dual(lie_derivative(B.astar_side, direction, flipped), B.A)


def maurer_cartan_check(B: JacobiBialgebroidData, s: Section) -> Report:
    """Residue of d(s) + (1/2)[s, s] with the differential from the other side.

    For a bivector, (1/2)[s, s] is ``_self_bracket``'s, scaled once by
    1 / (2 d^2); d_* s is linear and is computed on s itself.  Over a
    trivial dual with a zero twist (``_trivial_dual``) d_* = 0, so the
    residue of a bivector is (1/2)[s, s] alone and d_* s is not computed,
    and the dual bracket is 0, so the residue of a form is d_phi s alone and
    no bracket is built.
    """
    if s.degree != 2:
        raise MismatchError("the Maurer-Cartan check needs a degree-2 section")
    _check_over(B.a_side, s)
    if isinstance(s, MultiVector):
        residue = _self_bracket(B.a_side, s, Fraction(1, 2))
        if not _trivial_dual(B):
            residue = dual_differential(B, s) + residue
    else:
        residue = differential(B.a_side, s)
        if not _trivial_dual(B):
            residue = residue + Fraction(1, 2) * dual_schouten(B, s, s)
    return _report_zero(residue)


def _trivial_dual(B: JacobiBialgebroidData) -> bool:
    """The dual has no anchor entry, no bracket and a zero twist.  Then
    d_* = 0, X0 = 0, L_* = 0 and the dual's twisted bracket is 0, because
    every term of the untwisted one has a factor c_ij^k or rho(e_i) g
    (``calculus``) and the twist terms have a factor of the twist."""
    return B.Astar.is_trivial and B.astar_side.phi0.is_zero


# -- bialgebroid compatibility ----------------------------------------------


def _scaled_frames(A: AlgebroidPatch) -> List[MultiVector]:
    """Frames and coordinate-scaled frames: the evidence family of
    ``bialgebroid_compat_check``."""
    out = [MultiVector.frame(A, i) for i in range(A.rank)]
    for name in A.patch.coords:
        f = A.patch.coord(name)
        for i in range(A.rank):
            out.append(f * MultiVector.frame(A, i))
    return out


def bialgebroid_compat_check(B: JacobiBialgebroidData) -> Report:
    """Both compatibility identities, checked on a finite section family.

    Identity one: the dual differential is a derivation from the primal
    bracket into the twisted bracket.  Identity two: the twisted Lie
    derivatives along the two twists cancel on every multivector.  Evidence
    only, so the report says so.

    A trivial dual with a zero twist (every ``standard`` pair,
    ``_trivial_dual``) passes with no bracket computed.  There d_* = 0,
    X0 = 0 and L_* = 0, and the twisted bracket is bilinear, so identity
    one reads 0 = [0, Y]_phi + [X, 0]_phi and identity two reads
    L_0 P + 0 = 0, for every section and not only on the family.  A trivial dual with a
    nonzero twist still runs the family: its d_* is wedging with the twist.
    Both paths report the same strategy string, which the benchmark's
    recorded corpus hash covers.
    """
    strategy = "verified on test family"
    if _trivial_dual(B):
        return Report(PASS, strategy=strategy)
    return _first_failure(strategy, _compat_residues(B))


def _compat_residues(B: JacobiBialgebroidData) -> Iterator[Tuple[str, Section]]:
    """Both identities of ``bialgebroid_compat_check`` on its family."""
    A = B.A
    family = _scaled_frames(A)
    frames = family[: A.rank]
    pairs = [
        (frames[i], frames[j]) for i in range(A.rank) for j in range(i, A.rank)
    ]
    pairs += [(s, frames[j]) for s in family[A.rank :] for j in range(A.rank)]
    for X, Y in pairs:
        lhs = dual_differential(B, calculus.schouten(X, Y))
        rhs = phi0_schouten(B.a_side, dual_differential(B, X), Y) + phi0_schouten(
            B.a_side, X, dual_differential(B, Y)
        )
        yield f"derivation identity on ({X}, {Y}): ", lhs - rhs
    multis = family + [
        wedge(frames[i], frames[j])
        for i in range(A.rank)
        for j in range(i + 1, A.rank)
    ]
    x0 = B.X0
    for P in multis:
        residue = lie_derivative(B.a_side, x0, P) + dual_lie(B, B.phi0, P)
        yield f"twist derivative identity on {P}: ", residue


# -- pairings and the structure bracket on A + A* ---------------------------


@dataclass(eq=False)
class CouplePair:
    """A degree-1 multivector and a degree-1 form over one algebroid."""

    vector: MultiVector
    covector: Form

    def __post_init__(self) -> None:
        if self.vector.degree != 1 or self.covector.degree != 1:
            raise MismatchError("couple components must have degree 1")
        if self.vector.algebroid is not self.covector.algebroid:
            raise MismatchError("couple components over different algebroids")


def pairing_pm(u: CouplePair, v: CouplePair, sign: int) -> ExpPoly:
    """The symmetric (+1) or antisymmetric (-1) half-sum pairing."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    first = pair(u.covector, v.vector)
    second = pair(v.covector, u.vector)
    total = first + second if sign == 1 else first - second
    return total * Fraction(1, 2)


def courant_bracket(
    B: JacobiBialgebroidData, u: CouplePair, v: CouplePair
) -> CouplePair:
    """The skew bracket on couples built from both twisted calculi.

    Over a trivial dual with a zero twist (``_trivial_dual``) the dual Lie
    derivatives, the dual differential and the dual bracket are 0, as
    ``maurer_cartan_check`` and ``bialgebroid_compat_check`` use, so only
    the primal bracket of the vectors, the two primal Lie derivatives and
    d<u, v>_- are computed.
    """
    A = B.A
    minus = pairing_pm(u, v, -1)
    vec = phi0_schouten(B.a_side, u.vector, v.vector)
    cov = (
        lie_derivative(B.a_side, u.vector, v.covector)
        - lie_derivative(B.a_side, v.vector, u.covector)
        + differential(B.a_side, Form.scalar_section(A, minus))
    )
    if not _trivial_dual(B):
        vec = (
            vec
            + dual_lie(B, u.covector, v.vector)
            - dual_lie(B, v.covector, u.vector)
            - dual_differential(B, MultiVector.scalar_section(A, minus))
        )
        cov = dual_schouten(B, u.covector, v.covector) + cov
    return CouplePair(vec, cov)


def graph_closure_check(B: JacobiBialgebroidData, s: Section) -> Report:
    """Whether the graph of a degree-2 section is closed under the bracket.

    Graph couples are (X, flat X) for a two-form, (sharp xi, xi) for a
    bivector; a couple's defect is its part off the graph.  The brackets of
    basis couples (frames X_i, resp. coframes e^i) decide closure:

    * the graph is isotropic for ``pairing_pm(., ., +1)``;
    * so the Leibniz rule ``[u, f v] = f [u, v] + (rho(X) f + rho_*(xi) f) v
      - <u, v>_+ (d_* f, d f)``, u = (X, xi), gives ``defect(u, f v) =
      f defect(u, v)``: the middle term lies on the graph;
    * by skew-symmetry the same holds in the first argument;
    * graph sections are sums of f_i times basis couples and defect(u, u) = 0,
      so zero defects on the rank (rank - 1) / 2 basis pairs mean zero
      everywhere, and a nonzero defect is an exact witness.
    """
    if s.degree != 2:
        raise MismatchError("graph closure needs a degree-2 section")
    if isinstance(s, MultiVector):
        sharp = sharp_map(s)
        basis = [Form.coframe(B.A, i) for i in range(B.A.rank)]
        couples = [CouplePair(sharp.apply(xi), xi) for xi in basis]
        def defect(w: CouplePair) -> Section:
            return w.vector - sharp.apply(w.covector)
    else:
        flat = flat_map(s)
        basis = [MultiVector.frame(B.A, i) for i in range(B.A.rank)]
        couples = [CouplePair(X, flat.apply(X)) for X in basis]
        def defect(w: CouplePair) -> Section:
            return w.covector - flat.apply(w.vector)
    residues = (
        (f"bracket of graph couples at ({b}, {c}): ", defect(courant_bracket(B, u, v)))
        for (b, u), (c, v) in combinations(zip(basis, couples), 2)
    )
    return _first_failure("graph closure on scaled frame pairs", residues)
