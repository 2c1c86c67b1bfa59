"""Lie algebroids over a coordinate patch, given by frame data.

An algebroid here is a rank-r module with a chosen frame e_1..e_r over one
patch, described by its anchor rho(e_i) = sum_x rho_i^x d/dx and structure
functions c_ij^k with

    [e_i, e_j] = sum_k c_ij^k e_k,      c_ij^k = -c_ji^k.

Only nonzero frame data is stored: for each frame element the nonzero anchor
entries, and for each pair i < j the nonzero structure functions; the pairs
i > j follow by antisymmetry, so it holds by construction.  Brackets of
general sections follow by the Leibniz rule.  The formal variable t is always
present in the scalar ring; it only becomes an honest coordinate (with its
own anchor entries) on patches with ``has_time=True``, which is how the
product with a line is modelled for the two lifts.

Everything is stored over the same variable tuple coords + ("t",), so scalar
components of a structure and of its lift live in one ring and can be compared
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from .coeff import ExpPoly, Product, VariableSetMismatch, sum_products
from . import calculus


@dataclass(frozen=True)
class Patch:
    """An ordered coordinate chart; ``has_time`` marks the product with a line."""

    coords: Tuple[str, ...]
    has_time: bool = False

    def __post_init__(self) -> None:
        seen = set()
        for name in self.coords:
            if not name or not name[0].isalpha() or not name.isalnum():
                raise ValueError(f"bad coordinate name {name!r}")
            if name == "t":
                raise ValueError(
                    "'t' is reserved; use has_time=True for a time coordinate"
                )
            if name in seen:
                raise ValueError(f"duplicate coordinate name {name!r}")
            seen.add(name)
        # ExpPoly is immutable, so one zero and one 1 serve every caller on
        # this patch
        object.__setattr__(self, "_zero", ExpPoly.zero(self.variables))
        object.__setattr__(self, "_one", ExpPoly.const(self.variables, 1))

    @property
    def variables(self) -> Tuple[str, ...]:
        """Variable tuple of the scalar ring (t always last, always present)."""
        return self.coords + ("t",)

    @property
    def anchor_coords(self) -> Tuple[str, ...]:
        """Coordinates that anchor matrices range over."""
        return self.coords + ("t",) if self.has_time else self.coords

    def zero(self) -> ExpPoly:
        return self._zero

    def one(self) -> ExpPoly:
        return self._one

    def const(self, value) -> ExpPoly:
        return ExpPoly.const(self.variables, value)

    def coord(self, name: str) -> ExpPoly:
        return ExpPoly.var(self.variables, name)


def _default_labels(prefix: str, rank: int) -> Tuple[str, ...]:
    return tuple(f"{prefix}{i + 1}" for i in range(rank))


Entries = Tuple[Tuple[object, ExpPoly], ...]


def _nonzero_entries(
    pairs: Iterable[Tuple[object, ExpPoly]],
    allowed: Sequence,
    variables: Tuple[str, ...],
    what: str,
) -> Entries:
    """The nonzero (key, entry) pairs, ordered as their keys are in ``allowed``;
    a key outside ``allowed``, a repeated key or an entry over other
    variables is a ValueError."""
    position = {key: n for n, key in enumerate(allowed)}
    kept = {}
    for key, entry in pairs:
        if key not in position or key in kept:
            raise ValueError(f"unknown or repeated {what} {key!r}")
        if entry.vars != variables:
            raise ValueError(f"{what} entry over the wrong variables")
        if not entry.is_zero:
            kept[key] = entry
    return tuple(sorted(kept.items(), key=lambda item: position[item[0]]))


@dataclass
class AlgebroidPatch:
    """Anchor and structure functions for one frame over one patch, sparse.

    ``anchor[i]`` holds rho(e_i) as its nonzero (coordinate, entry) pairs, in
    ``patch.anchor_coords`` order.  ``brackets[(i, j)]``, for i < j only,
    holds [e_i, e_j] as its nonzero (k, c_ij^k) pairs in increasing k; a
    missing pair brackets to zero.  Zero entries given to the constructor
    are dropped.  ``anchor_derivs`` reads the anchor by variable instead:
    for each variable index, the frame elements whose anchor has an entry
    along it, with that entry.

    Algebroids are equal exactly when their frame data are, as normalized
    here: patch, rank, anchor, brackets, both label tuples and ``ext_base``.
    The hash is over ``(patch, rank, frame_labels)``.
    """

    patch: Patch
    rank: int
    anchor: Tuple[Entries, ...]
    brackets: Dict[Tuple[int, int], Entries]
    frame_labels: Tuple[str, ...] = ()
    coframe_labels: Tuple[str, ...] = ()
    # set by extend_with_R on the extension it builds
    ext_base: Optional["AlgebroidPatch"] = None

    def __post_init__(self) -> None:
        r = self.rank
        if r < 0:
            raise ValueError(f"rank must not be negative, got {r}")
        if not self.frame_labels:
            self.frame_labels = _default_labels("e", r)
        if not self.coframe_labels:
            self.coframe_labels = _default_labels("eps", r)
        if len(self.frame_labels) != r or len(self.coframe_labels) != r:
            raise ValueError("frame label count does not match rank")
        if len(self.anchor) != r:
            raise ValueError(f"anchor must have {r} columns")
        variables = self.patch.variables
        self.anchor = tuple(
            _nonzero_entries(column, self.patch.anchor_coords, variables, "anchor")
            for column in self.anchor
        )
        brackets = {}
        for (i, j), row in self.brackets.items():
            if not 0 <= i < j < r:
                raise ValueError(f"bracket key {(i, j)} must satisfy 0 <= i < j < rank")
            row = _nonzero_entries(row, range(r), variables, "structure")
            if row:
                brackets[i, j] = row
        self.brackets = brackets
        by_variable: Dict[int, List[Tuple[int, ExpPoly]]] = {}
        for i, column in enumerate(self.anchor):
            for name, entry in column:
                by_variable.setdefault(variables.index(name), []).append((i, entry))
        self._by_variable = dict(sorted(by_variable.items()))

    def __hash__(self) -> int:
        return hash((self.patch, self.rank, self.frame_labels))

    @property
    def is_trivial(self) -> bool:
        """No anchor entry and no bracket: the untwisted differential,
        Schouten bracket and Lie derivatives vanish (see ``calculus``)."""
        return not self.brackets and not any(self.anchor)

    # -- scalars -----------------------------------------------------------

    def zero_scalar(self) -> ExpPoly:
        return self.patch.zero()

    def scalar(self, value) -> ExpPoly:
        return self.patch.const(value)

    # -- anchor and frame brackets ----------------------------------------

    def anchor_derivs(self, f: ExpPoly) -> Dict[int, ExpPoly]:
        """``{i: rho(e_i) f}`` over the frame, nonzero derivatives only.

        rho(e_i) f is the sum over the nonzero anchor entries rho_i^x of
        rho_i^x df/dx.  The partial derivatives of f along the anchored
        variables are taken in one sweep (``ExpPoly.partials``), so a
        variable f does not involve costs no derivative and no product, and
        an entry equal to 1 (every entry of a tangent or extension frame)
        adds its derivative unmultiplied, as ``sum_products`` skips a
        factor 1.
        ``f`` must be over the patch's variables.
        """
        variables = self.patch.variables
        if f.vars != variables:
            raise VariableSetMismatch(
                f"a scalar over {f.vars} on a patch over {variables}"
            )
        by_variable = self._by_variable
        partials = f.partials(by_variable)
        if not partials:
            return {}
        sums: Dict[int, List[Product]] = {}
        for v, df in partials.items():
            for i, entry in by_variable[v]:
                sums.setdefault(i, []).append((1, entry, df))
        out = {}
        for i, products in sums.items():
            d = sum_products(products)
            if not d.is_zero:
                out[i] = d
        return out

    def signed_bracket(self, a: int, b: int) -> Tuple[int, Entries]:
        """(sign, row) with [e_a, e_b] = sign * sum of c e_l over (l, c) in
        row: the stored row of the pair in increasing order, read with its
        sign; the row of a == b is empty."""
        if a < b:
            return 1, self.brackets.get((a, b), ())
        return -1, self.brackets.get((b, a), ())


PASS = "pass"
FAIL = "fail"
NOT_DECIDED = "not-decided"


@dataclass(frozen=True)
class Report:
    """Outcome of a check: ``pass``, ``fail`` or ``not-decided``, or
    ``error`` from the script interpreter for a check it could not run.

    ``strategy`` names how the verdict was reached; ``fail`` and
    ``not-decided`` carry a printable witness.  A failed check never raises.
    """

    status: str
    strategy: str = ""
    witness: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status == PASS


def _first_failure(
    strategy: str, residues: Iterable[Tuple[str, object]]
) -> Report:
    """``fail`` at the first nonzero residue, its witness the label followed
    by the residue, else ``pass``.  The (label, residue) pairs are read
    lazily, so a residue after the first failure is never computed."""
    for label, residue in residues:
        if not residue.is_zero:
            return Report(FAIL, strategy, f"{label}{residue}")
    return Report(PASS, strategy)


def validate_algebroid(A: Union[AlgebroidPatch, JacobiAlgebroidData]) -> Report:
    """Check the anchor is bracket-compatible and the Jacobi identity holds;
    for twisted data, then that the twist is closed.

    The identities run on frame elements, which suffices: the Leibniz rule
    propagates them to arbitrary sections.  Their residues are read off
    the anchor entries and the structure functions in closed form
    (``_frame_residues``), with no section bracketed.  A failure's witness
    names the first failing identity and its nonzero residue.
    """
    twist = None
    if isinstance(A, JacobiAlgebroidData):
        A, twist = A.algebroid, A.phi0
    return _first_failure("frame identities", _frame_residues(A, twist))


def _frame_residues(
    A: AlgebroidPatch, twist: Optional["calculus.Form"] = None
) -> Iterator[Tuple[str, object]]:
    """The anchor and Jacobi residues on frame elements, then d(twist).

    Write rho_i for the derivation rho(e_i), rho_i^x for its entry along
    the coordinate x and c_ab^l for the structure functions, with
    c_ba^l = -c_ab^l and c_aa^l = 0.  The one fact used: [e_a, e_b] =
    sum_l c_ab^l e_l has coefficient-1 frames, whose Leibniz terms vanish,
    and for a scalar f the Leibniz rule reads
    [f e_l, e_c] = f [e_l, e_c] - rho_c(f) e_l.

    * Anchor.  rho is linear over scalars, so
      rho([e_i, e_j]) x = sum_k c_ij^k rho_k^x,
      and [rho_i, rho_j] x = rho_i(rho_j^x) - rho_j(rho_i^x).  The residue
      on (i, j, x) is

          sum_k c_ij^k rho_k^x - rho_i(rho_j^x) + rho_j(rho_i^x).

    * Jacobi.  [[e_a, e_b], e_c] = sum_l (c_ab^l [e_l, e_c]
      - rho_c(c_ab^l) e_l), so component m of the Jacobiator on (i, j, k)
      is the sum over the cyclic (a, b, c) of (i, j, k) of

          sum_l c_ab^l c_lc^m - rho_c(c_ab^m).

      Every term has a factor c, so an algebroid with no bracket yields no
      Jacobi residue.

    The first time a derivative of an anchor entry rho_j^x or of a stored
    c_ab^l (a < b) is asked for, all of that function's anchored
    derivatives are taken in one sweep (``AlgebroidPatch.anchor_derivs``)
    and kept by (j, x), resp. (a, b, l), for this call only, through
    ``calculus._anchored``.  Each residue is one ``sum_products``.  Labels
    and order are those of bracketing frame sections, and the residues are
    the same canonical values.
    """
    r, labels, brackets = A.rank, A.frame_labels, A.brackets
    anchor = [dict(column) for column in A.anchor]
    derivs: Dict[tuple, Dict[int, ExpPoly]] = {}

    def rho(a: int, key: tuple, f: ExpPoly) -> Optional[ExpPoly]:
        """rho_a(f), or None when it is zero; f is stored under ``key``."""
        return calculus._anchored(A, derivs, key, f).get(a)

    zero = A.zero_scalar()
    for i in range(r):
        for j in range(i + 1, r):
            row = brackets.get((i, j), ())
            for x in A.patch.anchor_coords:
                products: List[Product] = [
                    (1, c, anchor[k][x]) for k, c in row if x in anchor[k]
                ]
                for a, b, sign in ((i, j, -1), (j, i, 1)):
                    if x in anchor[b]:
                        d = rho(a, (b, x), anchor[b][x])
                        if d is not None:
                            products.append((sign, d, None))
                residue = sum_products(products) if products else zero
                yield f"anchor([{labels[i]},{labels[j]}]) on {x}: ", residue
    if brackets:
        for i, j, k in combinations(range(r), 3):
            out: Dict[int, List[Product]] = {}
            for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                sign, row = A.signed_bracket(a, b)
                for l, c_ab in row:
                    sign_lc, row_lc = A.signed_bracket(l, c)
                    for m, c_lc in row_lc:
                        out.setdefault(m, []).append((sign * sign_lc, c_ab, c_lc))
                    d = rho(c, (min(a, b), max(a, b), l), c_ab)
                    if d is not None:
                        out.setdefault(l, []).append((-sign, d, None))
            total = calculus.MultiVector(
                A, 1, {(m,): sum_products(p) for m, p in out.items()}
            )
            yield f"jacobi({labels[i]},{labels[j]},{labels[k]}): ", total
    if twist is not None:
        yield "d(phi0): ", calculus.differential(A, twist)


# -- constructions ---------------------------------------------------------


def make_tangent(patch: Patch) -> AlgebroidPatch:
    """The tangent algebroid: identity anchor, vanishing structure functions."""
    names = patch.anchor_coords
    one = patch.const(1)
    return AlgebroidPatch(
        patch,
        len(names),
        tuple(((name, one),) for name in names),
        {},
        frame_labels=tuple(f"dd{n}" for n in names),
        coframe_labels=tuple(f"d{n}" for n in names),
    )


def make_trivial(patch: Patch, rank: int) -> AlgebroidPatch:
    """Rank-r bundle with zero anchor and zero bracket."""
    return AlgebroidPatch(patch, rank, ((),) * rank, {})


def make_explicit(
    patch: Patch,
    rank: int,
    anchor: Sequence[Sequence[ExpPoly]],
    brackets: dict,
    frame_labels: Tuple[str, ...] = (),
    coframe_labels: Tuple[str, ...] = (),
) -> AlgebroidPatch:
    """Build from anchor rows and a sparse {(i, j): components} bracket table.

    ``anchor`` has one row of ``rank`` entries per coordinate of
    ``patch.anchor_coords``.  Keys are 0-based ordered pairs i < j;
    components is a length-r sequence.  The pairs i > j follow by
    antisymmetry.
    """
    names = patch.anchor_coords
    rows = tuple(tuple(row) for row in anchor)
    if len(rows) != len(names) or any(len(row) != rank for row in rows):
        raise ValueError(f"anchor must be {len(names)} rows of {rank} entries")
    if any(len(comps) != rank for comps in brackets.values()):
        raise ValueError(f"bracket components must have {rank} entries")
    columns = tuple(
        tuple((name, row[i]) for name, row in zip(names, rows)) for i in range(rank)
    )
    return AlgebroidPatch(
        patch,
        rank,
        columns,
        {key: tuple(enumerate(comps)) for key, comps in brackets.items()},
        frame_labels=frame_labels,
        coframe_labels=coframe_labels,
    )


@dataclass(eq=False)
class JacobiAlgebroidData:
    """An algebroid together with a closed degree-1 cosection."""

    algebroid: AlgebroidPatch
    phi0: "calculus.Form"

    def __post_init__(self) -> None:
        if self.phi0.degree != 1:
            raise ValueError("the twist cosection must have degree 1")
        calculus._check_over(self.algebroid, self.phi0)


def extend_with_R(A: AlgebroidPatch) -> JacobiAlgebroidData:
    """Direct sum with a trivial line: sections are pairs (X, f).

    The extra frame element ehat has zero anchor and bracket; the canonical
    twist is its dual coframe element, which is closed.  Splitting/merging of
    pair sections against this construction lives in the calculus module.
    """
    r = A.rank
    ext = AlgebroidPatch(
        A.patch,
        r + 1,
        A.anchor + ((),),
        A.brackets,
        frame_labels=A.frame_labels + ("ehat",),
        coframe_labels=A.coframe_labels + ("epshat",),
        ext_base=A,
    )
    phi0 = calculus.Form.coframe(ext, r)
    return JacobiAlgebroidData(ext, phi0)


def _phi_components(J: JacobiAlgebroidData) -> List[ExpPoly]:
    A = J.algebroid
    zero = A.zero_scalar()
    return [J.phi0.components.get((i,), zero) for i in range(A.rank)]


def _lift_patch(A: AlgebroidPatch) -> Patch:
    if A.patch.has_time:
        raise ValueError("the patch already has a time coordinate")
    return Patch(A.patch.coords, has_time=True)


def lift_bar(J: JacobiAlgebroidData) -> AlgebroidPatch:
    """Plain product lift: same structure functions, each anchor column gains
    the t-entry <phi0, e_i> d/dt."""
    A = J.algebroid
    phi = _phi_components(J)
    patch = _lift_patch(A)
    anchor = tuple(column + (("t", p),) for column, p in zip(A.anchor, phi))
    return AlgebroidPatch(
        patch,
        A.rank,
        anchor,
        A.brackets,
        frame_labels=A.frame_labels,
        coframe_labels=A.coframe_labels,
    )


def lift_hat(J: JacobiAlgebroidData) -> AlgebroidPatch:
    """Weighted product lift: everything in the bar lift is damped by exp(-t)
    and the bracket picks up the frame/twist correction terms,

        [e_i, e_j] = e^{-t} sum_k (c_ij^k - delta_jk phi_i + delta_ik phi_j) e_k.
    """
    A = J.algebroid
    r = A.rank
    phi = _phi_components(J)
    patch = _lift_patch(A)
    emt = ExpPoly.exp(patch.variables, -1)
    anchor = tuple(
        tuple((name, emt * entry) for name, entry in column) + (("t", emt * p),)
        for column, p in zip(A.anchor, phi)
    )
    brackets = {}
    for i in range(r):
        for j in range(i + 1, r):
            row = dict(A.brackets.get((i, j), ()))
            row[j] = row.get(j, A.zero_scalar()) - phi[i]
            row[i] = row.get(i, A.zero_scalar()) + phi[j]
            brackets[i, j] = tuple((k, emt * c) for k, c in row.items())
    return AlgebroidPatch(
        patch,
        r,
        anchor,
        brackets,
        frame_labels=A.frame_labels,
        coframe_labels=A.coframe_labels,
    )
