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
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .coeff import ExpPoly
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
        # ExpPoly is immutable, so one zero serves every caller on this patch
        object.__setattr__(self, "_zero", ExpPoly.zero(self.variables))

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


@dataclass(eq=False)
class AlgebroidPatch:
    """Anchor and structure functions for one frame over one patch, sparse.

    ``anchor[i]`` holds rho(e_i) as its nonzero (coordinate, entry) pairs, in
    ``patch.anchor_coords`` order.  ``brackets[(i, j)]``, for i < j only,
    holds [e_i, e_j] as its nonzero (k, c_ij^k) pairs in increasing k; a
    missing pair brackets to zero.  Zero entries given to the constructor
    are dropped.
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

    def anchor_deriv(self, index: int, f: ExpPoly) -> ExpPoly:
        """rho(e_index) f: the anchored derivative of f along one frame element,
        sum over its nonzero anchor entries rho_index^x of rho_index^x df/dx."""
        out = self.zero_scalar()
        for name, entry in self.anchor[index]:
            df = f.diff(name)
            if not df.is_zero:
                out = out + entry * df
        return out


def anchor_apply(A: AlgebroidPatch, X: "calculus.MultiVector", f: ExpPoly) -> ExpPoly:
    """The derivation of a degree-1 section applied to a scalar."""
    if X.degree != 1:
        raise ValueError("anchor_apply expects a degree-1 section")
    out = A.zero_scalar()
    for (i,), c in X.components.items():
        out = out + c * A.anchor_deriv(i, f)
    return out


def bracket_sections(
    A: AlgebroidPatch, X: "calculus.MultiVector", Y: "calculus.MultiVector"
) -> "calculus.MultiVector":
    """Bracket of two degree-1 sections: the Schouten bracket in degree 1,
    fg[e_i, e_j] + f rho(e_i)g e_j - g rho(e_j)f e_i summed over components."""
    if X.degree != 1 or Y.degree != 1:
        raise ValueError("bracket_sections expects degree-1 sections")
    return calculus.schouten(X, Y)


PASS = "pass"
FAIL = "fail"
NOT_DECIDED = "not-decided"


@dataclass(frozen=True)
class Report:
    """Outcome of a check: ``pass``, ``fail`` or ``not-decided``.

    ``strategy`` names how the verdict was reached; ``fail`` and
    ``not-decided`` carry a printable witness.  A failed check never raises.
    """

    status: str
    strategy: str = ""
    witness: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status == PASS


def validate_algebroid(A: AlgebroidPatch) -> Report:
    """Check the anchor is bracket-compatible and the Jacobi identity holds.

    Both checks run on frame elements, which suffices: the Leibniz rule
    propagates them to arbitrary sections.  A failure's witness names the
    first failing identity and its nonzero residue.
    """
    e = [calculus.MultiVector.frame(A, i) for i in range(A.rank)]
    for i in range(A.rank):
        for j in range(i + 1, A.rank):
            eij = bracket_sections(A, e[i], e[j])
            for name in A.patch.anchor_coords:
                coord = ExpPoly.var(A.patch.variables, name)
                lhs = anchor_apply(A, eij, coord)
                rhs = anchor_apply(A, e[i], anchor_apply(A, e[j], coord))
                rhs = rhs - anchor_apply(A, e[j], anchor_apply(A, e[i], coord))
                if lhs != rhs:
                    label = (
                        f"anchor([{A.frame_labels[i]},{A.frame_labels[j]}])"
                        f" on {name}"
                    )
                    return _frame_failure(label, lhs - rhs)
    for i in range(A.rank):
        for j in range(i + 1, A.rank):
            for k in range(j + 1, A.rank):
                total = bracket_sections(A, bracket_sections(A, e[i], e[j]), e[k])
                total = total + bracket_sections(
                    A, bracket_sections(A, e[j], e[k]), e[i]
                )
                total = total + bracket_sections(
                    A, bracket_sections(A, e[k], e[i]), e[j]
                )
                if not total.is_zero:
                    label = (
                        f"jacobi({A.frame_labels[i]},{A.frame_labels[j]},"
                        f"{A.frame_labels[k]})"
                    )
                    return _frame_failure(label, total)
    return Report(PASS, "frame identities")


def _frame_failure(label: str, residue: object) -> Report:
    return Report(FAIL, "frame identities", f"{label}: {residue}")


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
        if self.phi0.algebroid is not self.algebroid:
            raise ValueError("the twist cosection must live on the same algebroid")


def validate_jacobi(J: JacobiAlgebroidData) -> Report:
    """The algebroid identities, then closedness of the twist."""
    report = validate_algebroid(J.algebroid)
    if not report.ok:
        return report
    residue = calculus.differential(J.algebroid, J.phi0)
    if not residue.is_zero:
        return _frame_failure("d(phi0)", residue)
    return report


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
