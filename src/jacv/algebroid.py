"""Lie algebroids over a coordinate patch, given by frame data.

An algebroid here is a rank-r module with a chosen frame e_1..e_r over one
patch, described by an anchor matrix (one row per base coordinate, one column
per frame element) and structure functions c[i][j][k] with

    [e_i, e_j] = sum_k c[i][j][k] e_k,      c[i][j][k] = -c[j][i][k].

Brackets of general sections follow by the Leibniz rule.  The formal variable
t is always present in the scalar ring; it only becomes an honest coordinate
(with its own anchor row) on patches with ``has_time=True``, which is how the
product with a line is modelled for the two lifts.

Everything is stored over the same variable tuple coords + ("t",), so scalar
components of a structure and of its lift live in one ring and can be compared
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

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

    @property
    def variables(self) -> Tuple[str, ...]:
        """Variable tuple of the scalar ring (t always last, always present)."""
        return self.coords + ("t",)

    @property
    def anchor_coords(self) -> Tuple[str, ...]:
        """Coordinates that anchor matrices range over."""
        return self.coords + ("t",) if self.has_time else self.coords

    def zero(self) -> ExpPoly:
        return ExpPoly.zero(self.variables)

    def const(self, value) -> ExpPoly:
        return ExpPoly.const(self.variables, value)

    def coord(self, name: str) -> ExpPoly:
        return ExpPoly.var(self.variables, name)


def _default_labels(prefix: str, rank: int) -> Tuple[str, ...]:
    return tuple(f"{prefix}{i + 1}" for i in range(rank))


@dataclass(eq=False)
class AlgebroidPatch:
    """Anchor + structure functions for one frame over one patch."""

    patch: Patch
    rank: int
    anchor: Tuple[Tuple[ExpPoly, ...], ...]
    structure: Tuple[Tuple[Tuple[ExpPoly, ...], ...], ...]
    frame_labels: Tuple[str, ...] = ()
    coframe_labels: Tuple[str, ...] = ()
    # provenance markers, set by the constructions that produce them
    ext_base: Optional["AlgebroidPatch"] = None
    lift_of: Optional[object] = None
    lift_kind: Optional[str] = None

    def __post_init__(self) -> None:
        n = len(self.patch.anchor_coords)
        r = self.rank
        if not self.frame_labels:
            self.frame_labels = _default_labels("e", r)
        if not self.coframe_labels:
            self.coframe_labels = _default_labels("eps", r)
        if len(self.frame_labels) != r or len(self.coframe_labels) != r:
            raise ValueError("frame label count does not match rank")
        self.anchor = tuple(tuple(row) for row in self.anchor)
        if len(self.anchor) != n or any(len(row) != r for row in self.anchor):
            raise ValueError(f"anchor must be {n} rows of {r} entries")
        self.structure = tuple(
            tuple(tuple(comp) for comp in row) for row in self.structure
        )
        if len(self.structure) != r or any(
            len(row) != r or any(len(comp) != r for comp in row)
            for row in self.structure
        ):
            raise ValueError(f"structure must be a {r}x{r}x{r} array")
        variables = self.patch.variables
        for row in self.anchor:
            for entry in row:
                if entry.vars != variables:
                    raise ValueError("anchor entry over the wrong variables")
        for i in range(r):
            for j in range(r):
                for k in range(r):
                    c = self.structure[i][j][k]
                    if c.vars != variables:
                        raise ValueError(
                            "structure function over the wrong variables"
                        )
                    if c != -self.structure[j][i][k]:
                        raise ValueError(
                            f"structure functions not antisymmetric at "
                            f"({i + 1},{j + 1},{k + 1})"
                        )

    # -- scalars -----------------------------------------------------------

    def zero_scalar(self) -> ExpPoly:
        return self.patch.zero()

    def scalar(self, value) -> ExpPoly:
        return self.patch.const(value)

    # -- anchor and frame brackets ----------------------------------------

    def anchor_deriv(self, index: int, f: ExpPoly) -> ExpPoly:
        """rho(e_index) f: the anchored derivative of f along one frame element,
        sum over base coordinates x of anchor[x][index] * df/dx."""
        out = self.zero_scalar()
        for name, row in zip(self.patch.anchor_coords, self.anchor):
            entry = row[index]
            if entry.is_zero:
                continue
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
    names = A.patch.anchor_coords
    for i in range(A.rank):
        for j in range(i + 1, A.rank):
            ei = calculus.MultiVector.frame(A, i)
            ej = calculus.MultiVector.frame(A, j)
            for a, name in enumerate(names):
                lhs = A.zero_scalar()
                for k in range(A.rank):
                    lhs = lhs + A.structure[i][j][k] * A.anchor[a][k]
                coord = ExpPoly.var(A.patch.variables, name)
                rhs = anchor_apply(A, ei, anchor_apply(A, ej, coord))
                rhs = rhs - anchor_apply(A, ej, anchor_apply(A, ei, coord))
                if lhs != rhs:
                    label = (
                        f"anchor([{A.frame_labels[i]},{A.frame_labels[j]}])"
                        f" on {name}"
                    )
                    return _frame_failure(label, lhs - rhs)
    for i in range(A.rank):
        for j in range(i + 1, A.rank):
            for k in range(j + 1, A.rank):
                ei = calculus.MultiVector.frame(A, i)
                ej = calculus.MultiVector.frame(A, j)
                ek = calculus.MultiVector.frame(A, k)
                total = bracket_sections(A, bracket_sections(A, ei, ej), ek)
                total = total + bracket_sections(
                    A, bracket_sections(A, ej, ek), ei
                )
                total = total + bracket_sections(
                    A, bracket_sections(A, ek, ei), ej
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
    r = len(names)
    one = patch.const(1)
    zero = patch.zero()
    anchor = tuple(
        tuple(one if a == i else zero for i in range(r)) for a in range(r)
    )
    structure = tuple(
        tuple(tuple(zero for _ in range(r)) for _ in range(r))
        for _ in range(r)
    )
    return AlgebroidPatch(
        patch,
        r,
        anchor,
        structure,
        frame_labels=tuple(f"dd{n}" for n in names),
        coframe_labels=tuple(f"d{n}" for n in names),
    )


def make_trivial(patch: Patch, rank: int) -> AlgebroidPatch:
    """Rank-r bundle with zero anchor and zero bracket."""
    n = len(patch.anchor_coords)
    zero = patch.zero()
    anchor = tuple(tuple(zero for _ in range(rank)) for _ in range(n))
    structure = tuple(
        tuple(tuple(zero for _ in range(rank)) for _ in range(rank))
        for _ in range(rank)
    )
    return AlgebroidPatch(patch, rank, anchor, structure)


def make_explicit(
    patch: Patch,
    rank: int,
    anchor: Sequence[Sequence[ExpPoly]],
    brackets: dict,
    frame_labels: Tuple[str, ...] = (),
    coframe_labels: Tuple[str, ...] = (),
) -> AlgebroidPatch:
    """Build from anchor rows and a sparse {(i, j): components} bracket table.

    Keys are 0-based ordered pairs i < j; components is a length-r sequence.
    The antisymmetric completion is filled in automatically.
    """
    zero = patch.zero()
    structure = [
        [[zero for _ in range(rank)] for _ in range(rank)] for _ in range(rank)
    ]
    for (i, j), comps in brackets.items():
        if not 0 <= i < j < rank:
            raise ValueError(f"bracket key {(i, j)} must satisfy 0 <= i < j < rank")
        for k in range(rank):
            structure[i][j][k] = comps[k]
            structure[j][i][k] = -comps[k]
    return AlgebroidPatch(
        patch,
        rank,
        tuple(tuple(row) for row in anchor),
        tuple(tuple(tuple(c) for c in row) for row in structure),
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
    zero = A.zero_scalar()
    anchor = tuple(row + (zero,) for row in A.anchor)
    structure = []
    for i in range(r + 1):
        row = []
        for j in range(r + 1):
            comps = []
            for k in range(r + 1):
                if i < r and j < r and k < r:
                    comps.append(A.structure[i][j][k])
                else:
                    comps.append(zero)
            row.append(tuple(comps))
        structure.append(tuple(row))
    ext = AlgebroidPatch(
        A.patch,
        r + 1,
        anchor,
        tuple(structure),
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
    """Plain product lift: same structure functions, anchor gains the t-row
    <phi0, e_i> d/dt."""
    A = J.algebroid
    phi = _phi_components(J)
    patch = _lift_patch(A)
    anchor = tuple(tuple(row) for row in A.anchor) + (tuple(phi),)
    return AlgebroidPatch(
        patch,
        A.rank,
        anchor,
        A.structure,
        frame_labels=A.frame_labels,
        coframe_labels=A.coframe_labels,
        lift_of=J,
        lift_kind="bar",
    )


def lift_hat(J: JacobiAlgebroidData) -> AlgebroidPatch:
    """Weighted product lift: everything in the bar lift is damped by exp(-t)
    and the bracket picks up the frame/twist correction terms."""
    A = J.algebroid
    r = A.rank
    phi = _phi_components(J)
    patch = _lift_patch(A)
    emt = ExpPoly.exp(patch.variables, -1)
    anchor_rows = [tuple(emt * entry for entry in row) for row in A.anchor]
    anchor_rows.append(tuple(emt * p for p in phi))
    structure = []
    for i in range(r):
        row = []
        for j in range(r):
            comps = []
            for k in range(r):
                c = A.structure[i][j][k]
                if j == k:
                    c = c - phi[i]
                if i == k:
                    c = c + phi[j]
                comps.append(emt * c)
            row.append(tuple(comps))
        structure.append(tuple(row))
    return AlgebroidPatch(
        patch,
        r,
        tuple(anchor_rows),
        tuple(structure),
        frame_labels=A.frame_labels,
        coframe_labels=A.coframe_labels,
        lift_of=J,
        lift_kind="hat",
    )
