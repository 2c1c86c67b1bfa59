"""Product-line lifts and the exact exchange between the two levels.

A twisted algebroid over a patch has two untwisted relatives over the
patch-times-line: the plain lift keeps the bracket and feeds the twist into
the d/dt part of the anchor, while the weighted lift damps everything by
exp(-t) and corrects the bracket.  Pairing the plain lift of the primal
side with the weighted lift of the dual side turns a twisted dual pair
downstairs into an untwisted dual pair upstairs.

Degree-2 sections travel along with exact exponential weights (-1 for
bivectors, +1 for forms).  Under that dictionary the twisted brackets and
differentials downstairs match the untwisted ones upstairs up to a single
overall weight, and pair verdicts transport verbatim.  Every identity here
is checked by computing both sides independently and subtracting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence, Tuple

from .algebroid import (
    FAIL,
    NOT_DECIDED,
    PASS,
    AlgebroidPatch,
    JacobiAlgebroidData,
    Report,
    _first_failure,
    lift_bar,
    lift_hat,
)
from .calculus import (
    Form,
    MismatchError,
    MultiVector,
    Section,
    differential,
    phi0_schouten,
    rebase,
    wedge,
)
from .coeff import ExpPoly
from .dirac import (
    DataLike,
    GraphRelation,
    _as_bialgebroid,
    dirac_pair_check,
)
from .structures import (
    JacobiBialgebroidData,
    dual_differential,
    dual_schouten,
)


def _untwisted(algebroid: AlgebroidPatch) -> JacobiAlgebroidData:
    return JacobiAlgebroidData(algebroid, Form.zero(algebroid, 1))


def _weight_unit(algebroid: AlgebroidPatch, k: int) -> ExpPoly:
    return ExpPoly.exp(algebroid.patch.variables, k)


@dataclass(eq=False)
class LiftedInstance:
    """A dual pair downstairs and its untwisted lift."""

    source: JacobiBialgebroidData
    upstairs: JacobiBialgebroidData


def lift_bialgebroid(data: DataLike) -> JacobiBialgebroidData:
    """Untwisted dual pair over the line: plain lift against weighted lift."""
    B = _as_bialgebroid(data)
    bar = lift_bar(B.a_side)
    hat = lift_hat(B.astar_side)
    return JacobiBialgebroidData(_untwisted(bar), _untwisted(hat))


def lift_section(upstairs_A: AlgebroidPatch, s: Section) -> Section:
    """A degree-2 section moved up with its weight: exp(-t) for a bivector,
    exp(t) for a form."""
    if s.degree != 2:
        raise MismatchError("only degree-2 sections carry a canonical weight")
    weight = -1 if isinstance(s, MultiVector) else 1
    return _weight_unit(upstairs_A, weight) * rebase(s, upstairs_A)


def lift_instance(data: DataLike) -> LiftedInstance:
    B = _as_bialgebroid(data)
    return LiftedInstance(B, lift_bialgebroid(B))


# -- the four scaling identities --------------------------------------------

def _scaling_residues(
    L: LiftedInstance, s: Section, lifted: Section
) -> Iterator[Tuple[str, Section]]:
    B, up = L.source, L.upstairs
    bar = up.A
    if isinstance(s, MultiVector):
        w = _weight_unit(bar, -2)
        bracket_up = phi0_schouten(up.a_side, lifted, lifted)
        bracket_down = w * rebase(phi0_schouten(B.a_side, s, s), bar)
        yield "bivector bracket scaling", bracket_up - bracket_down
        diff_up = dual_differential(up, lifted)
        diff_down = w * rebase(dual_differential(B, s), bar)
        yield "bivector differential scaling", diff_up - diff_down
        return
    w = _weight_unit(bar, 1)
    bracket_up = dual_schouten(up, lifted, lifted)
    bracket_down = w * rebase(dual_schouten(B, s, s), bar)
    yield "form bracket scaling", bracket_up - bracket_down
    diff_up = differential(up.a_side, lifted)
    diff_down = w * rebase(differential(B.a_side, s), bar)
    yield "form differential scaling", diff_up - diff_down


def verify_bracket_scaling(L: LiftedInstance, sections: Sequence[Section]) -> Report:
    """Brackets and differentials upstairs against weighted ones downstairs.

    Each section of the source algebroid is lifted, and both sides of both
    identities are computed from scratch (the upstairs side never looks at
    the downstairs one), so a pass is a genuine double derivation.
    """
    if not sections:
        raise MismatchError("no sections to verify")
    if any(s.algebroid is not L.source.A for s in sections):
        raise MismatchError("section lives over a different algebroid")
    lifted = [lift_section(L.upstairs.A, s) for s in sections]
    residues = (
        (f"{label} fails for section {index}: ", residue)
        for index, (s, up) in enumerate(zip(sections, lifted))
        for label, residue in _scaling_residues(L, s, up)
    )
    return _first_failure("independent double computation", residues)


# -- closed formulas for the lifted differentials ---------------------------

def verify_hat_bar_differentials(
    J: JacobiAlgebroidData, scalar: ExpPoly, cosection: Form
) -> Report:
    """Closed formulas for both lifted differentials on low degrees.

    The weighted lift differentiates a scalar to exp(-t) times the plain
    differential plus the time derivative times the twist, and a cosection
    to exp(-t) times its twisted differential plus twist wedge time
    derivative; the plain lift obeys the same formulas without the weight
    and with the untwisted differential on cosections.  All four are
    compared against a direct evaluation on the lifted algebroids.
    """
    A = J.algebroid
    if cosection.algebroid is not A or cosection.degree != 1:
        raise MismatchError("need a degree-1 form over the lifted data")
    if scalar.vars != A.patch.variables:
        raise MismatchError("scalar lives over different variables")
    hat = lift_hat(J)
    bar = lift_bar(J)
    f = Form.scalar_section(A, scalar)
    scalar_formula = differential(A, f) + scalar.diff("t") * J.phi0
    dt_cosection = {key: c.diff("t") for key, c in cosection.components.items()}
    tail = wedge(J.phi0, Form(A, 1, dt_cosection))
    emt = _weight_unit(A, -1)

    def against(up: AlgebroidPatch, w: Form, formula: Form) -> Form:
        return differential(up, rebase(w, up)) - rebase(formula, up)

    def residues() -> Iterator[Tuple[str, Form]]:
        yield "weighted lift on a scalar: residue ", against(
            hat, f, emt * scalar_formula
        )
        yield "weighted lift on a cosection: residue ", against(
            hat, cosection, emt * (differential(J, cosection) + tail)
        )
        yield "plain lift on a scalar: residue ", against(bar, f, scalar_formula)
        yield "plain lift on a cosection: residue ", against(
            bar, cosection, differential(A, cosection) + tail
        )

    return _first_failure("formula against direct evaluation", residues())


# -- verdict transport -------------------------------------------------------

def theorem_main1_crosscheck(
    data: DataLike, left: GraphRelation, right: GraphRelation
) -> Report:
    """Pair verdict downstairs against the same check on the lifted data.

    Both levels run ``dirac_pair_check`` independently; the report passes
    when the two verdicts agree, fails with both witnesses when they
    disagree, and stays not-decided when either level is not-decided.
    """
    B = _as_bialgebroid(data)
    down = dirac_pair_check(B, left, right)
    upstairs = lift_bialgebroid(B)
    up = dirac_pair_check(
        upstairs,
        GraphRelation(lift_section(upstairs.A, left.section)),
        GraphRelation(lift_section(upstairs.A, right.section)),
    )
    if NOT_DECIDED in (down.status, up.status):
        return Report(
            NOT_DECIDED,
            witness=(
                f"downstairs {down.status} ({down.strategy}), "
                f"upstairs {up.status} ({up.strategy})"
            ),
            strategy="verdict transport",
        )
    if down.status == up.status:
        return Report(
            PASS,
            witness=f"both levels: {down.status}",
            strategy="verdict transport",
        )
    # a level that passes has no witness; its strategy says how it passed
    return Report(
        FAIL,
        witness=(
            f"downstairs {down.status} ({down.witness or down.strategy}), "
            f"upstairs {up.status} ({up.witness or up.strategy})"
        ),
        strategy="verdict transport",
    )
