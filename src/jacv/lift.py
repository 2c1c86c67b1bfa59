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

from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple, Union

from .algebroid import (
    FAIL,
    NOT_DECIDED,
    PASS,
    AlgebroidPatch,
    JacobiAlgebroidData,
    Report,
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


def _time_derivative(section: Section) -> Section:
    comps = {}
    for key, c in section.components.items():
        d = c.diff("t")
        if not d.is_zero:
            comps[key] = d
    return type(section)(section.algebroid, section.degree, comps)


@dataclass(eq=False)
class LiftedSection:
    """A degree-2 section downstairs together with its weighted lift."""

    source: Section
    lifted: Section
    weight: int


@dataclass(eq=False)
class LiftedInstance:
    """A dual pair downstairs, its untwisted lift, and the moved sections."""

    source: JacobiBialgebroidData
    upstairs: JacobiBialgebroidData
    sections: Tuple[LiftedSection, ...]

    def with_sections(self, sections: Sequence[Section]) -> "LiftedInstance":
        """This lift carrying ``sections`` of the source algebroid, moved up."""
        moved = []
        for s in sections:
            if s.algebroid is not self.source.A:
                raise MismatchError("section lives over a different algebroid")
            moved.append(lift_section(self.upstairs.A, s))
        return replace(self, sections=tuple(moved))


def lift_bialgebroid(data: DataLike) -> JacobiBialgebroidData:
    """Untwisted dual pair over the line: plain lift against weighted lift."""
    B = _as_bialgebroid(data)
    bar = lift_bar(B.a_side)
    hat = lift_hat(B.astar_side)
    return JacobiBialgebroidData(_untwisted(bar), _untwisted(hat))


def lift_section(upstairs_A: AlgebroidPatch, s: Section) -> LiftedSection:
    if s.degree != 2:
        raise MismatchError("only degree-2 sections carry a canonical weight")
    weight = -1 if isinstance(s, MultiVector) else 1
    lifted = _weight_unit(upstairs_A, weight) * rebase(s, upstairs_A)
    return LiftedSection(s, lifted, weight)


def lift_instance(data: DataLike, sections: Sequence[Section]) -> LiftedInstance:
    B = _as_bialgebroid(data)
    return LiftedInstance(B, lift_bialgebroid(B), ()).with_sections(sections)


# -- the four scaling identities --------------------------------------------

def _scaling_residues(
    L: LiftedInstance, item: LiftedSection
) -> Tuple[Tuple[str, Section], ...]:
    B, up = L.source, L.upstairs
    bar = up.A
    s, lifted = item.source, item.lifted
    if isinstance(s, MultiVector):
        w = _weight_unit(bar, -2)
        bracket_up = phi0_schouten(up.a_side, lifted, lifted)
        bracket_down = w * rebase(phi0_schouten(B.a_side, s, s), bar)
        diff_up = dual_differential(up, lifted)
        diff_down = w * rebase(dual_differential(B, s), bar)
        return (
            ("bivector bracket scaling", bracket_up - bracket_down),
            ("bivector differential scaling", diff_up - diff_down),
        )
    w = _weight_unit(bar, 1)
    bracket_up = dual_schouten(up, lifted, lifted)
    bracket_down = w * rebase(dual_schouten(B, s, s), bar)
    diff_up = differential(up.a_side, lifted)
    diff_down = w * rebase(differential(B.a_side, s), bar)
    return (
        ("form bracket scaling", bracket_up - bracket_down),
        ("form differential scaling", diff_up - diff_down),
    )


def verify_bracket_scaling(L: LiftedInstance) -> Report:
    """Brackets and differentials upstairs against weighted ones downstairs.

    For every carried section both sides of both identities are computed
    from scratch (the upstairs side never looks at the downstairs one), so
    a pass is a genuine double derivation.
    """
    if not L.sections:
        raise MismatchError("the instance carries no sections to verify")
    for index, item in enumerate(L.sections):
        for label, residue in _scaling_residues(L, item):
            if not residue.is_zero:
                return Report(
                    FAIL,
                    witness=f"{label} fails for section {index}: {residue}",
                    strategy="independent double computation",
                )
    return Report(PASS, strategy="independent double computation")


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
    plain = _untwisted(A)
    hat = _untwisted(lift_hat(J))
    bar = _untwisted(lift_bar(J))
    f = Form.scalar_section(A, scalar)
    df_plain = differential(plain, f)
    dt_f = _time_derivative(f)
    scalar_formula = df_plain + (
        dt_f.components.get((), A.zero_scalar()) * J.phi0
    )
    dphi_twisted = differential(J, cosection)
    dphi_plain = differential(plain, cosection)
    tail = wedge(J.phi0, _time_derivative(cosection))
    cases = (
        (
            "weighted lift on a scalar",
            differential(hat, rebase(f, hat.algebroid)),
            _weight_unit(hat.algebroid, -1) * rebase(scalar_formula, hat.algebroid),
        ),
        (
            "weighted lift on a cosection",
            differential(hat, rebase(cosection, hat.algebroid)),
            _weight_unit(hat.algebroid, -1)
            * rebase(dphi_twisted + tail, hat.algebroid),
        ),
        (
            "plain lift on a scalar",
            differential(bar, rebase(f, bar.algebroid)),
            rebase(scalar_formula, bar.algebroid),
        ),
        (
            "plain lift on a cosection",
            differential(bar, rebase(cosection, bar.algebroid)),
            rebase(dphi_plain + tail, bar.algebroid),
        ),
    )
    for label, direct, formula in cases:
        residue = direct - formula
        if not residue.is_zero:
            return Report(
                FAIL,
                witness=f"{label}: residue {residue}",
                strategy="formula against direct evaluation",
            )
    return Report(PASS, strategy="formula against direct evaluation")


# -- verdict transport -------------------------------------------------------

def _lift_relation(upstairs_A: AlgebroidPatch, rel: GraphRelation) -> GraphRelation:
    item = lift_section(upstairs_A, rel.section)
    return GraphRelation(rel.kind, item.lifted)


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
        _lift_relation(upstairs.A, left),
        _lift_relation(upstairs.A, right),
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
    return Report(
        FAIL,
        witness=(
            f"downstairs {down.status} ({down.witness}), "
            f"upstairs {up.status} ({up.witness})"
        ),
        strategy="verdict transport",
    )
