"""Script interpreter and report front end.

Runs a declarations-then-checks script (see the companion syntax module),
collects one report per check, and prints either an aligned text table or
a stable JSON document.  Evaluation problems inside a check become
``error`` reports, whose name carries the line as ``[L<n>]``; problems
inside a declaration stop the run, since every later line may depend on
the broken name, and so does any line nested too deeply to run.  Errors
are raised without a line: ``dsl.parse`` and ``Interpreter.run``, the two
loops that walk the lines, attach it.

Exit codes: 0 all checks pass, 1 some check failed, 2 syntax or
declaration error, 3 undecided checks present under ``--strict``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from . import dsl
from .algebroid import (
    FAIL,
    PASS,
    AlgebroidPatch,
    JacobiAlgebroidData,
    Patch,
    Report,
    extend_with_R,
    make_tangent,
    make_trivial,
    validate_algebroid,
)
from .calculus import (
    Form,
    MismatchError,
    MultiVector,
    contract,
    differential,
    eval_on,
    merge,
    pair,
    phi0_schouten,
    split,
    wedge,
    wedge_power,
)
from .coeff import ExpPoly, NotInvertible
from .dirac import (
    GraphRelation,
    _as_bialgebroid,
    condition_image_check,
    dirac_pair_check,
    hamiltonian_pair_check,
    jacobi_pair_check,
    jomega_check,
    omegan_check,
    presymplectic_pair_check,
    symplectic_pair_check,
    torsion_tensor_check,
)
from .lift import (
    LiftedInstance,
    lift_instance,
    theorem_main1_crosscheck,
    verify_bracket_scaling,
    verify_hat_bar_differentials,
)
from .structures import (
    JacobiBialgebroidData,
    TensorMap,
    bialgebroid_compat_check,
    bivector_of,
    flat_map,
    graph_closure_check,
    jacobi_check,
    make_standard_bialgebroid,
    maurer_cartan_check,
    nondegenerate_check,
    omega_from_pi,
    pi_from_omega,
    presymplectic_check,
    sharp_map,
    two_form_of,
)

Value = object

# what the library raises on values it cannot combine or invert; an
# OverflowError is a count too large for an index, such as a huge rank
LIBRARY_ERRORS = (MismatchError, NotInvertible, OverflowError, TypeError, ValueError)

SCALARS = (Fraction, ExpPoly)
# what + and -, unary minus and ``check zero`` take
VALUE_TYPES = SCALARS + (Form, MultiVector, TensorMap)


@dataclass
class RunReport:
    """Each check's name and report, in script order."""

    names: List[str] = field(default_factory=list)
    records: List[Report] = field(default_factory=list)

    def counts(self) -> Dict[str, int]:
        out = {"pass": 0, "fail": 0, "not_decided": 0, "error": 0}
        for rec in self.records:
            out[rec.status.replace("-", "_")] += 1
        return out

    def exit_code(self, strict: bool = False) -> int:
        c = self.counts()
        if c["error"]:
            return 2
        if c["fail"]:
            return 1
        if strict and c["not_decided"]:
            return 3
        return 0


# -- interpreter ------------------------------------------------------------

class Interpreter:
    def __init__(self) -> None:
        self.env: Dict[str, Value] = {}
        self.ambient: Optional[AlgebroidPatch] = None
        self.report = RunReport()

    # ---- name and frame-token resolution

    def lookup(self, ident: str) -> Value:
        if ident in self.env:
            return self.env[ident]
        token = self._frame_token(ident)
        if token is not None:
            return token
        raise dsl.ScriptError(f"unknown name {ident!r}")

    def _frame_token(self, ident: str) -> Optional[Value]:
        """A coordinate or ``t``, else a frame or coframe label of the
        ambient algebroid (a label printed twice, as on a double extension,
        names its last element), else ``e<i>``/``eps<i>``."""
        A = self.ambient
        if A is None:
            return None
        if ident == "t" or ident in A.patch.coords:
            return A.patch.coord(ident)
        for labels, element in ((A.frame_labels, MultiVector.frame),
                                (A.coframe_labels, Form.coframe)):
            if ident in labels:
                return element(A, A.rank - 1 - labels[::-1].index(ident))
        for prefix, element in (("eps", Form.coframe), ("e", MultiVector.frame)):
            digits = ident[len(prefix):]
            # printed indices have no leading zero, and the length test keeps
            # int() within its digit limit
            if (ident.startswith(prefix) and digits.isascii() and digits.isdigit()
                    and digits[0] != "0" and len(digits) <= len(str(A.rank))
                    and int(digits) <= A.rank):
                return element(A, int(digits) - 1)
        return None

    def variables(self) -> Tuple[str, ...]:
        """Variables of the ambient ring, for constants that need one."""
        if self.ambient is None:
            raise MismatchError("no ambient algebroid for a constant")
        return self.ambient.patch.variables

    # ---- expression evaluation

    def eval(self, e: dsl.Expr) -> Value:
        if isinstance(e, dsl.Num):
            return e.value
        if isinstance(e, dsl.Name):
            return self.lookup(e.ident)
        if isinstance(e, dsl.Neg):
            v = self.eval(e.inner)
            if isinstance(v, VALUE_TYPES):
                return -v
            raise dsl.ScriptError("cannot negate this value")
        if isinstance(e, dsl.Tup):
            return tuple(self.eval(item) for item in e.items)
        if isinstance(e, dsl.GraphLit):
            inner = self.eval(e.inner)
            if e.kind == "sharp":
                return GraphRelation.of_bivector(inner)
            return GraphRelation.of_two_form(inner)
        if isinstance(e, dsl.Bin):
            return self._binary(e.op, self.eval(e.left), self.eval(e.right))
        if isinstance(e, dsl.Call):
            return self._call(e)
        raise dsl.ScriptError(f"cannot evaluate {e!r}")

    def _binary(self, op: str, left: Value, right: Value) -> Value:
        if op in ("+", "-"):
            if not (type(left) is type(right) and isinstance(left, VALUE_TYPES)
                    or isinstance(left, SCALARS) and isinstance(right, SCALARS)):
                raise dsl.ScriptError(
                    "+ and - join two scalars, or two sections or maps of one kind"
                )
            return left + right if op == "+" else left - right
        if op == "*":
            if isinstance(left, SCALARS):
                if isinstance(right, TensorMap):
                    return right.scale(left)
                return left * right
            if isinstance(right, SCALARS):
                if isinstance(left, TensorMap):
                    return left.scale(right)
                return right * left
            raise dsl.ScriptError("* needs a scalar on one side")
        if op == "^":
            if isinstance(right, Fraction):
                if right.denominator != 1 or right < 1:
                    raise dsl.ScriptError("wedge power needs a positive integer")
                if not isinstance(left, (MultiVector, Form)):
                    raise dsl.ScriptError("wedge power needs a section")
                return wedge_power(left, int(right))
            if isinstance(left, (MultiVector, Form)) and type(left) is type(right):
                return wedge(left, right)
            raise dsl.ScriptError("^ joins two sections of the same kind")
        if op == ".":
            if isinstance(left, TensorMap) and isinstance(right, TensorMap):
                return left.compose(right)
            raise dsl.ScriptError(". composes two maps")
        raise dsl.ScriptError(f"unknown operator {op!r}")

    def _call(self, e: dsl.Call) -> Value:
        args = [self.eval(a) for a in e.args]
        sig = SIGNATURES.get(e.func)
        if sig is None:
            raise dsl.ScriptError(f"unknown function {e.func!r}")
        try:
            return sig.apply(self, e.func, args, ())
        except LIBRARY_ERRORS as exc:
            raise dsl.ScriptError(f"{e.func}: {exc}")

    # ---- statements

    def run(self, script: dsl.Script) -> RunReport:
        for stmt in script.statements:
            try:
                if isinstance(stmt, dsl.CheckStmt):
                    self._run_check(stmt)
                else:
                    self._run_decl(stmt)
            except RecursionError:
                raise dsl.ScriptError(dsl.TOO_DEEP, stmt.line) from None
            except (dsl.ScriptError, *LIBRARY_ERRORS) as exc:
                # a script error of the statement has no line yet, so its
                # text is its message
                raise dsl.ScriptError(str(exc), stmt.line) from None
        return self.report

    def _bind(self, name: str, value: Value) -> None:
        if name in self.env:
            raise dsl.ScriptError(f"name {name!r} is already bound")
        self.env[name] = value

    def _run_decl(self, stmt: Union[dsl.PatchDecl, dsl.Decl]) -> None:
        if isinstance(stmt, dsl.PatchDecl):
            self._bind(stmt.name, Patch(stmt.coords))
            return
        kind, ambient_of = DECLARATIONS[stmt.keyword]
        value = kind.coerce(self, self.eval(stmt.value))
        if value is None:
            raise dsl.ScriptError(f"{stmt.keyword} declaration needs {kind.what}")
        if ambient_of is not None:
            self.ambient = ambient_of(value)
        self._bind(stmt.name, value)

    def _run_check(self, stmt: dsl.CheckStmt) -> None:
        name = f"[L{stmt.line}] " + dsl.render_statement(stmt)[len("check "):]
        key = f"check {stmt.subcommand}"
        sig = SIGNATURES.get(key)
        if sig is None:
            report = Report("error", "dispatch", f"unknown check {stmt.subcommand!r}")
        else:
            try:
                args = [self.eval(a) for a in stmt.args]
                report = sig.apply(self, key, args, stmt.options)
            except (dsl.ScriptError, *LIBRARY_ERRORS) as exc:
                report = Report("error", "evaluation", str(exc))
        self.report.names.append(name)
        self.report.records.append(report)


def _is_zero(value: Value) -> bool:
    if isinstance(value, Fraction):
        return value == 0
    return value.is_zero


def _is_integer(value: Value) -> bool:
    return isinstance(value, Fraction) and value.denominator == 1


def _as_degree0(cls: type, A: AlgebroidPatch, value: Value) -> Value:
    """A rational or ring element as a degree-0 section of ``cls`` over A."""
    if isinstance(value, Fraction):
        value = A.scalar(value)
    if isinstance(value, ExpPoly):
        return cls.scalar_section(A, value)
    return value


# -- argument kinds ---------------------------------------------------------

@dataclass(frozen=True)
class Kind:
    """What one argument slot accepts.

    ``coerce`` returns the value in the type the library expects, or None
    to reject it.
    """

    what: str
    coerce: Callable[[Interpreter, Value], Optional[Value]]


def _isa(what: str, *types: type) -> Kind:
    return Kind(what, lambda interp, v: v if isinstance(v, types) else None)


def _algebroid(interp: Interpreter, v: Value) -> Optional[AlgebroidPatch]:
    if isinstance(v, JacobiAlgebroidData):
        return v.algebroid
    return v if isinstance(v, AlgebroidPatch) else None


def _twisted(interp: Interpreter, v: Value) -> Optional[JacobiAlgebroidData]:
    """Twisted data as is, an algebroid with a zero twist, or (A, phi)."""
    if isinstance(v, JacobiAlgebroidData):
        return v
    if isinstance(v, AlgebroidPatch):
        v = (v, Fraction(0))
    if not (isinstance(v, tuple) and len(v) == 2
            and isinstance(v[0], AlgebroidPatch)):
        return None
    base, twist = v
    if isinstance(twist, (Fraction, ExpPoly)) and _is_zero(twist):
        twist = Form.zero(base, 1)
    return JacobiAlgebroidData(base, twist) if isinstance(twist, Form) else None


def _dual_pair(interp: Interpreter, v: Value) -> Optional[JacobiBialgebroidData]:
    if not isinstance(v, JacobiBialgebroidData):
        v = _twisted(interp, v)
    return None if v is None else _as_bialgebroid(v)


def _section_pair(interp: Interpreter, v: Value) -> Optional[Tuple[Value, Value]]:
    """(P, Q) with P a section; a scalar Q becomes a degree-0 section."""
    if not (isinstance(v, tuple) and len(v) == 2
            and isinstance(v[0], (Form, MultiVector))):
        return None
    P, Q = v
    return P, _as_degree0(type(P), P.algebroid, Q)


def _musical(interp: Interpreter, v: Value) -> Optional[TensorMap]:
    if isinstance(v, MultiVector):
        return sharp_map(v)
    if isinstance(v, Form):
        return flat_map(v)
    return v if isinstance(v, TensorMap) else None


def _scalar(interp: Interpreter, v: Value) -> Optional[ExpPoly]:
    if isinstance(v, Fraction):
        return ExpPoly.const(interp.variables(), v)
    return v if isinstance(v, ExpPoly) else None


PATCH = _isa("a patch", Patch)
ALGEBROID = Kind("an algebroid", _algebroid)
ALGEBROID_DATA = _isa("an algebroid", AlgebroidPatch, JacobiAlgebroidData)
TWISTED = Kind("twisted data, an algebroid or (A, phi)", _twisted)
DUAL_PAIR = Kind("a dual pair or twisted data", _dual_pair)
FORM = _isa("a form", Form)
MULTIVECTOR = _isa("a multivector", MultiVector)
SECTION = _isa("a section", Form, MultiVector)
SECTION_PAIR = Kind("a pair (P, Q) of sections", _section_pair)
FORM_OR_SCALAR = _isa("a form or a scalar", Form, Fraction, ExpPoly)
SCALAR = Kind("a ring element", _scalar)
MAP = _isa("a map", TensorMap)
MUSICAL = Kind("a map or a 2-section", _musical)
GRAPH = _isa("a graph literal (sharp ..)/(flat ..)", GraphRelation)
LIFT = _isa("a lift, made by jacobize(..)", LiftedInstance)
INTEGER = Kind(
    "a non-negative integer",
    lambda interp, v: int(v) if _is_integer(v) and v >= 0 else None,
)
WEIGHT = Kind(
    "an integer weight",
    lambda interp, v: ExpPoly.exp(interp.variables(), int(v)) if _is_integer(v) else None,
)
PAIR = Kind("a pair (a, b)",
            lambda interp, v: v if isinstance(v, tuple) and len(v) == 2 else None)
VALUE = _isa("a scalar, section or map", *VALUE_TYPES)
ANY = Kind("a value", lambda interp, v: v)

# declaration keyword -> (kind of the bound value, ambient algebroid it sets)
DECLARATIONS: Dict[str, Tuple[Kind, Optional[Callable[[Value], AlgebroidPatch]]]] = {
    "algebroid": (ALGEBROID, lambda A: A),
    "jacobi": (TWISTED, lambda J: J.algebroid),
    "bialgebroid": (DUAL_PAIR, lambda B: B.A),
    "lift": (LIFT, None),
    "form": (FORM, None),
    "section": (MULTIVECTOR, None),
    "scalar": (SCALAR, None),
    "map": (MAP, None),
    "let": (ANY, None),
}


# -- signature table --------------------------------------------------------

Options = Mapping[str, Mapping[str, object]]


@dataclass(frozen=True)
class Sig:
    """A script function or check: callable, argument kinds, options.

    ``tail`` is the kind of one or more trailing arguments; ``options``
    maps each accepted key to its allowed values and what they pass on.
    """

    fn: Callable[..., Value]
    kinds: Tuple[Kind, ...]
    tail: Optional[Kind] = None
    options: Options = field(default_factory=dict)

    def apply(self, interp: Interpreter, name: str, args: Sequence[Value],
              options: Sequence[Tuple[str, str]]) -> Value:
        n = len(self.kinds)
        wanted = n + (self.tail is not None)
        if len(args) < wanted or (self.tail is None and len(args) > n):
            least = "at least " if self.tail else ""
            raise dsl.ScriptError(f"{name} takes {least}{wanted} argument(s)")
        kinds = self.kinds + (self.tail,) * (len(args) - n)
        values = []
        for i, (kind, arg) in enumerate(zip(kinds, args), start=1):
            value = kind.coerce(interp, arg)
            if value is None:
                raise dsl.ScriptError(f"{name}: argument {i} must be {kind.what}")
            values.append(value)
        chosen = {}
        for key, raw in options:
            allowed = self.options.get(key)
            if allowed is None:
                raise dsl.ScriptError(f"{name}: unknown option {key!r}")
            if key in chosen:
                raise dsl.ScriptError(f"{name}: option {key} is given twice")
            if raw not in allowed:
                raise dsl.ScriptError(
                    f"{name}: option {key} must be one of {'|'.join(allowed)}"
                )
            chosen[key] = allowed[raw]
        return self.fn(*values, **chosen)


def _zero_report(value: Value) -> Report:
    if _is_zero(value):
        return Report(PASS, "exact zero test")
    return Report(FAIL, "exact zero test", f"value = {value}")


def _difference_witness(a: Value, b: Value) -> Optional[str]:
    """None when equal, else a printable discrepancy."""
    if isinstance(a, tuple) and isinstance(b, tuple):
        if len(a) != len(b):
            return f"tuple lengths differ: {len(a)} vs {len(b)}"
        for i, (x, y) in enumerate(zip(a, b)):
            w = _difference_witness(x, y)
            if w is not None:
                return f"slot {i}: {w}"
        return None
    if isinstance(a, (Fraction, ExpPoly)) and isinstance(b, (Fraction, ExpPoly)):
        return None if a == b else f"difference = {a - b}"
    if type(a) is type(b) and isinstance(a, (MultiVector, Form, TensorMap)):
        diff = a - b
        return None if _is_zero(diff) else f"difference = {diff}"
    raise MismatchError("check equal needs comparable values")


def _equal_report(a: Value, b: Value) -> Report:
    witness = _difference_witness(a, b)
    if witness is None:
        return Report(PASS, "exact difference")
    return Report(FAIL, "exact difference", witness)


WEAK: Options = {"weak": {"true": True, "false": False}}

# Script functions by name, checks under "check <name>".  Rows call library
# names through lambdas, so each call resolves the name when it runs and a
# wrapped or patched function (a tracer, a test double) is the one called.
SIGNATURES: Dict[str, Sig] = {
    "tangent": Sig(lambda p: make_tangent(p), (PATCH,)),
    "trivial": Sig(lambda p, r: make_trivial(p, r), (PATCH, INTEGER)),
    "extend": Sig(lambda A: extend_with_R(A), (ALGEBROID,)),
    "standard": Sig(lambda J: make_standard_bialgebroid(J), (TWISTED,)),
    "couple": Sig(JacobiBialgebroidData, (TWISTED, TWISTED)),
    "jacobize": Sig(lambda B: lift_instance(B), (DUAL_PAIR,)),
    "d": Sig(lambda J, w: differential(J, _as_degree0(Form, J.algebroid, w)),
             (TWISTED, FORM_OR_SCALAR)),
    "schouten": Sig(lambda J, a, b: phi0_schouten(J, a, b),
                    (TWISTED, MULTIVECTOR, MULTIVECTOR)),
    "iota": Sig(lambda x, u: contract(x, u), (SECTION, SECTION)),
    "pair": Sig(lambda w, p: pair(w, p), (SECTION, SECTION)),
    "eval_on": Sig(lambda u, *xs: eval_on(u, xs), (SECTION,), tail=SECTION),
    "sharp": Sig(lambda pi: sharp_map(pi), (MULTIVECTOR,)),
    "flat": Sig(lambda om: flat_map(om), (FORM,)),
    "inverse": Sig(lambda m: m.inverse(), (MAP,)),
    "dual": Sig(lambda m: m.dual(), (MAP,)),
    "id": Sig(lambda A: TensorMap.identity(A), (ALGEBROID,)),
    "merge": Sig(lambda ext, pq: merge(ext, *pq), (ALGEBROID, SECTION_PAIR)),
    "split": Sig(lambda u: split(u), (SECTION,)),
    "first": Sig(itemgetter(0), (PAIR,)),
    "second": Sig(itemgetter(1), (PAIR,)),
    "pi_from_omega": Sig(lambda J, om: pi_from_omega(J, om), (TWISTED, FORM)),
    "omega_from_pi": Sig(lambda J, pi: omega_from_pi(J, pi), (TWISTED, MULTIVECTOR)),
    "bivector_of": Sig(lambda m: bivector_of(m), (MAP,)),
    "two_form_of": Sig(lambda m: two_form_of(m), (MAP,)),
    "zero_form": Sig(lambda A, k: Form.zero(A, k), (ALGEBROID, INTEGER)),
    "zero_section": Sig(lambda A, k: MultiVector.zero(A, k), (ALGEBROID, INTEGER)),
    "exp_t": Sig(lambda weight: weight, (WEIGHT,)),
    "check algebroid": Sig(lambda A: validate_algebroid(A), (ALGEBROID_DATA,)),
    "check jacobi": Sig(lambda J, pi: jacobi_check(J, pi), (TWISTED, MULTIVECTOR)),
    "check presymplectic": Sig(lambda J, om: presymplectic_check(J, om),
                               (TWISTED, FORM)),
    "check nondegenerate": Sig(lambda m: nondegenerate_check(m), (MUSICAL,)),
    "check mc": Sig(lambda B, s: maurer_cartan_check(B, s), (DUAL_PAIR, SECTION)),
    "check closure": Sig(lambda B, s: graph_closure_check(B, s), (DUAL_PAIR, SECTION)),
    "check bialgebroid": Sig(lambda B: bialgebroid_compat_check(B), (DUAL_PAIR,)),
    "check dirac_pair": Sig(lambda B, l, r: dirac_pair_check(B, l, r),
                            (DUAL_PAIR, GRAPH, GRAPH)),
    "check jacobi_pair": Sig(lambda J, a, b: jacobi_pair_check(J, a, b),
                             (TWISTED, MULTIVECTOR, MULTIVECTOR)),
    "check presymplectic_pair": Sig(lambda J, a, b: presymplectic_pair_check(J, a, b),
                                    (TWISTED, FORM, FORM)),
    "check symplectic_pair": Sig(lambda J, a, b: symplectic_pair_check(J, a, b),
                                 (TWISTED, FORM, FORM)),
    "check hamiltonian_pair": Sig(lambda J, a, b: hamiltonian_pair_check(J, a, b),
                                  (TWISTED, MULTIVECTOR, MULTIVECTOR)),
    "check condition31": Sig(lambda a, b: condition_image_check(a, b),
                             (MULTIVECTOR, MULTIVECTOR)),
    "check jomega": Sig(lambda J, pi, om: jomega_check(J, pi, om),
                        (TWISTED, MULTIVECTOR, FORM)),
    "check omegan": Sig(lambda J, om, N, **o: omegan_check(J, om, N, **o),
                        (TWISTED, FORM, MAP), options=WEAK),
    "check torsion": Sig(lambda N: torsion_tensor_check(N), (MAP,)),
    "check lift_scaling": Sig(lambda h, *s: verify_bracket_scaling(h, s),
                              (LIFT,), tail=SECTION),
    "check lift_formulas": Sig(lambda J, f, w: verify_hat_bar_differentials(J, f, w),
                               (TWISTED, SCALAR, FORM)),
    "check main1": Sig(lambda B, l, r: theorem_main1_crosscheck(B, l, r),
                       (DUAL_PAIR, GRAPH, GRAPH)),
    "check zero": Sig(_zero_report, (VALUE,)),
    "check equal": Sig(_equal_report, (ANY, ANY)),
}


# -- emitters ---------------------------------------------------------------

_STATUS_COLORS = {
    "pass": "\033[32m",
    "fail": "\033[31m",
    "not-decided": "\033[33m",
    "error": "\033[35m",
}
_RESET = "\033[0m"


def emit_text(report: RunReport, color: bool = False) -> str:
    lines = []
    width = max((len(r.status) for r in report.records), default=4)
    for name, rec in zip(report.names, report.records):
        status = rec.status.ljust(width)
        if color:
            status = _STATUS_COLORS.get(rec.status, "") + status + _RESET
        line = f"{status}  {name}"
        if rec.strategy:
            line += f"  [{rec.strategy}]"
        lines.append(line)
        if rec.witness:
            lines.append(f"{' ' * (width + 2)}{rec.witness}")
    c = report.counts()
    lines.append(
        f"summary: {c['pass']} pass, {c['fail']} fail, "
        f"{c['not_decided']} not decided, {c['error']} error"
    )
    return "\n".join(lines) + "\n"


def emit_json(report: RunReport) -> str:
    checks = []
    for name, rec in zip(report.names, report.records):
        entry: Dict[str, object] = {
            "name": name,
            "status": rec.status,
            "strategy": rec.strategy,
        }
        if rec.witness is not None:
            entry["witness"] = rec.witness
        checks.append(entry)
    payload = {
        "version": 1,
        "checks": checks,
        "summary": report.counts(),
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# -- entry point ------------------------------------------------------------

def run_text(text: str) -> RunReport:
    script = dsl.parse(text)
    return Interpreter().run(script)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="jacv",
        description="exact checks for twisted-algebroid structures",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    check = sub.add_parser("check", help="run a script of declarations and checks")
    check.add_argument("file", help="script file")
    check.add_argument("--json", action="store_true", help="emit JSON")
    check.add_argument("--strict", action="store_true",
                       help="exit 3 when any check is not decided")
    ns = parser.parse_args(argv)

    try:
        with open(ns.file, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        report = run_text(text)
    except dsl.ScriptError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if ns.json:
        sys.stdout.write(emit_json(report))
    else:
        color = sys.stdout.isatty() and not os.environ.get("NO_COLOR")
        sys.stdout.write(emit_text(report, color=color))
    return report.exit_code(strict=ns.strict)


if __name__ == "__main__":
    sys.exit(main())
