"""Exterior calculus over an algebroid frame.

Multivectors (wedge powers of the frame) and forms (wedge powers of the dual
coframe) are stored sparsely as {strictly increasing index tuple -> scalar}.
The pairing convention is the determinant one: <eps_I, e_J> = delta_IJ on
increasing tuples, and the wedge of two sections sums over shuffles with no
1/k! prefactor.

Sign conventions fixed here and relied on everywhere else:

* contraction inserts into the first slot, (iota_x u)(...) = u(x, ...);
* the differential of a k-form is
      (dw)(X_0..X_k) = sum_i (-1)^i rho(X_i) w(..no i..)
                     + sum_{i<j} (-1)^{i+j} w([X_i,X_j], ..no i, no j..);
* the Lie derivative is Cartan's formula on forms and the Schouten bracket
  with a degree-1 section on multivectors;
* the Schouten bracket extends the frame bracket by
      [D1, D2 ^ D3] = [D1,D2] ^ D3 + (-1)^((a1+1) a2) D2 ^ [D1,D3],
      [D1, D2] = -(-1)^((a1-1)(a2-1)) [D2, D1];
* the twisted variants add the standard correction terms built from a fixed
  closed degree-1 cosection (the twist), with contraction of the twist into a
  degree-0 section read as 0 inside those formulas.

Sections over the direct sum with a trivial line are identified with pairs
(P, Q) via  (P, Q) = P + ehat ^ Q  (split / merge below); all the pair
formulas quoted in the structure checks come out of this identification.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .coeff import ExpPoly

Key = Tuple[int, ...]


class MismatchError(ValueError):
    """Degree, kind, or algebroid mismatch between operands."""


def _scalar_like(value: object) -> bool:
    return isinstance(value, (int, Fraction, ExpPoly))


@dataclass(eq=False)
class _Section:
    algebroid: object
    degree: int
    components: Dict[Key, ExpPoly]

    def __post_init__(self) -> None:
        r = self.algebroid.rank
        if self.degree < 0:
            raise MismatchError("negative degree")
        variables = self.algebroid.patch.variables
        clean: Dict[Key, ExpPoly] = {}
        for key, c in self.components.items():
            key = tuple(key)
            if len(key) != self.degree:
                raise MismatchError(f"key {key} has wrong length for degree {self.degree}")
            if any(not 0 <= i < r for i in key) or any(
                key[i] >= key[i + 1] for i in range(len(key) - 1)
            ):
                raise MismatchError(f"key {key} is not strictly increasing in range")
            if c.vars != variables:
                raise MismatchError("component over the wrong variables")
            if not c.is_zero:
                clean[key] = c
        self.components = clean

    # -- basics ------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.components

    def scalar_value(self) -> ExpPoly:
        if self.degree != 0:
            raise MismatchError("scalar_value on a positive-degree section")
        return self.components.get((), self.algebroid.zero_scalar())

    def component(self, *indices: int) -> ExpPoly:
        """Component on a frame tuple, in any order (0-based, signed)."""
        if len(indices) != self.degree:
            raise MismatchError("wrong number of indices")
        if len(set(indices)) != len(indices):
            return self.algebroid.zero_scalar()
        order = sorted(range(len(indices)), key=lambda p: indices[p])
        sign = _perm_sign(order)
        key = tuple(sorted(indices))
        c = self.components.get(key)
        if c is None:
            return self.algebroid.zero_scalar()
        return c if sign == 1 else -c

    def _check_same(self, other: "_Section") -> None:
        if type(self) is not type(other):
            raise MismatchError("cannot combine a multivector with a form")
        if self.algebroid is not other.algebroid:
            raise MismatchError("sections live over different algebroids")
        if self.degree != other.degree:
            raise MismatchError(
                f"degree mismatch: {self.degree} vs {other.degree}"
            )

    def __add__(self, other: "_Section") -> "_Section":
        self._check_same(other)
        comps = dict(self.components)
        zero = self.algebroid.zero_scalar()
        for key, c in other.components.items():
            comps[key] = comps.get(key, zero) + c
        return type(self)(self.algebroid, self.degree, comps)

    def __sub__(self, other: "_Section") -> "_Section":
        return self + (-other)

    def __neg__(self) -> "_Section":
        return type(self)(
            self.algebroid,
            self.degree,
            {k: -c for k, c in self.components.items()},
        )

    def __mul__(self, other: object) -> "_Section":
        if not _scalar_like(other):
            return NotImplemented
        f = other if isinstance(other, ExpPoly) else self.algebroid.scalar(other)
        return type(self)(
            self.algebroid,
            self.degree,
            {k: f * c for k, c in self.components.items()},
        )

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _Section):
            return NotImplemented
        return (
            type(self) is type(other)
            and self.degree == other.degree
            and self.algebroid.rank == other.algebroid.rank
            and self.algebroid.patch.variables == other.algebroid.patch.variables
            and self.components == other.components
        )

    def __hash__(self) -> None:  # type: ignore[override]
        raise TypeError("sections are not hashable")

    # -- display -----------------------------------------------------------

    def _labels(self) -> Tuple[str, ...]:
        raise NotImplementedError

    def __str__(self) -> str:
        if not self.components:
            return "0"
        labels = self._labels()
        parts = []
        for key in sorted(self.components):
            c = self.components[key]
            mono = "^".join(labels[i] for i in key) if key else "1"
            text = str(c)
            if " " in text:
                text = f"({text})"
            parts.append(f"{text}*{mono}" if key else text)
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, algebroid: object, degree: int) -> "_Section":
        return cls(algebroid, degree, {})

    @classmethod
    def scalar_section(cls, algebroid: object, f: ExpPoly) -> "_Section":
        return cls(algebroid, 0, {(): f})


class MultiVector(_Section):
    """Wedge-power section of the algebroid itself."""

    @classmethod
    def frame(cls, algebroid: object, index: int) -> "MultiVector":
        one = algebroid.scalar(1)
        return cls(algebroid, 1, {(index,): one})

    def _labels(self) -> Tuple[str, ...]:
        return self.algebroid.frame_labels


class Form(_Section):
    """Wedge-power section of the dual coframe."""

    @classmethod
    def coframe(cls, algebroid: object, index: int) -> "Form":
        one = algebroid.scalar(1)
        return cls(algebroid, 1, {(index,): one})

    def _labels(self) -> Tuple[str, ...]:
        return self.algebroid.coframe_labels


Section = Union[MultiVector, Form]


def _perm_sign(order: Sequence[int]) -> int:
    sign = 1
    seen = [False] * len(order)
    for start in range(len(order)):
        if seen[start]:
            continue
        length = 0
        pos = start
        while not seen[pos]:
            seen[pos] = True
            pos = order[pos]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _shuffle_sign(left: Key, right: Key) -> int:
    inversions = sum(1 for i in left for j in right if i > j)
    return -1 if inversions % 2 else 1


def _insert_index(index: int, rest: Key) -> Optional[Tuple[int, Key]]:
    """Sign and sorted key for e_index wedged in front of an increasing tuple."""
    if index in rest:
        return None
    smaller = sum(1 for j in rest if j < index)
    sign = -1 if smaller % 2 else 1
    merged = tuple(sorted(rest + (index,)))
    return sign, merged


# -- wedge, contraction, pairing ------------------------------------------


def wedge(u: Section, v: Section) -> Section:
    """Shuffle-sum wedge of two sections of the same kind."""
    if type(u) is not type(v):
        raise MismatchError("wedge needs two sections of the same kind")
    if u.algebroid is not v.algebroid:
        raise MismatchError("sections live over different algebroids")
    zero = u.algebroid.zero_scalar()
    comps: Dict[Key, ExpPoly] = {}
    for ka, ca in u.components.items():
        for kb, cb in v.components.items():
            if set(ka) & set(kb):
                continue
            sign = _shuffle_sign(ka, kb)
            key = tuple(sorted(ka + kb))
            term = ca * cb
            if sign < 0:
                term = -term
            comps[key] = comps.get(key, zero) + term
    return type(u)(u.algebroid, u.degree + v.degree, comps)


def wedge_power(u: Section, power: int) -> Section:
    if power < 0:
        raise MismatchError("negative wedge power")
    out: Section = type(u).scalar_section(u.algebroid, u.algebroid.scalar(1))
    for _ in range(power):
        if out.is_zero:
            return type(u).zero(u.algebroid, power * u.degree)
        out = wedge(out, u)
    return out


def contract(x: Section, u: Section) -> Section:
    """First-slot contraction of a degree-1 section into the opposite kind."""
    if type(x) is type(u):
        raise MismatchError("contraction pairs a multivector with a form")
    if x.algebroid is not u.algebroid:
        raise MismatchError("sections live over different algebroids")
    if x.degree != 1:
        raise MismatchError("the contracted section must have degree 1")
    if u.degree == 0:
        raise MismatchError("cannot contract into a degree-0 section")
    zero = u.algebroid.zero_scalar()
    comps: Dict[Key, ExpPoly] = {}
    for key, c in u.components.items():
        for pos, idx in enumerate(key):
            xc = x.components.get((idx,))
            if xc is None:
                continue
            rest = key[:pos] + key[pos + 1 :]
            term = xc * c
            if pos % 2:
                term = -term
            comps[rest] = comps.get(rest, zero) + term
    return type(u)(u.algebroid, u.degree - 1, comps)


def pair(w: Section, p: Section) -> ExpPoly:
    """Determinant pairing of a form with a multivector of equal degree."""
    if type(w) is type(p):
        raise MismatchError("pairing needs opposite kinds")
    if w.algebroid is not p.algebroid:
        raise MismatchError("sections live over different algebroids")
    if w.degree != p.degree:
        raise MismatchError("pairing needs equal degrees")
    out = w.algebroid.zero_scalar()
    for key, c in w.components.items():
        other = p.components.get(key)
        if other is not None:
            out = out + c * other
    return out


def eval_on(u: Section, args: Sequence[Section]) -> ExpPoly:
    """Evaluate a degree-k section on k degree-1 sections of the other kind."""
    if len(args) != u.degree:
        raise MismatchError(
            f"degree-{u.degree} section evaluated on {len(args)} arguments"
        )
    current = u
    for x in args:
        current = contract(x, current)
    return current.scalar_value()


# -- differential and Lie derivative --------------------------------------


def _twist_of(arg: object) -> Tuple[object, Optional[Form]]:
    phi0 = getattr(arg, "phi0", None)
    if phi0 is None:
        return arg, None
    return arg.algebroid, phi0


def _frame_deriv(A: object, index: int, f: ExpPoly) -> ExpPoly:
    out = A.zero_scalar()
    for name, row in zip(A.patch.anchor_coords, A.anchor):
        entry = row[index]
        if entry.is_zero:
            continue
        df = f.diff(name)
        if not df.is_zero:
            out = out + entry * df
    return out


def differential(arg: object, w: Form) -> Form:
    """Frame form of the algebroid differential; twisted when given twist data.

    With twist data the result gains the extra term twist ^ w.
    """
    A, phi0 = _twist_of(arg)
    if not isinstance(w, Form):
        raise MismatchError("the differential acts on forms")
    if w.algebroid is not A:
        raise MismatchError("form lives over a different algebroid")
    r = A.rank
    zero = A.zero_scalar()
    comps: Dict[Key, ExpPoly] = {}
    for key in combinations(range(r), w.degree + 1):
        acc = zero
        for pos, idx in enumerate(key):
            rest = key[:pos] + key[pos + 1 :]
            c = w.components.get(rest)
            if c is None:
                continue
            term = _frame_deriv(A, idx, c)
            if pos % 2:
                term = -term
            acc = acc + term
        for pa in range(len(key)):
            for pb in range(pa + 1, len(key)):
                rest = tuple(
                    idx for pos, idx in enumerate(key) if pos not in (pa, pb)
                )
                bracket = A.structure[key[pa]][key[pb]]
                inner = zero
                for m in range(r):
                    cm = bracket[m]
                    if cm.is_zero:
                        continue
                    placed = _insert_index(m, rest)
                    if placed is None:
                        continue
                    sign, full = placed
                    wc = w.components.get(full)
                    if wc is None:
                        continue
                    inner = inner + (cm * wc if sign > 0 else -(cm * wc))
                if (pa + pb) % 2:
                    inner = -inner
                acc = acc + inner
        if not acc.is_zero:
            comps[key] = acc
    out = Form(A, w.degree + 1, comps)
    if phi0 is not None:
        out = out + wedge(phi0, w)
    return out


def lie_derivative(arg: object, X: MultiVector, u: Section) -> Section:
    """Cartan formula on forms; bracket with X on multivectors.

    The twisted variant uses the twisted differential / twisted bracket.
    """
    A, phi0 = _twist_of(arg)
    if not isinstance(X, MultiVector) or X.degree != 1:
        raise MismatchError("lie_derivative needs a degree-1 multivector")
    if X.algebroid is not A or u.algebroid is not A:
        raise MismatchError("sections live over different algebroids")
    if isinstance(u, Form):
        if u.degree == 0:
            return contract(X, differential(arg, u))
        return contract(X, differential(arg, u)) + differential(
            arg, contract(X, u)
        )
    if phi0 is None:
        return schouten(X, u)
    return phi0_schouten(arg, X, u)


# -- Schouten bracket ------------------------------------------------------

_Atom = Tuple[str, object]  # ("f", scalar) or ("e", frame index)


def _list_degree(items: List[_Atom]) -> int:
    return sum(1 for kind, _ in items if kind == "e")


def _list_to_section(A: object, items: List[_Atom]) -> MultiVector:
    out: MultiVector = MultiVector.scalar_section(A, A.scalar(1))
    for kind, value in items:
        if kind == "f":
            out = value * out
        else:
            out = wedge(out, MultiVector.frame(A, value))
    return out


def _atom_bracket(A: object, a: _Atom, b: _Atom) -> MultiVector:
    ka, va = a
    kb, vb = b
    if ka == "f" and kb == "f":
        return MultiVector.zero(A, 0)
    if ka == "e" and kb == "f":
        return MultiVector.scalar_section(A, _frame_deriv(A, va, vb))
    if ka == "f" and kb == "e":
        return MultiVector.scalar_section(A, -_frame_deriv(A, vb, va))
    comps = {
        (k,): c for k, c in enumerate(A.structure[va][vb]) if not c.is_zero
    }
    return MultiVector(A, 1, comps)


def _bracket_lists(A: object, left: List[_Atom], right: List[_Atom]) -> MultiVector:
    p = _list_degree(left)
    q = _list_degree(right)
    target = max(p + q - 1, 0)
    if len(left) == 1 and len(right) == 1:
        return _atom_bracket(A, left[0], right[0])
    if len(right) > 1:
        # A genuinely zero summand may carry the wrong formal degree (the
        # rank -1 slot), so only nonzero pieces are accumulated.
        head, tail = right[0], right[1:]
        du = 0 if head[0] == "f" else 1
        total = MultiVector.zero(A, target)
        inner = _bracket_lists(A, left, [head])
        if not inner.is_zero:
            total = total + wedge(inner, _list_to_section(A, tail))
        inner = _bracket_lists(A, left, tail)
        if not inner.is_zero:
            piece = wedge(_list_to_section(A, [head]), inner)
            if ((p + 1) * du) % 2:
                piece = -piece
            total = total + piece
        return total
    # left is composite, right is a single atom: flip with the graded sign
    flipped = _bracket_lists(A, right, left)
    if ((p - 1) * (q - 1)) % 2 == 0:
        flipped = -flipped
    return flipped


def _monomials(P: MultiVector) -> List[List[_Atom]]:
    out = []
    for key, c in P.components.items():
        items: List[_Atom] = [("f", c)]
        items.extend(("e", i) for i in key)
        out.append(items)
    return out


def schouten(P: MultiVector, Q: MultiVector) -> MultiVector:
    """Schouten bracket, expanded from the frame bracket by the graded rules."""
    if not isinstance(P, MultiVector) or not isinstance(Q, MultiVector):
        raise MismatchError("the Schouten bracket acts on multivectors")
    if P.algebroid is not Q.algebroid:
        raise MismatchError("sections live over different algebroids")
    A = P.algebroid
    out_degree = max(P.degree + Q.degree - 1, 0)
    total = MultiVector.zero(A, out_degree)
    for left in _monomials(P):
        for right in _monomials(Q):
            term = _bracket_lists(A, left, right)
            if term.is_zero:
                continue
            total = total + term
    return total


def _iota_twist(phi0: Form, D: MultiVector) -> Optional[MultiVector]:
    if D.degree == 0:
        return None
    return contract(phi0, D)


def phi0_schouten(J: object, D1: MultiVector, D2: MultiVector) -> MultiVector:
    """Twisted Schouten bracket: the plain bracket plus the twist corrections

        + (a1 - 1) D1 ^ iota(D2)  -  (-1)^(a1+1) (a2 - 1) iota(D1) ^ D2,

    with iota contraction by the twist and iota of a degree-0 section read
    as 0."""
    A, phi0 = _twist_of(J)
    if phi0 is None:
        raise MismatchError("phi0_schouten needs twist data")
    if D1.algebroid is not A or D2.algebroid is not A:
        raise MismatchError("sections live over different algebroids")
    a1, a2 = D1.degree, D2.degree
    total = schouten(D1, D2)
    if a1 != 1:
        inner = _iota_twist(phi0, D2)
        if inner is not None:
            total = total + (a1 - 1) * wedge(D1, inner)
    if a2 != 1:
        inner = _iota_twist(phi0, D1)
        if inner is not None:
            sign = -1 if (a1 + 1) % 2 else 1
            total = total + (-sign) * (a2 - 1) * wedge(inner, D2)
    return total


# -- direct sum with a trivial line: pair sections ------------------------


def _hat_index(A_ext: object) -> int:
    if getattr(A_ext, "ext_base", None) is None:
        raise MismatchError("not an extended algebroid")
    return A_ext.rank - 1


def split(u: Section) -> Tuple[Section, Section]:
    """Write a section of the extension as the pair (P, Q) with u = P + hat ^ Q."""
    A_ext = u.algebroid
    h = _hat_index(A_ext)
    base = A_ext.ext_base
    p_comps: Dict[Key, ExpPoly] = {}
    q_comps: Dict[Key, ExpPoly] = {}
    for key, c in u.components.items():
        if h in key:
            rest = tuple(i for i in key if i != h)
            if len(rest) % 2:
                c = -c
            q_comps[rest] = c
        else:
            p_comps[key] = c
    cls = type(u)
    q_degree = u.degree - 1 if u.degree else 0
    return cls(base, u.degree, p_comps), cls(base, q_degree, q_comps)


def merge(A_ext: object, P: Section, Q: Section) -> Section:
    """Inverse of split: P + hat ^ Q over the extension."""
    h = _hat_index(A_ext)
    base = A_ext.ext_base
    if type(P) is not type(Q):
        raise MismatchError("pair components must have the same kind")
    if P.algebroid is not base or Q.algebroid is not base:
        raise MismatchError("pair components must live over the base algebroid")
    if P.degree == 0:
        if not Q.is_zero:
            raise MismatchError("a degree-0 pair has no second slot")
    elif Q.degree != P.degree - 1:
        raise MismatchError("second slot must have degree one less")
    comps: Dict[Key, ExpPoly] = {}
    for key, c in P.components.items():
        comps[key] = c
    for key, c in Q.components.items():
        if len(key) % 2:
            c = -c
        comps[key + (h,)] = c
    return type(P)(A_ext, P.degree, comps)


# -- moving components between algebroids ---------------------------------


def _compatible(a: object, b: object) -> bool:
    return a.rank == b.rank and a.patch.variables == b.patch.variables


def flip_dual(section: Section, target: object) -> Section:
    """Reinterpret over the dual side: same components, opposite kind.

    Under the positional pairing a multivector of one side is a form of the
    other, so this is exact bookkeeping, not a computation.
    """
    if not _compatible(section.algebroid, target):
        raise MismatchError("dual flip needs matching rank and variables")
    cls = Form if isinstance(section, MultiVector) else MultiVector
    return cls(target, section.degree, dict(section.components))


def rebase(section: Section, target: object) -> Section:
    """Same-kind transfer of components onto another algebroid object."""
    if not _compatible(section.algebroid, target):
        raise MismatchError("rebase needs matching rank and variables")
    return type(section)(target, section.degree, dict(section.components))
