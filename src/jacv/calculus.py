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
* the Schouten bracket extends the frame bracket [e_i, e_j] and the anchor
  [e_i, f] = rho(e_i) f, [f, g] = 0, by the graded rules
      [D1, D2 ^ D3] = [D1,D2] ^ D3 + (-1)^((a1+1) a2) D2 ^ [D1,D3],
      [D1, D2] = -(-1)^((a1-1)(a2-1)) [D2, D1];
  on frame monomials f e_I and g e_J of degrees p and q, with 0-based
  positions a in I and b in J and I\a the key I without its a-th index,
  this is the closed form computed by ``schouten``:
      [f e_I, g e_J]
        = f g sum_{a,b} (-1)^(a+b) [e_{I_a}, e_{J_b}] ^ e_{I\a} ^ e_{J\b}
          + f sum_a (-1)^(p-1-a) rho(e_{I_a}) g  e_{I\a} ^ e_J
          - (-1)^((p-1)(q-1)) g sum_b (-1)^(q-1-b) rho(e_{J_b}) f  e_{J\b} ^ e_I.
  Derivation: by the first rule [D, .] is a derivation of degree deg D - 1.
  Expanding g e_J = g ^ e_{J_0} ^ ... factor by factor, and moving the
  degree-p bracket in front of the b factors e_{J<b},
      [f e_I, g e_J] = [f e_I, g] ^ e_J
                       + g sum_b (-1)^b [f e_I, e_{J_b}] ^ e_{J\b}.
  The second rule gives [f e_I, e_j] = -[e_j, f e_I]; expanding f e_I under
  the degree-0 derivation [e_j, .] gives
      [f e_I, e_j] = f sum_a (-1)^a [e_{I_a}, e_j] ^ e_{I\a} - rho(e_j) f  e_I,
  whose first part is the structure term and whose second part, with
  e_I ^ e_{J\b} = (-1)^(p(q-1)) e_{J\b} ^ e_I, is the third term.  Under the
  degree-(-1) derivation [g, .], [g, f e_I] = -f sum_a (-1)^a rho(e_{I_a}) g
  e_{I\a}, and the second rule turns it into the second term;
* the twisted variants add the standard correction terms built from a fixed
  closed degree-1 cosection (the twist), with contraction of the twist into a
  degree-0 section read as 0 inside those formulas;
* on a trivial algebroid (no anchor entry and no bracket,
  ``AlgebroidPatch.is_trivial``) every term of the differential and of the
  closed form above has a factor c_ij^k or rho(e_i) g, so ``differential``
  returns 0 (twist ^ w when twisted) and ``schouten`` returns 0 without
  running the frame loops; the twisted bracket keeps only its twist terms;
* every component of ``wedge``, ``contract``, ``differential``, ``schouten``
  and ``phi0_schouten`` is gathered as a list of signed products
  (k, a, b) per output key and built once by ``coeff.sum_products``; the
  twist terms of the differential and of the twisted bracket go into the
  same lists, so each result is one section built once;
* a section bracketed with itself (``schouten(D, D)`` or
  ``phi0_schouten(J, D, D)`` with one object twice) of degree a.  The
  second graded rule with a1 = a2 = a reads [D, D] = -(-1)^((a-1)^2) [D, D].
  For odd a the exponent is even, so 2 [D, D] = 0 and [D, D] = 0, because 2
  is invertible over Q.  For even a the exponent is odd and the bracket is
  symmetric in degree a, so over the frame monomials m_I = f_I e_I of D
      [D, D] = sum_{I,J} [m_I, m_J] = sum_I [m_I, m_I] + 2 sum_{I<J} [m_I, m_J]
  for any order of the keys; ``schouten`` runs the closed form once per
  unordered pair, with k = 2 off the diagonal.  The twist terms of
  ``phi0_schouten`` read
  (a - 1) D ^ iota(D) - (-1)^(a+1) (a - 1) iota(D) ^ D.  Since iota(D) has
  degree a - 1 and a(a - 1) is even, iota(D) ^ D = D ^ iota(D), so they sum
  to (a - 1)(1 + (-1)^a) D ^ iota(D): 0 for odd a, where the whole twisted
  self-bracket is 0, and 2 (a - 1) D ^ iota(D) for even a, one contraction
  and one wedge (none for a = 0, where iota(D) is read as 0);
* the anchored derivatives are taken per stored component, all frame
  elements at once: ``AlgebroidPatch.anchor_derivs(c)`` sweeps c's
  monomials once and returns {i: rho(e_i) c}, nonzero ones only.  The
  differential adds each rho(e_i) w_K with i not in K to the key K + {i},
  with the sign (-1)^pos of i's position there, so a component w does not
  store costs nothing; only the bracket terms run over the output keys,
  and not at all when the algebroid has no bracket.  In the closed form
  rho(e_i) g_J is asked for every f_I with i in I, and rho(e_j) f_I for
  every g_J with j in J; each side keeps the derivative maps of its
  components by key for the call (one memo when P is Q), so each stored
  component is swept at most once per bracket.  A frame element with no
  anchor entry asks for no derivative.

Sections over the direct sum with a trivial line are identified with pairs
(P, Q) via  (P, Q) = P + ehat ^ Q  (split / merge below); all the pair
formulas quoted in the structure checks come out of this identification.
"""

from __future__ import annotations

from bisect import bisect
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .coeff import ExpPoly, Product, product_term, sum_products

Key = Tuple[int, ...]
Sums = Dict[Key, List[Product]]


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
        self._check_same(other)
        comps = dict(self.components)
        for key, c in other.components.items():
            old = comps.get(key)
            comps[key] = -c if old is None else old - c
        return type(self)(self.algebroid, self.degree, comps)

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
        one = algebroid.patch.one()
        return cls(algebroid, 1, {(index,): one})

    def _labels(self) -> Tuple[str, ...]:
        return self.algebroid.frame_labels


class Form(_Section):
    """Wedge-power section of the dual coframe."""

    @classmethod
    def coframe(cls, algebroid: object, index: int) -> "Form":
        one = algebroid.patch.one()
        return cls(algebroid, 1, {(index,): one})

    def _labels(self) -> Tuple[str, ...]:
        return self.algebroid.coframe_labels


Section = Union[MultiVector, Form]


def _wedge_keys(left: Key, right: Key) -> Optional[Tuple[int, Key]]:
    """Sign and increasing key of e_left ^ e_right; None when the keys overlap."""
    inversions = 0
    for i in left:
        for j in right:
            if i == j:
                return None
            inversions += i > j
    return (-1 if inversions % 2 else 1), tuple(sorted(left + right))


def _built(cls: type, A: object, degree: int, sums: Sums) -> Section:
    """The section whose component on each key is the sum of that key's
    signed products, each built as one value; the constructor validates."""
    variables = A.patch.variables
    return cls(
        A,
        degree,
        {key: sum_products(variables, products) for key, products in sums.items()},
    )


# -- wedge, contraction, pairing ------------------------------------------


def wedge(u: Section, v: Section) -> Section:
    """Shuffle-sum wedge of two sections of the same kind."""
    if type(u) is not type(v):
        raise MismatchError("wedge needs two sections of the same kind")
    if u.algebroid is not v.algebroid:
        raise MismatchError("sections live over different algebroids")
    sums: Sums = defaultdict(list)
    _wedge_into(sums, 1, u, v)
    return _built(type(u), u.algebroid, u.degree + v.degree, sums)


def _wedge_into(sums: Sums, k: int, u: Section, v: Section) -> None:
    """Add the products of ``k * (u ^ v)`` into ``sums``."""
    for ka, ca in u.components.items():
        for kb, cb in v.components.items():
            placed = _wedge_keys(ka, kb)
            if placed is not None:
                sign, key = placed
                sums[key].append((sign * k, ca, cb))


def wedge_power(u: Section, power: int) -> Section:
    """``u`` wedged with itself ``power`` times, by repeated squaring: at
    most 2 * log2(power) wedges.  As soon as a partial power is zero the
    result is the zero of the full degree."""
    if power < 0:
        raise MismatchError("negative wedge power")
    degree = power * u.degree
    out: Optional[Section] = None
    while power:
        if power & 1:
            out = u if out is None else wedge(out, u)
            if out.is_zero:
                return type(u).zero(u.algebroid, degree)
        power >>= 1
        if power:
            u = wedge(u, u)
            if u.is_zero:
                return type(u).zero(u.algebroid, degree)
    if out is None:
        return type(u).scalar_section(u.algebroid, u.algebroid.patch.one())
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
    sums: Sums = defaultdict(list)
    for key, c in u.components.items():
        for pos, idx in enumerate(key):
            xc = x.components.get((idx,))
            if xc is not None:
                rest = key[:pos] + key[pos + 1 :]
                sums[rest].append((-1 if pos % 2 else 1, xc, c))
    return _built(type(u), u.algebroid, u.degree - 1, sums)


def pair(w: Section, p: Section) -> ExpPoly:
    """Determinant pairing of a form with a multivector of equal degree."""
    if type(w) is type(p):
        raise MismatchError("pairing needs opposite kinds")
    if w.algebroid is not p.algebroid:
        raise MismatchError("sections live over different algebroids")
    if w.degree != p.degree:
        raise MismatchError("pairing needs equal degrees")
    theirs = p.components
    products = [(1, c, theirs[key]) for key, c in w.components.items() if key in theirs]
    if not products:
        return w.algebroid.zero_scalar()
    return sum_products(w.algebroid.patch.variables, products)


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


def differential(arg: object, w: Form) -> Form:
    """Frame form of the algebroid differential; twisted when given twist data.

    With twist data the result gains the extra term twist ^ w.  On a trivial
    algebroid every frame term has a factor rho(e_i) or c_ij^k, so only the
    twist term is left.
    """
    A, phi0 = _twist_of(arg)
    if not isinstance(w, Form):
        raise MismatchError("the differential acts on forms")
    if w.algebroid is not A:
        raise MismatchError("form lives over a different algebroid")
    if A.is_trivial:
        return Form.zero(A, w.degree + 1) if phi0 is None else wedge(phi0, w)
    sums: Sums = defaultdict(list)
    # anchor terms: rho(e_i) w_K lands on K + {i} with the sign of i's
    # position there, so only stored components are differentiated
    for K, c in w.components.items():
        for i, d in A.anchor_derivs(c).items():
            if i not in K:
                pos = bisect(K, i)
                sums[K[:pos] + (i,) + K[pos:]].append((-1 if pos % 2 else 1, d, None))
    if A.brackets:
        for key in combinations(range(A.rank), w.degree + 1):
            for pa in range(len(key)):
                for pb in range(pa + 1, len(key)):
                    row = A.brackets.get((key[pa], key[pb]))
                    if row is None:
                        continue
                    rest = key[:pa] + key[pa + 1 : pb] + key[pb + 1 :]
                    outer = -1 if (pa + pb) % 2 else 1
                    for m, cm in row:
                        placed = _wedge_keys((m,), rest)
                        if placed is None:
                            continue
                        sign, full = placed
                        wc = w.components.get(full)
                        if wc is not None:
                            sums[key].append((sign * outer, cm, wc))
    if phi0 is not None:
        _wedge_into(sums, 1, phi0, w)
    return _built(Form, A, w.degree + 1, sums)


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

def schouten(P: MultiVector, Q: MultiVector) -> MultiVector:
    """Schouten bracket of two multivectors, by the closed form on frame
    monomials given in the module docstring.

    Index pairs with no stored bracket contribute no structure term, so f g
    is formed only for monomial pairs with a nonzero bracket.  On degree-1
    sections this is the Leibniz bracket fg[e_i, e_j] + f rho(e_i)g e_j -
    g rho(e_j)f e_i; on degree 0 against degree 1 it is the anchored
    derivative, and two scalars bracket to the zero of degree -1.  Every
    term has a factor c_ij^k or rho(e_i) g, so the bracket vanishes on a
    trivial algebroid.  A section bracketed with itself (the same object)
    is 0 in odd degree and runs over unordered monomial pairs in even
    degree (module docstring).
    """
    if not isinstance(P, MultiVector) or not isinstance(Q, MultiVector):
        raise MismatchError("the Schouten bracket acts on multivectors")
    if P.algebroid is not Q.algebroid:
        raise MismatchError("sections live over different algebroids")
    A = P.algebroid
    degree = P.degree + Q.degree - 1
    if A.is_trivial or (P is Q and P.degree % 2):
        return MultiVector.zero(A, degree)
    sums: Sums = defaultdict(list)
    _schouten_into(sums, P, Q)
    return _built(MultiVector, A, degree, sums)


def _schouten_into(sums: Sums, P: MultiVector, Q: MultiVector) -> None:
    """Add the products of [P, Q] into ``sums``.  When P is Q (even degree)
    each unordered pair of monomials is bracketed once, with k = 2 off the
    diagonal.  The anchored derivatives of a stored component are taken in
    one sweep, the first time one is asked for, and kept by the component's
    key for the call (one memo per side, one in all when P is Q)."""
    A = P.algebroid
    p, q = P.degree, Q.degree
    same = P is Q
    swap = 1 if (p - 1) * (q - 1) % 2 else -1  # -(-1)^((p-1)(q-1))
    one = A.patch.one()
    anchor, brackets = A.anchor, A.brackets
    d_of_Q: Dict[Key, Dict[int, ExpPoly]] = {}
    d_of_P = d_of_Q if same else {}
    left = list(P.components.items())
    right = left if same else list(Q.components.items())
    for n, (I, f) in enumerate(left):
        for m in range(n if same else 0, len(right)):
            J, g = right[m]
            k = 2 if same and m > n else 1
            fg = None
            for a, i in enumerate(I):
                I_a = I[:a] + I[a + 1 :]
                for b, j in enumerate(J):
                    row = brackets.get((i, j) if i < j else (j, i))
                    rest = _wedge_keys(I_a, J[:b] + J[b + 1 :]) if row else None
                    if rest is None:
                        continue
                    sign, K = rest
                    sign *= k * (-1) ** (a + b)
                    if i > j:  # [e_i, e_j] = -[e_j, e_i]
                        sign = -sign
                    if fg is None:
                        fg = g if f is one else f if g is one else f * g
                    for mm, c in row:
                        placed = _wedge_keys((mm,), K)
                        if placed is not None:
                            s, key = placed
                            sums[key].append(product_term(s * sign, fg, c, one))
                if not anchor[i]:
                    continue
                placed = _wedge_keys(I_a, J)
                if placed is not None:
                    dg = _anchored(A, d_of_Q, J, g).get(i)
                    if dg is not None:
                        sign, key = placed
                        sign *= k * (-1) ** (p - 1 - a)
                        sums[key].append(product_term(sign, f, dg, one))
            for b, j in enumerate(J):
                if not anchor[j]:
                    continue
                placed = _wedge_keys(J[:b] + J[b + 1 :], I)
                if placed is not None:
                    df = _anchored(A, d_of_P, I, f).get(j)
                    if df is not None:
                        sign, key = placed
                        sign *= k * swap * (-1) ** (q - 1 - b)
                        sums[key].append(product_term(sign, g, df, one))


def _anchored(
    A: object, memo: Dict[Key, Dict[int, ExpPoly]], key: Key, value: ExpPoly
) -> Dict[int, ExpPoly]:
    """``A.anchor_derivs`` of the component ``value`` stored on ``key``,
    taken once through ``memo``."""
    d = memo.get(key)
    if d is None:
        d = memo[key] = A.anchor_derivs(value)
    return d


def phi0_schouten(J: object, D1: MultiVector, D2: MultiVector) -> MultiVector:
    """Twisted Schouten bracket: the plain bracket plus the twist corrections

        + (a1 - 1) D1 ^ iota(D2)  -  (-1)^(a1+1) (a2 - 1) iota(D1) ^ D2,

    with iota contraction by the twist and iota of a degree-0 section read
    as 0.  A zero twist contracts to zero sections, so the plain bracket is
    returned with no correction built.  The corrections are summed into the
    bracket's own products, so the result is built once.  When D1 is D2 the
    whole bracket is 0 in odd degree a, and in even degree the corrections
    are 2 (a - 1) D ^ iota(D) (module docstring)."""
    A, phi0 = _twist_of(J)
    if phi0 is None:
        raise MismatchError("phi0_schouten needs twist data")
    if D1.algebroid is not A or D2.algebroid is not A:
        raise MismatchError("sections live over different algebroids")
    if phi0.is_zero:
        return schouten(D1, D2)
    a1, a2 = D1.degree, D2.degree
    degree = a1 + a2 - 1
    same = D1 is D2
    if same and a1 % 2:
        return MultiVector.zero(A, degree)
    sums: Sums = defaultdict(list)
    if not A.is_trivial:
        _schouten_into(sums, D1, D2)
    if same:
        if a1 > 1:
            _wedge_into(sums, 2 * (a1 - 1), D1, contract(phi0, D1))
    else:
        if a1 != 1 and a2:
            _wedge_into(sums, a1 - 1, D1, contract(phi0, D2))
        if a2 != 1 and a1:
            sign = 1 if (a1 + 1) % 2 else -1  # -(-1)^(a1+1)
            _wedge_into(sums, sign * (a2 - 1), contract(phi0, D1), D2)
    return _built(MultiVector, A, degree, sums)


# -- direct sum with a trivial line: pair sections ------------------------


def _hat_index(A_ext: object) -> int:
    if A_ext.ext_base is None:
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
    return cls(base, u.degree, p_comps), cls(base, u.degree - 1, q_comps)


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
