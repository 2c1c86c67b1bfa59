"""Exact scalar arithmetic: finite sums of exp(k*t) times rational polynomials.

A value is  sum_k exp(k*t) * p_k(x1, ..., xn, t)  with integer weights k and
each p_k a polynomial over the rationals in the patch coordinates and the
formal variable t.  The representation

    terms: {weight k -> {exponent tuple -> int | Fraction}}

is canonical because nothing in the ring rewrites between powers of t and
exponentials: two values are equal iff their cleaned dicts are equal.  The
variable tuple always lists the coordinates first and ``t`` last, and every
exponent tuple has the same length as the variable tuple.  A stored
coefficient is a nonzero ``int``, or a ``Fraction`` whose denominator is not
1; never a float.  Integers keep the common case in native arithmetic.

``ExpPoly(variables, terms)`` validates what it is given in ``__new__``.  The
ring's own operations build their results through ``ExpPoly._make``, a
trusted constructor private to this module.  It is given only terms the ring
built itself from values over the same variables, so it skips those checks
and relies on the invariant above.  Both paths store the value through
``__init__``, which drops zero coefficients and empty weights and turns a
``Fraction(n, 1)`` into ``n``; every value built is one ``__init__`` call.

Every sum and product is formed by one kernel, ``add_product(terms, k, a,
b)``, which adds k * a * b (or k * a) into a raw ``TermsDict`` in place; the
finished buffer becomes one value through ``_make``.  ``+``, ``-`` and
``*`` are one buffer each, and ``sum_products`` takes a whole signed sum of
products (a list of ``(k, a, b)``) to one value.  The callers in
``calculus``, ``algebroid`` and ``structures`` collect their products per
output component and build each component once.

No operation builds a value it throws away, partial sums included: a sum
of n products is one value, not n products and n - 1 partial sums.
``a - b`` subtracts in one pass and builds one value, not ``-b`` and then
the sum; ``+`` and ``*`` return an operand as it is when the other is zero,
and so does ``a - 0``; a lone unscaled term of ``sum_products`` is returned
as it is.  ``partials(within)`` takes the derivatives along several
variables in one sweep over the monomials and keeps only the nonzero ones,
so a caller that differentiates along a whole anchor builds nothing for a
variable the value does not involve and reads no monomial twice.

A nonzero exp weight needs ``t`` among the variables: ``__new__``,
``exp`` and ``times_exp`` refuse one over a tuple without ``t``, so every
value can be differentiated along the variable its weights depend on.

This ring is not a field.  The only invertible elements are q * exp(k*t) with
q a nonzero rational; ``unit_inverse`` raises :class:`NotInvertible` for
anything else (including honest polynomials like 1 + x1).  ``unit_parts``
reads q and k off a unit, and ``denominator`` the common denominator of a
value's coefficients, so that callers outside this module can keep their
arithmetic over the integers without reading ``terms``.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import add
from typing import Dict, Iterable, Optional, Sequence, Tuple, Union

Exponent = Tuple[int, ...]
Scalar = Union[int, Fraction]
PolyDict = Dict[Exponent, Scalar]
TermsDict = Dict[int, PolyDict]


class NotInvertible(ArithmeticError):
    """Raised when an exact inverse does not exist in the ring."""


class VariableSetMismatch(ValueError):
    """Raised when two values over different variable tuples are combined."""


class UnknownVariable(ValueError):
    """Raised when a name is not among a value's variables."""


def _rational(value: Scalar) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an int or Fraction, got {value!r}")


def _coefficient(value: Scalar) -> Scalar:
    """An exact scalar in stored form: an int when integral, else a Fraction."""
    c = _rational(value)
    return c.numerator if c.denominator == 1 else c


def _weight(value: Scalar) -> int:
    if isinstance(value, int):
        return int(value)
    if not isinstance(value, Fraction):
        raise TypeError(f"expected an integer exp weight, got {value!r}")
    if value.denominator != 1:
        raise ValueError(f"exp weight {value} is not an integer")
    return value.numerator


def _needs_t(variables: Sequence[str]) -> None:
    if "t" not in variables:
        raise ValueError(
            f"a nonzero exp weight needs 't' among the variables {tuple(variables)}"
        )


def add_product(
    terms: TermsDict, k: int, a: "ExpPoly", b: Optional["ExpPoly"] = None
) -> None:
    """Add ``k * a * b``, or ``k * a`` when ``b`` is None, into the raw
    buffer ``terms`` in place; ``k`` is a small int.

    A key the buffer does not hold yet stores the product itself, with no
    ``0 +`` in front.  A weight the buffer does not hold yet gets a fresh
    dict, never an operand's own, so the operands are not changed when the
    buffer is.  A monomial with no variable in it (a constant, or a unit
    q * exp(k*t)) shifts no exponent, so it forms no exponent tuple.  Zero
    coefficients and empty weights are left for ``ExpPoly._make`` to drop.
    The operands must be over the variables the buffer is built for; the
    caller checks that, as for ``_make``.
    """
    if b is None:
        for weight, poly in a.terms.items():
            acc = terms.get(weight)
            if acc is None:
                terms[weight] = (
                    dict(poly) if k == 1 else {e: k * c for e, c in poly.items()}
                )
                continue
            get = acc.get
            if k == 1:
                for e, c in poly.items():
                    old = get(e)
                    acc[e] = c if old is None else old + c
            elif k == -1:
                for e, c in poly.items():
                    old = get(e)
                    acc[e] = -c if old is None else old - c
            else:
                for e, c in poly.items():
                    old = get(e)
                    acc[e] = k * c if old is None else old + k * c
        return
    for ka, pa in a.terms.items():
        for kb, pb in b.terms.items():
            acc = terms.get(ka + kb)
            if acc is None:
                acc = terms[ka + kb] = {}
            get = acc.get
            for ea, ca in pa.items():
                if k != 1:
                    ca = k * ca
                shifts = any(ea)
                for eb, cb in pb.items():
                    key = tuple(map(add, ea, eb)) if shifts else eb
                    value = ca * cb
                    old = get(key)
                    acc[key] = value if old is None else old + value


Product = Tuple[int, "ExpPoly", Optional["ExpPoly"]]


def product_term(k: int, a: "ExpPoly", b: "ExpPoly", one: "ExpPoly") -> Product:
    """The term k * a * b of ``sum_products``, with no factor equal to
    ``one`` (the constant 1), so that 1 times a value forms no product."""
    if a == one:
        return k, b, None
    return (k, a, None) if b == one else (k, a, b)


def sum_products(variables: Tuple[str, ...], products: Sequence[Product]) -> "ExpPoly":
    """The sum of ``k * a * b`` (``k * a`` when ``b`` is None) over
    ``products``, built as one value through ``add_product``.  A lone
    ``(1, a, None)`` is ``a`` itself and builds nothing.  Every operand must
    be over ``variables``; the caller checks that."""
    if len(products) == 1:
        k, a, b = products[0]
        if k == 1 and b is None:
            return a
    terms: TermsDict = {}
    for k, a, b in products:
        add_product(terms, k, a, b)
    return ExpPoly._make(variables, terms)


class ExpPoly:
    """One element of the coefficient ring, canonical by construction."""

    __slots__ = ("vars", "terms")

    def __new__(cls, variables: Tuple[str, ...], terms: TermsDict) -> "ExpPoly":
        # The checks of the public constructor; ``_make`` skips them.
        for weight, poly in terms.items():
            if _weight(weight) and any(poly.values()):
                _needs_t(variables)
            for e, c in poly.items():
                if len(e) != len(variables):
                    raise ValueError(
                        f"exponent {e} does not match variables {tuple(variables)}"
                    )
                for power in e:
                    if not isinstance(power, int):
                        raise TypeError(f"exponent {e} holds a non-integer")
                    if power < 0:
                        raise ValueError(f"exponent {e} holds a negative power")
                _rational(c)
        return object.__new__(cls)

    def __init__(self, variables: Tuple[str, ...], terms: TermsDict):
        # Every value, checked or trusted, is stored here: zero coefficients
        # and empty weights are dropped, integral Fractions become ints.
        clean: TermsDict = {}
        for weight, poly in terms.items():
            kept = {
                e: c if c.__class__ is int or c.denominator != 1 else c.numerator
                for e, c in poly.items() if c
            }
            if kept:
                clean[int(weight)] = kept
        object.__setattr__(self, "vars", tuple(variables))
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _make(cls, variables: Tuple[str, ...], terms: TermsDict) -> "ExpPoly":
        """Trusted constructor for terms the ring built itself from values over
        ``variables``: integer weights, exponent tuples of the right length,
        coefficients int or Fraction.  Skips the checks of ``__new__`` and
        goes straight to ``__init__``."""
        self = object.__new__(cls)
        self.__init__(variables, terms)
        return self

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("ExpPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, variables: Tuple[str, ...]) -> "ExpPoly":
        return cls._make(tuple(variables), {})

    @classmethod
    def const(cls, variables: Tuple[str, ...], value: Scalar) -> "ExpPoly":
        unit = (0,) * len(variables)
        return cls._make(tuple(variables), {0: {unit: _coefficient(value)}})

    @classmethod
    def var(cls, variables: Tuple[str, ...], name: str) -> "ExpPoly":
        if name not in variables:
            raise UnknownVariable(f"{name!r} is not one of {variables}")
        exp = tuple(1 if v == name else 0 for v in variables)
        return cls._make(tuple(variables), {0: {exp: 1}})

    @classmethod
    def exp(cls, variables: Tuple[str, ...], weight: int) -> "ExpPoly":
        """The unit exp(weight * t)."""
        weight = _weight(weight)
        if weight:
            _needs_t(variables)
        unit = (0,) * len(variables)
        return cls._make(tuple(variables), {weight: {unit: 1}})

    # -- ring structure ----------------------------------------------------

    def _coerce(self, other: object) -> "ExpPoly":
        if isinstance(other, ExpPoly):
            if self.vars != other.vars:
                raise VariableSetMismatch(
                    f"cannot combine values over {self.vars} and {other.vars}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return ExpPoly.const(self.vars, other)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other: object) -> "ExpPoly":
        rhs = self._coerce(other)
        if rhs is NotImplemented:
            return NotImplemented
        return self._combine(rhs, False)

    __radd__ = __add__

    def __neg__(self) -> "ExpPoly":
        return ExpPoly._make(
            self.vars,
            {k: {e: -c for e, c in p.items()} for k, p in self.terms.items()},
        )

    def __sub__(self, other: object) -> "ExpPoly":
        rhs = self._coerce(other)
        if rhs is NotImplemented:
            return NotImplemented
        return self._combine(rhs, True)

    def __rsub__(self, other: object) -> "ExpPoly":
        rhs = self._coerce(other)
        if rhs is NotImplemented:
            return NotImplemented
        return rhs._combine(self, True)

    def _combine(self, rhs: "ExpPoly", subtract: bool) -> "ExpPoly":
        """``self + rhs``, or ``self - rhs`` when ``subtract``, in one pass
        that builds one value; a zero operand builds none, except the
        negated ``rhs`` of ``0 - rhs``."""
        if not rhs.terms:
            return self
        if not self.terms:
            return -rhs if subtract else rhs
        terms: TermsDict = {}
        add_product(terms, 1, self)
        add_product(terms, -1 if subtract else 1, rhs)
        return ExpPoly._make(self.vars, terms)

    def __mul__(self, other: object) -> "ExpPoly":
        rhs = self._coerce(other)
        if rhs is NotImplemented:
            return NotImplemented
        if not self.terms:
            return self
        if not rhs.terms:
            return rhs
        terms: TermsDict = {}
        add_product(terms, 1, self, rhs)
        return ExpPoly._make(self.vars, terms)

    __rmul__ = __mul__

    def __pow__(self, power: int) -> "ExpPoly":
        if not isinstance(power, int) or power < 0:
            raise ValueError(f"only nonnegative integer powers, got {power!r}")
        out = ExpPoly.const(self.vars, 1)
        for _ in range(power):
            out = out * self
        return out

    def times_exp(self, weight: int) -> "ExpPoly":
        """Multiply by the unit exp(weight * t): shifts every weight."""
        weight = _weight(weight)
        if weight and self.terms:
            _needs_t(self.vars)
        return ExpPoly._make(
            self.vars, {k + weight: p for k, p in self.terms.items()}
        )

    # -- calculus ----------------------------------------------------------

    def partials(self, within: Iterable[int]) -> Dict[int, "ExpPoly"]:
        """``{i: d/d(vars[i]) of self}`` for the variable indices ``within``,
        nonzero derivatives only, taken in one sweep over the monomials.

        The derivative along ``t`` (found by name) also differentiates the
        exp weights, as ``diff`` does.  It is never zero on a nonzero
        weight: on exp(k*t) * p with k != 0 the t-degree of k*p exceeds that
        of dp/dt, so the two never cancel.
        """
        within = tuple(within)
        lowered: Dict[int, TermsDict] = {}
        for weight, poly in self.terms.items():
            here: Dict[int, PolyDict] = {}  # this weight's buffer per index
            for e, c in poly.items():
                for idx in within:
                    power = e[idx]
                    if power:
                        acc = here.get(idx)
                        if acc is None:
                            acc = here[idx] = {}
                            lowered.setdefault(idx, {})[weight] = acc
                        # lowering one variable's power sends distinct
                        # monomials to distinct keys
                        acc[e[:idx] + (power - 1,) + e[idx + 1 :]] = c * power
        t = self.vars.index("t") if "t" in self.vars else None
        if t in within:
            for weight, poly in self.terms.items():
                if weight:
                    acc = lowered.setdefault(t, {}).setdefault(weight, {})
                    for e, c in poly.items():
                        old = acc.get(e)
                        acc[e] = c * weight if old is None else old + c * weight
        return {idx: ExpPoly._make(self.vars, terms) for idx, terms in lowered.items()}

    def diff(self, name: str) -> "ExpPoly":
        """Partial derivative.  d/dt also differentiates the exp weights:
        exp(k*t) * p  ->  exp(k*t) * (k*p + dp/dt)."""
        if name not in self.vars:
            raise UnknownVariable(f"{name!r} is not one of {self.vars}")
        idx = self.vars.index(name)
        terms: TermsDict = {}
        for weight, poly in self.terms.items():
            # lowering the power of one variable sends distinct monomials to
            # distinct keys; only the exp weight of d/dt can meet one of them
            acc = terms[weight] = {
                e[:idx] + (e[idx] - 1,) + e[idx + 1 :]: c * e[idx]
                for e, c in poly.items() if e[idx]
            }
            if weight and name == "t":
                for e, c in poly.items():
                    old = acc.get(e)
                    acc[e] = c * weight if old is None else old + c * weight
        return ExpPoly._make(self.vars, terms)

    # -- predicates and inversion -----------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def is_unit(self) -> bool:
        """True iff the value is q * exp(k*t) with q a nonzero rational."""
        if len(self.terms) != 1:
            return False
        (poly,) = self.terms.values()
        unit = tuple(0 for _ in self.vars)
        return set(poly) == {unit}

    def unit_parts(self) -> Tuple[Scalar, int]:
        """``(q, k)`` of a unit q * exp(k*t); NotInvertible for a non-unit."""
        if not self.is_unit():
            raise NotInvertible(f"{self} is not a unit in the ring")
        ((weight, poly),) = self.terms.items()
        (q,) = poly.values()
        return q, weight

    def unit_inverse(self) -> "ExpPoly":
        q, weight = self.unit_parts()
        unit = tuple(0 for _ in self.vars)
        inverse = Fraction(1) / q  # 1 / c is a float for an int c
        return ExpPoly._make(self.vars, {-weight: {unit: inverse}})

    def denominator(self) -> int:
        """The least common multiple of the coefficient denominators: 1 when
        every coefficient is an integer."""
        d = 1
        for poly in self.terms.values():
            for c in poly.values():
                if c.__class__ is not int:
                    d = lcm(d, c.denominator)
        return d

    # -- canonical order and text form ------------------------------------

    def _sorted_monomials(self, poly: PolyDict) -> Iterable[Exponent]:
        # Graded order first, then lexicographic with t the most significant
        # variable (variable order x1 < ... < xn < t); leading term printed
        # first.
        return sorted(
            poly, key=lambda e: (sum(e), tuple(reversed(e))), reverse=True
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExpPoly):
            if isinstance(other, (int, Fraction)):
                return self == ExpPoly.const(self.vars, other)
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def negates(self, other: "ExpPoly") -> bool:
        """``self == -other``, read from the stored terms without building
        ``-other``."""
        if self.vars != other.vars or self.terms.keys() != other.terms.keys():
            return False
        for weight, poly in self.terms.items():
            theirs = other.terms[weight]
            if poly.keys() != theirs.keys():
                return False
            if any(c != -theirs[e] for e, c in poly.items()):
                return False
        return True

    def __hash__(self) -> int:
        frozen = frozenset(
            (k, frozenset(p.items())) for k, p in self.terms.items()
        )
        return hash((self.vars, frozen))

    def _term_text(self, weight: int, e: Exponent, c: Fraction) -> str:
        factors = []
        for name, power in zip(self.vars, e):
            if power == 1:
                factors.append(name)
            elif power > 1:
                factors.append(f"{name}^{power}")
        if weight == 1:
            factors.append("exp(t)")
        elif weight == -1:
            factors.append("exp(-t)")
        elif weight:
            factors.append(f"exp({weight}*t)")
        mag = abs(c)
        if mag != 1 or not factors:
            factors.insert(0, str(mag))
        return "*".join(factors)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for weight in sorted(self.terms):
            poly = self.terms[weight]
            for e in self._sorted_monomials(poly):
                c = poly[e]
                text = self._term_text(weight, e, c)
                if not pieces:
                    pieces.append(text if c > 0 else f"-{text}")
                else:
                    pieces.append(f"+ {text}" if c > 0 else f"- {text}")
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"ExpPoly({self})"

    def __bool__(self) -> bool:
        return bool(self.terms)
