"""Exact scalar arithmetic: finite sums of exp(k*t) times rational polynomials.

A value is  sum_k exp(k*t) * p_k(x1, ..., xn, t)  with integer weights k and
each p_k a polynomial over the rationals in the patch coordinates and the
formal variable t.  The representation

    terms: {weight k -> {packed exponent key -> int | Fraction}}

is canonical because nothing in the ring rewrites between powers of t and
exponentials: two values are equal iff their cleaned dicts are equal.  The
variable tuple always lists the coordinates first and ``t`` last.  A stored
coefficient is a nonzero ``int``, or a ``Fraction`` whose denominator is not
1; never a float.  Integers keep the common case in native arithmetic.

A monomial's exponents are packed into one int, a 16-bit field per
variable: the power of ``vars[i]`` is ``(key >> 16*i) & 0xFFFF``.  The
constant monomial is 0, the variable ``vars[i]`` is ``1 << 16*i``, the key
of a product is the sum of the keys, and lowering the power of ``vars[i]``
by one subtracts ``1 << 16*i``.  So a product forms no tuple and hashes one
int.  Every stored power is below 2**15, the top bit of its field, so the
sum of two keys never carries from one field into the next.  That bit of
every field is the guard: ``add_product`` tests it on each product key and
raises :class:`ExponentOverflow` (a ``ValueError``) before a key with a power
of 2**15 or more is stored, and the public constructor refuses such a
power.  Because the integer order of two keys is the lexicographic order
of their exponent tuples read from ``t`` down, the canonical order of
``__str__`` sorts on (degree, key).  ``monomials()`` is the one read-only
view of a value as (weight, exponent tuple, coefficient) triples in that
order; nothing outside this module reads the packed keys.

``ExpPoly(variables, {weight: {exponent tuple: c}})`` checks what it is
given and packs it once (the metaclass ``_Checked`` makes the class call
this constructor).  The ring's own operations build their results
through ``ExpPoly._make``, a trusted constructor private to this module.  It
is given only packed terms the ring built itself from values over the same
variables, so it skips those checks and relies on the invariant above.
Both paths store the value through ``__init__``, which drops zero
coefficients and empty weights and turns a ``Fraction(n, 1)`` into ``n``;
every value built is one ``__init__`` call.

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

A nonzero exp weight needs ``t`` among the variables: the public
constructor, ``exp`` and ``times_exp`` refuse one over a tuple without
``t``, so every value can be differentiated along the variable its weights
depend on.

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
from typing import Dict, Iterable, Iterator, Optional, Sequence, Tuple, Union

Exponent = Tuple[int, ...]
Scalar = Union[int, Fraction]
PolyDict = Dict[int, Scalar]  # packed exponent key -> coefficient
TermsDict = Dict[int, PolyDict]

BITS = 16  # bits per variable in a packed exponent key
FIELD = (1 << BITS) - 1
MAX_POWER = (1 << (BITS - 1)) - 1  # the guard bit of a field stays clear


class NotInvertible(ArithmeticError):
    """Raised when an exact inverse does not exist in the ring."""


class VariableSetMismatch(ValueError):
    """Raised when two values over different variable tuples are combined."""


class UnknownVariable(ValueError):
    """Raised when a name is not among a value's variables."""


class ExponentOverflow(ValueError):
    """Raised when the power of one variable would exceed ``MAX_POWER``."""


class _Guards(dict):
    """The guard mask of n variables, the top bit of each of n fields, by n."""

    def __missing__(self, n: int) -> int:
        mask = self[n] = sum(1 << (BITS * i + BITS - 1) for i in range(n))
        return mask


_GUARD = _Guards()


def _unpack(key: int, n: int) -> Exponent:
    return tuple((key >> (BITS * i)) & FIELD for i in range(n))


def _overflow(variables: Sequence[str], key: int) -> ExponentOverflow:
    """The error for a product key whose guard bits are set."""
    names = [v for v, power in zip(variables, _unpack(key, len(variables)))
             if power > MAX_POWER]
    return ExponentOverflow(
        f"the power of {', '.join(names)} exceeds {MAX_POWER}"
    )


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


def _packed(variables: Tuple[str, ...], terms: Dict) -> TermsDict:
    """The terms given to the public constructor, checked and packed:
    integer weights, exponent tuples as long as ``variables`` of powers in
    0..MAX_POWER, int or Fraction coefficients."""
    out: TermsDict = {}
    for weight, poly in terms.items():
        weight = _weight(weight)
        if weight and any(poly.values()):
            _needs_t(variables)
        packed = out[weight] = {}
        for e, c in poly.items():
            if len(e) != len(variables):
                raise ValueError(f"exponent {e} does not match variables {variables}")
            key = 0
            for i, power in enumerate(e):
                if not isinstance(power, int):
                    raise TypeError(f"exponent {e} holds a non-integer")
                if power < 0:
                    raise ValueError(f"exponent {e} holds a negative power")
                if power > MAX_POWER:
                    raise ExponentOverflow(
                        f"exponent {e} holds a power above {MAX_POWER}"
                    )
                key += power << (BITS * i)
            _rational(c)
            packed[key] = c
    return out


def add_product(
    terms: TermsDict, k: int, a: "ExpPoly", b: Optional["ExpPoly"] = None
) -> None:
    """Add ``k * a * b``, or ``k * a`` when ``b`` is None, into the raw
    buffer ``terms`` in place; ``k`` is a small int.

    A key the buffer does not hold yet stores the product itself, with no
    ``0 +`` in front.  A weight the buffer does not hold yet gets a fresh
    dict, never an operand's own, so the operands are not changed when the
    buffer is.  A product key is the sum of its factors' keys; it raises
    :class:`ExponentOverflow` when a guard bit is set, before it is stored.
    Zero coefficients and empty weights are left for ``ExpPoly._make`` to
    drop.  The operands must be over the variables the buffer is built for;
    the caller checks that, as for ``_make``.
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
    guard = _GUARD[len(a.vars)]
    for ka, pa in a.terms.items():
        for kb, pb in b.terms.items():
            acc = terms.get(ka + kb)
            if acc is None:
                acc = terms[ka + kb] = {}
            get = acc.get
            for ea, ca in pa.items():
                if k != 1:
                    ca = k * ca
                for eb, cb in pb.items():
                    key = ea + eb
                    if key & guard:
                        raise _overflow(a.vars, key)
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


class _Checked(type):
    """Calling ``ExpPoly(variables, {weight: {exponent tuple: c}})`` checks
    and packs the terms once (``_packed``) and stores them through
    ``_make``; the class call never reaches ``__init__`` unpacked."""

    def __call__(cls, variables: Sequence[str], terms: Dict) -> "ExpPoly":
        variables = tuple(variables)
        return cls._make(variables, _packed(variables, terms))


class ExpPoly(metaclass=_Checked):
    """One element of the coefficient ring, canonical by construction."""

    __slots__ = ("vars", "terms")

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
                clean[weight] = kept
        object.__setattr__(self, "vars", tuple(variables))
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _make(cls, variables: Tuple[str, ...], terms: TermsDict) -> "ExpPoly":
        """Trusted constructor for terms the ring built itself from values over
        ``variables``: int weights, packed exponent keys with every power at
        most ``MAX_POWER``, coefficients int or Fraction.  Skips the checks
        of the public constructor and goes straight to ``__init__``."""
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
        return cls._make(tuple(variables), {0: {0: _coefficient(value)}})

    @classmethod
    def var(cls, variables: Tuple[str, ...], name: str) -> "ExpPoly":
        if name not in variables:
            raise UnknownVariable(f"{name!r} is not one of {variables}")
        key = 1 << (BITS * variables.index(name))
        return cls._make(tuple(variables), {0: {key: 1}})

    @classmethod
    def exp(cls, variables: Tuple[str, ...], weight: int) -> "ExpPoly":
        """The unit exp(weight * t)."""
        weight = _weight(weight)
        if weight:
            _needs_t(variables)
        return cls._make(tuple(variables), {weight: {0: 1}})

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
                if not e:
                    continue  # a constant
                for idx in within:
                    shift = BITS * idx
                    power = (e >> shift) & FIELD
                    if power:
                        acc = here.get(idx)
                        if acc is None:
                            acc = here[idx] = {}
                            lowered.setdefault(idx, {})[weight] = acc
                        # lowering one variable's power sends distinct
                        # monomials to distinct keys
                        acc[e - (1 << shift)] = c * power
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
        shift = BITS * self.vars.index(name)
        unit = 1 << shift
        terms: TermsDict = {}
        for weight, poly in self.terms.items():
            # lowering the power of one variable sends distinct monomials to
            # distinct keys; only the exp weight of d/dt can meet one of them
            acc = terms[weight] = {
                e - unit: c * ((e >> shift) & FIELD)
                for e, c in poly.items() if (e >> shift) & FIELD
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
        return len(poly) == 1 and 0 in poly

    def unit_parts(self) -> Tuple[Scalar, int]:
        """``(q, k)`` of a unit q * exp(k*t); NotInvertible for a non-unit."""
        if not self.is_unit():
            raise NotInvertible(f"{self} is not a unit in the ring")
        ((weight, poly),) = self.terms.items()
        (q,) = poly.values()
        return q, weight

    def unit_inverse(self) -> "ExpPoly":
        q, weight = self.unit_parts()
        inverse = Fraction(1) / q  # 1 / c is a float for an int c
        return ExpPoly._make(self.vars, {-weight: {0: inverse}})

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

    def monomials(self) -> Iterator[Tuple[int, Exponent, Scalar]]:
        """(weight, exponent tuple, coefficient) of every stored monomial,
        in the canonical order of ``__str__``: weights ascending; within a
        weight graded order first, then lexicographic with t the most
        significant variable (variable order x1 < ... < xn < t), leading
        term first.  A packed key orders as its exponent tuple read from t
        down, so it breaks the ties of the degree."""
        n = len(self.vars)
        for weight in sorted(self.terms):
            poly = self.terms[weight]
            unpacked = [(_unpack(key, n), key) for key in poly]
            unpacked.sort(key=lambda item: (sum(item[0]), item[1]), reverse=True)
            for e, key in unpacked:
                yield weight, e, poly[key]

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
        pieces = []
        for weight, e, c in self.monomials():
            text = self._term_text(weight, e, c)
            if not pieces:
                pieces.append(text if c > 0 else f"-{text}")
            else:
                pieces.append(f"+ {text}" if c > 0 else f"- {text}")
        return " ".join(pieces) if pieces else "0"

    def __repr__(self) -> str:
        return f"ExpPoly({self})"

    def __bool__(self) -> bool:
        return bool(self.terms)
