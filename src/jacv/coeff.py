"""Exact scalar arithmetic: finite sums of exp(k*t) times rational polynomials.

A value is  sum_k exp(k*t) * p_k(x1, ..., xn, t)  with integer weights k and
each p_k a polynomial over the rationals in the patch coordinates and the
formal variable t.  A value stores one flat dict

    _terms: {term key -> int | Fraction}

and it is canonical because nothing in the ring rewrites between powers of
t and exponentials: two values are equal iff their cleaned dicts are equal.
The variable tuple always lists the coordinates first and ``t`` last.  A
stored coefficient is a nonzero ``int``, or a ``Fraction`` whose
denominator is not 1; never a float.  Integers keep the common case in
native arithmetic.

A term key packs a monomial's exponents and its exp weight into one int.
Each of the n = ``len(vars)`` variables has a 16-bit field: the power of
``vars[i]`` is ``(key >> 16*i) & 0xFFFF``.  The weight sits above the n
fields, ``key = exponents + (weight << 16*n)``: ``key >> 16*n`` reads it
back and ``key & ((1 << 16*n) - 1)`` reads the exponents.  The weight is
signed and needs no width limit, because Python's shifts and masks act on
an int as on an infinite two's complement: the low 16n bits of a key with
a negative weight are still its exponents, and ``>>`` floors back to the
weight.  The constant 1 is the key 0, ``vars[i]`` is ``1 << 16*i`` and
exp(k*t) is ``k << 16*n``.  Weights add under multiplication as exponents
do, so the key of a product is the sum of the keys; lowering the power of
``vars[i]`` by one subtracts ``1 << 16*i`` and leaves the weight as it is.
So a product forms no tuple, hashes one int and fills one dict.

Every stored power is below 2**15, the top bit of its field, so the sum of
two keys never carries from one field into the next, nor from the top
field into the weight.  That bit of every field is the guard:
``add_product`` tests ``key & guard`` on each product key, which reads only
the exponent fields whatever the sign of the weight, and raises
:class:`ExponentOverflow` (a ``ValueError``) before a key with a power of
2**15 or more is stored; the public constructor refuses such a power.  The
canonical order of ``__str__`` is weights ascending, then degree and
exponent bits descending; the integer order of the exponent bits is the
lexicographic order of the exponent tuples read from ``t`` down.
``monomials()`` is the one read-only view of a value as (weight, exponent
tuple, coefficient) triples in that order; nothing outside this module
reads the keys.  The property ``terms`` regroups them on each read into
the public constructor's form ``{weight: {exponent tuple: c}}``, for the
benchmark's tracer, which counts the monomials of each factor through it;
the ring never reads it.

``ExpPoly(variables, {weight: {exponent tuple: c}})`` checks what it is
given and packs it once (the metaclass ``_Checked`` makes the class call
this constructor).  The ring's own operations build their results
through ``ExpPoly._make``, a trusted constructor private to this module.  It
is given only packed terms the ring built itself from values over the same
variables, so it skips those checks and relies on the invariant above.
Both paths store the value through ``__init__``, which drops zero
coefficients and turns a ``Fraction(n, 1)`` into ``n``; every value built
is one ``__init__`` call.

Every sum and product is formed by one kernel, ``add_product(terms, k, a,
b)``, which adds k * a * b (or k * a) into a raw ``TermsDict`` in place; the
finished buffer becomes one value through ``_make``.  ``+``, ``-`` and
``*`` are one buffer each, and ``sum_products`` takes a whole signed sum of
products (a nonempty list of ``(k, a, b)``) to one value over the variables
of its first operand.  The callers in ``calculus``, ``algebroid``,
``structures`` and ``dirac`` collect their products per output component
and build each component once.  The kernel is the one place that skips a
factor 1: it drops an operand whose stored terms are the constant 1, so a
caller hands it every product as it comes, 1s included, and 1 times a
value forms no product.

No operation builds a value it throws away, partial sums included: a sum
of n products is one value, not n products and n - 1 partial sums.
``a - b`` subtracts in one pass and builds one value, not ``-b`` and then
the sum; ``+`` and ``*`` return an operand as it is when the other is zero,
and so does ``a - 0``; ``*`` returns the other operand when one is 1; a
lone unscaled term of ``sum_products`` whose other factor is absent or 1
is returned as it is.  ``partials(within)`` takes the derivatives along several
variables in one sweep over the monomials and keeps only the nonzero ones,
so a caller that differentiates along a whole anchor builds nothing for a
variable the value does not involve and reads no monomial twice.
``diff(name)`` is ``partials`` along one variable, with a zero value for a
zero derivative.

A nonzero exp weight needs ``t`` among the variables: the public
constructor, ``exp`` and ``times_exp`` refuse one over a tuple without
``t``, so every value can be differentiated along the variable its weights
depend on.

This ring is not a field.  The only invertible elements are q * exp(k*t) with
q a nonzero rational.  ``unit_parts`` reads q and k off a unit and raises
:class:`NotInvertible` for anything else (including honest polynomials like
1 + x1), and ``denominator`` reads the common denominator of a value's
coefficients, so that callers outside this module can keep their
arithmetic over the integers without reading the monomials.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Dict, Iterable, Iterator, Optional, Sequence, Tuple, Union

Exponent = Tuple[int, ...]
Scalar = Union[int, Fraction]
TermsDict = Dict[int, Scalar]  # term key -> coefficient

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
_ONE = {0: 1}  # the stored terms of the constant 1, over any variables


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
    top = BITS * len(variables)
    for weight, poly in terms.items():
        weight = _weight(weight)
        if weight and any(poly.values()):
            _needs_t(variables)
        for e, c in poly.items():
            if len(e) != len(variables):
                raise ValueError(f"exponent {e} does not match variables {variables}")
            key = weight << top
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
            out[key] = c
    return out


def add_product(
    terms: TermsDict, k: int, a: "ExpPoly", b: Optional["ExpPoly"] = None
) -> None:
    """Add ``k * a * b``, or ``k * a`` when ``b`` is None, into the raw
    buffer ``terms`` in place; ``k`` is a small int.

    A factor whose stored terms are the constant 1 is dropped, so 1 times a
    value forms no product.  A key the buffer does not hold yet stores the
    product itself, with no ``0 +`` in front; an empty buffer takes a copy
    of ``k * a`` whole.  The buffer is never an operand's own dict, so the
    operands are not changed when it is.  A product key is the sum of its
    factors' keys; it raises :class:`ExponentOverflow` when a guard bit is
    set, before it is stored.  Zero coefficients are left for
    ``ExpPoly._make`` to drop.  The operands must be over the variables the
    buffer is built for; the caller checks that, as for ``_make``.
    """
    if b is not None:
        if a._terms == _ONE:
            a, b = b, None
        elif b._terms == _ONE:
            b = None
    get = terms.get
    if b is None:
        if not terms:
            terms.update(a._terms if k == 1 else {e: k * c for e, c in a._terms.items()})
        elif k == 1:
            for e, c in a._terms.items():
                old = get(e)
                terms[e] = c if old is None else old + c
        elif k == -1:
            for e, c in a._terms.items():
                old = get(e)
                terms[e] = -c if old is None else old - c
        else:
            for e, c in a._terms.items():
                old = get(e)
                terms[e] = k * c if old is None else old + k * c
        return
    guard = _GUARD[len(a.vars)]
    pb = b._terms.items()
    for ea, ca in a._terms.items():
        if k != 1:
            ca = k * ca
        for eb, cb in pb:
            key = ea + eb
            if key & guard:
                raise _overflow(a.vars, key)
            value = ca * cb
            old = get(key)
            terms[key] = value if old is None else old + value


Product = Tuple[int, "ExpPoly", Optional["ExpPoly"]]


def sum_products(products: Sequence[Product]) -> "ExpPoly":
    """The sum of ``k * a * b`` (``k * a`` when ``b`` is None) over the
    nonempty ``products``, built as one value through ``add_product``, over
    the variables of the first operand.  A lone unscaled term whose other
    factor is absent or 1 is that factor itself and builds nothing.  Every
    operand must be over the same variables; the caller checks that."""
    k, a, b = products[0]
    if len(products) == 1 and k == 1:
        if b is None or b._terms == _ONE:
            return a
        if a._terms == _ONE:
            return b
    variables = a.vars
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

    __slots__ = ("vars", "_terms")

    def __init__(self, variables: Tuple[str, ...], terms: TermsDict):
        # Every value, checked or trusted, is stored here: zero coefficients
        # are dropped, integral Fractions become ints.
        object.__setattr__(self, "vars", tuple(variables))
        object.__setattr__(self, "_terms", {
            e: c if c.__class__ is int or c.denominator != 1 else c.numerator
            for e, c in terms.items() if c
        })

    @classmethod
    def _make(cls, variables: Tuple[str, ...], terms: TermsDict) -> "ExpPoly":
        """Trusted constructor for terms the ring built itself from values over
        ``variables``: term keys with every power at most ``MAX_POWER``,
        coefficients int or Fraction.  Skips the checks of the public
        constructor and goes straight to ``__init__``."""
        self = object.__new__(cls)
        self.__init__(variables, terms)
        return self

    @property
    def terms(self) -> Dict[int, Dict[Exponent, Scalar]]:
        """``{weight: {exponent tuple: c}}``, the public constructor's form,
        built from the stored keys on each read, so that
        ``ExpPoly(value.vars, value.terms) == value``.  It calls no public
        method, which the benchmark's tracer would time as a ring call."""
        n = len(self.vars)
        top = BITS * n
        grouped: Dict[int, Dict[Exponent, Scalar]] = {}
        for key, c in self._terms.items():
            grouped.setdefault(key >> top, {})[_unpack(key, n)] = c
        return grouped

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("ExpPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, variables: Tuple[str, ...]) -> "ExpPoly":
        return cls._make(tuple(variables), {})

    @classmethod
    def const(cls, variables: Tuple[str, ...], value: Scalar) -> "ExpPoly":
        return cls._make(tuple(variables), {0: _coefficient(value)})

    @classmethod
    def var(cls, variables: Tuple[str, ...], name: str) -> "ExpPoly":
        if name not in variables:
            raise UnknownVariable(f"{name!r} is not one of {variables}")
        key = 1 << (BITS * variables.index(name))
        return cls._make(tuple(variables), {key: 1})

    @classmethod
    def exp(cls, variables: Tuple[str, ...], weight: int) -> "ExpPoly":
        """The unit exp(weight * t)."""
        weight = _weight(weight)
        if weight:
            _needs_t(variables)
        return cls._make(tuple(variables), {weight << (BITS * len(variables)): 1})

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
        return ExpPoly._make(self.vars, {e: -c for e, c in self._terms.items()})

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
        if not rhs._terms:
            return self
        if not self._terms:
            return -rhs if subtract else rhs
        terms: TermsDict = {}
        add_product(terms, 1, self)
        add_product(terms, -1 if subtract else 1, rhs)
        return ExpPoly._make(self.vars, terms)

    def __mul__(self, other: object) -> "ExpPoly":
        rhs = self._coerce(other)
        if rhs is NotImplemented:
            return NotImplemented
        if not self._terms:
            return self
        if not rhs._terms or self._terms == _ONE:
            return rhs
        if rhs._terms == _ONE:
            return self
        terms: TermsDict = {}
        add_product(terms, 1, self, rhs)
        return ExpPoly._make(self.vars, terms)

    __rmul__ = __mul__

    def __pow__(self, power: int) -> "ExpPoly":
        if not isinstance(power, int) or power < 0:
            raise ValueError(f"only nonnegative integer powers, got {power!r}")
        # repeated squaring: at most 2 * log2(power) products
        out: Optional[ExpPoly] = None
        base = self
        while power:
            if power & 1:
                out = base if out is None else out * base
            power >>= 1
            if power:
                base = base * base
        return ExpPoly.const(self.vars, 1) if out is None else out

    def times_exp(self, weight: int) -> "ExpPoly":
        """Multiply by the unit exp(weight * t): shifts every weight."""
        weight = _weight(weight)
        if weight and self._terms:
            _needs_t(self.vars)
        shift = weight << (BITS * len(self.vars))
        return ExpPoly._make(self.vars, {e + shift: c for e, c in self._terms.items()})

    # -- calculus ----------------------------------------------------------

    def partials(self, within: Iterable[int]) -> Dict[int, "ExpPoly"]:
        """``{i: d/d(vars[i]) of self}`` for the variable indices ``within``,
        nonzero derivatives only, taken in one sweep over the monomials.

        The derivative along ``t`` (found by name) also differentiates the
        exp weights.  It is never zero on a nonzero weight: on exp(k*t) * p
        with k != 0 the t-degree of k*p exceeds that of dp/dt, so the two
        never cancel.
        """
        within = tuple(within)
        top = BITS * len(self.vars)
        exponents = (1 << top) - 1
        lowered: Dict[int, TermsDict] = {}
        for e, c in self._terms.items():
            if not e & exponents:
                continue  # a constant times exp(k*t)
            for idx in within:
                shift = BITS * idx
                power = (e >> shift) & FIELD
                if power:
                    acc = lowered.get(idx)
                    if acc is None:
                        acc = lowered[idx] = {}
                    # lowering one variable's power sends distinct terms to
                    # distinct keys
                    acc[e - (1 << shift)] = c * power
        t = self.vars.index("t") if "t" in self.vars else None
        if t in within:
            for e, c in self._terms.items():
                weight = e >> top
                if weight:
                    acc = lowered.setdefault(t, {})
                    old = acc.get(e)
                    acc[e] = c * weight if old is None else old + c * weight
        return {idx: ExpPoly._make(self.vars, terms) for idx, terms in lowered.items()}

    def diff(self, name: str) -> "ExpPoly":
        """Partial derivative, ``partials`` along one variable.  d/dt also
        differentiates the exp weights:
        exp(k*t) * p  ->  exp(k*t) * (k*p + dp/dt)."""
        if name not in self.vars:
            raise UnknownVariable(f"{name!r} is not one of {self.vars}")
        i = self.vars.index(name)
        return self.partials((i,)).get(i) or ExpPoly.zero(self.vars)

    # -- predicates and inversion -----------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def is_unit(self) -> bool:
        """True iff the value is q * exp(k*t) with q a nonzero rational."""
        if len(self._terms) != 1:
            return False
        (key,) = self._terms
        return not key & ((1 << (BITS * len(self.vars))) - 1)

    def unit_parts(self) -> Tuple[Scalar, int]:
        """``(q, k)`` of a unit q * exp(k*t); NotInvertible for a non-unit."""
        if not self.is_unit():
            raise NotInvertible(f"{self} is not a unit in the ring")
        ((key, q),) = self._terms.items()
        return q, key >> (BITS * len(self.vars))

    def denominator(self) -> int:
        """The least common multiple of the coefficient denominators: 1 when
        every coefficient is an integer."""
        d = 1
        for c in self._terms.values():
            if c.__class__ is not int:
                d = lcm(d, c.denominator)
        return d

    # -- canonical order and text form ------------------------------------

    def monomials(self) -> Iterator[Tuple[int, Exponent, Scalar]]:
        """(weight, exponent tuple, coefficient) of every stored monomial,
        in the canonical order of ``__str__``: weights ascending; within a
        weight graded order first, then lexicographic with t the most
        significant variable (variable order x1 < ... < xn < t), leading
        term first.  The exponent bits of a key order as its exponent tuple
        read from t down, so they break the ties of the degree."""
        n = len(self.vars)
        top = BITS * n
        exponents = (1 << top) - 1
        rows = []
        for key, c in self._terms.items():
            e = _unpack(key, n)
            rows.append((key >> top, -sum(e), -(key & exponents), e, c))
        rows.sort()  # keys differ in the first three fields, so e and c never compare
        for weight, _, _, e, c in rows:
            yield weight, e, c

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExpPoly):
            if isinstance(other, (int, Fraction)):
                return self == ExpPoly.const(self.vars, other)
            return NotImplemented
        return self.vars == other.vars and self._terms == other._terms

    def negates(self, other: "ExpPoly") -> bool:
        """``self == -other``, read from the stored terms without building
        ``-other``."""
        if self.vars != other.vars or self._terms.keys() != other._terms.keys():
            return False
        theirs = other._terms
        return all(c == -theirs[e] for e, c in self._terms.items())

    def __hash__(self) -> int:
        return hash((self.vars, frozenset(self._terms.items())))

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
        return bool(self._terms)
