"""Exact amplitudes: Gaussian rationals and symbolic parameters.

A coefficient is either a Gaussian rational (rational real and imaginary
parts, kept canonical by ``fractions.Fraction``) or a named parameter
standing for an indeterminate.  All arithmetic is exact; nothing in this
package ever rounds.

The text forms accepted by :func:`parse_coefficient` are whitespace
tolerant: ``1``, ``-2/3``, ``1/2+1/3i``, ``2i``, ``-i``, or a bare
identifier such as ``a`` (a parameter).  ``i`` alone always denotes the
imaginary unit, so a parameter cannot be named ``i``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Union


@dataclass(frozen=True, slots=True)
class GaussianRational:
    """A complex number with exact rational real and imaginary parts."""

    re: Fraction
    im: Fraction

    @classmethod
    def of(cls, re: object = 0, im: object = 0) -> "GaussianRational":
        return cls(Fraction(re), Fraction(im))

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        if self.im == 0:
            return _format_rational(self.re)
        if self.re == 0:
            return _format_rational(self.im) + "i"
        sign = "+" if self.im > 0 else "-"
        return _format_rational(self.re) + sign + _format_rational(abs(self.im)) + "i"


@dataclass(frozen=True, slots=True)
class Parameter:
    """A named indeterminate; the same name always means the same unknown."""

    name: str

    def __str__(self) -> str:
        return self.name


Amplitude = Union[GaussianRational, Parameter]


def _format_rational(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

# One or two signed terms; the optional second term must be imaginary.
_GAUSSIAN_RE = re.compile(
    r"(?P<sign1>[+-]?)(?P<term1>(?:\d+(?:/\d+)?)?i|\d+(?:/\d+)?)"
    r"(?:(?P<sign2>[+-])(?P<term2>(?:\d+(?:/\d+)?)?i))?\Z"
)


def _term_value(body: str) -> Fraction:
    if body == "i":
        return Fraction(1)
    if body.endswith("i"):
        body = body[:-1]
    return Fraction(body)


def parse_coefficient(text: str) -> Amplitude:
    """Parse a coefficient string into an exact amplitude.

    Raises ``ValueError`` on malformed input (including a zero
    denominator); the message is position-free, callers add location.
    """
    compact = "".join(text.split())
    if not compact:
        raise ValueError("empty coefficient")
    m = _GAUSSIAN_RE.fullmatch(compact)
    if m is not None:
        term1, term2 = m.group("term1"), m.group("term2")
        if term2 is not None and term1.endswith("i"):
            raise ValueError(f"two imaginary parts in coefficient {text!r}")
        try:
            v1 = _term_value(term1)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in coefficient {text!r}") from None
        if m.group("sign1") == "-":
            v1 = -v1
        if term1.endswith("i"):
            return GaussianRational(Fraction(0), v1)
        if term2 is None:
            return GaussianRational(v1, Fraction(0))
        try:
            v2 = _term_value(term2)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in coefficient {text!r}") from None
        if m.group("sign2") == "-":
            v2 = -v2
        return GaussianRational(v1, v2)
    # identifiers are not whitespace-tolerant: 'a b' is not a parameter.
    # A unary plus is a no-op; a negated parameter has no representation
    # in the amplitude model, so reject it loudly.
    stripped = text.strip()
    if stripped.startswith("+"):
        stripped = stripped[1:].strip()
    if _IDENT_RE.fullmatch(stripped):
        return Parameter(stripped)
    if stripped.startswith("-") and _IDENT_RE.fullmatch(stripped[1:].strip()):
        raise ValueError(
            f"negated parameter {stripped!r}: scaled parameters are not supported"
        )
    raise ValueError(f"malformed coefficient {text!r}")


def as_amplitude(value: object) -> Amplitude:
    """Coerce ints, Fractions, pairs, strings, or amplitudes to an Amplitude."""
    if isinstance(value, (GaussianRational, Parameter)):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussianRational(Fraction(value), Fraction(0))
    if isinstance(value, tuple) and len(value) == 2:
        return GaussianRational(Fraction(value[0]), Fraction(value[1]))
    if isinstance(value, str):
        return parse_coefficient(value)
    raise TypeError(f"cannot interpret {value!r} as an amplitude")


def as_gaussian(value: object) -> GaussianRational:
    """Like :func:`as_amplitude` but rejects parameters."""
    amp = as_amplitude(value)
    if isinstance(amp, Parameter):
        raise ValueError(f"expected an exact value, got parameter {amp.name!r}")
    return amp
