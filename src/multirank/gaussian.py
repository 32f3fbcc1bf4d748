"""Exact amplitudes: Gaussian rationals and symbolic parameters.

A coefficient is either a Gaussian rational (rational real and imaginary
parts, kept canonical by ``fractions.Fraction``) or a named parameter
standing for an indeterminate.  All arithmetic is exact; nothing in this
package ever rounds.

The text forms accepted by :func:`parse_coefficient` are whitespace
tolerant: an optional real part, then an optional imaginary part, which
carries its own sign when a real part comes first (``1``, ``-2/3``,
``1/2+1/3i``, ``2i``, ``-i``), or a bare identifier such as ``a`` (a
parameter).  ``i`` alone always denotes the imaginary unit, so a
parameter cannot be named ``i``.

:func:`as_amplitude` reads every coefficient that comes from outside the
package, and coerces none.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Union


@dataclass(frozen=True, slots=True)
class GaussianRational:
    """A complex number with exact rational real and imaginary parts."""

    re: Fraction
    im: Fraction

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

# Every integer in the text grammars is ASCII digits alone: int(),
# str.isdecimal() and \d would also take a sign, "_" or another
# script's digits, and read "1_2" as 12.
NATURAL_RE = re.compile(r"[0-9]+")

_RATIONAL = rf"{NATURAL_RE.pattern}(?:/{NATURAL_RE.pattern})?"
# A real part ends at a sign or the end, so "2i" is an imaginary part alone.
_GAUSSIAN_RE = re.compile(
    rf"(?P<re>[+-]?{_RATIONAL}(?=[+-]|\Z))?(?P<im>[+-]?(?:{_RATIONAL})?i)?\Z"
)


def parse_natural(text: str, what: str) -> int | None:
    """The value of ``text`` if it matches :data:`NATURAL_RE`, else None.

    Raises ``ValueError`` naming ``what``, not echoing the number, when
    it is longer than ``int()`` converts.
    """
    if NATURAL_RE.fullmatch(text) is None:
        return None
    try:
        return int(text)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise ValueError(f"{what} has more than {limit} digits") from None


def parse_integer(text: str, what: str) -> int | None:
    """:func:`parse_natural` after an optional ASCII ``-``."""
    value = parse_natural(text.removeprefix("-"), what)
    return -value if value is not None and text.startswith("-") else value


def _part(text: str | None) -> Fraction:
    """The value of one signed part matched by ``_GAUSSIAN_RE``; 0 if absent."""
    if text is None:
        return Fraction(0)
    num, _, den = text.lstrip("+-").removesuffix("i").partition("/")
    value = Fraction(
        parse_natural(num or "1", "coefficient"), parse_natural(den or "1", "coefficient")
    )
    return -value if text.startswith("-") else value


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
        try:
            return GaussianRational(_part(m["re"]), _part(m["im"]))
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in coefficient {text!r}") from None
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


def _is_int(value: object) -> bool:
    """A plain int: floats, strings and bools are refused, never truncated."""
    return isinstance(value, int) and not isinstance(value, bool)


def as_amplitude(value: object) -> Amplitude:
    """Read one coefficient from outside the package as an Amplitude.

    An amplitude passes through; a plain ``int`` or a ``Fraction`` is
    real; a pair of those is ``(re, im)``; a string goes to
    :func:`parse_coefficient`.  Anything else, a bool or a float
    included, raises ``TypeError``: nothing is rounded or coerced.
    """
    if isinstance(value, (GaussianRational, Parameter)):
        return value
    if isinstance(value, str):
        return parse_coefficient(value)
    re, im = value if isinstance(value, tuple) and len(value) == 2 else (value, 0)
    if not all(_is_int(x) or isinstance(x, Fraction) for x in (re, im)):
        raise TypeError(f"cannot interpret {value!r} as an amplitude")
    return GaussianRational(Fraction(re), Fraction(im))
