"""Sparse exact representation of n-partite pure states.

A state over local dimensions ``(d_1, ..., d_n)`` is stored as a finite
map from multi-indices ``(i_1, ..., i_n)`` with ``0 <= i_j < d_j`` to
nonzero exact amplitudes.  Ket digits read left to right for parties
``1..n`` and are 0-based.  Normalization is irrelevant to every rank
computed downstream, so inputs are accepted unnormalized.

Two input syntaxes feed :func:`parse_state`:

* the line grammar (``#`` comments, ``;`` separates statements)::

      dims 2 2 2
      +1 |001> ; +1 |010>
      -1/2+1/3i |100>
      a |111>

  Kets are digit strings when every ``d_j <= 10``, otherwise
  comma-separated index lists such as ``|0,12,3>``.

* a JSON document ``{"dims": [...], "terms": [{"coeff": "...",
  "ket": [...]}, ...]}``; a coefficient is a string in the same grammar
  or an integer, and an object with two equal keys is refused.

Every state, parsed or built from the library, is made by
:func:`build_state`, which reads each coefficient with
:func:`~multirank.gaussian.as_amplitude`.
Duplicate kets merge by exact addition; terms that cancel are dropped;
an empty result is rejected (the zero state has no meaningful profile).
A parsed document must give at least one term.

Every flattening of a state holds every term, so a state's
:attr:`StateTensor.table` (a :class:`TermTable`) holds what no cut
changes: the kets as one array, the amplitudes in term order, their
denominators and parameter names, and their residues mod each prime a
rank pass uses.  It is built the first time a flattening needs it and
lives and dies with its state.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from functools import cached_property
from math import prod
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import InvalidStateError, PrimeClashError, StateSyntaxError, ZeroStateError
from .gaussian import (
    NATURAL_RE,
    Amplitude,
    Parameter,
    _is_int,
    as_amplitude,
    parse_coefficient,
    parse_natural,
)

MultiIndex = tuple[int, ...]


@dataclass(frozen=True, slots=True)
class QuditDims:
    """Local dimensions of the parties: ``dims[j - 1]`` is party j's."""

    dims: tuple[int, ...]

    def __post_init__(self):
        if not all(_is_int(d) for d in self.dims):
            raise InvalidStateError(f"every local dimension must be an integer, got {self.dims}")
        if len(self.dims) < 2:
            raise InvalidStateError("need at least two parties")
        if any(d < 2 for d in self.dims):
            raise InvalidStateError(f"every local dimension must be >= 2, got {self.dims}")

    @property
    def n(self) -> int:
        return len(self.dims)


@dataclass(frozen=True)
class StateTensor:
    """Immutable sparse order-n coefficient tensor.

    Construct through :func:`build_state` or :func:`parse_state`; those
    enforce merging, bounds checks, and nonzero-ness.
    """

    dims: QuditDims
    terms: dict[MultiIndex, Amplitude] = field(repr=False)

    @property
    def has_parameters(self) -> bool:
        return any(isinstance(a, Parameter) for a in self.terms.values())

    @cached_property
    def table(self) -> "TermTable":
        """The terms as one :class:`TermTable`, built on first use.

        The kets are int64 unless d_1 * ... * d_n reaches 2**63: a
        flattening's row or column index can then pass 2**63, where an
        int64 matmul wraps silently, so they are Python ints instead.
        """
        big = prod(self.dims.dims) >= 2**63
        kets = np.array(list(self.terms), dtype=object if big else np.int64)
        return TermTable(tuple(self.terms.values()), kets)


class TermTable:
    """The terms of a state in one fixed order, read once for every cut.

    Every flattening of a state holds every term, so what a cut needs of
    an amplitude does not depend on the cut.  ``kets`` is the terms x n
    array of ket digits (None for a table read off a matrix's entries),
    ``amplitudes`` the amplitudes in the same order, ``dens`` the set of
    the Gaussian amplitudes' denominators, ``params`` the positions of
    the parameters and ``names`` their sorted names.  :meth:`residues`
    reads the amplitudes mod p once per prime.
    """

    __slots__ = ("kets", "amplitudes", "dens", "params", "names", "_residues")

    def __init__(self, amplitudes: tuple[Amplitude, ...], kets: Optional[np.ndarray] = None):
        self.kets = kets
        self.amplitudes = amplitudes
        self.params: list[int] = []
        self.dens: set[int] = set()
        names = set()
        for k, a in enumerate(amplitudes):
            if isinstance(a, Parameter):
                self.params.append(k)
                names.add(a.name)
            else:
                self.dens.add(a.re.denominator)
                self.dens.add(a.im.denominator)
        self.names = sorted(names)
        self._residues: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def residues(self, p: int) -> tuple[np.ndarray, np.ndarray]:
        """(re, im) int64 arrays: each amplitude as num * den^-1 mod p.

        A parameter reads as 0.  A p that divides one of ``dens`` raises
        :class:`PrimeClashError`.
        """
        if p not in self._residues:
            if any(d % p == 0 for d in self.dens):
                raise PrimeClashError(f"prime {p} divides a denominator")
            inverse = {d: pow(d, -1, p) for d in self.dens}
            re, im = [], []
            for a in self.amplitudes:
                if isinstance(a, Parameter):
                    re.append(0)
                    im.append(0)
                else:
                    re.append(a.re.numerator * inverse[a.re.denominator] % p)
                    im.append(a.im.numerator * inverse[a.im.denominator] % p)
            self._residues[p] = np.array(re, dtype=np.int64), np.array(im, dtype=np.int64)
        return self._residues[p]


def _check_index(index: MultiIndex, dims: QuditDims, k: int) -> None:
    if len(index) != dims.n:
        raise InvalidStateError(
            f"term {k}: ket {index} has {len(index)} digits, expected {dims.n}"
        )
    for j, (i, d) in enumerate(zip(index, dims.dims), start=1):
        if not _is_int(i):
            raise InvalidStateError(
                f"term {k}: ket digit {i!r} for party {j} is not an integer"
            )
        if not 0 <= i < d:
            raise InvalidStateError(
                f"term {k}: ket digit {i} out of range for party {j} (dimension {d})"
            )


def build_state(
    dims: QuditDims | Sequence[int],
    terms: Iterable[tuple[Sequence[int], object]],
) -> StateTensor:
    """Validate, merge, and canonicalize terms into a StateTensor.

    Duplicate multi-indices are merged by exact addition.  Merging is
    only defined for Gaussian amplitudes; a collision involving a
    parameter raises, since the amplitude model has no symbolic sums.
    An error about one term starts ``term K:``, K its 0-based position.
    """
    if not isinstance(dims, QuditDims):
        dims = QuditDims(tuple(dims))
    merged: dict[MultiIndex, Amplitude] = {}
    for k, (raw_index, raw_amp) in enumerate(terms):
        try:
            index = tuple(raw_index)
        except TypeError:
            raise InvalidStateError(
                f"term {k}: ket {raw_index!r} is not a sequence"
            ) from None
        _check_index(index, dims, k)
        try:
            amp = as_amplitude(raw_amp)
        except (TypeError, ValueError) as exc:
            raise InvalidStateError(f"term {k}: {exc}") from None
        if index in merged:
            old = merged[index]
            if isinstance(old, Parameter) or isinstance(amp, Parameter):
                raise InvalidStateError(
                    f"term {k}: cannot merge a parametric amplitude at ket {index}"
                )
            merged[index] = old + amp
        else:
            merged[index] = amp
    nonzero = {
        k: a
        for k, a in merged.items()
        if isinstance(a, Parameter) or not a.is_zero
    }
    if not nonzero:
        raise ZeroStateError("all terms cancel: the zero state is not admissible")
    return StateTensor(dims=dims, terms=nonzero)


# ---------------------------------------------------------------------------
# Parsing


def parse_state(text: str) -> StateTensor:
    """Parse a state document (line grammar or JSON) into a StateTensor."""
    if text.lstrip()[:1] == "{":
        return _parse_json(text)
    return _parse_lines(text)


def _statements(text: str):
    """Yield (line, column, statement) with comments stripped.

    Both newlines and ``;`` separate statements, so single-line documents
    like ``dims 2 2 ; +1 |00>`` are accepted.
    """
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        col = 1
        for piece in line.split(";"):
            stmt = piece.strip()
            if stmt:
                yield lineno, col + len(piece) - len(piece.lstrip()), stmt
            col += len(piece) + 1


def _parse_dims_statement(stmt: str, line: int, col: int) -> QuditDims:
    tokens = stmt.split()
    if tokens[0] != "dims":
        raise StateSyntaxError("expected 'dims d1 d2 ... dn' as first statement", line, col)
    if len(tokens) < 3:
        raise StateSyntaxError("dims needs at least two dimensions", line, col)
    try:
        values = tuple(parse_natural(t, "dimension") for t in tokens[1:])
    except ValueError as exc:
        raise StateSyntaxError(str(exc), line, col) from None
    if None in values:
        raise StateSyntaxError(f"non-integer dimension in {stmt!r}", line, col)
    return QuditDims(values)


def _parse_ket(body: str, dims: QuditDims, line: int, col: int) -> MultiIndex:
    body = body.strip()
    if not body:
        raise StateSyntaxError("empty ket", line, col)
    if "," in body:
        try:
            index = tuple(parse_natural(p.strip(), "ket index") for p in body.split(","))
        except ValueError as exc:
            raise StateSyntaxError(str(exc), line, col) from None
        if None in index:
            raise StateSyntaxError(f"malformed ket |{body}>", line, col)
        return index
    if any(d > 10 for d in dims.dims):
        raise StateSyntaxError(
            "digit-string kets require all dimensions <= 10; "
            f"use a comma-separated ket instead of |{body}>",
            line,
            col,
        )
    if NATURAL_RE.fullmatch(body) is None:
        raise StateSyntaxError(f"malformed ket |{body}>", line, col)
    return tuple(int(ch) for ch in body)


def _parse_lines(text: str) -> StateTensor:
    dims: QuditDims | None = None
    terms: list[tuple[MultiIndex, Amplitude]] = []
    for line, col, stmt in _statements(text):
        if dims is None:
            dims = _parse_dims_statement(stmt, line, col)
            continue
        bar = stmt.find("|")
        if bar < 0 or not stmt.endswith(">"):
            if stmt.split()[0] == "dims":
                raise StateSyntaxError("second 'dims' declaration", line, col)
            raise StateSyntaxError("expected '<coeff> |<ket>>'", line, col)
        coeff_text, ket_text = stmt[:bar], stmt[bar + 1 : -1]
        try:
            amp = parse_coefficient(coeff_text)
        except ValueError as exc:
            raise StateSyntaxError(str(exc), line, col) from None
        terms.append((_parse_ket(ket_text, dims, line, col), amp))
    if dims is None:
        raise StateSyntaxError("empty document: missing dims declaration")
    if not terms:
        raise StateSyntaxError("no terms were given")
    return build_state(dims, terms)


def _parse_json(text: str) -> StateTensor:
    import json  # here alone, so that `import multirank` does not load it

    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise StateSyntaxError(f"invalid JSON: {exc.msg}", exc.lineno, exc.colno) from None
    except ValueError:  # an integer longer than int() converts
        limit = sys.get_int_max_str_digits()
        raise StateSyntaxError(f"invalid JSON: an integer has more than {limit} digits") from None
    except RecursionError:
        raise StateSyntaxError("invalid JSON: nested too deeply") from None
    if not isinstance(doc, dict) or "dims" not in doc or "terms" not in doc:
        raise StateSyntaxError("JSON state needs 'dims' and 'terms' keys")
    dims = QuditDims(tuple(_json_list(doc["dims"], "'dims'")))
    if doc["terms"] == []:
        raise StateSyntaxError("'terms' is empty: no terms were given")
    return build_state(dims, _json_terms(doc["terms"]))


def _json_terms(terms: object):
    """Yield (ket, coeff) per term, checking each term's shape only when
    :func:`build_state` reaches it, so the first faulty term is reported."""
    for k, entry in enumerate(_json_list(terms, "'terms'")):
        if not isinstance(entry, dict) or "coeff" not in entry or "ket" not in entry:
            raise StateSyntaxError(f"term {k} needs 'coeff' and 'ket' keys")
        yield _json_list(entry["ket"], f"term {k}: 'ket'"), entry["coeff"]


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object; ``json`` alone would keep the last of two equal keys."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise StateSyntaxError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def _json_list(value: object, what: str) -> list:
    """``value`` if it is a JSON list; :func:`build_state` checks its entries."""
    if not isinstance(value, list):
        raise StateSyntaxError(f"{what} must be a list")
    return value
