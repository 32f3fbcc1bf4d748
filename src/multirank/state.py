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

Every state, parsed, built from the library or produced by
:func:`apply_local_operation`, is made by :func:`build_state`, which
reads each coefficient with :func:`~multirank.gaussian.as_amplitude`.
Duplicate kets merge by exact addition; terms that cancel are dropped;
an empty result is rejected (the zero state has no meaningful profile).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import InvalidStateError, StateSyntaxError, ZeroStateError
from .gaussian import Amplitude, Parameter, _is_int, as_amplitude, parse_coefficient

MultiIndex = tuple[int, ...]


@dataclass(frozen=True, slots=True)
class QuditDims:
    """Local dimensions of the parties; ``delta`` is their product."""

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

    @property
    def delta(self) -> int:
        total = 1
        for d in self.dims:
            total *= d
        return total


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

    def parameter_names(self) -> list[str]:
        return sorted({a.name for a in self.terms.values() if isinstance(a, Parameter)})


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
        values = [int(t) for t in tokens[1:]]
    except ValueError:
        raise StateSyntaxError(f"non-integer dimension in {stmt!r}", line, col) from None
    return QuditDims(tuple(values))


def _parse_ket(body: str, dims: QuditDims, line: int, col: int) -> MultiIndex:
    body = body.strip()
    if not body:
        raise StateSyntaxError("empty ket", line, col)
    if "," in body:
        try:
            return tuple(int(p) for p in body.split(","))
        except ValueError:
            raise StateSyntaxError(f"malformed ket |{body}>", line, col) from None
    if any(d > 10 for d in dims.dims):
        raise StateSyntaxError(
            "digit-string kets require all dimensions <= 10; "
            f"use a comma-separated ket instead of |{body}>",
            line,
            col,
        )
    if not body.isdigit():
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
            raise StateSyntaxError("expected '<coeff> |<ket>>'", line, col)
        coeff_text, ket_text = stmt[:bar], stmt[bar + 1 : -1]
        try:
            amp = parse_coefficient(coeff_text)
        except ValueError as exc:
            raise StateSyntaxError(str(exc), line, col) from None
        terms.append((_parse_ket(ket_text, dims, line, col), amp))
    if dims is None:
        raise StateSyntaxError("empty document: missing dims declaration")
    return build_state(dims, terms)


def _parse_json(text: str) -> StateTensor:
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise StateSyntaxError(f"invalid JSON: {exc.msg}", exc.lineno, exc.colno) from None
    if not isinstance(doc, dict) or "dims" not in doc or "terms" not in doc:
        raise StateSyntaxError("JSON state needs 'dims' and 'terms' keys")
    dims = QuditDims(tuple(_json_list(doc["dims"], "'dims'")))
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


# ---------------------------------------------------------------------------
# Local operations


def apply_local_operation(
    state: StateTensor,
    site: int,
    matrix: Sequence[Sequence[object]],
) -> StateTensor:
    """Apply an exact d x d matrix to one tensor factor.

    ``site`` is the 1-based party label.  Acting on a term ``c|i>`` at
    that site produces ``sum_k c * A[k][i] |k>``.  Each row is a list or
    tuple of values that ``as_amplitude`` reads, parameters excepted.
    Invertible matrices leave every flattening rank unchanged; that is
    verified by the test suite, not assumed here.
    """
    if not _is_int(site):
        raise InvalidStateError(f"site must be an integer, got {site!r}")
    if not 1 <= site <= state.dims.n:
        raise InvalidStateError(f"site {site} out of range for {state.dims.n} parties")
    d = state.dims.dims[site - 1]
    rows = []
    try:
        for row in matrix:
            if not isinstance(row, (list, tuple)):
                raise TypeError(f"row {row!r} is not a list or tuple")
            rows.append([as_amplitude(v) for v in row])
    except (TypeError, ValueError) as exc:
        raise InvalidStateError(f"matrix for site {site}: {exc}") from None
    if len(rows) != d or any(len(row) != d for row in rows):
        raise InvalidStateError(f"matrix must be {d}x{d} for site {site}")
    if state.has_parameters or any(isinstance(v, Parameter) for row in rows for v in row):
        raise InvalidStateError(
            "local operations with parameters are not representable "
            "in the amplitude model"
        )
    axis = site - 1
    return build_state(
        state.dims,
        (
            (index[:axis] + (k,) + index[axis + 1 :], rows[k][index[axis]] * amp)
            for index, amp in state.terms.items()
            for k in range(d)
            if not rows[k][index[axis]].is_zero
        ),
    )
