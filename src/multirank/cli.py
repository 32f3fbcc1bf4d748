"""Command-line front end.

Reads a state file, computes the rank profile under the chosen policy,
prints a report, and classifies the state.  The default text mode
prints the profile as nested brace lists, e.g.::

    $ multirank states/cluster4.state
    {{2, 2, 2, 2}, {2, 4, 4, 4, 4, 2}}
    verdict: GME

``--levels k`` ranks one level and renders it through the same report
as a one-level profile: its brace list, or a JSON document with that
level's ``ranks`` and no verdict.  A JSON rank entry is the cut, its
rank, and every other field of its :class:`~multirank.rank.RankResult`
that is set.  ``--dump-matrices`` prints the cuts that the run ranks.

Exit codes: 0 success, 1 a closed stdout (no traceback, nothing on
stderr), 2 a bad flag or unreadable input, otherwise the ``exit_code`` of
the :class:`~multirank.errors.MultirankError` raised (see
:mod:`multirank.errors`).  Runs are reproducible: the seed
defaults to a fixed value and all randomness derives from it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from math import comb, prod
from typing import Optional

from .classify import EntanglementVerdict, verdict
from .errors import MultirankError
from .flatten import dense_string_rows, flatten
from .gaussian import parse_integer
from .partition import Bipartition, all_levels, enumerate_bipartitions
from .profile import (
    DEFAULT_SEED,
    LevelEntries,
    MultirankProfile,
    multirank_profile,
    profile_level,
)
from .rank import RankResult, parse_policy
from .state import StateTensor, parse_state

# every flattening of a state has d_1 * ... * d_n entries, zeros included
DUMP_LIMIT = 2**24


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multirank",
        description=(
            "Compute all bipartition flattening ranks of a multiqudit pure "
            "state and classify its entanglement."
        ),
    )
    parser.add_argument("input", help="state file (line grammar or JSON)")
    parser.add_argument(
        "--levels",
        default="all",
        help="'all' or a single level between 1 and floor(n/2)",
    )
    parser.add_argument(
        "--rank",
        default="fast",
        metavar="POLICY",
        help="exact | fast | mod:<p> | generic:<trials>,<p> (default: fast)",
    )
    parser.add_argument(
        "--seed",
        default=str(DEFAULT_SEED),
        help=f"master seed for all randomized choices (default: {DEFAULT_SEED})",
    )
    parser.add_argument(
        "--format",
        default="text",
        choices=["text", "json", "structured"],
        help="output format; 'structured' is an alias for 'json'",
    )
    parser.add_argument(
        "--dedupe",
        action="store_true",
        help="drop the redundant complementary twin at level n/2 (even n)",
    )
    parser.add_argument(
        "--dump-matrices",
        action="store_true",
        help=(
            "dump every flattened matrix to stderr as exact rationals; "
            f"refused when the matrices hold more than {DUMP_LIMIT} entries in all"
        ),
    )
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    """Run one invocation; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        policy = parse_policy(args.rank)
        level = None if args.levels == "all" else parse_integer(args.levels, "level")
        seed = parse_integer(args.seed, "seed")
    except ValueError as exc:
        return _fail(str(exc))
    if level is None and args.levels != "all":
        return _fail(
            f"--levels must be 'all' or a level between 1 and "
            f"floor(n/2), got {args.levels!r}"
        )
    if seed is None:
        return _fail(f"--seed must be an integer, got {args.seed!r}")
    if not 0 <= seed < 2**64:
        return _fail("seed must fit in 64 bits")
    try:
        with open(args.input, "r", encoding="utf-8-sig") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        return _fail(f"cannot read input: {exc}")
    try:
        state = parse_state(text)
    except MultirankError as exc:
        return _fail(f"{args.input}: {exc}", exc.exit_code)

    if policy.kind == "generic" and not state.has_parameters:
        print(
            "multirank: warning: generic policy on a state with no parameters",
            file=sys.stderr,
        )
    if level is not None and not 1 <= level <= state.dims.n // 2:
        return _fail(f"level must be between 1 and {state.dims.n // 2}")
    if args.dump_matrices:
        # counted before any cut is enumerated, so a refusal costs nothing
        n = state.dims.n
        levels = range(1, n // 2 + 1) if level is None else (level,)
        entries = sum(comb(n, k) for k in levels) * prod(state.dims.dims)
        if entries > DUMP_LIMIT:
            return _fail(
                f"--dump-matrices would print {entries} entries, "
                f"more than the limit of {DUMP_LIMIT}"
            )
        if level is None:
            groups = all_levels(state.dims)
        else:
            groups = [enumerate_bipartitions(state.dims, level)]
        _dump_matrices(state, groups, file=sys.stderr)

    try:
        if level is None:
            profile = multirank_profile(state, policy, seed)
        else:
            entries = profile_level(state, level, policy, seed)
            profile = MultirankProfile(state.dims, (entries,), policy, seed)
        report = _report(profile, level, args.dedupe, args.format != "text")
    except MultirankError as exc:
        return _fail(str(exc), exc.exit_code)
    try:
        print(report)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout; aim it at devnull so the flush at exit
        # cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


def _fail(message: str, code: int = 2) -> int:
    print(f"multirank: {message}", file=sys.stderr)
    return code


# ---------------------------------------------------------------------------
# Report rendering


def _braces(items) -> str:
    return "{" + ", ".join(str(x) for x in items) + "}"


def format_rank_lists(rank_lists: list[list[int]]) -> str:
    """The nested brace syntax, e.g. {{2, 2, 2, 2}, {2, 4, 4, 4, 4, 2}}."""
    return _braces(_braces(level) for level in rank_lists)


def _dedupe_levels(levels: tuple[LevelEntries, ...], n: int) -> tuple[LevelEntries, ...]:
    """Keep one member of each complementary pair at level n/2.

    The kept representative is the one containing party 1, which is also
    the lexicographically first of the pair.
    """
    return tuple(
        tuple(e for e in entries if 1 in e[0].parties)
        if 2 * entries[0][0].level == n
        else entries
        for entries in levels
    )


def _verdict_text(v: EntanglementVerdict, generic: bool) -> str:
    if v.fully_product:
        text = "fully product"
    elif v.gme:
        text = "GME"
    else:
        cuts = ", ".join(bp.label() for bp in v.product_cuts)
        text = f"biseparable; product cuts: {cuts}"
    return text + (" (generic)" if generic else "")


def _report(
    profile: MultirankProfile, level: Optional[int], dedupe: bool, as_json: bool
) -> str:
    """The report of a full run, or of the single-level run ``level``."""
    levels = profile.levels
    if dedupe:
        levels = _dedupe_levels(levels, profile.dims.n)
    rank_lists = [[r.value for _, r in entries] for entries in levels]
    head = {
        "dims": list(profile.dims.dims),
        "policy": profile.policy.label(),
        "seed": profile.seed,
    }
    if level is not None:
        if not as_json:
            return _braces(rank_lists[0])
        ranks = [_entry_doc(bp, r) for bp, r in levels[0]]
        doc = {**head, "level": level, "ranks": ranks, "profile": rank_lists}
        return json.dumps(doc, indent=2)
    v = verdict(profile)
    generic = profile.policy.kind == "generic"
    if not as_json:
        return format_rank_lists(rank_lists) + "\nverdict: " + _verdict_text(v, generic)
    doc = {
        **head,
        "dedupe": dedupe,
        "levels": [
            {
                "level": level_entries[0][0].level,
                "ranks": [_entry_doc(bp, r) for bp, r in level_entries],
            }
            for level_entries in levels
        ],
        "profile": rank_lists,
        "verdict": {
            "gme": v.gme,
            "fully_product": v.fully_product,
            "product_cuts": [list(bp.parties) for bp in v.product_cuts],
            "generic": generic,
        },
    }
    return json.dumps(doc, indent=2)


def _entry_doc(bp: Bipartition, result: RankResult) -> dict:
    """The cut and its rank, then every other field of the result that is set."""
    doc = {
        "parties": list(bp.parties),
        "complement": list(bp.complement),
        "rank": result.value,
    }
    for field in fields(result):
        value = getattr(result, field.name)
        if field.name != "value" and value is not None:
            doc[field.name] = value
    return doc


def _dump_matrices(state: StateTensor, groups: list[list[Bipartition]], file) -> None:
    for group in groups:
        for bp in group:
            matrix = flatten(state, bp)
            print(f"# matrix {bp.label()} ({matrix.rows}x{matrix.cols})", file=file)
            for row in dense_string_rows(matrix):
                print("# [" + ", ".join(row) + "]", file=file)
