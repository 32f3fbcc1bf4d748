"""Command-line front end.

Reads a state file, computes the rank profile under the chosen policy,
prints a report, and classifies the state.  The default text mode
prints the profile as nested brace lists, e.g.::

    $ multirank states/cluster4.state
    {{2, 2, 2, 2}, {2, 4, 4, 4, 4, 2}}
    verdict: GME

Exit codes: 0 success, 2 unreadable/unparseable input, 3 zero state,
4 rank policy incompatible with the state.  Runs are reproducible: the
seed defaults to a fixed value and all randomness derives from it.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Optional

from .classify import EntanglementVerdict, verdict
from .errors import (
    InvalidStateError,
    PolicyMismatchError,
    PrimeClashError,
    StateSyntaxError,
    ZeroStateError,
)
from .flatten import dense_string_rows, flatten
from .partition import Bipartition, all_levels, enumerate_bipartitions
from .profile import (
    DEFAULT_SEED,
    LevelEntries,
    MultirankProfile,
    multirank_profile,
    profile_level,
)
from .rank import RankPolicy, RankResult, parse_policy
from .state import StateTensor, parse_state


@dataclass(frozen=True)
class RunConfig:
    """Everything one invocation needs; defaults make runs reproducible."""

    input_path: str
    levels: Optional[int] = None  # None means all levels
    policy: RankPolicy = RankPolicy.fast()
    seed: int = DEFAULT_SEED
    output_format: str = "text"  # "text" | "json"
    dedupe: bool = False
    dump_matrices: bool = False


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
        type=int,
        default=DEFAULT_SEED,
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
        help="dump every flattened matrix to stderr as exact rationals",
    )
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        policy = parse_policy(args.rank)
    except ValueError as exc:
        print(f"multirank: {exc}", file=sys.stderr)
        return 2
    try:
        levels = None if args.levels == "all" else int(args.levels)
    except ValueError:
        print(
            f"multirank: --levels must be 'all' or a level between 1 and "
            f"floor(n/2), got {args.levels!r}",
            file=sys.stderr,
        )
        return 2
    if not 0 <= args.seed < 2**64:
        print("multirank: seed must fit in 64 bits", file=sys.stderr)
        return 2
    config = RunConfig(
        input_path=args.input,
        levels=levels,
        policy=policy,
        seed=args.seed,
        output_format="json" if args.format == "structured" else args.format,
        dedupe=args.dedupe,
        dump_matrices=args.dump_matrices,
    )
    return run(config)


def run(config: RunConfig) -> int:
    """Execute one configured run; returns the process exit code."""
    try:
        with open(config.input_path, "r", encoding="utf-8-sig") as handle:
            text = handle.read()
    except OSError as exc:
        print(f"multirank: cannot read input: {exc}", file=sys.stderr)
        return 2

    try:
        state = parse_state(text)
    except (StateSyntaxError, InvalidStateError) as exc:
        print(f"multirank: {config.input_path}: {exc}", file=sys.stderr)
        return 2
    except ZeroStateError as exc:
        print(f"multirank: {config.input_path}: {exc}", file=sys.stderr)
        return 3

    if config.policy.kind == "generic" and not state.has_parameters:
        print(
            "multirank: warning: generic policy on a state with no parameters",
            file=sys.stderr,
        )

    if config.levels is not None and not 1 <= config.levels <= state.dims.n // 2:
        print(
            f"multirank: level must be between 1 and {state.dims.n // 2}",
            file=sys.stderr,
        )
        return 2

    if config.dump_matrices:
        _dump_matrices(state, config.levels, file=sys.stderr)

    try:
        if config.levels is None:
            profile = multirank_profile(state, config.policy, config.seed)
            report = _full_report(profile, config)
        else:
            entries = profile_level(state, config.levels, config.policy, config.seed)
            report = _level_report(state, entries, config)
    except PolicyMismatchError as exc:
        print(f"multirank: {exc}", file=sys.stderr)
        return 4
    except PrimeClashError as exc:
        print(f"multirank: {exc}", file=sys.stderr)
        return 2

    print(report)
    return 0


# ---------------------------------------------------------------------------
# Report rendering


def format_rank_lists(rank_lists: list[list[int]]) -> str:
    """The nested brace syntax, e.g. {{2, 2, 2, 2}, {2, 4, 4, 4, 4, 2}}."""
    inner = ("{" + ", ".join(str(v) for v in level) + "}" for level in rank_lists)
    return "{" + ", ".join(inner) + "}"


def _dedupe_levels(levels: tuple[LevelEntries, ...], n: int) -> tuple[LevelEntries, ...]:
    """Keep one member of each complementary pair at level n/2.

    The kept representative is the one containing party 1, which is also
    the lexicographically first of the pair.
    """
    return tuple(
        tuple(e for e in entries if 1 in e[0].parties)
        if entries and 2 * entries[0][0].level == n
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


def _full_report(profile: MultirankProfile, config: RunConfig) -> str:
    levels = profile.levels
    if config.dedupe:
        levels = _dedupe_levels(levels, profile.dims.n)
    rank_lists = [[r.value for _, r in level] for level in levels]
    v = verdict(profile)
    generic = profile.policy.kind == "generic"
    if config.output_format == "text":
        return (
            format_rank_lists(rank_lists) + "\nverdict: " + _verdict_text(v, generic)
        )
    doc = {
        "dims": list(profile.dims.dims),
        "policy": profile.policy.label(),
        "seed": profile.seed,
        "dedupe": config.dedupe,
        "levels": [
            {
                "level": level_entries[0][0].level if level_entries else 0,
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


def _level_report(state: StateTensor, entries: LevelEntries, config: RunConfig) -> str:
    if config.dedupe:
        (entries,) = _dedupe_levels((entries,), state.dims.n)
    values = [r.value for _, r in entries]
    if config.output_format == "text":
        return "{" + ", ".join(str(x) for x in values) + "}"
    doc = {
        "dims": list(state.dims.dims),
        "policy": config.policy.label(),
        "seed": config.seed,
        "level": config.levels,
        "ranks": [_entry_doc(bp, r) for bp, r in entries],
        "profile": [values],
    }
    return json.dumps(doc, indent=2)


def _entry_doc(bp: Bipartition, result: RankResult) -> dict:
    doc = {
        "parties": list(bp.parties),
        "complement": list(bp.complement),
        "rank": result.value,
        "mode": result.mode,
        "certainty": result.certainty,
    }
    if result.prime is not None:
        doc["prime"] = result.prime
    if result.trials is not None:
        doc["trials"] = result.trials
    if result.failure_bound is not None:
        doc["failure_bound"] = result.failure_bound
    if result.certificate is not None:
        doc["certificate"] = result.certificate
        doc["primes"] = result.primes
    return doc


def _dump_matrices(state: StateTensor, single_level: Optional[int], file) -> None:
    if single_level is None:
        groups = all_levels(state.dims)
    else:
        groups = [enumerate_bipartitions(state.dims, single_level)]
    for group in groups:
        for bp in group:
            matrix = flatten(state, bp)
            print(f"# matrix {bp.label()} ({matrix.rows}x{matrix.cols})", file=file)
            for row in dense_string_rows(matrix):
                print("# [" + ", ".join(row) + "]", file=file)
