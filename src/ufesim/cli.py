"""Command-line surface: ingest, stats, simulate, list-players.

Exit codes: 0 success, 2 usage problems, 3 input/data problems,
4 runtime failures.  Every randomized command runs from an explicit or
fixed default seed which is echoed, never wall-clock seeded.

At module level this file imports only the standard library, the
version and the error types.  Each command imports the modules it runs
only when it gets to them, so `--version`, a config error or a missing
`--a` loads no numpy.  Each command that reads records goes through
sidecar.lookup: `list-players` answers from the header of the records
sidecar, `stats` from its tallies and `simulate` from its serve index
and the header's string tables.  So none of them loads numpy, nor
`simulate` the records module, unless the sidecar is missing, stale or
a member the command reads is damaged.  Then lookup parses the CSV,
rewrites the sidecar and answers from what it wrote, so a hit and a
miss print and write the same bytes.
main keeps numpy's OpenBLAS to one thread unless the user has set its
count: ufesim calls no BLAS routine, and each idle OpenBLAS thread
spins.

build_parser declares each setting once: a `stats` or `simulate`
`--config` line sets one of the command's options by its dest, read
with the flag's type and choices, and any other key is a usage error.
Neither `stats` nor `simulate --out` ever replaces one of the command's
input files, and a failed `simulate` leaves no `--out` file it created.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager, suppress
from datetime import datetime, timezone
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, NamedTuple

from . import __version__
from .errors import (
    AmbiguousPlayerError,
    CsvFormatError,
    DuplicatePointError,
    EmptyPoolError,
    EndlessMatchError,
    NotationError,
    PlayerNotFoundError,
    TableFormatError,
    UfesimError,
)

if TYPE_CHECKING:
    from .records import RecordTable, ServeRecord
    from .sidecar import ServeIndex

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_RUNTIME = 4

DEFAULT_SEED = 20177
TOURS = ("ATP", "WTA")
DATA_DIR_ENV = "UFESIM_DATA_DIR"


class RunManifest(NamedTuple):
    """Everything needed to reproduce one command's outputs."""

    command: str
    parameters: dict
    seed: int | None
    dataset_sha256: str | None
    tool_version: str
    created: str

    def to_dict(self) -> dict:
        return self._asdict()


def build_manifest(
    command: str,
    parameters: dict,
    seed: int | None = None,
    dataset_path: str | Path | None = None,
    dataset_sha256: str | None = None,
) -> RunManifest:
    """The manifest of one run; the dataset digest is dataset_sha256 when
    the caller already has it, else the SHA-256 of dataset_path."""
    if dataset_sha256 is None and dataset_path:
        from .sidecar import file_sha256

        dataset_sha256 = file_sha256(dataset_path)
    return RunManifest(
        command=command,
        parameters=parameters,
        seed=seed,
        dataset_sha256=dataset_sha256,
        tool_version=__version__,
        created=datetime.now(timezone.utc).isoformat(),
    )


def _resolve_data_path(path: str) -> Path:
    """Try the path as given, then under the data-directory env var."""
    p = Path(path)
    if p.exists():
        return p
    base = os.environ.get(DATA_DIR_ENV)
    if base:
        candidate = Path(base) / path
        if candidate.exists():
            return candidate
    return p


def _normalize_name(name: str) -> str:
    return name.replace("_", " ").strip().lower()


def resolve_player(
    records: ServeIndex | RecordTable | Iterable[ServeRecord], requested: str
) -> str:
    """Case-insensitive exact match against names in the records."""
    from .sidecar import ServeIndex

    if not isinstance(records, ServeIndex):
        from .records import as_table

        records = as_table(records)
    wanted = _normalize_name(requested)
    matches = {name for name in records.players if _normalize_name(name) == wanted}
    if not matches:
        raise PlayerNotFoundError(requested)
    if len(matches) > 1:
        raise AmbiguousPlayerError(
            f"player name {requested!r} is ambiguous: {sorted(matches)}"
        )
    return matches.pop()


_SWITCH_WORDS = {"true": True, "yes": True, "1": True, "on": True,
                 "false": False, "no": False, "0": False, "off": False}


def _read_setting(key: str, option: argparse.Action, text: str):
    """One config value, read as the option reads its flag."""
    if option.nargs == 0:  # a store_true or store_false flag
        if text.lower() not in _SWITCH_WORDS:
            raise ValueError(f"config key {key!r} expects a boolean, got {text!r}")
        return _SWITCH_WORDS[text.lower()]
    value = text
    if option.type is not None:
        try:
            value = option.type(text)
        except ValueError:  # int is the only option type
            raise ValueError(f"config key {key!r} expects an integer, got {text!r}") from None
    if option.choices is not None and value not in option.choices:
        choices = ", ".join(map(str, option.choices))
        raise ValueError(f"{key} must be one of {choices}, got {text!r}")
    return value


def _apply_config(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    """Override the flags with the `key = value` lines of args.config.

    Each key is the setting name (dest) of one of the command's options,
    and its value is read as that option reads its flag; a repeatable
    option takes a comma list.  '#' starts a comment."""
    (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {
        option.dest: option
        for option in commands.choices[args.command]._actions
        if option.dest not in ("help", "config")
    }
    path = args.config
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc.reason})") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, equals, text = line.partition("=")
        key, text = key.strip().lower(), text.strip()
        try:
            if not equals:
                raise ValueError("expected 'key = value'")
            if key not in options:
                raise ValueError(f"unknown config key {key!r} for {args.command}")
            option = options[key]
            if isinstance(option, argparse._AppendAction):
                tokens = [token.strip() for token in text.split(",") if token.strip()]
                setattr(args, key, [_read_setting(key, option, token) for token in tokens])
            else:
                setattr(args, key, _read_setting(key, option, text))
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from None


def _same_file(path, other) -> bool:
    try:
        return os.path.samefile(path, other)
    except OSError:  # one of them does not exist yet
        return Path(path).resolve() == Path(other).resolve()


def _refuse_overwriting_inputs(inputs: list, outputs: list[Path]) -> None:
    """ValueError if writing one of the outputs would replace one of the inputs."""
    for target in outputs:
        for path in inputs:
            if _same_file(path, target):
                raise ValueError(f"output {target} would overwrite the input {path}")


@contextmanager
def _claimed_output(path: str | None):
    """Open path (unless None) for appending, so that an output that cannot
    be written fails before the work; if the work fails, a file this made
    is removed and one that was there is left as it was."""
    created = path is not None and not os.path.lexists(path)
    if path is not None:
        open(path, "a", encoding="utf-8").close()
    try:
        yield
    except BaseException:
        if created:
            with suppress(OSError):
                os.unlink(path)
        raise


def cmd_ingest(args: argparse.Namespace) -> int:
    paths = [_resolve_data_path(p) for p in args.inputs]
    from .ingest import ingest_table
    from .records import RecordsWriter
    from .sidecar import cache_path

    _refuse_overwriting_inputs(paths, [Path(args.output), cache_path(args.output)])
    # Entered first, so that an output that cannot be written fails before the read.
    with RecordsWriter(args.output) as out:
        table, report = ingest_table(paths)
        out.write(table)
        sha256 = out.commit(table)
    payload = report.to_dict()
    payload["output"] = str(args.output)
    manifest = build_manifest(
        "ingest", {"inputs": [str(p) for p in paths]}, dataset_sha256=sha256
    )
    payload["manifest"] = manifest.to_dict()
    print(json.dumps(payload, indent=2))
    return EXIT_OK


def cmd_list_players(args: argparse.Namespace) -> int:
    from .sidecar import lookup, players_of

    header, _ = lookup(_resolve_data_path(args.records), "header")
    matches = players_of(header, args.tour or None)
    for name in sorted(matches):
        print(f"{name}\t{matches[name]}")
    return EXIT_OK


# The files stats writes into --out-dir, and the charts --svg adds.
STATS_OUTPUTS = ("profiles.csv", "rankings.csv", "touch_curve_server.csv",
                 "touch_curve_receiver.csv", "year_series.csv", "histogram.csv", "manifest.json")
STATS_CHARTS = ("touch_curve_server.svg", "touch_curve_receiver.svg", "year_series.svg",
                "histogram.svg")


def cmd_stats(args: argparse.Namespace) -> int:
    # Usage errors come before anything is read or created.
    for name in ("min_matches", "k"):
        if getattr(args, name) < 1:
            raise ValueError(f"{name} must be at least 1")
    records_path = _resolve_data_path(args.records)
    out_dir = Path(args.out_dir)
    out = {name: out_dir / name for name in STATS_OUTPUTS + (STATS_CHARTS if args.svg else ())}
    inputs = [path for path in (records_path, args.config) if path]
    _refuse_overwriting_inputs(inputs, list(out.values()))
    from .analytics import (
        histogram_bins,
        histogram_to_csv,
        profiles_to_csv,
        rankings_to_csv,
        rate_rankings,
        touch_curve_to_csv,
        tour_tally,
        year_series_to_csv,
    )
    from .sidecar import Role, lookup

    tallies, dataset_sha256 = lookup(records_path, "tallies")
    out_dir.mkdir(parents=True, exist_ok=True)

    tally = tour_tally(tallies, args.tour)
    profiles = tally.profiles()
    if not profiles:
        print("warning: no players after filtering", file=sys.stderr)
    eligible = [p for p in profiles.values() if p.matches_played >= args.min_matches]
    if profiles and not eligible:
        print(
            f"warning: no players with at least {args.min_matches} matches",
            file=sys.stderr,
        )

    lowest, highest = rate_rankings(profiles.values(), args.min_matches, args.k)
    profiles_to_csv(profiles.values(), out["profiles.csv"])
    rankings_to_csv(lowest, highest, out["rankings.csv"])
    server_curve = tally.touch_curve(Role.SERVER)
    receiver_curve = tally.touch_curve(Role.RECEIVER)
    touch_curve_to_csv(server_curve, out["touch_curve_server.csv"])
    touch_curve_to_csv(receiver_curve, out["touch_curve_receiver.csv"])
    series = tally.year_series()
    year_series_to_csv(series, out["year_series.csv"])
    bins = histogram_bins(eligible)
    histogram_to_csv(bins, out["histogram.csv"])

    if args.svg:
        from .svg import bar_chart, line_chart

        charts = (
            line_chart(server_curve, "Server UFE rate by touch"),
            line_chart(receiver_curve, "Receiver UFE rate by touch"),
            line_chart(series, "UFE rate by year"),
            bar_chart(bins, "Players by UFE rate (%)"),
        )
        for name, chart in zip(STATS_CHARTS, charts):
            out[name].write_text(chart, encoding="utf-8")

    manifest = build_manifest(
        "stats",
        {
            "records": str(args.records),
            "tour": args.tour,
            "min_matches": args.min_matches,
            "k": args.k,
        },
        dataset_sha256=dataset_sha256,
    )
    out["manifest.json"].write_text(
        json.dumps(manifest.to_dict(), indent=2), encoding="utf-8"
    )

    print(
        json.dumps(
            {
                "players": len(profiles),
                "eligible_players": len(eligible),
                "aggregate_ufe_rate": tally.ufe_rate(),
                "ufe_termination_share": tally.termination_share(),
                "out_dir": str(out_dir),
            },
            indent=2,
        )
    )
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    # Usage errors come before anything is read or created.
    if not args.a or not args.b:
        raise ValueError("--a and --b are required")
    records_path = _resolve_data_path(args.records)
    from .counterfactual import default_table, load_table
    from .pools import PoolScope, pool_summary, select_pools
    from .scoring import MatchFormat
    from .sidecar import cache_path, lookup
    from .simulate import SimulationConfig, compare_scenarios, format_comparison, parse_scenario

    if args.out:
        inputs = [records_path, cache_path(records_path), args.table1, args.config]
        _refuse_overwriting_inputs([path for path in inputs if path], [Path(args.out)])
    scope = PoolScope(args.scope)
    fmt = MatchFormat(
        best_of=args.best_of,
        ad_scoring=args.ad_scoring,
        final_set_tiebreak=args.final_set_tiebreak,
    )
    tokens = args.scenarios or ["historic"]
    configs = [
        SimulationConfig(
            n_matches=args.n,
            seed=args.seed,
            reduction_x=parse_scenario(token),
            format=fmt,
            first_server_policy=args.first_server,
            pool_scope=scope,
        )
        for token in tokens
    ]

    serves, dataset_sha256 = lookup(records_path, "serves")
    player_a = resolve_player(serves, args.a)
    player_b = resolve_player(serves, args.b)
    pools = select_pools(serves, player_a, player_b, scope)

    if args.table1:
        touch_table = load_table(args.table1)
    else:
        touch_table = default_table()
        if any("WTA" in pool.tours for pool in pools.pools.values()):
            print(
                "warning: the default counterfactual table was estimated from "
                "ATP rallies; pass --table1 to override for WTA pairings",
                file=sys.stderr,
            )

    # An output that cannot be written fails now, not after the simulation.
    with _claimed_output(args.out):
        comparison = compare_scenarios(configs, pools, touch_table)
        if args.out:
            manifest = build_manifest(
                "simulate",
                {
                    "records": str(args.records),
                    "player_a": player_a,
                    "player_b": player_b,
                    "scenarios": tokens,
                    "n_matches": args.n,
                    "best_of": args.best_of,
                    "ad_scoring": args.ad_scoring,
                    "final_set_tiebreak": args.final_set_tiebreak,
                    "first_server": args.first_server,
                    "scope": scope.value,
                    "table1": args.table1,
                    "n_jobs": args.n_jobs,
                },
                seed=args.seed,
                dataset_sha256=dataset_sha256,
            )
            payload = {
                "manifest": manifest.to_dict(),
                "pools": pool_summary(pools),
                "summaries": [s.to_dict() for s in comparison.summaries],
                "differences": [d.to_dict() for d in comparison.deltas],
            }
            Path(args.out).write_text(json.dumps(payload, indent=2), encoding="utf-8")

    print(f"players: A = {player_a}, B = {player_b}  (scope: {scope.value})")
    print(f"seed: {args.seed}")
    print(format_comparison(comparison))
    if args.out:
        print(f"wrote {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ufesim",
        description="Quantify what unforced errors cost in simulated tennis matches.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", help="normalize charted point CSVs into serve records")
    p_ingest.add_argument("inputs", nargs="+", help="point-level CSV files")
    p_ingest.add_argument("-o", "--output", required=True, help="normalized records CSV to write")
    p_ingest.set_defaults(func=cmd_ingest)

    p_list = sub.add_parser("list-players", help="list player names present in the records")
    p_list.add_argument("--records", required=True, help="normalized records CSV")
    p_list.add_argument("--tour", choices=TOURS, default=None)
    p_list.set_defaults(func=cmd_list_players)

    p_stats = sub.add_parser("stats", help="descriptive unforced-error statistics")
    p_stats.add_argument("--records", required=True)
    p_stats.add_argument("--tour", choices=TOURS, default=None)
    p_stats.add_argument("--min-matches", type=int, default=10)
    p_stats.add_argument("--k", type=int, default=5, help="ranking table size")
    p_stats.add_argument("--out-dir", default="stats_out")
    p_stats.add_argument("--svg", action="store_true", help="also render SVG charts")
    p_stats.add_argument("--config", default=None, help="key = value file overriding flags")
    p_stats.set_defaults(func=cmd_stats)

    p_sim = sub.add_parser("simulate", help="bootstrap what-if match simulation")
    p_sim.add_argument("--records", required=True)
    p_sim.add_argument("--a", help="player mapped to A (errors removable)")
    p_sim.add_argument("--b", help="player mapped to B")
    p_sim.add_argument(
        "--scenario",
        dest="scenarios",
        action="append",
        default=None,
        help="historic, eliminate, or reduce:<x>; repeatable (default historic)",
    )
    p_sim.add_argument("--n", type=int, default=3000)
    p_sim.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_sim.add_argument("--best-of", type=int, choices=(3, 5), default=5)
    p_sim.add_argument(
        "--no-ad", dest="ad_scoring", action="store_false", help="no-ad game scoring"
    )
    p_sim.add_argument(
        "--no-final-set-tiebreak",
        dest="final_set_tiebreak",
        action="store_false",
        help="play out the final set without a tiebreak",
    )
    p_sim.add_argument(
        "--first-server",
        choices=("alternate", "fixed_A", "fixed_B", "random"),
        default="alternate",
    )
    p_sim.add_argument(
        "--scope",
        choices=("head_to_head", "versus_field"),
        default="head_to_head",
        help="which serves qualify for the pools",
    )
    p_sim.add_argument("--table1", default=None, help="counterfactual table override file")
    p_sim.add_argument(
        "--n-jobs",
        type=int,
        default=1,
        help="recorded in the manifest only: replicates run on every CPU the "
        "process may use (limit them with taskset), with identical results "
        "for any count",
    )
    p_sim.add_argument("--out", default=None, help="JSON output path")
    p_sim.add_argument("--config", default=None, help="key = value file overriding flags")
    p_sim.set_defaults(func=cmd_simulate)

    return parser


def main(argv: list[str] | None = None) -> int:
    # Read when numpy is first imported, so set before any command runs.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
            _apply_config(args, parser)
        return args.func(args)
    except BrokenPipeError:
        # The reader of stdout left early (as `| head` does): nothing is
        # wrong with the data.  Point stdout at devnull so the exit flush
        # cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK
    except EmptyPoolError as exc:
        hint = ""
        if getattr(args, "scope", None) == "head_to_head":
            hint = "; too little head-to-head history, try --scope versus_field"
        print(f"error: {exc}{hint}", file=sys.stderr)
        return EXIT_DATA
    except (
        CsvFormatError,
        NotationError,
        DuplicatePointError,
        PlayerNotFoundError,
        AmbiguousPlayerError,
        EndlessMatchError,
        TableFormatError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except UfesimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
