"""Command-line surface: ingest, stats, simulate, list-players.

Exit codes: 0 success, 2 usage problems, 3 input/data problems,
4 runtime failures.  Every randomized command runs from an explicit or
fixed default seed which is echoed, never wall-clock seeded.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .analytics import (
    histogram_bins,
    histogram_to_csv,
    profiles_to_csv,
    rankings_to_csv,
    rate_rankings,
    tally_records,
    touch_curve_to_csv,
    year_series_to_csv,
)
from .counterfactual import default_table, load_table
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
from .ingest import ingest_files
from .pools import PoolScope, build_pools, pool_summary
from .records import Role, read_records_csv, write_records_csv
from .scoring import MatchFormat
from .simulate import (
    SimulationConfig,
    compare_scenarios,
    format_comparison,
    parse_scenario,
)
from .svg import bar_chart, line_chart

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_RUNTIME = 4

DEFAULT_SEED = 20177
DATA_DIR_ENV = "UFESIM_DATA_DIR"


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to reproduce one command's outputs."""

    command: str
    parameters: dict
    seed: int | None
    dataset_sha256: str | None
    tool_version: str
    created: str

    def to_dict(self) -> dict:
        return asdict(self)


def _file_sha256(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def build_manifest(
    command: str,
    parameters: dict,
    seed: int | None = None,
    dataset_path: str | Path | None = None,
) -> RunManifest:
    return RunManifest(
        command=command,
        parameters=parameters,
        seed=seed,
        dataset_sha256=_file_sha256(dataset_path) if dataset_path else None,
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


def resolve_player(records, requested: str) -> str:
    """Case-insensitive exact match against names in the records."""
    wanted = _normalize_name(requested)
    matches = set()
    for rec in records:
        for name in (rec.server_id, rec.receiver_id):
            if _normalize_name(name) == wanted:
                matches.add(name)
    if not matches:
        raise PlayerNotFoundError(requested)
    if len(matches) > 1:
        raise AmbiguousPlayerError(
            f"player name {requested!r} is ambiguous: {sorted(matches)}"
        )
    return matches.pop()


def _parse_config_value(key: str, value: str):
    booleans = {"ad_scoring", "final_set_tiebreak"}
    integers = {"n", "seed", "best_of", "n_jobs", "min_matches", "k"}
    if key in booleans:
        low = value.lower()
        if low in ("true", "yes", "1", "on"):
            return True
        if low in ("false", "no", "0", "off"):
            return False
        raise ValueError(f"config key {key!r} expects a boolean, got {value!r}")
    if key in integers:
        return int(value)
    if key == "scenarios":
        return [token.strip() for token in value.split(",") if token.strip()]
    return value


def load_config_file(path: str) -> dict:
    """Key = value lines; '#' comments; keys mirror the flag names."""
    settings: dict = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc.reason})") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}: line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        settings[key] = _parse_config_value(key, value)
    return settings


_CONFIG_TO_ATTR = {
    "records": "records",
    "a": "player_a",
    "b": "player_b",
    "n": "n_matches",
    "seed": "seed",
    "scenarios": "scenario",
    "best_of": "best_of",
    "ad_scoring": "ad_scoring",
    "final_set_tiebreak": "final_set_tiebreak",
    "first_server": "first_server",
    "scope": "scope",
    "table1": "table1",
    "n_jobs": "n_jobs",
    "out": "out",
    "min_matches": "min_matches",
    "k": "k",
    "tour": "tour",
}


def _apply_config(args: argparse.Namespace, path: str) -> None:
    # Config file entries override whatever the flags said.
    for key, value in load_config_file(path).items():
        attr = _CONFIG_TO_ATTR.get(key)
        if attr is None:
            raise ValueError(f"{path}: unknown config key {key!r}")
        if hasattr(args, attr):
            setattr(args, attr, value)


def cmd_ingest(args: argparse.Namespace) -> int:
    paths = [_resolve_data_path(p) for p in args.inputs]
    records, report = ingest_files(paths)
    write_records_csv(records, args.output)
    payload = report.to_dict()
    payload["output"] = str(args.output)
    manifest = build_manifest(
        "ingest", {"inputs": [str(p) for p in paths]}, dataset_path=args.output
    )
    payload["manifest"] = manifest.to_dict()
    print(json.dumps(payload, indent=2))
    return EXIT_OK


def cmd_list_players(args: argparse.Namespace) -> int:
    records = read_records_csv(_resolve_data_path(args.records))
    matches: dict[str, set[str]] = {}
    for rec in records:
        if args.tour and rec.tour != args.tour:
            continue
        matches.setdefault(rec.server_id, set()).add(rec.match_id)
        matches.setdefault(rec.receiver_id, set()).add(rec.match_id)
    for name in sorted(matches):
        print(f"{name}\t{len(matches[name])}")
    return EXIT_OK


def cmd_stats(args: argparse.Namespace) -> int:
    if args.config:
        _apply_config(args, args.config)
    records = read_records_csv(_resolve_data_path(args.records))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    tally = tally_records(records, tour=args.tour)
    profiles = tally.profiles()
    if not profiles:
        print("warning: no players after filtering", file=sys.stderr)
    eligible = [p for p in profiles.values() if p.matches_played >= args.min_matches]
    if profiles and not eligible:
        print(
            f"warning: no players with at least {args.min_matches} matches",
            file=sys.stderr,
        )

    profiles_to_csv(profiles.values(), out_dir / "profiles.csv")
    lowest, highest = rate_rankings(profiles.values(), args.min_matches, args.k)
    rankings_to_csv(lowest, highest, out_dir / "rankings.csv")
    server_curve = tally.touch_curve(Role.SERVER)
    receiver_curve = tally.touch_curve(Role.RECEIVER)
    touch_curve_to_csv(server_curve, out_dir / "touch_curve_server.csv")
    touch_curve_to_csv(receiver_curve, out_dir / "touch_curve_receiver.csv")
    series = tally.year_series()
    year_series_to_csv(series, out_dir / "year_series.csv")
    bins = histogram_bins(eligible)
    histogram_to_csv(bins, out_dir / "histogram.csv")

    if args.svg:
        (out_dir / "touch_curve_server.svg").write_text(
            line_chart(server_curve, "Server UFE rate by touch"), encoding="utf-8"
        )
        (out_dir / "touch_curve_receiver.svg").write_text(
            line_chart(receiver_curve, "Receiver UFE rate by touch"), encoding="utf-8"
        )
        (out_dir / "year_series.svg").write_text(
            line_chart(series, "UFE rate by year"), encoding="utf-8"
        )
        (out_dir / "histogram.svg").write_text(
            bar_chart(bins, "Players by UFE rate (%)"), encoding="utf-8"
        )

    manifest = build_manifest(
        "stats",
        {
            "records": str(args.records),
            "tour": args.tour,
            "min_matches": args.min_matches,
            "k": args.k,
        },
        dataset_path=_resolve_data_path(args.records),
    )
    (out_dir / "manifest.json").write_text(
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
    if args.config:
        _apply_config(args, args.config)
    if not args.player_a or not args.player_b:
        print("error: --a and --b are required", file=sys.stderr)
        return EXIT_USAGE
    records_path = _resolve_data_path(args.records)
    records = read_records_csv(records_path)
    player_a = resolve_player(records, args.player_a)
    player_b = resolve_player(records, args.player_b)
    scope = PoolScope(args.scope)
    pools = build_pools(records, player_a, player_b, scope)

    if args.table1:
        table = load_table(args.table1)
    else:
        table = default_table()
        tours = {rec.tour for pool in pools.pools.values() for rec in pool}
        if "WTA" in tours:
            print(
                "warning: the default counterfactual table was estimated from "
                "ATP rallies; pass --table1 to override for WTA pairings",
                file=sys.stderr,
            )

    fmt = MatchFormat(
        best_of=args.best_of,
        ad_scoring=args.ad_scoring,
        final_set_tiebreak=args.final_set_tiebreak,
    )
    tokens = args.scenario or ["historic"]
    fractions = [parse_scenario(token) for token in tokens]
    configs = [
        SimulationConfig(
            n_matches=args.n_matches,
            seed=args.seed,
            reduction_x=x,
            format=fmt,
            first_server_policy=args.first_server,
            pool_scope=scope,
        )
        for x in fractions
    ]
    if args.out:
        # An output that cannot be written fails now, not after the simulation.
        open(args.out, "a", encoding="utf-8").close()
    comparison = compare_scenarios(configs, pools, table, n_jobs=args.n_jobs)

    print(f"players: A = {player_a}, B = {player_b}  (scope: {scope.value})")
    print(f"seed: {args.seed}")
    print(format_comparison(comparison))

    if args.out:
        manifest = build_manifest(
            "simulate",
            {
                "records": str(args.records),
                "player_a": player_a,
                "player_b": player_b,
                "scenarios": tokens,
                "n_matches": args.n_matches,
                "best_of": args.best_of,
                "ad_scoring": args.ad_scoring,
                "final_set_tiebreak": args.final_set_tiebreak,
                "first_server": args.first_server,
                "scope": scope.value,
                "table1": args.table1,
                "n_jobs": args.n_jobs,
            },
            seed=args.seed,
            dataset_path=records_path,
        )
        payload = {
            "manifest": manifest.to_dict(),
            "pools": pool_summary(pools),
            "summaries": [s.to_dict() for s in comparison.summaries],
            "differences": [d.to_dict() for d in comparison.deltas],
        }
        Path(args.out).write_text(json.dumps(payload, indent=2), encoding="utf-8")
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
    p_list.add_argument("--tour", choices=("ATP", "WTA"), default=None)
    p_list.set_defaults(func=cmd_list_players)

    p_stats = sub.add_parser("stats", help="descriptive unforced-error statistics")
    p_stats.add_argument("--records", required=True)
    p_stats.add_argument("--tour", choices=("ATP", "WTA"), default=None)
    p_stats.add_argument("--min-matches", dest="min_matches", type=int, default=10)
    p_stats.add_argument("--k", type=int, default=5, help="ranking table size")
    p_stats.add_argument("--out-dir", dest="out_dir", default="stats_out")
    p_stats.add_argument("--svg", action="store_true", help="also render SVG charts")
    p_stats.add_argument("--config", default=None, help="key = value file overriding flags")
    p_stats.set_defaults(func=cmd_stats)

    p_sim = sub.add_parser("simulate", help="bootstrap what-if match simulation")
    p_sim.add_argument("--records", required=True)
    p_sim.add_argument("--a", dest="player_a", help="player mapped to A (errors removable)")
    p_sim.add_argument("--b", dest="player_b", help="player mapped to B")
    p_sim.add_argument(
        "--scenario",
        action="append",
        default=None,
        help="historic, eliminate, or reduce:<x>; repeatable (default historic)",
    )
    p_sim.add_argument("--n", dest="n_matches", type=int, default=3000)
    p_sim.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_sim.add_argument("--best-of", dest="best_of", type=int, choices=(3, 5), default=5)
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
        dest="first_server",
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
        dest="n_jobs",
        type=int,
        default=1,
        help="recorded in the manifest only; replicates always run serially",
    )
    p_sim.add_argument("--out", default=None, help="JSON output path")
    p_sim.add_argument("--config", default=None, help="key = value file overriding flags")
    p_sim.set_defaults(func=cmd_simulate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
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
        if getattr(args, "scope", None) == PoolScope.HEAD_TO_HEAD.value:
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
