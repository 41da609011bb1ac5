"""ufesim: what do unforced errors cost a tennis player?

Charted serve-by-serve records are resampled into simulated matches;
a what-if policy strikes some share of one player's unforced errors
and re-resolves those points from a touch-indexed win-probability
table, so the gap between scenarios prices the errors in expected
points, games, sets, and matches.

Importing the package loads none of its modules.  Each public name is
imported from its module on first access (PEP 562), so a command that
needs the records and the analytics never loads the simulator.
"""
from __future__ import annotations

from importlib import import_module

__version__ = "0.1.0"

# Each public name, by the module that defines it.
_EXPORTS: dict[str, str] = {
    name: module
    for module, names in {
        "analytics": (
            "PlayerUfeProfile",
            "RecordTally",
            "TouchExposure",
            "collect_profiles",
            "histogram_bins",
            "rate_rankings",
            "tally_records",
            "touch_exposure",
            "tour_ufe_rate",
            "ufe_rate_by_touch",
            "ufe_rate_by_year",
            "ufe_termination_share",
        ),
        "counterfactual": (
            "ELIMINATE",
            "HISTORIC",
            "ReductionPolicy",
            "TouchWinTable",
            "default_table",
            "load_table",
            "prob_win_if_no_ufe",
            "resolve_removed_ufe",
            "should_remove_ufe",
        ),
        "errors": (
            "AmbiguousPlayerError",
            "CsvFormatError",
            "DuplicatePointError",
            "EmptyPoolError",
            "EndlessMatchError",
            "MatchOverError",
            "NotationError",
            "PlayerNotFoundError",
            "TableFormatError",
            "TouchRangeError",
            "UfesimError",
        ),
        "ingest": (
            "IngestReport",
            "clean_rows",
            "explode_to_serves",
            "ingest_files",
            "ingest_table",
            "parse_match_id",
            "parse_points_file",
        ),
        "notation": ("ParsedPoint", "parse_shot_notation"),
        "pools": (
            "PoolId",
            "PoolScope",
            "ServePool",
            "ServePoolSet",
            "build_pools",
            "pool_summary",
            "select_pool",
            "select_pools",
        ),
        "records": (
            "RawPointRow",
            "RecordTable",
            "ServeRecord",
            "load_records",
            "read_records_csv",
            "save_records",
            "write_records_csv",
        ),
        "rng": ("derive_seed", "replicate_stream"),
        "sidecar": ("Role", "TerminalKind"),
        "scoring": ("MatchFormat", "MatchScore", "apply_point", "new_match"),
        "simulate": (
            "MatchResult",
            "PointOutcome",
            "ScenarioComparison",
            "ScenarioDelta",
            "SimulationConfig",
            "SimulationSummary",
            "binomial_se_pct",
            "compare_scenarios",
            "format_comparison",
            "format_summary_table",
            "parse_scenario",
            "run_simulation",
            "simulate_match",
            "simulate_point",
            "summarize",
        ),
    }.items()
    for name in names
}

__all__ = ["__version__", *sorted(_EXPORTS)]


def __getattr__(name: str):
    """Import a public name from its module on first access and keep it."""
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
