"""Output checks: invariants at any seed, pinned goldens at the default seed.

Every function returns a list of problems; an empty list means the
output passed.  Goldens live in ``golden.json`` beside this file and are
only compared when the workload seed is ``golden.json``'s seed.
"""
from __future__ import annotations

import copy
import hashlib
import json
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"
# `ufesim stats` arguments: the CLI defaults; the generator puts players
# on both sides of MIN_MATCHES.
MIN_MATCHES = 10
STATS_K = 5

# Files `ufesim stats --svg` writes; manifest.json carries a timestamp
# and paths, so it is checked for presence only.
STATS_FILES = (
    "profiles.csv",
    "rankings.csv",
    "touch_curve_server.csv",
    "touch_curve_receiver.csv",
    "year_series.csv",
    "histogram.csv",
    "touch_curve_server.svg",
    "touch_curve_receiver.svg",
    "year_series.svg",
    "histogram.svg",
)


def load_goldens() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def digest(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def normalize_ingest(report: dict) -> dict:
    """Drop what depends on the run's paths and clock."""
    out = copy.deepcopy(report)
    out.pop("output", None)
    manifest = out.get("manifest", {})
    manifest.pop("created", None)
    manifest.pop("parameters", None)
    return out


def normalize_simulate(payload: dict) -> dict:
    out = copy.deepcopy(payload)
    manifest = out.get("manifest", {})
    manifest.pop("created", None)
    manifest.get("parameters", {}).pop("records", None)
    return out


def check_ingest(report: dict, expected_counts: dict) -> list[str]:
    problems = []
    for key, want in expected_counts.items():
        if report.get(key) != want:
            problems.append(f"ingest {key} = {report.get(key)}, generator made {want}")
    return problems


def check_list_players(stdout: str, player_matches: dict[str, int]) -> list[str]:
    want = [f"{name}\t{n}" for name, n in sorted(player_matches.items())]
    got = stdout.splitlines()
    if got == want:
        return []
    i = next(i for i, (g, w) in enumerate(zip(got + [""], want + [""])) if g != w)
    return [f"list-players line {i + 1} is {got[i:i + 1]}, expected {want[i:i + 1]}"]


def stats_digests(out_dir: Path) -> dict[str, str]:
    return {name: digest((out_dir / name).read_bytes()) for name in STATS_FILES}


def check_stats(stdout: str, out_dir: Path, player_matches: dict[str, int]) -> list[str]:
    problems = []
    summary = json.loads(stdout)
    eligible = sum(1 for n in player_matches.values() if n >= MIN_MATCHES)
    if summary.get("players") != len(player_matches):
        problems.append(f"stats players = {summary.get('players')}, expected {len(player_matches)}")
    if summary.get("eligible_players") != eligible:
        problems.append(f"stats eligible_players = {summary.get('eligible_players')}, "
                        f"expected {eligible}")
    for name in STATS_FILES + ("manifest.json",):
        if not (out_dir / name).is_file():
            problems.append(f"stats did not write {name}")
    if problems:
        return problems
    with open(out_dir / "profiles.csv", encoding="utf-8") as fh:
        next(fh)
        got = {row.split(",")[0]: int(row.split(",")[1]) for row in fh}
    if got != player_matches:
        problems.append("profiles.csv match counts differ from the generated matches")
    return problems


def check_simulate(payload: dict, scenarios: list[str], n: int) -> list[str]:
    """Invariants any correct what-if run satisfies."""
    problems = []
    summaries = payload.get("summaries", [])
    if len(summaries) != len(scenarios):
        return [f"simulate wrote {len(summaries)} summaries for {len(scenarios)} scenarios"]
    for s in summaries:
        if s["n_matches"] != n:
            problems.append(f"scenario {s['scenario']} ran {s['n_matches']} matches, not {n}")
        for key in ("pct_points_won_a", "pct_games_won_a", "pct_sets_won_a", "pct_matches_won_a"):
            if not 0.0 <= s[key] <= 100.0:
                problems.append(f"scenario {s['scenario']} {key} = {s[key]}")
    # Striking A's errors can only help A: every variant against historic
    # must not lose points beyond sampling noise.
    for d in payload.get("differences", []):
        if d["baseline"] == "historic" and d["d_points"] < -4 * d["se_points"]:
            problems.append(f"{d['variant']} lost {d['d_points']:.2f} points vs historic")
    return problems


def check_golden(section: str, key: str, value, goldens: dict) -> list[str]:
    """Compare ``value`` (a digest or a normalized object) with its golden;
    a key the section does not pin fails too."""
    pinned = goldens[section].get(key)
    if pinned is None:
        return [f"golden missing: {section} {key}"]
    if pinned != value:
        return [f"golden mismatch: {section} {key}"]
    return []
