"""Numbered acceptance checks, one verdict line each.

Run `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Criterion 8 needs a local snapshot of the public charting dataset; it
skips when none is available (set UFESIM_MCP_DIR or use data/mcp).
"""
from __future__ import annotations

import json
import math
import os
import random
import time
from pathlib import Path

import pytest

from conftest import make_record
from oracles import game_win_probability
from test_notation import GOLDEN

from ufesim import simulate
from ufesim.analytics import collect_profiles, touch_exposure, ufe_termination_share
from ufesim.counterfactual import (
    ELIMINATE,
    check_monotonicity,
    default_table,
    prob_win_if_no_ufe,
)
from ufesim.ingest import ingest_files
from ufesim.notation import parse_shot_notation
from ufesim.pools import PoolId, PoolScope, ServePoolSet, build_pools
from ufesim.records import Role, TerminalKind
from ufesim.scoring import MatchFormat, apply_point, new_match
from ufesim.simulate import (
    SimulationConfig,
    binomial_se_pct,
    parse_scenario,
    run_simulation,
    simulate_point,
)

K = TerminalKind
S, R = Role.SERVER, Role.RECEIVER


def verdict(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"criterion {number} ({name}): {status}{suffix}")
    assert ok, f"criterion {number} ({name}): {status}{suffix}"


def test_criterion_01_touch_table_fidelity():
    started = time.perf_counter()
    table = default_table()
    expected = {
        2: 0.535, 3: 0.599, 4: 0.558, 5: 0.586, 6: 0.569,
        7: 0.575, 8: 0.571, 9: 0.573, 10: 0.573,
    }
    ok = all(prob_win_if_no_ufe(table, t) == p for t, p in expected.items())
    ok = ok and all(prob_win_if_no_ufe(table, t) == 0.573 for t in (11, 12, 40, 999))
    ok = ok and check_monotonicity(table) == []
    elapsed = time.perf_counter() - started
    verdict(1, "touch table fidelity", ok and elapsed < 1.0, f"{elapsed:.2f}s")


def _game_win_frequency(p: float, n_games: int, seed: int) -> float:
    fmt = MatchFormat()
    rng = random.Random(seed)
    wins = 0
    for _ in range(n_games):
        match = new_match(fmt)
        while sum(match.cumulative_games_won) == 0:
            apply_point(match, "A" if rng.random() < p else "B")
        wins += match.cumulative_games_won[0]
    return wins / n_games


def test_criterion_02_scoring_oracle_equivalence():
    started = time.perf_counter()
    n_games = 100_000
    ok = True
    details = []
    for i, p in enumerate((0.5, 0.6, 0.7)):
        expected = game_win_probability(p)
        observed = _game_win_frequency(p, n_games, seed=1000 + i)
        tol = 3 * math.sqrt(expected * (1 - expected) / n_games)
        ok = ok and abs(observed - expected) <= tol
        details.append(f"p={p}: {observed:.4f} vs {expected:.4f} +-{tol:.4f}")
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 30.0
    verdict(2, "scoring oracle equivalence", ok, "; ".join(details) + f"; {elapsed:.1f}s")


def test_criterion_03_standard_error_reproduction():
    started = time.perf_counter()
    se_low = binomial_se_pct(0.445, 3000)
    se_high = binomial_se_pct(0.537, 3000)
    ok = abs(se_low - 0.91) <= 0.01 and 0.90 <= se_low <= 0.91
    ok = ok and abs(se_high - 0.91) <= 0.01
    elapsed = time.perf_counter() - started
    verdict(
        3,
        "standard error reproduction",
        ok and elapsed < 1.0,
        f"se(0.445)={se_low:.4f}, se(0.537)={se_high:.4f}",
    )


def test_criterion_04_scenario_coincidence(mixed_pools):
    started = time.perf_counter()
    ok = True
    for left, right in (("historic", "reduce:0"), ("eliminate", "reduce:1")):
        payloads = []
        for token in (left, right):
            config = SimulationConfig(
                n_matches=400, seed=20177, reduction_x=parse_scenario(token)
            )
            summary = run_simulation(config, mixed_pools)
            payloads.append(json.dumps(summary.to_dict(), sort_keys=True).encode())
        ok = ok and payloads[0] == payloads[1]
    elapsed = time.perf_counter() - started
    verdict(4, "scenario coincidence", ok and elapsed < 10.0, f"{elapsed:.1f}s")


def _single_ufe_pools(t0: int) -> tuple[ServePoolSet, str]:
    """Pools whose every decisive record is an A unforced error at t0."""
    a, b = "Ava Alpha", "Bea Beta"
    mid = "20190101-M-Testopen-F-Ava_Alpha-Bea_Beta"
    if t0 % 2:
        # Odd touches are server contacts, so A serves and errs.
        first = make_record(a, b, K.UNFORCED_ERROR, t0, R, committer=S, match_id=mid)
        second = make_record(
            a, b, K.UNFORCED_ERROR, t0, R, committer=S, serve_number=2, match_id=mid
        )
        server = "A"
    else:
        first = make_record(b, a, K.UNFORCED_ERROR, t0, S, committer=R, match_id=mid)
        second = make_record(
            b, a, K.UNFORCED_ERROR, t0, S, committer=R, serve_number=2, match_id=mid
        )
        server = "B"
    pools = ServePoolSet(
        pools={
            PoolId.A_FIRST: (first,),
            PoolId.A_SECOND: (second,),
            PoolId.B_FIRST: (first,),
            PoolId.B_SECOND: (second,),
        },
        player_a=a,
        player_b=b,
        scope=PoolScope.HEAD_TO_HEAD,
    )
    return pools, server


def test_criterion_05_degenerate_pool_counterfactual():
    started = time.perf_counter()
    table = default_table()
    n_points = 100_000
    ok = True
    details = []
    for t0, expected in ((2, 0.535), (5, 0.586), (10, 0.573)):
        pools, server = _single_ufe_pools(t0)
        rng = random.Random(5000 + t0)
        wins = sum(
            simulate_point(pools, server, table, ELIMINATE, rng).winner == "A"
            for _ in range(n_points)
        )
        observed = wins / n_points
        tol = 3 * math.sqrt(expected * (1 - expected) / n_points)
        ok = ok and abs(observed - expected) <= tol
        details.append(f"t0={t0}: {observed:.4f} vs {expected} +-{tol:.4f}")
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 30.0
    verdict(5, "degenerate pool counterfactual", ok, "; ".join(details) + f"; {elapsed:.1f}s")


def test_criterion_06_parser_golden_corpus():
    started = time.perf_counter()
    ok = len(GOLDEN) >= 20
    for (notation, serve_number), expected in GOLDEN:
        parsed = parse_shot_notation(notation, serve_number)
        fields = (
            parsed.terminal_touch,
            parsed.terminal_kind,
            parsed.error_committer,
            parsed.point_winner,
        )
        ok = ok and fields == expected
        if parsed.error_committer is not None:
            implied = S if parsed.terminal_touch % 2 else R
            ok = ok and parsed.error_committer is implied
    elapsed = time.perf_counter() - started
    verdict(
        6,
        "parser golden corpus",
        ok and elapsed < 1.0,
        f"{len(GOLDEN)} strings",
    )


def test_criterion_07_touch_exposure_formulas():
    started = time.perf_counter()
    ok = all(touch_exposure(t) == ((t + 1) // 2, t // 2) for t in range(1, 14))
    elapsed = time.perf_counter() - started
    verdict(7, "touch exposure formulas", ok and elapsed < 1.0)


def _snapshot_files() -> list[Path] | None:
    env = os.environ.get("UFESIM_MCP_DIR")
    candidates = []
    if env:
        candidates.append(Path(env))
    candidates.append(Path(__file__).resolve().parent.parent / "data" / "mcp")
    for directory in candidates:
        if directory.is_dir():
            files = sorted(directory.glob("*.csv"))
            if files:
                return files
    return None


def test_criterion_08_public_snapshot_reproduction():
    files = _snapshot_files()
    if files is None:
        print("criterion 8 (public snapshot reproduction): SKIP (no charting snapshot)")
        pytest.skip("charting snapshot not present; set UFESIM_MCP_DIR")

    records, _ = ingest_files(files)
    fed, nad = "Roger Federer", "Rafael Nadal"
    pair = {fed, nad}
    h2h = [r for r in records if {r.server_id, r.receiver_id} == pair]
    profiles = collect_profiles(h2h)
    fed_rate = profiles[fed].ufe_rate * 100
    nad_rate = profiles[nad].ufe_rate * 100
    ok = abs(fed_rate - 8.9) <= 0.3 and abs(nad_rate - 5.7) <= 0.3
    details = [f"rates {fed_rate:.2f}/{nad_rate:.2f}"]

    pools = build_pools(records, fed, nad, PoolScope.HEAD_TO_HEAD)
    config = SimulationConfig(n_matches=3000, seed=20177, reduction_x=0.0)
    started = time.perf_counter()
    summary = run_simulation(config, pools)
    elapsed = time.perf_counter() - started
    ok = ok and elapsed <= 60.0
    # Three reported standard errors for points, games, matches.
    ok = ok and abs(summary.pct_points_won_a - 49.5) <= 0.21
    ok = ok and abs(summary.pct_games_won_a - 48.9) <= 0.54
    ok = ok and abs(summary.pct_matches_won_a - 44.5) <= 2.70
    details.append(
        f"sim {summary.pct_points_won_a:.1f}/{summary.pct_games_won_a:.1f}/"
        f"{summary.pct_matches_won_a:.1f} in {elapsed:.0f}s"
    )

    share = ufe_termination_share(records, tour="ATP") * 100
    ok = ok and abs(share - 30.3) <= 1.0
    details.append(f"termination {share:.1f}%")
    verdict(8, "public snapshot reproduction", ok, "; ".join(details))


def test_criterion_09_monotonicity_sweep(mixed_pools):
    started = time.perf_counter()
    summaries = [
        run_simulation(
            SimulationConfig(n_matches=2000, seed=9090, reduction_x=x), mixed_pools
        )
        for x in (0.0, 0.1, 0.5, 1.0)
    ]
    ok = True
    details = []
    for lo, hi in zip(summaries, summaries[1:]):
        slack = 3 * math.hypot(lo.se_points, hi.se_points)
        ok = ok and hi.pct_points_won_a >= lo.pct_points_won_a - slack
        details.append(f"{lo.scenario}->{hi.scenario}: "
                       f"{lo.pct_points_won_a:.2f}->{hi.pct_points_won_a:.2f}")
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 90.0
    verdict(9, "monotonicity sweep", ok, "; ".join(details) + f"; {elapsed:.1f}s")


def test_criterion_10_parallel_determinism(mixed_pools, monkeypatch):
    started = time.perf_counter()
    config = SimulationConfig(n_matches=400, seed=31337, reduction_x=0.5)
    summaries = [run_simulation(config, mixed_pools, n_jobs=n) for n in (1, 4, 8)]
    # The same replicates in 4 blocks of 100, on 2 and 3 worker processes.
    monkeypatch.setattr(simulate, "_MIN_BLOCK", 100)
    for cpus in (2, 3):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: set(range(cpus)))
        summaries.append(run_simulation(config, mixed_pools))
    ok = all(summary == summaries[0] for summary in summaries)
    elapsed = time.perf_counter() - started
    verdict(10, "parallel determinism", ok and elapsed < 60.0, f"{elapsed:.1f}s")
