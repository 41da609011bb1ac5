"""Simulator behavior: point mechanics, replicates, summaries."""
from __future__ import annotations

import math
import random

import pytest

from conftest import make_record
from ufesim.counterfactual import ELIMINATE, HISTORIC, ReductionPolicy, default_table
from ufesim.errors import EndlessMatchError
from ufesim.pools import PoolScope, build_pools
from ufesim.records import Role, TerminalKind
from ufesim.rng import derive_seed, replicate_stream
from ufesim.scoring import MatchFormat
from ufesim.simulate import (
    SimulationConfig,
    binomial_se_pct,
    compare_scenarios,
    first_server_for,
    format_comparison,
    format_summary_table,
    parse_scenario,
    run_simulation,
    simulate_match,
    simulate_point,
    summarize,
    MatchResult,
)

K = TerminalKind
S, R = Role.SERVER, Role.RECEIVER
TABLE = default_table()


def all_a_pools():
    """Every decisive record, for either server, awards the point to A."""
    a, b = "Ann Ace", "Bob Base"
    records = [
        make_record(a, b, K.ACE, 1, S),
        make_record(a, b, K.ACE, 1, S, serve_number=2),
        make_record(b, a, K.RALLY_WINNER, 2, R),
        make_record(b, a, K.RALLY_WINNER, 2, R, serve_number=2),
    ]
    return build_pools(records, a, b)


def a_ufe_pools():
    """A's serve pool is nothing but A's own unforced errors at touch 3."""
    a, b = "Ann Ace", "Bob Base"
    records = [
        make_record(a, b, K.UNFORCED_ERROR, 3, R, committer=S),
        make_record(a, b, K.UNFORCED_ERROR, 3, R, committer=S, serve_number=2),
        make_record(b, a, K.ACE, 1, S),
        make_record(b, a, K.ACE, 1, S, serve_number=2),
    ]
    return build_pools(records, a, b)


def test_ace_needs_no_counterfactual():
    pools = all_a_pools()
    rng = random.Random(0)
    out = simulate_point(pools, "A", TABLE, ELIMINATE, rng)
    assert out.winner == "A"
    assert out.serve_number == 1
    assert not out.ufe_by_a and not out.ufe_removed


def test_historic_keeps_a_errors():
    pools = a_ufe_pools()
    rng = random.Random(1)
    for _ in range(200):
        out = simulate_point(pools, "A", TABLE, HISTORIC, rng)
        assert out.winner == "B"
        assert out.ufe_by_a and not out.ufe_removed


def test_eliminate_redraws_a_errors_at_table_rate():
    pools = a_ufe_pools()
    rng = random.Random(2)
    n = 100_000
    wins = 0
    for _ in range(n):
        out = simulate_point(pools, "A", TABLE, ELIMINATE, rng)
        assert out.ufe_by_a and out.ufe_removed
        wins += out.winner == "A"
    p = TABLE.lookup(3)
    assert abs(wins / n - p) <= 3 * math.sqrt(p * (1 - p) / n)


def test_b_errors_are_never_touched():
    a, b = "Ann Ace", "Bob Base"
    records = [
        make_record(a, b, K.UNFORCED_ERROR, 2, S, committer=R),  # B errs on return
        make_record(a, b, K.ACE, 1, S, serve_number=2),
        make_record(b, a, K.UNFORCED_ERROR, 3, R, committer=S),  # B errs serving
        make_record(b, a, K.ACE, 1, S, serve_number=2),
    ]
    pools = build_pools(records, a, b)
    rng = random.Random(3)
    for server, expected_winner in (("A", "A"), ("B", "A")):
        for _ in range(100):
            out = simulate_point(pools, server, TABLE, ELIMINATE, rng)
            assert out.winner == expected_winner
            assert not out.ufe_by_a and not out.ufe_removed


def test_fault_redraws_from_second_pool(mixed_pools):
    rng = random.Random(11)
    seen_second = False
    for _ in range(500):
        out = simulate_point(mixed_pools, "A", TABLE, HISTORIC, rng)
        assert out.serve_number in (1, 2)
        seen_second = seen_second or out.serve_number == 2
    assert seen_second


def test_simulate_match_all_a_shutout():
    pools = all_a_pools()
    cfg = SimulationConfig(n_matches=1, seed=8, reduction_x=0.0)
    result = simulate_match(cfg, pools, TABLE, replicate_stream(8, 0), replicate_index=0)
    assert result.match_winner == "A"
    assert result.points_won == (72, 0)
    assert result.games_won == (18, 0)
    assert result.sets_won == (3, 0)
    assert result.set_scores == ((6, 0), (6, 0), (6, 0))
    assert result.ufes_kept == 0 and result.ufes_removed == 0


def test_simulate_match_deterministic_under_seed(mixed_pools):
    cfg = SimulationConfig(n_matches=1, seed=1234, reduction_x=0.3)
    one = simulate_match(cfg, mixed_pools, TABLE, replicate_stream(1234, 5), 5)
    two = simulate_match(cfg, mixed_pools, TABLE, replicate_stream(1234, 5), 5)
    assert one == two


def test_ufe_counters_partition_sampled_a_errors(mixed_pools):
    cfg = SimulationConfig(n_matches=30, seed=21, reduction_x=0.5)
    kept = removed = 0
    for i in range(cfg.n_matches):
        res = simulate_match(cfg, mixed_pools, TABLE, replicate_stream(21, i), i)
        kept += res.ufes_kept
        removed += res.ufes_removed
    assert kept > 0 and removed > 0
    historic = SimulationConfig(n_matches=30, seed=21, reduction_x=0.0)
    for i in range(5):
        res = simulate_match(historic, mixed_pools, TABLE, replicate_stream(21, i), i)
        assert res.ufes_removed == 0
    eliminate = SimulationConfig(n_matches=30, seed=21, reduction_x=1.0)
    for i in range(5):
        res = simulate_match(eliminate, mixed_pools, TABLE, replicate_stream(21, i), i)
        assert res.ufes_kept == 0


def test_scenario_tokens():
    assert parse_scenario("historic") == 0.0
    assert parse_scenario("eliminate") == 1.0
    assert parse_scenario("reduce:0.25") == 0.25
    assert parse_scenario("reduce=0.25") == 0.25
    assert parse_scenario("REDUCE:0") == 0.0
    for bad in ("reduce:1.5", "reduce:x", "sometimes", "reduce"):
        with pytest.raises(ValueError):
            parse_scenario(bad)


def test_scenario_labels():
    assert SimulationConfig(reduction_x=0.0).scenario == "historic"
    assert SimulationConfig(reduction_x=1.0).scenario == "eliminate"
    assert SimulationConfig(reduction_x=0.1).scenario == "reduce(0.1)"


def test_first_server_policies():
    rng = random.Random(0)
    cfg = SimulationConfig(first_server_policy="alternate")
    assert first_server_for(cfg, 0, rng) == "A"
    assert first_server_for(cfg, 1, rng) == "B"
    assert first_server_for(cfg, 2, rng) == "A"
    assert first_server_for(SimulationConfig(first_server_policy="fixed_A"), 9, rng) == "A"
    assert first_server_for(SimulationConfig(first_server_policy="fixed_B"), 8, rng) == "B"
    draws = {
        first_server_for(SimulationConfig(first_server_policy="random"), 0, random.Random(s))
        for s in range(50)
    }
    assert draws == {"A", "B"}


def test_run_simulation_all_a_summary():
    pools = all_a_pools()
    cfg = SimulationConfig(n_matches=20, seed=3)
    summary = run_simulation(cfg, pools)
    assert summary.pct_points_won_a == 100.0
    assert summary.pct_games_won_a == 100.0
    assert summary.pct_sets_won_a == 100.0
    assert summary.pct_matches_won_a == 100.0
    assert summary.se_points == 0.0
    assert summary.se_matches == 0.0
    assert summary.n_matches == 20


def server_wins_all_pools():
    """Every serve, first or second, is an ace: every game is held."""
    a, b = "Ann Ace", "Bob Base"
    records = [
        make_record(server, receiver, K.ACE, 1, S, serve_number=n)
        for server, receiver in ((a, b), (b, a))
        for n in (1, 2)
    ]
    return build_pools(records, a, b)


def receiver_wins_all_pools():
    """Every serve is passed at touch 2: every game is broken."""
    a, b = "Ann Ace", "Bob Base"
    records = [
        make_record(server, receiver, K.RALLY_WINNER, 2, R, serve_number=n)
        for server, receiver in ((a, b), (b, a))
        for n in (1, 2)
    ]
    return build_pools(records, a, b)


@pytest.mark.parametrize("pools", [server_wins_all_pools(), receiver_wins_all_pools()])
@pytest.mark.parametrize("final_set_tiebreak", [True, False])
def test_run_simulation_rejects_endless_matches(pools, final_set_tiebreak):
    config = SimulationConfig(
        n_matches=2, format=MatchFormat(best_of=3, final_set_tiebreak=final_set_tiebreak)
    )
    with pytest.raises(EndlessMatchError, match="no match can end"):
        run_simulation(config, pools, TABLE)


def test_removable_errors_let_the_match_end():
    """B's serves end only in A's unforced errors, which x > 0 may strike."""
    a, b = "Ann Ace", "Bob Base"
    records = [
        make_record(a, b, K.ACE, 1, S),
        make_record(a, b, K.ACE, 1, S, serve_number=2),
        make_record(b, a, K.UNFORCED_ERROR, 2, S, committer=R),
        make_record(b, a, K.UNFORCED_ERROR, 2, S, committer=R, serve_number=2),
    ]
    pools = build_pools(records, a, b)
    with pytest.raises(EndlessMatchError):
        run_simulation(SimulationConfig(n_matches=2), pools, TABLE)
    summary = run_simulation(SimulationConfig(n_matches=2, reduction_x=0.5), pools, TABLE)
    assert summary.n_matches == 2


def test_unreachable_second_serves_do_not_count():
    """A never faults, so A's second-serve pool cannot be drawn."""
    a, b = "Ann Ace", "Bob Base"
    records = [
        make_record(a, b, K.ACE, 1, S),
        make_record(a, b, K.RALLY_WINNER, 2, R, serve_number=2),
        make_record(b, a, K.ACE, 1, S),
        make_record(b, a, K.ACE, 1, S, serve_number=2),
    ]
    with pytest.raises(EndlessMatchError):
        run_simulation(SimulationConfig(n_matches=2), build_pools(records, a, b), TABLE)


def test_run_simulation_deterministic(mixed_pools):
    cfg = SimulationConfig(n_matches=60, seed=99, reduction_x=0.2)
    assert run_simulation(cfg, mixed_pools) == run_simulation(cfg, mixed_pools)


def test_run_simulation_parallel_matches_serial(mixed_pools):
    cfg = SimulationConfig(n_matches=48, seed=31, reduction_x=0.4)
    serial = run_simulation(cfg, mixed_pools, n_jobs=1)
    four = run_simulation(cfg, mixed_pools, n_jobs=4)
    eight = run_simulation(cfg, mixed_pools, n_jobs=8)
    assert serial == four == eight


def test_summarize_hand_checked():
    results = [
        MatchResult((60, 40), (12, 6), (3, 0), ((6, 0),), "A", 2, 0),
        MatchResult((40, 60), (6, 12), (0, 3), ((0, 6),), "B", 4, 0),
    ]
    summary = summarize(results, "historic")
    assert summary.pct_points_won_a == 50.0
    assert summary.pct_games_won_a == pytest.approx(50.0)
    assert summary.pct_matches_won_a == 50.0
    # Two per-match percentages 60 and 40: stdev = sqrt(200), se = 10.
    assert summary.se_points == pytest.approx(math.sqrt(200.0) / math.sqrt(2))
    assert summary.se_matches == pytest.approx(binomial_se_pct(0.5, 2))


def test_binomial_se_matches_frozen_values():
    assert binomial_se_pct(0.445, 3000) == pytest.approx(0.90733, abs=5e-4)
    assert binomial_se_pct(0.537, 3000) == pytest.approx(0.91036, abs=5e-4)


def test_compare_scenarios_zero_self_difference(mixed_pools):
    cfg = SimulationConfig(n_matches=40, seed=77, reduction_x=0.0)
    comparison = compare_scenarios([cfg, cfg], mixed_pools)
    (delta,) = comparison.deltas
    assert delta.d_points == 0.0
    assert delta.d_games == 0.0
    assert delta.d_sets == 0.0
    assert delta.d_matches == 0.0


def test_compare_scenarios_pairs_and_quadrature(mixed_pools):
    configs = [
        SimulationConfig(n_matches=40, seed=5, reduction_x=x) for x in (0.0, 0.5, 1.0)
    ]
    comparison = compare_scenarios(configs, mixed_pools)
    assert len(comparison.summaries) == 3
    assert len(comparison.deltas) == 3
    s0, _, s2 = comparison.summaries
    last = comparison.deltas[-1]
    assert last.baseline == "reduce(0.5)" and last.variant == "eliminate"
    first = comparison.deltas[0]
    assert first.se_points == pytest.approx(math.hypot(s0.se_points,
                                                       comparison.summaries[1].se_points))


def test_format_summary_table_layout(mixed_pools):
    cfg = SimulationConfig(n_matches=10, seed=2)
    summary = run_simulation(cfg, mixed_pools)
    text = format_summary_table([summary])
    assert "Scenario" in text and "Matches Won" in text
    assert "historic" in text
    assert "(" in text and ")" in text
    comparison = compare_scenarios([cfg], mixed_pools)
    assert "historic" in format_comparison(comparison)


def test_derive_seed_is_stable_and_spread():
    assert derive_seed(42, 0) == derive_seed(42, 0)
    seen = {derive_seed(42, i) for i in range(1000)}
    assert len(seen) == 1000
    assert derive_seed(42, 1) != derive_seed(43, 1)
    with pytest.raises(ValueError):
        derive_seed(42, -1)


def test_replicate_streams_are_independent():
    r0 = replicate_stream(9, 0)
    r1 = replicate_stream(9, 1)
    seq0 = [r0.random() for _ in range(5)]
    seq1 = [r1.random() for _ in range(5)]
    assert seq0 != seq1
    assert seq0 == [replicate_stream(9, 0).random() for _ in range(1)] + seq0[1:]
