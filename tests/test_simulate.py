"""Simulator behavior: point mechanics, replicates, summaries."""
from __future__ import annotations

import copy
import errno
import hashlib
import json
import math
import multiprocessing
import os
import pickle
import random
import subprocess
import sys
from array import array
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import make_record, serve_mix
from oracles import (
    game_win_probability,
    reference_build_pools,
    reference_simulate_match,
    reference_simulate_point,
    reference_summarize,
    reference_summarize_columns,
)
from ufesim import simulate
from ufesim.cli import main
from ufesim.counterfactual import ELIMINATE, HISTORIC, MAX_TOUCH, ReductionPolicy, default_table
from ufesim.errors import EndlessMatchError
from ufesim.pools import PoolScope, build_pools
from ufesim.records import MAX_TERMINAL_TOUCH, Role, TerminalKind, write_records_csv
from ufesim.rng import derive_seed, replicate_stream
from ufesim.scoring import MatchFormat
from ufesim.simulate import (
    FIRST_SERVER_POLICIES,
    ScenarioDelta,
    SimulationConfig,
    SimulationSummary,
    _check_match_can_end,
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


@pytest.mark.parametrize(
    "bad, message",
    [
        ({"n_matches": 0}, "n_matches must be positive"),
        ({"reduction_x": 1.5}, r"reduction_x must be in \[0,1\], got 1.5"),
        ({"first_server_policy": "coin"}, "first_server_policy must be one of"),
    ],
)
def test_simulation_config_checks_every_construction(bad, message):
    # A NamedTuple's _make, and so _replace, skips a subclass __new__
    # unless the class builds through it.
    config = SimulationConfig()
    for build in (
        lambda: SimulationConfig(**bad),
        lambda: config._replace(**bad),
        lambda: SimulationConfig._make({**config._asdict(), **bad}.values()),
    ):
        with pytest.raises(ValueError, match=message):
            build()


SUMMARY = SimulationSummary("reduce(0.5)", 40, 51.5, 53.25, 60.0, 62.5, 0.5, 1.25, 2.0, 7.5)
DELTA = ScenarioDelta("historic", "reduce(0.5)", 1.5, 3.25, 10.0, 12.5, 0.75, 1.5, 3.0, 10.25)


@pytest.mark.parametrize(
    "record",
    [SimulationConfig(n_matches=7, seed=3, format=MatchFormat(best_of=3)), MatchFormat(), SUMMARY],
    ids=["SimulationConfig", "MatchFormat", "SimulationSummary"],
)
def test_records_survive_pickle_and_deepcopy(record):
    for same in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
        assert same == record
        assert type(same) is type(record)


def test_to_dict_keys_in_order():
    assert list(SUMMARY.to_dict().items()) == list({
        "scenario": "reduce(0.5)",
        "n_matches": 40,
        "pct_points_won_a": 51.5,
        "pct_games_won_a": 53.25,
        "pct_sets_won_a": 60.0,
        "pct_matches_won_a": 62.5,
        "se_points": 0.5,
        "se_games": 1.25,
        "se_sets": 2.0,
        "se_matches": 7.5,
    }.items())
    assert list(DELTA.to_dict().items()) == list({
        "baseline": "historic",
        "variant": "reduce(0.5)",
        "d_points": 1.5,
        "d_games": 3.25,
        "d_sets": 10.0,
        "d_matches": 12.5,
        "se_points": 0.75,
        "se_games": 1.5,
        "se_sets": 3.0,
        "se_matches": 10.25,
    }.items())


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


def test_run_simulation_parallel_matches_serial(mixed_pools, allow_cpus, monkeypatch):
    cfg = SimulationConfig(n_matches=48, seed=31, reduction_x=0.4)
    serial = run_simulation(cfg, mixed_pools, n_jobs=1)
    four = run_simulation(cfg, mixed_pools, n_jobs=4)
    eight = run_simulation(cfg, mixed_pools, n_jobs=8)
    assert serial == four == eight
    # 48 replicates in 6 blocks of 8, over 2 and 3 real workers.
    monkeypatch.setattr(simulate, "_MIN_BLOCK", 8)
    for workers in (2, 3):
        with allow_cpus(workers) as forked:
            assert run_simulation(cfg, mixed_pools, n_jobs=1) == serial
        assert len(forked) == workers


@pytest.mark.parametrize("x", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("policy", ["alternate", "random"])
def test_summarize_of_results_equals_the_column_path(
    x, policy, mixed_pools, allow_cpus, monkeypatch
):
    cfg = SimulationConfig(n_matches=90, seed=17, reduction_x=x, first_server_policy=policy)
    results = [
        simulate_match(cfg, mixed_pools, TABLE, replicate_stream(17, i), replicate_index=i)
        for i in range(cfg.n_matches)
    ]
    expected = reference_summarize(results, cfg.scenario)
    assert summarize(results, cfg.scenario) == expected
    assert run_simulation(cfg, mixed_pools, TABLE) == expected
    monkeypatch.setattr(simulate, "_MIN_BLOCK", 30)
    with allow_cpus(2) as forked:
        assert run_simulation(cfg, mixed_pools, TABLE) == expected
    assert len(forked) == 2


# numpy's pairwise sum changes form below 8 values, above each multiple of
# its 128-value block and where a half is cut back to a multiple of 8.
SUMMARY_LENGTHS = [1, 2, 7, 8, 9, 127, 128, 129, 8192, 8193, 20_011, 32_775]


@st.composite
def summary_columns(draw):
    """The four columns a replicate block returns: points, games and sets
    shares in percent, as 100 * won / played, and 0/1 match flags."""
    n = draw(st.sampled_from(SUMMARY_LENGTHS) | st.integers(1, 400))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    most = draw(st.sampled_from([1, 3, 20, 150]))
    p_win = draw(st.sampled_from([0.0, 0.03, 0.5, 1.0]))

    def shares():
        won = [rng.randint(0, most) for _ in range(n)]
        return array("d", [100.0 * w / (w + rng.randint(1, most)) for w in won])

    wins = array("d", [1.0 if rng.random() < p_win else 0.0 for _ in range(n)])
    return shares(), shares(), shares(), wins


@settings(max_examples=120, deadline=None)
@given(columns=summary_columns())
def test_summary_is_numpys_bit_for_bit(columns):
    """The plain-Python means and SEs equal numpy's over float64 arrays:
    every field compared with ==."""
    assert simulate._summarize_columns(columns, "s") == reference_summarize_columns(columns, "s")


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


def test_an_error_at_the_longest_touch_plays_as_one_past_the_table():
    def pools_with_a_error_at(touch):
        a, b = "Ann Ace", "Bob Base"
        error = make_record(a, b, K.UNFORCED_ERROR, touch, R, committer=S)
        return build_pools(serve_mix(a, b) + [error] + serve_mix(b, a), a, b)

    longest = pools_with_a_error_at(MAX_TERMINAL_TOUCH)
    # First, so that compiling the touch itself fails before anything
    # sizes a list by it.
    assert max(map(max, longest.first_codes + longest.second_codes)) == MAX_TOUCH
    configs = [SimulationConfig(n_matches=40, seed=5, reduction_x=x) for x in (0.0, 1.0)]
    assert compare_scenarios(configs, longest) == compare_scenarios(
        configs, pools_with_a_error_at(MAX_TOUCH + 1)
    )


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


# compare_scenarios on mixed_pools, seed 4242, 150 matches per scenario,
# x = 0, 0.1, 1: per format, the summaries' eight figures (points, games,
# sets, matches, then their SEs) and the SHA-256 of the full output.
# Recorded from the record-by-record simulator; any change to the draw
# order or the scoring moves them.
PINNED_FORMATS = [
    (MatchFormat(), "alternate"),
    (MatchFormat(best_of=3, ad_scoring=False), "random"),
    (
        MatchFormat(tiebreak_trigger_games=4, tiebreak_target_points=10, final_set_tiebreak=False),
        "fixed_B",
    ),
]
PINNED_OUTPUTS = [
    (
        [
            (50.16055172132036, 50.43475144705416, 50.333333333333336, 52.666666666666664,
             0.283264910082967, 0.6304307222361121, 2.60470520158688, 4.076672571995359),
            (51.334696381724825, 52.74254008154885, 58.86666666666667, 65.33333333333333,
             0.2652380874313092, 0.5934518095116295, 2.342175639512041, 3.885776532336781),
            (57.38661366084418, 64.49383150103742, 91.1, 98.0,
             0.2933675149601929, 0.6254034632379458, 1.1964432749057157, 1.143095213298817),
        ],
        "f508e911a3ec49fada5bb05dd90b6a391d78d6960e679a293352ba60939d7dba",
    ),
    (
        [
            (50.1557680700402, 50.22844800854998, 50.88888888888889, 48.66666666666667,
             0.39107820012328626, 0.9309793042413738, 3.100707009522663, 4.081031097016392),
            (50.80789297647305, 51.54148880765173, 56.88888888888889, 57.333333333333336,
             0.39081811246490433, 0.9060366611815149, 3.0822137220596924, 4.038334823680194),
            (57.73302155425236, 64.53523503743223, 90.66666666666667, 98.0,
             0.3320032472847603, 0.6892059512508942, 1.3422520503769915, 1.143095213298817),
        ],
        "cdccbfe7a7682cc75921b1544058aeec211e487f5e51f6dd30313eeadcccf975",
    ),
    (
        [
            (49.983357073879496, 49.962137517226665, 49.833333333333336, 46.666666666666664,
             0.3851330625413588, 0.8550699226835675, 2.687870120881276, 4.073400617738524),
            (50.896895297784695, 51.42870861851263, 53.93333333333333, 54.666666666666664,
             0.3351601246900121, 0.7589687673161846, 2.3033807789154417, 4.064662529839529),
            (58.03201495380849, 65.97934072778631, 91.6, 98.66666666666667,
             0.32945366773710794, 0.6893227089936563, 1.1335043955649666, 0.9365025558091316),
        ],
        "376916e6dafca9819cffcea9b88e2bf3643f4d6949917188417249d2f2020b92",
    ),
]


def _compare_pinned_case(case, pools):
    """compare_scenarios on pinned case `case`, checked against its pins."""
    fmt, policy = PINNED_FORMATS[case]
    configs = [
        SimulationConfig(
            n_matches=150, seed=4242, reduction_x=x, format=fmt, first_server_policy=policy
        )
        for x in (0.0, 0.1, 1.0)
    ]
    comparison = compare_scenarios(configs, pools)
    figures, digest = PINNED_OUTPUTS[case]
    assert [
        tuple(v for k, v in s.to_dict().items() if k not in ("scenario", "n_matches"))
        for s in comparison.summaries
    ] == figures
    blob = json.dumps(
        [[s.to_dict() for s in comparison.summaries], [d.to_dict() for d in comparison.deltas]],
        sort_keys=True,
    )
    assert hashlib.sha256(blob.encode()).hexdigest() == digest


@pytest.mark.parametrize("case", range(len(PINNED_FORMATS)))
def test_compare_scenarios_output_is_pinned(case, mixed_pools):
    _compare_pinned_case(case, mixed_pools)


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("case", range(len(PINNED_FORMATS)))
def test_compare_scenarios_pinned_for_any_worker_count(
    case, workers, mixed_pools, allow_cpus, monkeypatch
):
    """The pinned figures again, with each scenario cut into three blocks
    of 50 and played on 1, 2 or 3 workers (1: nothing is forked)."""
    monkeypatch.setattr(simulate, "_MIN_BLOCK", 50)
    with allow_cpus(workers) as forked:
        _compare_pinned_case(case, mixed_pools)
    assert len(forked) == (workers if workers > 1 else 0)


def test_blocks_cover_the_replicates_in_order(monkeypatch):
    monkeypatch.setattr(simulate, "_MIN_BLOCK", 1000)
    assert simulate._blocks(3000) == [(0, 1000), (1000, 2000), (2000, 3000)]
    assert simulate._blocks(2999) == [(0, 1499), (1499, 2999)]
    assert simulate._blocks(100) == [(0, 100)]
    for n in range(1, 3500, 37):
        blocks = simulate._blocks(n)
        assert [start for start, _ in blocks] == [0] + [stop for _, stop in blocks[:-1]]
        assert blocks[-1][1] == n
        assert all(stop - start >= min(n, 1000) for start, stop in blocks)


@pytest.mark.parametrize("refused_fork", [1, 2])
def test_refused_fork_plays_in_process(refused_fork, mixed_pools, allow_cpus, monkeypatch):
    configs = [SimulationConfig(n_matches=150, seed=4242, reduction_x=x) for x in (0.0, 1.0)]
    expected = compare_scenarios(configs, mixed_pools)
    monkeypatch.setattr(simulate, "_MIN_BLOCK", 50)
    with allow_cpus(3) as forked:
        counting_fork, calls = os.fork, []

        def fork():
            calls.append(None)
            if len(calls) == refused_fork:
                raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
            return counting_fork()

        with mock.patch.object(os, "fork", fork):
            assert compare_scenarios(configs, mixed_pools) == expected
    assert len(forked) == refused_fork - 1
    assert multiprocessing.active_children() == []


def test_dead_worker_exits_4_with_one_error_line(
    two_player_records, tmp_path, allow_cpus, monkeypatch, capfd
):
    records = tmp_path / "records.csv"
    write_records_csv(two_player_records, records)
    monkeypatch.setattr(simulate, "_MIN_BLOCK", 50)
    caller = os.getpid()

    def die(*args):
        if os.getpid() != caller:
            os._exit(1)
        raise AssertionError("a block was played in process")

    monkeypatch.setattr(simulate, "_replicate_block", die)
    with allow_cpus(2):
        code = main(["simulate", "--records", str(records), "--a", "Ann Ace", "--b", "Bob Base",
                     "--n", "100", "--scenario", "historic", "--scenario", "eliminate"])
    out, err = capfd.readouterr()
    assert code == 4
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: a replicate worker process died")


TESTS_DIR = Path(__file__).resolve().parent

# Runs compare_scenarios on mixed pools in a fresh interpreter with the
# CPUs and block size given as argv; prints the summaries as JSON, then
# whether multiprocessing was imported.  An atexit hook appends the pid
# of every process that runs it to the file named by argv[3].
CHILD_SCRIPT = """
import atexit, json, os, sys

from conftest import serve_mix
from ufesim import simulate
from ufesim.pools import build_pools

cpus, min_block, exits = int(sys.argv[1]), int(sys.argv[2]), sys.argv[3]


def record_exit():
    with open(exits, "a") as fh:
        print(os.getpid(), file=fh)


atexit.register(record_exit)
os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:cpus])
if len(os.sched_getaffinity(0)) < cpus:
    os.sched_getaffinity = lambda pid: set(range(cpus))
simulate._MIN_BLOCK = min_block
pools = build_pools(serve_mix("Ann Ace", "Bob Base") + serve_mix("Bob Base", "Ann Ace"),
                    "Ann Ace", "Bob Base")
configs = [simulate.SimulationConfig(n_matches=150, seed=4242, reduction_x=x)
           for x in (0.0, 0.1, 1.0)]
comparison = simulate.compare_scenarios(configs, pools)
print(json.dumps([s.to_dict() for s in comparison.summaries]))
print("multiprocessing" in sys.modules)
"""


def _run_child(cpus, min_block, exits):
    src = str(TESTS_DIR.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, str(TESTS_DIR)]))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD_SCRIPT, str(cpus), str(min_block), str(exits)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    summaries, imported = proc.stdout.splitlines()
    return json.loads(summaries), imported == "True", exits.read_text().split()


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity masks")
def test_cpu_mask_sets_the_workers_and_only_the_caller_runs_atexit(tmp_path):
    """Under a one-CPU mask nothing is forked and multiprocessing is never
    imported; with two CPUs the workers leave without running the
    caller's atexit hooks (a benchmark's peak-memory hook is one)."""
    one, imported_one, exits_one = _run_child(1, 50, tmp_path / "one.txt")
    two, imported_two, exits_two = _run_child(2, 50, tmp_path / "two.txt")
    assert one == two
    assert not imported_one and imported_two
    assert len(exits_one) == len(exits_two) == 1


class CountingRandom:
    """A stream that offers random() alone and counts the draws."""

    def __init__(self, seed):
        self._rng = random.Random(seed)
        self.draws = 0

    def random(self):
        self.draws += 1
        return self._rng.random()


def _served(server, receiver, serve_number):
    """Any valid record of one serve between two players."""
    kinds = [K.ACE, K.SERVICE_WINNER, K.RALLY_WINNER, K.FORCED_ERROR, K.UNFORCED_ERROR]
    kinds.append(K.FIRST_SERVE_FAULT if serve_number == 1 else K.DOUBLE_FAULT)

    @st.composite
    def record(draw):
        kind = draw(st.sampled_from(kinds))
        if kind is K.FIRST_SERVE_FAULT:
            return make_record(server, receiver, kind, 1, None, fault=True)
        if kind is K.DOUBLE_FAULT:
            return make_record(server, receiver, kind, 1, R, serve_number=2)
        if kind in (K.ACE, K.SERVICE_WINNER):
            return make_record(server, receiver, kind, 1, S, serve_number=serve_number)
        touch = draw(st.integers(2, 14))
        striker = S if touch % 2 else R
        opponent = R if striker is S else S
        if kind is K.RALLY_WINNER:
            return make_record(server, receiver, kind, touch, striker, serve_number=serve_number)
        return make_record(
            server, receiver, kind, touch, opponent, committer=striker, serve_number=serve_number
        )

    return record()


PAIR = ("Ann Ace", "Bob Base")


@st.composite
def random_records(draw):
    """Records of a few serves of each of Ann Ace and Bob Base's four pools."""
    records = []
    for server, receiver in (PAIR, PAIR[::-1]):
        for serve_number in (1, 2):
            records += draw(st.lists(_served(server, receiver, serve_number), min_size=1,
                                     max_size=6))
    return records


def random_pools():
    return random_records().map(lambda records: build_pools(records, *PAIR))


def _return_point_chance(pools, server, x):
    """Chance that the receiver wins a point `server` (0 for A, 1 for B)
    serves: a fault takes the second pool's average, and an error by A
    goes to A only when it is struck and then resolved for A."""

    def to_receiver(code):
        if code < 2:
            return float(code != server)
        a_wins = x * TABLE.lookup(code)
        return a_wins if server == 1 else 1.0 - a_wins

    seconds = pools.second_codes[server]
    on_second = sum(map(to_receiver, seconds)) / len(seconds)
    firsts = pools.first_codes[server]
    return sum(on_second if code < 0 else to_receiver(code) for code in firsts) / len(firsts)


def _break_chance(q, ad):
    """Chance that the receiver wins a game, winning each point with q."""
    if ad:
        return 1.0 - game_win_probability(1.0 - q)
    return sum(math.comb(7, k) * q**k * (1.0 - q) ** (7 - k) for k in range(4, 8))


@settings(max_examples=150, deadline=None)
@given(
    records=random_records(),
    x=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
    policy=st.sampled_from(FIRST_SERVER_POLICIES),
    best_of=st.sampled_from([3, 5]),
    ad=st.booleans(),
    final_tb=st.booleans(),
    trigger=st.integers(1, 6),
    target=st.integers(7, 10),
    seed=st.integers(0, 2**32 - 1),
)
def test_simulate_match_walks_the_reference_stream(
    records, x, policy, best_of, ad, final_tb, trigger, target, seed
):
    """simulate_match against new_match/apply_point fed reference points:
    the same counters and the same draws, tiebreaks and advantage final
    sets included."""
    pools, reference = build_pools(records, *PAIR), reference_build_pools(records, *PAIR)
    try:
        _check_match_can_end(pools, x)
    except EndlessMatchError:
        assume(False)
    if not final_tb:
        # An advantage set ends only on a break: keep it to a few hundred games.
        breaks = [_break_chance(_return_point_chance(pools, s, x), ad) for s in (0, 1)]
        assume(max(breaks) >= 0.01)
    cfg = SimulationConfig(
        n_matches=1, reduction_x=x, first_server_policy=policy,
        format=MatchFormat(
            best_of=best_of, ad_scoring=ad, final_set_tiebreak=final_tb,
            tiebreak_trigger_games=trigger, tiebreak_target_points=target,
        ),
    )
    for index in range(2):
        new, ref = CountingRandom(seed + index), CountingRandom(seed + index)
        got = simulate_match(cfg, pools, TABLE, new, replicate_index=index)
        assert got == reference_simulate_match(cfg, reference, TABLE, ref, replicate_index=index)
        assert new.draws == ref.draws


@settings(max_examples=60, deadline=None)
@given(
    pools=random_pools(),
    x=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
    policy=st.sampled_from(FIRST_SERVER_POLICIES),
    start=st.integers(0, 5),
    count=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_replicate_block_columns_are_simulate_match_columns(
    pools, x, policy, start, count, seed
):
    """A block's columns equal _columns over simulate_match called per
    replicate on that replicate's stream."""
    try:
        _check_match_can_end(pools, x)
    except EndlessMatchError:
        assume(False)
    cfg = SimulationConfig(
        n_matches=start + count, seed=seed, reduction_x=x, first_server_policy=policy
    )
    block = simulate._replicate_block(
        simulate._Job((cfg,), pools, TABLE), 0, start, start + count
    )
    assert block == simulate._columns(
        simulate_match(cfg, pools, TABLE, replicate_stream(seed, i), replicate_index=i)
        for i in range(start, start + count)
    )


@settings(max_examples=150, deadline=None)
@given(
    records=random_records(),
    x=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
    server=st.sampled_from(["A", "B"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_simulate_point_walks_the_reference_stream(records, x, server, seed):
    pools, reference = build_pools(records, *PAIR), reference_build_pools(records, *PAIR)
    policy = ReductionPolicy(x=x)
    new, ref = CountingRandom(seed), CountingRandom(seed)
    for _ in range(20):
        got = simulate_point(pools, server, TABLE, policy, new)
        assert got == reference_simulate_point(reference, server, TABLE, policy, ref)
        assert new.draws == ref.draws


@pytest.mark.parametrize(
    "fmt", [MatchFormat(), MatchFormat(tiebreak_trigger_games=1)], ids=["default", "tiebreaks"]
)
def test_simulate_match_calls_nothing_per_point_but_the_draw(mixed_pools, fmt):
    """A match calls no Python function per point, game or set: under a
    profiler no Python function runs more than once per match, whether
    simulate_match or a replicate block plays it.  With a tiebreak at 1-1
    every such set is decided by one, played by the same point loop.

    The only C functions the kernel calls are the stream's random, floor
    (one per serve drawn: a pool index is floor(u * size), not an int()
    call) and append (one per set)."""
    calls, c_calls = Counter(), Counter()

    def profile(frame, event, arg):
        if event == "call":
            calls[(frame.f_globals.get("__name__"), frame.f_code.co_name)] += 1
        elif event == "c_call":
            c_calls[(frame.f_code.co_name, arg.__name__)] += 1

    def kernel_c_calls() -> Counter:
        return Counter({name: n for (caller, name), n in c_calls.items() if caller == "_play_match"})

    cfg = SimulationConfig(
        n_matches=3, seed=3, reduction_x=0.5, format=fmt, first_server_policy="random"
    )
    sys.setprofile(profile)
    try:
        result = simulate_match(cfg, mixed_pools, TABLE, replicate_stream(3, 0))
    finally:
        sys.setprofile(None)
    assert result.ufes_kept and result.ufes_removed
    trigger = fmt.tiebreak_trigger_games
    assert (trigger + 1, trigger) in result.set_scores  # A won a tiebreak
    assert calls[("ufesim.simulate", "_play_match")] == 1
    assert {key for key, n in calls.items() if n > 1} == set()
    kernel = kernel_c_calls()
    assert set(kernel) == {"random", "floor", "append"}
    assert kernel["append"] == len(result.set_scores)
    # One draw picks the first server; each removal draw and each
    # resolution draw is a random call with no floor.
    drawn = sum(n for (_, name), n in c_calls.items() if name == "random")
    assert kernel["floor"] == drawn - 1 - result.ufes_kept - 2 * result.ufes_removed

    calls.clear()
    c_calls.clear()
    job = simulate._Job((cfg,), mixed_pools, TABLE)
    sys.setprofile(profile)
    try:
        columns = simulate._replicate_block(job, 0, 0, cfg.n_matches)
    finally:
        sys.setprofile(None)
    assert len(columns[0]) == cfg.n_matches
    assert calls[("ufesim.simulate", "_play_match")] == cfg.n_matches
    assert {key for key, n in calls.items() if n > cfg.n_matches} == set()
    assert set(kernel_c_calls()) == {"random", "floor", "append"}
