"""Scoring engine against the naive oracle and the rules directly."""
from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import game_win_probability, game_win_probability_markov, oracle_score_match
from ufesim.errors import MatchOverError
from ufesim.scoring import (
    PLAYERS,
    MatchFormat,
    apply_point,
    new_match,
)
from ufesim.simulate import _play_match

DEFAULT = MatchFormat()


def play(winners, fmt=DEFAULT, first_server="A"):
    """Feed winners until the match ends or the list runs out; collect
    the engine's server attribution for every point it consumed."""
    score = new_match(fmt, first_server)
    servers = []
    consumed = 0
    for w in winners:
        if score.match_over:
            break
        servers.append(score.current_server)
        apply_point(score, w)
        consumed += 1
    return score, servers, consumed


def test_new_match_is_zeroed():
    score = new_match(DEFAULT, "B")
    assert score.current_server == "B"
    assert not score.match_over
    assert score.points_in_game == [0, 0]
    assert score.sets_won == [0, 0]
    assert repr(new_match(MatchFormat(best_of=3), "B")) == (
        "MatchScore(format=MatchFormat(best_of=3, ad_scoring=True, tiebreak_trigger_games=6, "
        "tiebreak_target_points=7, final_set_tiebreak=True), points_in_game=[0, 0], "
        "games_in_set=[0, 0], sets_won=[0, 0], completed_set_scores=[], current_server='B', "
        "in_tiebreak=False, match_over=False, match_winner=None, cumulative_points_won=[0, 0], "
        "cumulative_games_won=[0, 0], tiebreak_first_server=None, tiebreak_points_played=0)"
    )


@pytest.mark.parametrize(
    "bad, message",
    [
        ({"best_of": 4}, "best_of must be 3 or 5, got 4"),
        ({"tiebreak_trigger_games": 0}, "tiebreak_trigger_games must be positive"),
        ({"tiebreak_target_points": 6}, "tiebreak_target_points must be at least 7"),
    ],
)
def test_match_format_checks_every_construction(bad, message):
    # A NamedTuple's _make, and so _replace, skips a subclass __new__
    # unless the class builds through it.
    for build in (
        lambda: MatchFormat(**bad),
        lambda: DEFAULT._replace(**bad),
        lambda: MatchFormat._make({**DEFAULT._asdict(), **bad}.values()),
    ):
        with pytest.raises(ValueError, match=message):
            build()


def test_four_straight_points_win_a_game_and_flip_serve():
    score = new_match(DEFAULT, "A")
    for _ in range(4):
        apply_point(score, "A")
    assert score.games_in_set == [1, 0]
    assert score.current_server == "B"
    assert score.points_in_game == [0, 0]


def test_deuce_needs_two_clear_points():
    score = new_match(DEFAULT, "A")
    for w in ["A", "A", "A", "B", "B", "B"]:
        apply_point(score, w)
    assert score.points_in_game == [3, 3]
    apply_point(score, "A")
    assert score.points_in_game == [4, 3]
    apply_point(score, "B")
    assert score.points_in_game == [4, 4]
    apply_point(score, "A")
    apply_point(score, "A")
    assert score.games_in_set == [1, 0]


def test_no_ad_game_ends_at_four_points():
    fmt = MatchFormat(ad_scoring=False)
    score = new_match(fmt, "A")
    for w in ["A", "A", "A", "B", "B", "B", "A"]:
        apply_point(score, w)
    assert score.games_in_set == [1, 0]


def test_point_after_match_over_raises():
    fmt = MatchFormat(best_of=3)
    score = new_match(fmt, "A")
    while not score.match_over:
        apply_point(score, "A")
    with pytest.raises(MatchOverError):
        apply_point(score, "A")


def test_shutout_tallies():
    score = new_match(DEFAULT, "A")
    n = 0
    while not score.match_over:
        apply_point(score, "A")
        n += 1
    assert score.match_winner == "A"
    assert score.sets_won == [3, 0]
    assert score.completed_set_scores == [(6, 0)] * 3
    assert score.cumulative_points_won == [n, 0]
    assert n == 72  # 18 games of 4 points


def test_tiebreak_triggers_at_six_all_and_scores_seven_six():
    score = new_match(DEFAULT, "A")
    # Alternate game wins to 6-6: server wins every point of own game.
    for game in range(12):
        winner = "A" if game % 2 == 0 else "B"
        for _ in range(4):
            apply_point(score, winner)
    assert score.games_in_set == [6, 6]
    assert score.in_tiebreak
    for _ in range(7):
        apply_point(score, "A")
    assert score.completed_set_scores == [(7, 6)]
    assert score.sets_won == [1, 0]
    assert not score.in_tiebreak


def test_tiebreak_serve_rotation_one_then_pairs():
    score = new_match(DEFAULT, "A")
    for game in range(12):
        winner = "A" if game % 2 == 0 else "B"
        for _ in range(4):
            apply_point(score, winner)
    assert score.in_tiebreak
    # Game 13 would be A's; A opens the tiebreak.
    seen = []
    for w in ["A", "B"] * 6:
        seen.append(score.current_server)
        apply_point(score, w)
    assert seen == ["A", "B", "B", "A", "A", "B", "B", "A", "A", "B", "B", "A"]


def test_server_after_tiebreak_is_opener_opponent():
    score = new_match(DEFAULT, "A")
    for game in range(12):
        winner = "A" if game % 2 == 0 else "B"
        for _ in range(4):
            apply_point(score, winner)
    for _ in range(7):
        apply_point(score, "A")
    # A opened the tiebreak, so B serves the first game of set 2.
    assert score.current_server == "B"


def test_final_set_tiebreak_flag_plays_on():
    fmt = MatchFormat(best_of=3, final_set_tiebreak=False)
    score = new_match(fmt, "A")

    def win_game(player):
        for _ in range(4):
            apply_point(score, player)

    # Split the first two sets 6-0 each way.
    for _ in range(6):
        win_game("A")
    for _ in range(6):
        win_game("B")
    # Final set: no tiebreak at 6-6.
    for game in range(12):
        win_game("A" if game % 2 == 0 else "B")
    assert score.games_in_set == [6, 6]
    assert not score.in_tiebreak
    win_game("A")
    win_game("A")
    assert score.match_over
    assert score.completed_set_scores[-1] == (8, 6)


@settings(max_examples=200, deadline=None)
@given(
    winners=st.lists(st.sampled_from(["A", "B"]), min_size=0, max_size=400),
    best_of=st.sampled_from([3, 5]),
    ad=st.booleans(),
    final_tb=st.booleans(),
    first=st.sampled_from(["A", "B"]),
)
def test_engine_matches_oracle_on_random_streams(winners, best_of, ad, final_tb, first):
    fmt = MatchFormat(best_of=best_of, ad_scoring=ad, final_set_tiebreak=final_tb)
    expected = oracle_score_match(
        winners,
        best_of=best_of,
        ad=ad,
        final_set_tiebreak=final_tb,
        first_server=first,
    )
    score, servers, consumed = play(winners, fmt, first)
    assert consumed == expected["consumed"]
    assert servers == expected["servers"]
    assert score.cumulative_points_won == [expected["points"]["A"], expected["points"]["B"]]
    assert score.cumulative_games_won == [expected["games"]["A"], expected["games"]["B"]]
    assert score.sets_won == [expected["sets"]["A"], expected["sets"]["B"]]
    assert score.completed_set_scores == expected["set_scores"]
    assert score.match_winner == expected["winner"]


def test_engine_matches_oracle_on_long_stream():
    rng = random.Random(99)
    winners = [("A" if rng.random() < 0.52 else "B") for _ in range(10_000)]
    expected = oracle_score_match(winners)
    score, servers, consumed = play(winners)
    assert consumed == expected["consumed"]
    assert servers == expected["servers"]
    assert score.cumulative_points_won == [expected["points"]["A"], expected["points"]["B"]]
    assert score.cumulative_games_won == [expected["games"]["A"], expected["games"]["B"]]
    assert score.match_winner == expected["winner"]


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False))
def test_completed_set_scores_are_legal(rnd):
    score = new_match(DEFAULT, "A")
    while not score.match_over:
        apply_point(score, "A" if rnd.random() < 0.5 else "B")
    legal = {(6, g) for g in range(5)} | {(7, 5), (7, 6)}
    legal |= {(g, 6) for g in range(5)} | {(5, 7), (6, 7)}
    for pair in score.completed_set_scores:
        assert pair in legal


def test_alternating_blocks_still_terminate():
    # Blocks of four points per side hand each game to one player and
    # walk every set to 6-6; the tiebreak's two-clear rule must still
    # resolve it, exercising termination without randomness.
    score = new_match(DEFAULT, "A")
    block, owner = 0, "A"
    guard = 0
    while not score.match_over:
        apply_point(score, owner)
        block += 1
        if block == 4:
            block, owner = 0, ("B" if owner == "A" else "A")
        guard += 1
        assert guard < 100_000
    assert score.match_over


def test_totals_conserve_applied_points():
    rng = random.Random(5)
    score = new_match(DEFAULT, "A")
    n = 0
    while not score.match_over and n < 600:
        apply_point(score, "A" if rng.random() < 0.5 else "B")
        n += 1
    assert sum(score.cumulative_points_won) == n


def test_set_scores_show_progress():
    score = new_match(DEFAULT, "A")
    for _ in range(24):
        apply_point(score, "A")
    assert score.completed_set_scores == [(6, 0)]
    assert score.games_in_set == [0, 0]


def test_game_win_probability_oracles_agree():
    from fractions import Fraction

    for p in (Fraction(1, 2), Fraction(3, 5), Fraction(7, 10)):
        closed = game_win_probability(float(p))
        markov = float(game_win_probability_markov(p))
        assert closed == pytest.approx(markov, abs=1e-12)


# Server 0's first-serve pool holds code 0 (A wins) then 1, server 1's holds
# 1 (B wins) twice then 0: a uniform below 0.5 is a hold either way, and the
# pool size each uniform is scaled by names the server of that point.
_HOLD_CODES = ((0, 1), (1, 1, 0, 0))
_HOLD_SIZES = (2.0, 4.0)


class _Uniform(float):
    """A uniform that logs which server's pool it was scaled by."""

    def __new__(cls, value, servers):
        self = super().__new__(cls, value)
        self.servers = servers
        return self

    def __mul__(self, size):
        self.servers.append(_HOLD_SIZES.index(size))
        return float(self) * size


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    hold=st.floats(0.25, 0.8),
    best_of=st.sampled_from([3, 5]),
    ad=st.booleans(),
    final_tb=st.booleans(),
    trigger_target=st.sampled_from([(6, 7), (4, 10), (1, 7), (3, 9)]),
    first=st.sampled_from([0, 1]),
)
def test_play_match_agrees_with_apply_point(
    seed, hold, best_of, ad, final_tb, trigger_target, first
):
    """The simulator's match loop serves and scores as apply_point does."""
    trigger, target = trigger_target
    fmt = MatchFormat(
        best_of=best_of,
        ad_scoring=ad,
        final_set_tiebreak=final_tb,
        tiebreak_trigger_games=trigger,
        tiebreak_target_points=target,
    )
    rnd = random.Random(seed)
    servers, holds = [], []

    def rand():
        holds.append(rnd.random() < hold)
        return _Uniform(0.25 if holds[-1] else 0.75, servers)

    serves = tuple(zip(_HOLD_CODES, _HOLD_SIZES, _HOLD_CODES, _HOLD_SIZES))
    played = _play_match(fmt, first, 0.0, serves, [], rand)

    assert len(servers) == len(holds)
    score = new_match(fmt, PLAYERS[first])
    for server, held in zip(servers, holds):
        assert not score.match_over
        assert score.current_server == PLAYERS[server]
        apply_point(score, PLAYERS[server if held else 1 - server])
    assert score.match_over
    points, games, sets, set_scores, winner, kept, removed = played
    assert points == tuple(score.cumulative_points_won)
    assert games == tuple(score.cumulative_games_won)
    assert sets == tuple(score.sets_won)
    assert set_scores == tuple(score.completed_set_scores)
    assert PLAYERS[winner] == score.match_winner
    assert kept == removed == 0


def test_play_match_shutout():
    a_wins = ((0,), 1.0, (0,), 1.0)
    played = _play_match(DEFAULT, 1, 0.0, (a_wins, a_wins), [], random.random)
    assert played == ((72, 0), (18, 0), (3, 0), ((6, 0),) * 3, 0, 0, 0)
