"""Tennis scoring: the reference state machine and the match format.

MatchScore/apply_point consume a stream of point winners ('A' or 'B')
and track points, games, sets, serve rotation, and tiebreaks.  The
simulator plays the same rules in one loop over local counters
(simulate._play_match), and its tests check that loop against
apply_point.  Rally content is out of scope here; the caller decides
who won each point.
"""
from __future__ import annotations

from functools import wraps
from typing import Iterable, NamedTuple

from .errors import MatchOverError

PLAYERS = ("A", "B")


def other_player(player: str) -> str:
    return "B" if player == "A" else "A"


class _MatchFormat(NamedTuple):
    best_of: int = 5
    ad_scoring: bool = True
    tiebreak_trigger_games: int = 6
    tiebreak_target_points: int = 7
    final_set_tiebreak: bool = True


class MatchFormat(_MatchFormat):
    """Rules of one match.

    Defaults model a grand-slam style best-of-5 with ad scoring and a
    7-point tiebreak at 6-6 in every set, the final set included.
    """

    __slots__ = ()

    @wraps(_MatchFormat.__new__)  # the fields' signature and defaults
    def __new__(cls, *args, **kwargs) -> MatchFormat:
        fmt = super().__new__(cls, *args, **kwargs)
        if fmt.best_of not in (3, 5):
            raise ValueError(f"best_of must be 3 or 5, got {fmt.best_of}")
        if fmt.tiebreak_trigger_games < 1:
            raise ValueError("tiebreak_trigger_games must be positive")
        if fmt.tiebreak_target_points < 7:
            raise ValueError("tiebreak_target_points must be at least 7")
        return fmt

    @classmethod
    def _make(cls, values) -> MatchFormat:
        # Through the checks, as _replace calls it; the tuple's own skips them.
        return cls(*values)

    @property
    def sets_to_win(self) -> int:
        return self.best_of // 2 + 1


class MatchScore:
    """Mutable score of one match in progress.

    Index 0 is player A, index 1 is player B in every pair below.
    points_in_game holds tiebreak points while in_tiebreak is set.  Each
    list is a new list of the values given.
    """

    __slots__ = (
        "format", "points_in_game", "games_in_set", "sets_won", "completed_set_scores",
        "current_server", "in_tiebreak", "match_over", "match_winner", "cumulative_points_won",
        "cumulative_games_won", "tiebreak_first_server", "tiebreak_points_played",
    )

    def __init__(
        self,
        format: MatchFormat,
        points_in_game: Iterable[int] = (0, 0),
        games_in_set: Iterable[int] = (0, 0),
        sets_won: Iterable[int] = (0, 0),
        completed_set_scores: Iterable[tuple[int, int]] = (),
        current_server: str = "A",
        in_tiebreak: bool = False,
        match_over: bool = False,
        match_winner: str | None = None,
        cumulative_points_won: Iterable[int] = (0, 0),
        cumulative_games_won: Iterable[int] = (0, 0),
        tiebreak_first_server: str | None = None,
        tiebreak_points_played: int = 0,
    ) -> None:
        self.format = format
        self.points_in_game = list(points_in_game)
        self.games_in_set = list(games_in_set)
        self.sets_won = list(sets_won)
        self.completed_set_scores = list(completed_set_scores)
        self.current_server = current_server
        self.in_tiebreak = in_tiebreak
        self.match_over = match_over
        self.match_winner = match_winner
        self.cumulative_points_won = list(cumulative_points_won)
        self.cumulative_games_won = list(cumulative_games_won)
        self.tiebreak_first_server = tiebreak_first_server
        self.tiebreak_points_played = tiebreak_points_played

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


def new_match(fmt: MatchFormat, initial_server: str = "A") -> MatchScore:
    if initial_server not in PLAYERS:
        raise ValueError(f"initial_server must be 'A' or 'B', got {initial_server!r}")
    return MatchScore(format=fmt, current_server=initial_server)


def apply_point(score: MatchScore, winner: str) -> None:
    """Record one point for `winner`, updating every counter in place."""
    if score.match_over:
        raise MatchOverError("apply_point called after the match ended")
    if winner not in PLAYERS:
        raise ValueError(f"winner must be 'A' or 'B', got {winner!r}")
    w = 0 if winner == "A" else 1
    score.cumulative_points_won[w] += 1
    score.points_in_game[w] += 1

    if score.in_tiebreak:
        score.tiebreak_points_played += 1
        a, b = score.points_in_game
        target = score.format.tiebreak_target_points
        if max(a, b) >= target and abs(a - b) >= 2:
            _finish_game(score, w, from_tiebreak=True)
        elif score.tiebreak_points_played % 2 == 1:
            # Serve flips after point 1 and then after every two points,
            # i.e. whenever the played-point count is odd.
            score.current_server = other_player(score.current_server)
        return

    a, b = score.points_in_game
    if score.format.ad_scoring:
        game_won = max(a, b) >= 4 and abs(a - b) >= 2
    else:
        game_won = max(a, b) >= 4
    if game_won:
        _finish_game(score, w, from_tiebreak=False)


def _finish_game(score: MatchScore, w: int, *, from_tiebreak: bool) -> None:
    score.cumulative_games_won[w] += 1
    score.games_in_set[w] += 1
    score.points_in_game = [0, 0]

    if from_tiebreak:
        # The tiebreak counts as one game in the rotation: the next game
        # belongs to the opponent of the player who opened the tiebreak.
        assert score.tiebreak_first_server is not None
        score.current_server = other_player(score.tiebreak_first_server)
        score.in_tiebreak = False
        score.tiebreak_first_server = None
        score.tiebreak_points_played = 0
        _finish_set(score, w)
        return

    score.current_server = other_player(score.current_server)
    trigger = score.format.tiebreak_trigger_games
    ga, gb = score.games_in_set
    if max(ga, gb) >= trigger and abs(ga - gb) >= 2:
        _finish_set(score, w)
    elif ga == gb == trigger and _tiebreak_applies(score):
        score.in_tiebreak = True
        score.tiebreak_first_server = score.current_server
        score.tiebreak_points_played = 0


def _tiebreak_applies(score: MatchScore) -> bool:
    if score.format.final_set_tiebreak:
        return True
    is_final_set = sum(score.sets_won) == score.format.best_of - 1
    return not is_final_set


def _finish_set(score: MatchScore, w: int) -> None:
    score.completed_set_scores.append(tuple(score.games_in_set))
    score.sets_won[w] += 1
    score.games_in_set = [0, 0]
    if score.sets_won[w] == score.format.sets_to_win:
        score.match_over = True
        score.match_winner = PLAYERS[w]
