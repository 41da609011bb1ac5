"""Tennis scoring: a state machine and a match loop.

MatchScore/apply_point consume a stream of point winners ('A' or 'B')
and track points, games, sets, serve rotation, and tiebreaks.
play_match plays the same rules as one loop over local counters,
pulling each point's winner from a callback; the simulator uses it.
Rally content is out of scope here; the caller decides who won each
point.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from .errors import MatchOverError

PLAYERS = ("A", "B")


def other_player(player: str) -> str:
    return "B" if player == "A" else "A"


@dataclass(frozen=True, slots=True)
class MatchFormat:
    """Rules of one match.

    Defaults model a grand-slam style best-of-5 with ad scoring and a
    7-point tiebreak at 6-6 in every set, the final set included.
    """

    best_of: int = 5
    ad_scoring: bool = True
    tiebreak_trigger_games: int = 6
    tiebreak_target_points: int = 7
    final_set_tiebreak: bool = True

    def __post_init__(self) -> None:
        if self.best_of not in (3, 5):
            raise ValueError(f"best_of must be 3 or 5, got {self.best_of}")
        if self.tiebreak_trigger_games < 1:
            raise ValueError("tiebreak_trigger_games must be positive")
        if self.tiebreak_target_points < 7:
            raise ValueError("tiebreak_target_points must be at least 7")

    @property
    def sets_to_win(self) -> int:
        return self.best_of // 2 + 1


@dataclass(slots=True)
class MatchScore:
    """Mutable score of one match in progress.

    Index 0 is player A, index 1 is player B in every pair below.
    points_in_game holds tiebreak points while in_tiebreak is set.
    """

    format: MatchFormat
    points_in_game: list[int] = field(default_factory=lambda: [0, 0])
    games_in_set: list[int] = field(default_factory=lambda: [0, 0])
    sets_won: list[int] = field(default_factory=lambda: [0, 0])
    completed_set_scores: list[tuple[int, int]] = field(default_factory=list)
    current_server: str = "A"
    in_tiebreak: bool = False
    match_over: bool = False
    match_winner: str | None = None
    cumulative_points_won: list[int] = field(default_factory=lambda: [0, 0])
    cumulative_games_won: list[int] = field(default_factory=lambda: [0, 0])
    tiebreak_first_server: str | None = None
    tiebreak_points_played: int = 0


def new_match(fmt: MatchFormat, initial_server: str = "A") -> MatchScore:
    if initial_server not in PLAYERS:
        raise ValueError(f"initial_server must be 'A' or 'B', got {initial_server!r}")
    return MatchScore(format=fmt, current_server=initial_server)


def current_server(score: MatchScore) -> str:
    return score.current_server


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


class PlayedMatch(NamedTuple):
    """Final counters of one match; index 0 is A, 1 is B throughout."""

    points_won: tuple[int, int]
    games_won: tuple[int, int]
    sets_won: tuple[int, int]
    set_scores: tuple[tuple[int, int], ...]
    winner: int


def play_match(fmt: MatchFormat, first_server: int, point: Callable[[int], int]) -> PlayedMatch:
    """Play one match, calling point(server) for each point's winner.

    Players are indices, 0 for A and 1 for B.  The rules, the serve
    rotation and every counter agree with new_match/apply_point fed the
    same winners; the loops just keep them in local ints.
    """
    lead = 2 if fmt.ad_scoring else 1  # no-ad: the first to four points wins
    trigger = fmt.tiebreak_trigger_games
    target = fmt.tiebreak_target_points
    sets_to_win = fmt.sets_to_win
    final_set = fmt.best_of - 1  # sets completed before the final set
    server = first_server
    points_a = points_b = 0
    games, sets = [0, 0], [0, 0]
    set_scores: list[tuple[int, int]] = []
    while True:
        ga = gb = 0
        set_has_tiebreak = fmt.final_set_tiebreak or sets[0] + sets[1] != final_set
        while True:
            a = b = 0
            if ga == gb == trigger and set_has_tiebreak:
                opener = server
                while True:
                    if point(server):
                        b += 1
                        if b >= target and b - a >= 2:
                            break
                    else:
                        a += 1
                        if a >= target and a - b >= 2:
                            break
                    if (a + b) % 2:
                        server = 1 - server
                # The tiebreak counts as one game of the rotation.
                server = 1 - opener
                points_a += a
                points_b += b
                if b > a:
                    gb += 1
                else:
                    ga += 1
                break
            while True:
                if point(server):
                    b += 1
                    if b >= 4 and b - a >= lead:
                        break
                else:
                    a += 1
                    if a >= 4 and a - b >= lead:
                        break
            server = 1 - server
            points_a += a
            points_b += b
            if b > a:
                gb += 1
                if gb >= trigger and gb - ga >= 2:
                    break
            else:
                ga += 1
                if ga >= trigger and ga - gb >= 2:
                    break
        games[0] += ga
        games[1] += gb
        set_scores.append((ga, gb))
        w = 1 if gb > ga else 0
        sets[w] += 1
        if sets[w] == sets_to_win:
            return PlayedMatch(
                (points_a, points_b), tuple(games), tuple(sets), tuple(set_scores), w
            )


_POINT_NAMES = ("0", "15", "30", "40")


def render_point_score(score: MatchScore) -> str:
    """Human form of the in-game score, server's points first."""
    a, b = score.points_in_game
    s = (a, b) if score.current_server == "A" else (b, a)
    if score.in_tiebreak:
        return f"{s[0]}-{s[1]}"
    if a == b and a >= 3:
        return "deuce"
    if max(a, b) >= 4:
        lead = "A" if a > b else "B"
        return f"ad {'in' if lead == score.current_server else 'out'}"
    return f"{_POINT_NAMES[s[0]]}-{_POINT_NAMES[s[1]]}"


def render_set_scores(score: MatchScore) -> str:
    """Completed sets plus the set in progress, as '6-4 3-6 2-1'."""
    parts = [f"{x}-{y}" for x, y in score.completed_set_scores]
    if not score.match_over:
        ga, gb = score.games_in_set
        parts.append(f"{ga}-{gb}")
    return " ".join(parts)
