"""Independent reference implementations used only by the test suite.

Everything here is written against the rules of tennis directly, on
purpose in a different style from the library (string states, arithmetic
server derivation) so that agreement between the two is meaningful.
"""
from __future__ import annotations

import math
from collections import Counter, defaultdict
from fractions import Fraction

import numpy as np

from ufesim.analytics import (
    DEFAULT_MAX_TOUCH,
    PlayerUfeProfile,
    RecordTally,
    _Tally,
    touch_exposure,
)
from ufesim.cli import _normalize_name
from ufesim.counterfactual import ReductionPolicy, resolve_removed_ufe, should_remove_ufe
from ufesim.errors import AmbiguousPlayerError, PlayerNotFoundError
from ufesim.pools import PoolId, PoolScope, sample, select_pool
from ufesim.records import Role, TerminalKind
from ufesim.scoring import apply_point, new_match, other_player
from ufesim.simulate import (
    MatchResult,
    PointOutcome,
    SimulationSummary,
    binomial_se_pct,
    first_server_for,
)


def naive_game_winner(points: list[str], *, no_ad: bool = False) -> str | None:
    """Score one game from a list of 'S'/'R' point winners.

    Returns 'S' or 'R' when the game is over, None if the sequence ends
    mid-game.  Raises ValueError if points continue past the end.
    """
    s = r = 0
    for k, p in enumerate(points):
        if p == "S":
            s += 1
        elif p == "R":
            r += 1
        else:
            raise ValueError(f"bad point token {p!r}")
        target = 4
        done = None
        if no_ad:
            if s == target:
                done = "S"
            elif r == target:
                done = "R"
        else:
            if s >= target and s - r >= 2:
                done = "S"
            elif r >= target and r - s >= 2:
                done = "R"
        if done is not None:
            if k != len(points) - 1:
                raise ValueError("points continue after the game ended")
            return done
    return None


def naive_tiebreak_winner(points: list[str], *, target: int = 7) -> str | None:
    """'A'/'B' point winners; first to target, two clear."""
    a = b = 0
    for k, p in enumerate(points):
        if p == "A":
            a += 1
        elif p == "B":
            b += 1
        else:
            raise ValueError(f"bad point token {p!r}")
        done = None
        if a >= target and a - b >= 2:
            done = "A"
        elif b >= target and b - a >= 2:
            done = "B"
        if done is not None:
            if k != len(points) - 1:
                raise ValueError("points continue after the tiebreak ended")
            return done
    return None


def tiebreak_server_for_point(first_server: str, point_number: int) -> str:
    """Who serves the point_number-th point (1-based) of a tiebreak.

    The opener serves point 1, then service alternates every two points:
    1 | 2 3 | 4 5 | 6 7 | ...
    """
    other = "B" if first_server == "A" else "A"
    if point_number == 1:
        return first_server
    # Points 2,3 -> other; 4,5 -> first; pairs alternate from there.
    pair = (point_number - 2) // 2
    return other if pair % 2 == 0 else first_server


def game_server_for(game_number: int, first_server: str) -> str:
    """Server of the game_number-th game of the match (1-based).

    Service alternates every game, carrying across sets; a tiebreak
    counts as one game for this rotation.
    """
    other = "B" if first_server == "A" else "A"
    return first_server if game_number % 2 == 1 else other


def oracle_score_match(
    winners: list[str],
    *,
    best_of: int = 5,
    ad: bool = True,
    trigger: int = 6,
    target: int = 7,
    final_set_tiebreak: bool = True,
    first_server: str = "A",
) -> dict:
    """Score a match naively, game by game, from a winner list.

    Consumes points until the match ends or the list runs out.  Server
    attribution uses the arithmetic helpers above rather than running
    state, so this shares no mechanics with the library's engine.
    Returns tallies plus the expected server of every consumed point.
    """
    points = {"A": 0, "B": 0}
    games = {"A": 0, "B": 0}
    sets = {"A": 0, "B": 0}
    set_scores: list[tuple[int, int]] = []
    servers: list[str] = []
    needed = best_of // 2 + 1
    game_no = 1
    cur = {"A": 0, "B": 0}
    i = 0
    match_winner = None

    while match_winner is None and i < len(winners):
        sets_done = sets["A"] + sets["B"]
        tiebreak = (
            cur["A"] == trigger
            and cur["B"] == trigger
            and (final_set_tiebreak or sets_done < best_of - 1)
        )
        game_points: list[str] = []
        game_winner = None
        if tiebreak:
            tb_opener = game_server_for(game_no, first_server)
            while game_winner is None and i < len(winners):
                servers.append(tiebreak_server_for_point(tb_opener, len(game_points) + 1))
                w = winners[i]
                i += 1
                points[w] += 1
                game_points.append(w)
                game_winner = naive_tiebreak_winner(game_points, target=target)
        else:
            server = game_server_for(game_no, first_server)
            while game_winner is None and i < len(winners):
                servers.append(server)
                w = winners[i]
                i += 1
                points[w] += 1
                game_points.append("S" if w == server else "R")
                token = naive_game_winner(game_points, no_ad=not ad)
                if token is not None:
                    game_winner = server if token == "S" else (
                        "A" if server == "B" else "B"
                    )
        if game_winner is None:
            break  # ran out of points mid-game
        games[game_winner] += 1
        cur[game_winner] += 1
        game_no += 1
        set_over = tiebreak or (
            cur[game_winner] >= trigger and cur[game_winner] - cur_other(cur, game_winner) >= 2
        )
        if set_over:
            set_scores.append((cur["A"], cur["B"]))
            sets[game_winner] += 1
            cur = {"A": 0, "B": 0}
            if sets[game_winner] == needed:
                match_winner = game_winner
    return {
        "points": points,
        "games": games,
        "sets": sets,
        "set_scores": set_scores,
        "winner": match_winner,
        "consumed": i,
        "servers": servers,
    }


def cur_other(cur: dict, player: str) -> int:
    return cur["B"] if player == "A" else cur["A"]


def game_win_probability(p: float) -> float:
    """P(server wins an ad-scored game) given per-point win chance p.

    Win to love/15/30 directly, else reach deuce and win from there.
    From deuce: P = p^2 / (1 - 2pq).
    """
    q = 1.0 - p
    direct = p**4 * (1.0 + 4.0 * q + 10.0 * q * q)
    if p in (0.0, 1.0):
        return p
    deuce = (p * p) / (1.0 - 2.0 * p * q)
    return direct + 20.0 * (p**3) * (q**3) * deuce


def game_win_probability_markov(p: Fraction) -> Fraction:
    """Same quantity by solving the game's score lattice exactly.

    States are (server points, returner points) capped at deuce; exact
    rational arithmetic, no shared algebra with the closed form above.
    """
    q = 1 - p
    # From deuce: w = p^2 + 2pq * w  =>  w = p^2 / (1 - 2pq)
    deuce = p * p / (1 - 2 * p * q)

    def win_from(s: int, r: int) -> Fraction:
        if s >= 4 and s - r >= 2:
            return Fraction(1)
        if r >= 4 and r - s >= 2:
            return Fraction(0)
        if s >= 3 and r >= 3 and s == r:
            return deuce
        return p * win_from(s + 1, r) + q * win_from(s, r + 1)

    return win_from(0, 0)


# Per-metric analytics: one pass over the records per statistic, with
# touch opportunities counted rally by rally.  The library tallies every
# statistic in one pass and sums per-player histograms instead.


def _filtered(records, tour):
    if tour is None:
        return records
    return (r for r in records if r.tour == tour)


def reference_profiles(records, tour=None, max_touch=DEFAULT_MAX_TOUCH):
    """A PlayerUfeProfile per player, counted rally by rally."""
    tallies = defaultdict(
        lambda: {
            "matches": set(),
            "contacts": 0,
            "ufes": 0,
            "touch_ufes": Counter(),
            "touch_opportunities": Counter(),
            "year_contacts": Counter(),
            "year_ufes": Counter(),
        }
    )
    for rec in _filtered(records, tour):
        tallies[rec.server_id]["matches"].add(rec.match_id)
        tallies[rec.receiver_id]["matches"].add(rec.match_id)
        if rec.is_first_serve_fault:
            continue
        t_star = rec.terminal_touch
        server_contacts, receiver_contacts = (t_star + 1) // 2, t_star // 2
        srv, rcv = tallies[rec.server_id], tallies[rec.receiver_id]
        srv["contacts"] += server_contacts
        rcv["contacts"] += receiver_contacts
        if rec.year is not None:
            srv["year_contacts"][rec.year] += server_contacts
            rcv["year_contacts"][rec.year] += receiver_contacts
        for t in range(2, min(t_star, max_touch) + 1):
            side = srv if t % 2 == 1 else rcv
            role = Role.SERVER.value if t % 2 == 1 else Role.RECEIVER.value
            side["touch_opportunities"][(role, t)] += 1
        if rec.terminal_kind is TerminalKind.UNFORCED_ERROR:
            who = rec.server_id if rec.error_committer is Role.SERVER else rec.receiver_id
            tally = tallies[who]
            tally["ufes"] += 1
            if rec.year is not None:
                tally["year_ufes"][rec.year] += 1
            if t_star <= max_touch:
                tally["touch_ufes"][(rec.error_committer.value, t_star)] += 1

    profiles = {}
    for player, tally in tallies.items():
        contacts, ufes = tally["contacts"], tally["ufes"]
        profiles[player] = PlayerUfeProfile(
            player_id=player,
            matches_played=len(tally["matches"]),
            ball_contacts=contacts,
            unforced_errors=ufes,
            ufe_rate=ufes / contacts if contacts else 0.0,
            per_touch_rates={
                key: tally["touch_ufes"].get(key, 0) / n
                for key, n in sorted(tally["touch_opportunities"].items())
                if n > 0
            },
            per_year_rates={
                year: tally["year_ufes"].get(year, 0) / n
                for year, n in sorted(tally["year_contacts"].items())
                if n > 0
            },
        )
    return profiles


def reference_touch_curve(records, tour=None, role=Role.SERVER, max_touch=DEFAULT_MAX_TOUCH):
    """[(t, errors on touch t / rallies lasting at least t)] for one role."""
    start = 3 if role is Role.SERVER else 2
    reach = Counter()
    errs = Counter()
    for rec in _filtered(records, tour):
        if rec.is_first_serve_fault:
            continue
        t_star = rec.terminal_touch
        for t in range(start, min(t_star, max_touch) + 1):
            if t % 2 == (1 if role is Role.SERVER else 0):
                reach[t] += 1
        if (
            rec.terminal_kind is TerminalKind.UNFORCED_ERROR
            and rec.error_committer is role
            and start <= t_star <= max_touch
        ):
            errs[t_star] += 1
    return [(t, errs.get(t, 0) / reach[t]) for t in sorted(reach)]


def reference_year_series(records, tour=None):
    contacts = Counter()
    errs = Counter()
    for rec in _filtered(records, tour):
        if rec.is_first_serve_fault or rec.year is None:
            continue
        contacts[rec.year] += rec.terminal_touch
        if rec.terminal_kind is TerminalKind.UNFORCED_ERROR:
            errs[rec.year] += 1
    return [(year, errs.get(year, 0) / contacts[year]) for year in sorted(contacts)]


def reference_termination_share(records, tour=None):
    decisive = ufes = 0
    for rec in _filtered(records, tour):
        if rec.is_first_serve_fault:
            continue
        decisive += 1
        if rec.terminal_kind is TerminalKind.UNFORCED_ERROR:
            ufes += 1
    return ufes / decisive if decisive else 0.0


def reference_ufe_rate(records, tour=None):
    contacts = ufes = 0
    for rec in _filtered(records, tour):
        if rec.is_first_serve_fault:
            continue
        contacts += rec.terminal_touch
        if rec.terminal_kind is TerminalKind.UNFORCED_ERROR:
            ufes += 1
    return ufes / contacts if contacts else 0.0


# The record consumers as they were before they read RecordTable
# columns: one loop over ServeRecord objects each.


def reference_resolve_player(records, requested):
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
        raise AmbiguousPlayerError(f"player name {requested!r} is ambiguous: {sorted(matches)}")
    return matches.pop()


def reference_build_pools(records, player_a, player_b, scope=PoolScope.HEAD_TO_HEAD):
    """The four pools in file order, as a dict of tuples; empty pools kept."""
    buckets = {pid: [] for pid in PoolId}
    for rec in records:
        if scope is PoolScope.HEAD_TO_HEAD:
            if {rec.server_id, rec.receiver_id} != {player_a, player_b}:
                continue
        if rec.server_id == player_a:
            side = "A"
        elif rec.server_id == player_b:
            side = "B"
        else:
            continue
        buckets[select_pool(side, rec.serve_number)].append(rec)
    return {pid: tuple(recs) for pid, recs in buckets.items()}


def reference_matches_per_player(records, tour=None):
    """list-players' count: distinct matches per player."""
    matches = {}
    for rec in records:
        if tour and rec.tour != tour:
            continue
        matches.setdefault(rec.server_id, set()).add(rec.match_id)
        matches.setdefault(rec.receiver_id, set()).add(rec.match_id)
    return {name: len(ids) for name, ids in matches.items()}


def reference_tally_records(records, tour=None, max_touch=DEFAULT_MAX_TOUCH):
    """tally_records' one pass, over ServeRecord objects."""
    tallies = defaultdict(lambda: _Tally(max_touch))
    for rec in records:
        if tour is not None and rec.tour != tour:
            continue
        srv, rcv = tallies[rec.server_id], tallies[rec.receiver_id]
        srv.matches.add(rec.match_id)
        rcv.matches.add(rec.match_id)
        if rec.is_first_serve_fault:
            continue
        t_star = rec.terminal_touch
        srv_contacts, rcv_contacts = touch_exposure(t_star)
        srv.contacts += srv_contacts
        rcv.contacts += rcv_contacts
        if rec.year is not None:
            srv.year_contacts[rec.year] += srv_contacts
            rcv.year_contacts[rec.year] += rcv_contacts
        touch_bin = min(t_star, max_touch)
        srv.served[touch_bin] += 1
        rcv.received[touch_bin] += 1
        if rec.terminal_kind is TerminalKind.UNFORCED_ERROR:
            tally = srv if rec.error_committer is Role.SERVER else rcv
            tally.ufes += 1
            if rec.year is not None:
                tally.year_ufes[rec.year] += 1
            if t_star <= max_touch:
                tally.touch_ufes[(rec.error_committer.value, t_star)] += 1
    return RecordTally(dict(tallies), max_touch)


# The simulator as it was before the serve pools were compiled to int
# codes: one sampled ServeRecord, one PointOutcome and one apply_point
# per point.  The library must walk the random stream exactly as these do.


def reference_simulate_point(pools, server, table, policy, rng):
    """Play one point with `server` ('A' or 'B') serving."""
    record = sample(pools, select_pool(server, 1), rng)
    serve_number = 1
    if record.is_first_serve_fault:
        record = sample(pools, select_pool(server, 2), rng)
        serve_number = 2

    ufe_by_a = False
    if record.terminal_kind is TerminalKind.UNFORCED_ERROR:
        committer = server if record.error_committer is Role.SERVER else other_player(server)
        if committer == "A":
            ufe_by_a = True
            if should_remove_ufe(policy, rng):
                winner = resolve_removed_ufe(table, record.terminal_touch, rng)
                return PointOutcome(winner, serve_number, True, True)

    winner = server if record.point_winner is Role.SERVER else other_player(server)
    return PointOutcome(winner, serve_number, ufe_by_a, False)


def reference_simulate_match(config, pools, table, rng, replicate_index=0):
    """Play one full match point by point through the scoring engine."""
    policy = ReductionPolicy(x=config.reduction_x)
    score = new_match(config.format, first_server_for(config, replicate_index, rng))
    kept = removed = 0
    while not score.match_over:
        outcome = reference_simulate_point(pools, score.current_server, table, policy, rng)
        if outcome.ufe_by_a:
            if outcome.ufe_removed:
                removed += 1
            else:
                kept += 1
        apply_point(score, outcome.winner)
    return MatchResult(
        points_won=tuple(score.cumulative_points_won),
        games_won=tuple(score.cumulative_games_won),
        sets_won=tuple(score.sets_won),
        set_scores=tuple(score.completed_set_scores),
        match_winner=score.match_winner,
        ufes_kept=kept,
        ufes_removed=removed,
    )


def reference_summarize(results, scenario):
    """summarize as it was over a list of MatchResults: one numpy array
    per metric, built from a list of Python floats."""
    n = len(results)

    def share(pair):
        return 100.0 * pair[0] / (pair[0] + pair[1]) if pair[0] + pair[1] else 0.0

    pts = np.array([share(r.points_won) for r in results])
    gms = np.array([share(r.games_won) for r in results])
    sts = np.array([share(r.sets_won) for r in results])
    wins = np.array([1.0 if r.match_winner == "A" else 0.0 for r in results])

    def se(arr):
        return float(arr.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0

    p_hat = float(wins.mean())
    return SimulationSummary(
        scenario=scenario,
        n_matches=n,
        pct_points_won_a=float(pts.mean()),
        pct_games_won_a=float(gms.mean()),
        pct_sets_won_a=float(sts.mean()),
        pct_matches_won_a=100.0 * p_hat,
        se_points=se(pts),
        se_games=se(gms),
        se_sets=se(sts),
        se_matches=binomial_se_pct(p_hat, n),
    )
