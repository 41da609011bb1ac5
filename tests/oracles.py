"""Independent reference implementations used only by the test suite.

Everything here is written against the rules of tennis directly, on
purpose in a different style from the library (string states, arithmetic
server derivation) so that agreement between the two is meaningful.
"""
from __future__ import annotations

import csv
import math
import re
from collections import Counter, defaultdict
from dataclasses import replace
from fractions import Fraction
from itertools import accumulate
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from ufesim.analytics import DEFAULT_MAX_TOUCH, PlayerUfeProfile, touch_exposure
from ufesim.cli import _normalize_name
from ufesim.counterfactual import (
    MAX_TOUCH,
    ReductionPolicy,
    resolve_removed_ufe,
    should_remove_ufe,
)
from ufesim.errors import (
    AmbiguousPlayerError,
    CsvFormatError,
    DuplicatePointError,
    NotationError,
    PlayerNotFoundError,
)
from ufesim.ingest import REQUIRED_COLUMNS, IngestReport, MatchMeta, parse_match_id
from ufesim.notation import ParsedPoint
from ufesim.pools import FAULT, PoolId, PoolScope, ServePool, select_pool
from ufesim.records import (
    KIND_CODES,
    KINDS,
    NONE_CODE,
    RECORD_FIELDS,
    ROLE_CODES,
    ROLES,
    RawPointRow,
    RecordTable,
    Role,
    ServeRecord,
    TerminalKind,
    open_csv,
    opponent_role,
)
from ufesim.scoring import apply_point, new_match, other_player
from ufesim.sidecar import (
    RECEIVER_ERROR,
    RECEIVER_WINS,
    SERVE_FAULT,
    SERVER_ERROR,
    SERVER_WINS,
)
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
# touch opportunities counted rally by rally.  The library counts every
# statistic with whole-column bincounts and sums per-player histograms
# instead.


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


def reference_point_code(record, server):
    """The point code of one record served by A (server 0) or B (1); an
    error by A codes its touch, clamped at MAX_TOUCH."""
    if record.is_first_serve_fault:
        return FAULT
    if record.terminal_kind is TerminalKind.UNFORCED_ERROR:
        committer = server if record.error_committer is Role.SERVER else 1 - server
        if committer == 0:
            return min(record.terminal_touch, MAX_TOUCH)
    return server if record.point_winner is Role.SERVER else 1 - server


def reference_serve_code(record):
    """The serve code of one record, relative to its server; an
    unforced error codes its committer's role and its touch, clamped at
    MAX_TOUCH."""
    if record.is_first_serve_fault:
        return SERVE_FAULT
    if record.terminal_kind is TerminalKind.UNFORCED_ERROR:
        base = SERVER_ERROR if record.error_committer is Role.SERVER else RECEIVER_ERROR
        return base + min(record.terminal_touch, MAX_TOUCH)
    return SERVER_WINS if record.point_winner is Role.SERVER else RECEIVER_WINS


def reference_serve_pool(records):
    """The ServePool of records, in their order: their serve codes and
    the tours they name."""
    return ServePool(
        bytes(map(reference_serve_code, records)),
        frozenset(rec.tour for rec in records if rec.tour is not None),
    )


def reference_pool_summary(pools, player_a, player_b, scope):
    """pool_summary's counts over a dict of pools of records."""
    out = {"player_a": player_a, "player_b": player_b, "scope": scope.value, "pools": {}}
    for pid in PoolId:
        recs = pools[pid]
        faults = sum(1 for r in recs if r.is_first_serve_fault)
        ufes = sum(1 for r in recs if r.terminal_kind is TerminalKind.UNFORCED_ERROR)
        server_ufes = sum(
            1
            for r in recs
            if r.terminal_kind is TerminalKind.UNFORCED_ERROR and r.error_committer is Role.SERVER
        )
        out["pools"][pid.value] = {
            "size": len(recs),
            "first_serve_faults": faults,
            "unforced_errors": ufes,
            "unforced_errors_by_server": server_ufes,
        }
    return out


def reference_matches_per_player(records, tour=None):
    """list-players' count: distinct matches per player."""
    matches = {}
    for rec in records:
        if tour and rec.tour != tour:
            continue
        matches.setdefault(rec.server_id, set()).add(rec.match_id)
        matches.setdefault(rec.receiver_id, set()).add(rec.match_id)
    return {name: len(ids) for name, ids in matches.items()}


# The tally as it was before it counted with whole-column bincounts: one
# _Tally of Python ints, Counters and sets per player, filled record by
# record.


class _Tally:
    """One player's counts.

    served[t] and received[t] count the decisive serves this player hit
    or received whose rally ended on touch t, clamped at max_touch, so
    the rallies that reached touch t are the suffix sum from t.
    """

    __slots__ = (
        "matches",
        "contacts",
        "ufes",
        "touch_ufes",
        "served",
        "received",
        "year_contacts",
        "year_ufes",
    )

    def __init__(self, max_touch: int) -> None:
        self.matches: set[int] = set()
        self.contacts = 0
        self.ufes = 0
        self.touch_ufes: Counter[tuple[str, int]] = Counter()
        self.served = [0] * (max_touch + 1)
        self.received = [0] * (max_touch + 1)
        self.year_contacts: Counter[int] = Counter()
        self.year_ufes: Counter[int] = Counter()


def _suffix_sums(hist: Sequence[int]) -> list[int]:
    return list(accumulate(reversed(hist)))[::-1]


class RecordTally:
    """Per-player counts from one pass; every statistic is read off them.

    Each decisive record is served by exactly one player, so a
    tour-level figure is the sum of that figure's player counts.
    """

    def __init__(self, players: Mapping[str, _Tally], max_touch: int) -> None:
        self.players = players
        self.max_touch = max_touch

    def profiles(self) -> dict[str, PlayerUfeProfile]:
        profiles: dict[str, PlayerUfeProfile] = {}
        for player, tally in self.players.items():
            # A touch-t opportunity exists for whoever contacts touch t in
            # any rally that lasted at least t touches: the server on odd
            # touches from 3, the receiver on even touches from 2.
            per_touch = {}
            for role, hist, start in (
                (Role.RECEIVER.value, tally.received, 2),
                (Role.SERVER.value, tally.served, 3),
            ):
                reach = _suffix_sums(hist)
                for t in range(start, self.max_touch + 1, 2):
                    if reach[t]:
                        per_touch[(role, t)] = tally.touch_ufes[(role, t)] / reach[t]
            per_year = {
                year: tally.year_ufes[year] / contacts
                for year, contacts in sorted(tally.year_contacts.items())
                if contacts > 0
            }
            profiles[player] = PlayerUfeProfile(
                player_id=player,
                matches_played=len(tally.matches),
                ball_contacts=tally.contacts,
                unforced_errors=tally.ufes,
                ufe_rate=tally.ufes / tally.contacts if tally.contacts else 0.0,
                per_touch_rates=per_touch,
                per_year_rates=per_year,
            )
        return profiles

    def touch_curve(self, role: Role = Role.SERVER) -> list[tuple[int, float]]:
        """rate(t) = errors committed on touch t / rallies lasting at least
        t touches.  Server rates live on odd touches from 3, receiver
        rates on even touches from 2."""
        served = [0] * (self.max_touch + 1)
        errs: Counter[tuple[str, int]] = Counter()
        for tally in self.players.values():
            for t, n in enumerate(tally.served):
                served[t] += n
            errs.update(tally.touch_ufes)
        reach = _suffix_sums(served)
        start = 3 if role is Role.SERVER else 2
        return [
            (t, errs[(role.value, t)] / reach[t])
            for t in range(start, self.max_touch + 1, 2)
            if reach[t]
        ]

    def year_series(self) -> list[tuple[int, float]]:
        """UFE-per-contact rate per calendar year, year-unknown records
        excluded."""
        contacts: Counter[int] = Counter()
        errs: Counter[int] = Counter()
        for tally in self.players.values():
            contacts.update(tally.year_contacts)
            errs.update(tally.year_ufes)
        return [
            (year, errs[year] / contacts[year]) for year in sorted(contacts) if contacts[year]
        ]

    def ufe_rate(self) -> float:
        """UFEs per ball contact over every record tallied."""
        contacts = sum(t.contacts for t in self.players.values())
        ufes = sum(t.ufes for t in self.players.values())
        return ufes / contacts if contacts else 0.0

    def termination_share(self) -> float:
        """Share of decisive serves that ended on an unforced error."""
        decisive = sum(sum(t.served) for t in self.players.values())
        ufes = sum(t.ufes for t in self.players.values())
        return ufes / decisive if decisive else 0.0


def reference_tally_records(records, tour=None, max_touch=DEFAULT_MAX_TOUCH):
    """The record-by-record tally, over ServeRecord objects."""
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
    """Play one point with `server` ('A' or 'B') serving, from the pools
    of records reference_build_pools partitions."""
    # A uniform draw with replacement: exactly one rng.random() each.
    pool = pools[select_pool(server, 1)]
    record = pool[int(rng.random() * len(pool))]
    serve_number = 1
    if record.is_first_serve_fault:
        pool = pools[select_pool(server, 2)]
        record = pool[int(rng.random() * len(pool))]
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
    """Play one full match point by point through the scoring engine, from
    the pools of records reference_build_pools partitions."""
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


def reference_summarize_columns(columns, scenario):
    """simulate._summarize_columns as it was with numpy: each metric a
    contiguous float64 array, its means and SEs numpy's."""
    pts, gms, sts, wins = (np.array(column, dtype=np.float64) for column in columns)
    n = len(pts)
    if n < 1:
        raise ValueError("cannot summarize zero matches")

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


def reference_summarize(results, scenario):
    """summarize as it was over a list of MatchResults: one list of
    Python floats per metric, summarized with numpy."""

    def share(pair):
        return 100.0 * pair[0] / (pair[0] + pair[1]) if pair[0] + pair[1] else 0.0

    columns = (
        [share(r.points_won) for r in results],
        [share(r.games_won) for r in results],
        [share(r.sets_won) for r in results],
        [1.0 if r.match_winner == "A" else 0.0 for r in results],
    )
    return reference_summarize_columns(columns, scenario)


# parse_shot_notation as it was before one compiled pattern decided which
# notations are accepted: a walk over the characters.

SERVE_DIRECTIONS = frozenset("0456")
FAULT_LETTERS = frozenset("nwdxge!")
RALLY_SHOTS = frozenset("fbrsvzopuylmhijktq")
SHOT_ANNOTATIONS = frozenset("0123789")
SHOT_MODIFIERS = frozenset("+-=;")
ERROR_DETAILS = frozenset("nwdxe!")
TERMINALS = frozenset("*@#")


def _reference_committer(touch: int) -> Role:
    # Odd touches are the server's contacts, even touches the receiver's.
    return Role.SERVER if touch % 2 == 1 else Role.RECEIVER


def reference_parse_shot_notation(notation: str, serve_number: int) -> ParsedPoint:
    """Decode one serve's notation into (touch, kind, committer, winner).

    serve_number tells fault handling apart: a bare fault is a
    first_serve_fault for serve 1 and a double_fault for serve 2.
    Raises NotationError for anything outside the key above.
    """
    if serve_number not in (1, 2):
        raise ValueError(f"serve_number must be 1 or 2, got {serve_number}")
    s = notation.strip()
    if not s:
        raise NotationError("empty notation", notation=notation, offset=0)

    i = 0
    while i < len(s) and s[i] == "c":  # lets replay the same serve; skip them
        i += 1
    if i >= len(s):
        raise NotationError("nothing after let marks", notation=notation, offset=i)
    if s[i] not in SERVE_DIRECTIONS:
        raise NotationError(
            f"expected a serve direction digit, found {s[i]!r}", notation=notation, offset=i
        )
    i += 1
    if i < len(s) and s[i] == "+":  # serve-and-volley intent
        i += 1

    if i < len(s) and s[i] in FAULT_LETTERS:
        while i < len(s) and s[i] in FAULT_LETTERS:
            i += 1
        if i != len(s):
            raise NotationError(
                f"unexpected {s[i]!r} after a serve fault", notation=notation, offset=i
            )
        if serve_number == 1:
            return ParsedPoint(1, TerminalKind.FIRST_SERVE_FAULT, None, None)
        return ParsedPoint(1, TerminalKind.DOUBLE_FAULT, None, Role.RECEIVER)

    touch = 1
    while i < len(s):
        ch = s[i]
        if ch in TERMINALS:
            if i != len(s) - 1:
                raise NotationError(
                    f"characters after terminal marker {ch!r}", notation=notation, offset=i + 1
                )
            return _reference_terminal(ch, touch, notation, i)
        if ch in RALLY_SHOTS:
            touch += 1
        elif ch in SHOT_ANNOTATIONS or ch in SHOT_MODIFIERS or ch in ERROR_DETAILS:
            pass
        else:
            raise NotationError(f"unrecognized shot code {ch!r}", notation=notation, offset=i)
        i += 1

    raise NotationError("missing terminal marker", notation=notation, offset=len(s))


def _reference_terminal(mark: str, touch: int, notation: str, offset: int) -> ParsedPoint:
    if mark == "*":
        if touch == 1:
            return ParsedPoint(1, TerminalKind.ACE, None, Role.SERVER)
        return ParsedPoint(touch, TerminalKind.RALLY_WINNER, None, _reference_committer(touch))
    if mark == "#":
        if touch == 1:
            return ParsedPoint(1, TerminalKind.SERVICE_WINNER, None, Role.SERVER)
        who = _reference_committer(touch)
        return ParsedPoint(touch, TerminalKind.FORCED_ERROR, who, opponent_role(who))
    # '@'
    if touch == 1:
        raise NotationError(
            "unforced error marker on the serve itself", notation=notation, offset=offset
        )
    who = _reference_committer(touch)
    return ParsedPoint(touch, TerminalKind.UNFORCED_ERROR, who, opponent_role(who))


# The staged ingest pipeline and the record-by-record CSV writer as they
# were before ingest streamed into table columns: parse a whole file
# into rows, check duplicates, clean, explode, then write record by
# record.

_RALLY_COUNT_RE = re.compile(r"^[0-9]+$")


def _reference_parse_points_file(path):
    path = Path(path)
    rows: list[RawPointRow] = []
    with open_csv(path, encoding="utf-8-sig") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise CsvFormatError("file has no header row", path=str(path))
        for column in REQUIRED_COLUMNS:
            if column not in reader.fieldnames:
                raise CsvFormatError(
                    f"missing required column {column!r}", path=str(path)
                )
        for raw in reader:
            line = reader.line_num
            if raw.get(None) is not None or any(
                raw.get(c) is None for c in REQUIRED_COLUMNS
            ):
                raise CsvFormatError("wrong number of fields", path=str(path), line=line)
            match_id = raw["match_id"].strip()
            try:
                meta = parse_match_id(match_id)
            except ValueError as exc:
                raise CsvFormatError(str(exc), path=str(path), line=line) from None
            try:
                point_index = int(raw["Pt"])
            except ValueError:
                raise CsvFormatError(
                    f"Pt value {raw['Pt']!r} is not an integer", path=str(path), line=line
                ) from None
            svr = raw["Svr"].strip()
            if svr == "1":
                server_id, receiver_id = meta.player1, meta.player2
            elif svr == "2":
                server_id, receiver_id = meta.player2, meta.player1
            else:
                raise CsvFormatError(
                    f"Svr value {raw['Svr']!r} is not 1 or 2", path=str(path), line=line
                )
            rows.append(
                RawPointRow(
                    match_id=match_id,
                    point_index=point_index,
                    server_id=server_id,
                    receiver_id=receiver_id,
                    first_serve_notation=raw["1st"].strip(),
                    second_serve_notation=raw["2nd"].strip(),
                    rally_count=raw["rallyCount"].strip(),
                )
            )
    return rows


def _reference_clean_rows(rows):
    kept = [row for row in rows if _RALLY_COUNT_RE.match(row.rally_count)]
    report = IngestReport(
        rows_read=len(rows), rows_dropped_bad_rally_count=len(rows) - len(kept)
    )
    return kept, report


def _reference_fault_record(row: RawPointRow, meta: MatchMeta) -> ServeRecord:
    return ServeRecord(
        match_id=row.match_id,
        server_id=row.server_id,
        receiver_id=row.receiver_id,
        serve_number=1,
        is_first_serve_fault=True,
        terminal_touch=1,
        terminal_kind=TerminalKind.FIRST_SERVE_FAULT,
        point_winner=None,
        error_committer=None,
        year=meta.year,
        tour=meta.tour,
    )


def _reference_explode_to_serves(rows):
    records: list[ServeRecord] = []
    augmented = dropped = 0
    for row in rows:
        meta = parse_match_id(row.match_id)
        serve_number = 2 if row.second_serve_notation else 1
        try:
            parsed = reference_parse_shot_notation(
                row.second_serve_notation or row.first_serve_notation, serve_number
            )
        except NotationError:
            dropped += 1
            continue
        if serve_number == 2:
            records.append(_reference_fault_record(row, meta))
            augmented += 1
        records.append(
            ServeRecord(
                match_id=row.match_id,
                server_id=row.server_id,
                receiver_id=row.receiver_id,
                serve_number=serve_number,
                is_first_serve_fault=parsed.terminal_kind is TerminalKind.FIRST_SERVE_FAULT,
                terminal_touch=parsed.terminal_touch,
                terminal_kind=parsed.terminal_kind,
                point_winner=parsed.point_winner,
                error_committer=parsed.error_committer,
                year=meta.year,
                tour=meta.tour,
            )
        )
    report = IngestReport(
        rows_read=len(rows),
        rows_dropped_bad_notation=dropped,
        serve_records_emitted=len(records),
        points_augmented_with_fault_serve=augmented,
    )
    return records, report


def reference_ingest_files(paths):
    """Full pipeline over several files with cross-file duplicate checks."""
    all_records: list[ServeRecord] = []
    total = IngestReport()
    seen: set[tuple[str, int]] = set()
    for path in paths:
        rows = _reference_parse_points_file(path)
        for row in rows:
            key = (row.match_id, row.point_index)
            if key in seen:
                raise DuplicatePointError(row.match_id, row.point_index)
            seen.add(key)
        cleaned, clean_report = _reference_clean_rows(rows)
        records, explode_report = _reference_explode_to_serves(cleaned)
        all_records.extend(records)
        # explode_to_serves reads only the rows clean_rows kept.
        total = total.combined(clean_report).combined(replace(explode_report, rows_read=0))
    return all_records, total


def _reference_record_to_strings(rec: ServeRecord) -> list[str]:
    return [
        rec.match_id,
        rec.server_id,
        rec.receiver_id,
        str(rec.serve_number),
        "true" if rec.is_first_serve_fault else "false",
        str(rec.terminal_touch),
        rec.terminal_kind.value,
        rec.point_winner.value if rec.point_winner else "none",
        rec.error_committer.value if rec.error_committer else "none",
        "" if rec.year is None else str(rec.year),
        rec.tour or "",
    ]


def reference_write_records_csv(records, path) -> None:
    """write_records_csv as it was before it formatted its own lines:
    csv.writer over every row's fields, taken from a RecordTable's
    columns in chunks, or record by record from any other iterable."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(RECORD_FIELDS)
        if not isinstance(records, RecordTable):
            for rec in records:
                writer.writerow(_reference_record_to_strings(rec))
            return
        # Chunks keep the rows' strings to a fixed number at a time.
        for start in range(0, len(records), _REFERENCE_WRITE_CHUNK):
            writer.writerows(
                _reference_csv_rows(records, slice(start, start + _REFERENCE_WRITE_CHUNK))
            )


_REFERENCE_WRITE_CHUNK = 4096
_REFERENCE_FAULT = KIND_CODES[TerminalKind.FIRST_SERVE_FAULT]
_KIND_NAMES = tuple(kind.value for kind in KINDS)
# Index -1 picks the trailing "none".
_ROLE_NAMES = (*(role.value for role in ROLES), "none")


def _reference_csv_rows(table: RecordTable, rows: slice):
    """The CSV fields of a slice of a table's rows, in RECORD_FIELDS order."""
    matches, players = table.matches, table.players
    tours = (*table.tours, "")
    columns = [getattr(table, name)[rows].tolist() for name, _ in _REFERENCE_COLUMNS]
    for m, s, r, serve, touch, kind, winner, committer, year, tour in zip(*columns):
        yield [
            matches[m],
            players[s],
            players[r],
            str(serve),
            "true" if kind == _REFERENCE_FAULT else "false",
            str(touch),
            _KIND_NAMES[kind],
            _ROLE_NAMES[winner],
            _ROLE_NAMES[committer],
            "" if year == NONE_CODE else str(year),
            tours[tour],
        ]


# RecordTable.from_records as it was before every table was built by one
# TableBuilder: one generator per column, but the players interned row by
# row, server before receiver.

_REFERENCE_COLUMNS = (
    ("match", np.int32),
    ("server", np.int32),
    ("receiver", np.int32),
    ("serve_number", np.int8),
    ("touch", np.int32),
    ("kind", np.int8),
    ("winner", np.int8),
    ("committer", np.int8),
    ("year", np.int16),
    ("tour", np.int32),
)


def reference_from_records(records) -> RecordTable:
    """Columns for records in iteration order; each string's id is its
    place in the order the records first name it, a record naming its
    server before its receiver."""
    records = list(records)
    matches: dict[str, int] = {}
    players: dict[str, int] = {}
    tours: dict[str | None, int] = {None: 0}
    pairs = [
        (players.setdefault(r.server_id, len(players)),
         players.setdefault(r.receiver_id, len(players)))
        for r in records
    ]

    # One generator per column, so no other column exists as a Python list.
    values = {
        "match": (matches.setdefault(r.match_id, len(matches)) for r in records),
        "server": (server for server, _ in pairs),
        "receiver": (receiver for _, receiver in pairs),
        "serve_number": (r.serve_number for r in records),
        "touch": (r.terminal_touch for r in records),
        "kind": (KIND_CODES[r.terminal_kind] for r in records),
        "winner": (ROLE_CODES[r.point_winner] for r in records),
        "committer": (ROLE_CODES[r.error_committer] for r in records),
        "year": (NONE_CODE if r.year is None else r.year for r in records),
        # None holds id 0 while interning; shifting by one gives it -1.
        "tour": (tours.setdefault(r.tour, len(tours)) - 1 for r in records),
    }
    columns = {
        name: np.fromiter(values[name], dtype=dtype, count=len(records))
        for name, dtype in _REFERENCE_COLUMNS
    }
    del tours[None]
    return RecordTable(
        **columns,
        matches=tuple(matches),
        players=tuple(players),
        tours=tuple(tours),
    )
