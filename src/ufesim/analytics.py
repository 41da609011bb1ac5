"""Descriptive statistics of unforced errors over normalized records.

Exposure accounting: in a rally of t* touches the server contacted the
ball ceil(t*/2) times and the receiver floor(t*/2) times.  First-serve
faults are excluded from exposure entirely; the point they belong to is
represented by its decisive second-serve record.  A double fault counts
as one server contact but is never an unforced error here.

Every statistic reads a RecordTable (a plain iterable of ServeRecords is
converted first): tally_records makes one pass over its column values,
matches_per_player counts distinct (player, match) pairs with numpy.
"""
from __future__ import annotations

import csv
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import PlayerNotFoundError
from .records import (
    KIND_CODES,
    NONE_CODE,
    ROLES,
    RecordTable,
    Role,
    ServeRecord,
    TerminalKind,
    as_table,
)

DEFAULT_MAX_TOUCH = 13


class TouchExposure(NamedTuple):
    server_contacts: int
    receiver_contacts: int


def touch_exposure(t_star: int) -> TouchExposure:
    """Ball contacts by each side in a rally that ended on touch t*."""
    if t_star < 1:
        raise ValueError(f"t_star must be at least 1, got {t_star}")
    return TouchExposure((t_star + 1) // 2, t_star // 2)


@dataclass(frozen=True, slots=True)
class PlayerUfeProfile:
    player_id: str
    matches_played: int
    ball_contacts: int
    unforced_errors: int
    ufe_rate: float
    per_touch_rates: Mapping[tuple[str, int], float]
    per_year_rates: Mapping[int, float]


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


def tally_records(
    records: RecordTable | Iterable[ServeRecord],
    tour: str | None = None,
    max_touch: int = DEFAULT_MAX_TOUCH,
) -> RecordTally:
    """One pass over the records' column values, counting per player."""
    table = as_table(records)
    rows = table.tour_rows(tour)
    columns = (
        table.match,
        table.server,
        table.receiver,
        table.touch,
        table.kind,
        table.committer,
        table.year,
    )
    fault = KIND_CODES[TerminalKind.FIRST_SERVE_FAULT]
    ufe = KIND_CODES[TerminalKind.UNFORCED_ERROR]
    roles = [role.value for role in ROLES]
    tallies: dict[int, _Tally] = defaultdict(lambda: _Tally(max_touch))
    for match, server, receiver, t_star, kind, committer, year in zip(
        *(column[rows].tolist() for column in columns)
    ):
        srv, rcv = tallies[server], tallies[receiver]
        srv.matches.add(match)
        rcv.matches.add(match)
        if kind == fault:
            continue
        # touch_exposure(t_star), inline.
        srv_contacts, rcv_contacts = (t_star + 1) // 2, t_star // 2
        srv.contacts += srv_contacts
        rcv.contacts += rcv_contacts
        if year != NONE_CODE:
            srv.year_contacts[year] += srv_contacts
            rcv.year_contacts[year] += rcv_contacts
        touch_bin = min(t_star, max_touch)
        srv.served[touch_bin] += 1
        rcv.received[touch_bin] += 1
        if kind == ufe:
            tally = srv if committer == 0 else rcv
            tally.ufes += 1
            if year != NONE_CODE:
                tally.year_ufes[year] += 1
            if t_star <= max_touch:
                tally.touch_ufes[(roles[committer], t_star)] += 1
    players = table.players
    return RecordTally({players[i]: tally for i, tally in tallies.items()}, max_touch)


def matches_per_player(
    records: RecordTable | Iterable[ServeRecord], tour: str | None = None
) -> dict[str, int]:
    """How many distinct matches each player served or received in."""
    table = as_table(records)
    rows = table.tour_rows(tour)
    n_matches = max(len(table.matches), 1)
    players = np.concatenate([table.server[rows], table.receiver[rows]]).astype(np.int64)
    pairs = np.unique(players * n_matches + np.tile(table.match[rows], 2))
    counts = np.bincount(pairs // n_matches, minlength=len(table.players))
    return {table.players[i]: int(counts[i]) for i in np.flatnonzero(counts)}


def collect_profiles(
    records: Iterable[ServeRecord],
    tour: str | None = None,
    max_touch: int = DEFAULT_MAX_TOUCH,
) -> dict[str, PlayerUfeProfile]:
    """A profile per player."""
    return tally_records(records, tour, max_touch).profiles()


def player_ufe_rate(records: Iterable[ServeRecord], player_id: str) -> PlayerUfeProfile:
    profiles = collect_profiles(records)
    if player_id not in profiles:
        raise PlayerNotFoundError(player_id)
    return profiles[player_id]


def ufe_rate_by_touch(
    records: Iterable[ServeRecord],
    tour: str | None = None,
    role: Role = Role.SERVER,
    max_touch: int = DEFAULT_MAX_TOUCH,
) -> list[tuple[int, float]]:
    """Tour-level UFE rate per touch for one role; see RecordTally.touch_curve."""
    return tally_records(records, tour, max_touch).touch_curve(role)


def ufe_rate_by_year(
    records: Iterable[ServeRecord], tour: str | None = None
) -> list[tuple[int, float]]:
    """Aggregate UFE-per-contact rate per calendar year, year-unknown
    records excluded."""
    return tally_records(records, tour).year_series()


def ufe_termination_share(records: Iterable[ServeRecord], tour: str | None = None) -> float:
    """Share of decisive serves that ended on an unforced error."""
    return tally_records(records, tour).termination_share()


def tour_ufe_rate(records: Iterable[ServeRecord], tour: str | None = None) -> float:
    """UFEs per ball contact over the whole corpus."""
    return tally_records(records, tour).ufe_rate()


def rate_rankings(
    profiles: Iterable[PlayerUfeProfile], min_matches: int, k: int
) -> tuple[list[PlayerUfeProfile], list[PlayerUfeProfile]]:
    """(lowest k, highest k) rates among players with enough matches."""
    if min_matches < 1:
        raise ValueError("min_matches must be at least 1")
    if k < 1:
        raise ValueError("k must be at least 1")
    eligible = [p for p in profiles if p.matches_played >= min_matches]
    lowest = sorted(eligible, key=lambda p: (p.ufe_rate, -p.matches_played, p.player_id))
    highest = sorted(eligible, key=lambda p: (-p.ufe_rate, -p.matches_played, p.player_id))
    return lowest[:k], highest[:k]


def histogram_bins(
    profiles: Iterable[PlayerUfeProfile],
    bin_width_pct: float = 0.5,
    max_pct: float = 20.0,
) -> list[tuple[float, float, int]]:
    """Counts of players per UFE-rate bin, rates in percent.

    Rates at or beyond max_pct land in the last bin.
    """
    n_bins = int(round(max_pct / bin_width_pct))
    counts = [0] * n_bins
    for p in profiles:
        pct = p.ufe_rate * 100.0
        idx = min(int(pct / bin_width_pct), n_bins - 1)
        counts[idx] += 1
    return [
        (i * bin_width_pct, (i + 1) * bin_width_pct, counts[i]) for i in range(n_bins)
    ]


def _write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def profiles_to_csv(profiles: Iterable[PlayerUfeProfile], path: str | Path) -> None:
    rows = [
        (p.player_id, p.matches_played, p.ball_contacts, p.unforced_errors, f"{p.ufe_rate:.6f}")
        for p in sorted(profiles, key=lambda p: p.player_id)
    ]
    _write_csv(path, ("player", "matches", "ball_contacts", "unforced_errors", "ufe_rate"), rows)


def rankings_to_csv(
    lowest: Sequence[PlayerUfeProfile],
    highest: Sequence[PlayerUfeProfile],
    path: str | Path,
) -> None:
    rows = []
    for group, members in (("lowest", lowest), ("highest", highest)):
        for rank, p in enumerate(members, start=1):
            rows.append((group, rank, p.player_id, p.matches_played, f"{p.ufe_rate:.6f}"))
    _write_csv(path, ("group", "rank", "player", "matches", "ufe_rate"), rows)


def touch_curve_to_csv(curve: Sequence[tuple[int, float]], path: str | Path) -> None:
    _write_csv(path, ("touch", "ufe_rate"), [(t, f"{r:.6f}") for t, r in curve])


def year_series_to_csv(series: Sequence[tuple[int, float]], path: str | Path) -> None:
    _write_csv(path, ("year", "ufe_rate"), [(y, f"{r:.6f}") for y, r in series])


def histogram_to_csv(bins: Sequence[tuple[float, float, int]], path: str | Path) -> None:
    _write_csv(
        path,
        ("bin_low_pct", "bin_high_pct", "players"),
        [(f"{lo:.2f}", f"{hi:.2f}", n) for lo, hi, n in bins],
    )
