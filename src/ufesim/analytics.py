"""Descriptive statistics of unforced errors over normalized records.

Exposure accounting: in a rally of t* touches the server contacted the
ball ceil(t*/2) times and the receiver floor(t*/2) times.  First-serve
faults are excluded from exposure entirely; the point they belong to is
represented by its decisive second-serve record.  A double fault counts
as one server contact but is never an unforced error here.

Every statistic reads a RecordTable (a plain iterable of ServeRecords is
converted first).  tally_records counts each player's matches, contacts,
errors and touch and year histograms with whole-column numpy bincounts,
all in integers; it and matches_per_player count each player's distinct
matches with records.count_matches, as the records sidecar does.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .records import (
    KIND_CODES,
    NONE_CODE,
    ROLE_CODES,
    ROLES,
    RecordTable,
    Role,
    ServeRecord,
    TerminalKind,
    as_table,
    count_matches,
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


def _suffix_sums(hist: np.ndarray) -> np.ndarray:
    """Suffix sums along the last axis: [..., t] counts the bins from t on."""
    return np.cumsum(hist[..., ::-1], axis=-1)[..., ::-1]


@dataclass(frozen=True, eq=False)
class RecordTally:
    """Per-player integer counts; every statistic is read off them.

    Row i of each array belongs to players[i].  served[i, t] and
    received[i, t] count the decisive serves player i hit or received
    whose rally ended on touch t, clamped at max_touch, so the rallies
    that reached touch t are the suffix sum from t.  touch_ufes[i, r, t]
    counts player i's unforced errors in role ROLES[r] on touch
    t <= max_touch.  year_contacts[i, y] and year_ufes[i, y] count
    player i's contacts and unforced errors in years[y].

    Each decisive record is served by exactly one player, so a
    tour-level figure is the sum of that figure's player counts.  Every
    count is an integer, so each rate is one exact int / int.
    """

    players: tuple[str, ...]
    max_touch: int
    matches: np.ndarray
    contacts: np.ndarray
    ufes: np.ndarray
    served: np.ndarray
    received: np.ndarray
    touch_ufes: np.ndarray
    years: tuple[int, ...]
    year_contacts: np.ndarray
    year_ufes: np.ndarray

    def profiles(self) -> dict[str, PlayerUfeProfile]:
        # A touch-t opportunity exists for whoever contacts touch t in any
        # rally that lasted at least t touches: the server on odd touches
        # from 3, the receiver on even touches from 2.
        curves = [
            (Role.RECEIVER, 2, _suffix_sums(self.received).tolist()),
            (Role.SERVER, 3, _suffix_sums(self.served).tolist()),
        ]
        touch_ufes = self.touch_ufes.tolist()
        year_contacts, year_ufes = self.year_contacts.tolist(), self.year_ufes.tolist()
        profiles: dict[str, PlayerUfeProfile] = {}
        for i, (player, matches, contacts, ufes) in enumerate(
            zip(self.players, self.matches.tolist(), self.contacts.tolist(), self.ufes.tolist())
        ):
            per_touch = {}
            for role, start, reach in curves:
                hits, errs = reach[i], touch_ufes[i][ROLE_CODES[role]]
                for t in range(start, self.max_touch + 1, 2):
                    if hits[t]:
                        per_touch[(role.value, t)] = errs[t] / hits[t]
            per_year = {
                year: errs / n
                for year, n, errs in zip(self.years, year_contacts[i], year_ufes[i])
                if n > 0
            }
            profiles[player] = PlayerUfeProfile(
                player_id=player,
                matches_played=matches,
                ball_contacts=contacts,
                unforced_errors=ufes,
                ufe_rate=ufes / contacts if contacts else 0.0,
                per_touch_rates=per_touch,
                per_year_rates=per_year,
            )
        return profiles

    def touch_curve(self, role: Role = Role.SERVER) -> list[tuple[int, float]]:
        """rate(t) = errors committed on touch t / rallies lasting at least
        t touches.  Server rates live on odd touches from 3, receiver
        rates on even touches from 2."""
        reach = _suffix_sums(self.served.sum(axis=0)).tolist()
        errs = self.touch_ufes[:, ROLE_CODES[role]].sum(axis=0).tolist()
        start = 3 if role is Role.SERVER else 2
        return [
            (t, errs[t] / reach[t]) for t in range(start, self.max_touch + 1, 2) if reach[t]
        ]

    def year_series(self) -> list[tuple[int, float]]:
        """UFE-per-contact rate per calendar year, year-unknown records
        excluded."""
        contacts = self.year_contacts.sum(axis=0).tolist()
        errs = self.year_ufes.sum(axis=0).tolist()
        return [(year, e / n) for year, n, e in zip(self.years, contacts, errs) if n]

    def ufe_rate(self) -> float:
        """UFEs per ball contact over every record tallied."""
        contacts, ufes = int(self.contacts.sum()), int(self.ufes.sum())
        return ufes / contacts if contacts else 0.0

    def termination_share(self) -> float:
        """Share of decisive serves that ended on an unforced error."""
        decisive, ufes = int(self.served.sum()), int(self.ufes.sum())
        return ufes / decisive if decisive else 0.0


def _first_seen(server: np.ndarray, receiver: np.ndarray, n_players: int) -> np.ndarray:
    """Player ids in the order a walk over the rows meets them, each
    row's server before its receiver."""
    end = 2 * len(server)
    first = np.full(n_players, end, dtype=np.int64)
    at = np.arange(0, end, 2, dtype=np.int64)
    np.minimum.at(first, server.astype(np.int64), at)
    at += 1
    np.minimum.at(first, receiver.astype(np.int64), at)
    seen = np.flatnonzero(first < end)
    return seen[np.argsort(first[seen])]


def _side_counts(
    players: np.ndarray,
    touch_bin: np.ndarray,
    year_index: np.ndarray,
    contacts: np.ndarray,
    shape: tuple[int, int, int],
) -> tuple[np.ndarray, np.ndarray]:
    """One side's (touch histogram, contacts per year index) per player
    id, for the decisive rows that side played in."""
    n_players, width, n_years = shape
    ids = players.astype(np.int64)
    key = ids * width
    key += touch_bin
    hist = np.bincount(key, minlength=n_players * width)
    ids *= n_years
    ids += year_index
    year_contacts = np.zeros(n_players * n_years, dtype=np.int64)
    np.add.at(year_contacts, ids, contacts.astype(np.int64))
    return hist.reshape(n_players, width), year_contacts.reshape(n_players, n_years)


def tally_records(
    records: RecordTable | Iterable[ServeRecord],
    tour: str | None = None,
    max_touch: int = DEFAULT_MAX_TOUCH,
) -> RecordTally:
    """Per-player counts over one tour's rows, as whole-column bincounts.

    Sums run in integers (bincount without weights, np.add.at on int64
    index and value arrays, its fast path), so each rate stays one exact
    int / int.  To keep the peak memory low, only the columns a count
    needs are sliced, and only keys and summed values widen to int64.
    """
    table = as_table(records)
    rows = table.tour_rows(tour)
    n_players, width = len(table.players), max_touch + 1
    server, receiver = table.server[rows], table.receiver[rows]
    order = _first_seen(server, receiver, n_players)
    matches = count_matches(table, server, receiver, table.match[rows])

    kind = table.kind[rows]
    decisive = kind != KIND_CODES[TerminalKind.FIRST_SERVE_FAULT]
    kind = kind[decisive]
    touch = table.touch[rows][decisive]
    # Year-unknown rows count under NONE_CODE, so a player's year counts
    # sum to the totals; that column is dropped at the end.
    years, year_index = np.unique(table.year[rows][decisive], return_inverse=True)
    shape = (n_players, width, len(years))
    touch_bin = np.minimum(touch, max_touch)
    # touch_exposure per row; touch - touch // 2 cannot wrap as (touch + 1) // 2 can.
    rcv_contacts = touch // 2
    served, srv_years = _side_counts(
        server[decisive], touch_bin, year_index, touch - rcv_contacts, shape
    )
    received, year_contacts = _side_counts(
        receiver[decisive], touch_bin, year_index, rcv_contacts, shape
    )
    year_contacts += srv_years

    is_ufe = kind == KIND_CODES[TerminalKind.UNFORCED_ERROR]
    committer = table.committer[rows][decisive][is_ufe].astype(np.int64)
    who = np.where(
        committer == ROLE_CODES[Role.SERVER], server[decisive][is_ufe], receiver[decisive][is_ufe]
    ).astype(np.int64)
    year_ufes = np.bincount(
        who * len(years) + year_index[is_ufe], minlength=n_players * len(years)
    ).reshape(n_players, len(years))
    ufe_touch = touch[is_ufe]
    on_curve = ufe_touch <= max_touch
    key = (who[on_curve] * len(ROLES) + committer[on_curve]) * width + ufe_touch[on_curve]
    touch_ufes = np.bincount(key, minlength=n_players * len(ROLES) * width).reshape(
        n_players, len(ROLES), width
    )

    known = years != NONE_CODE
    return RecordTally(
        players=tuple(table.players[i] for i in order.tolist()),
        max_touch=max_touch,
        matches=matches[order],
        contacts=year_contacts[order].sum(axis=1),
        ufes=year_ufes[order].sum(axis=1),
        served=served[order],
        received=received[order],
        touch_ufes=touch_ufes[order],
        years=tuple(years[known].tolist()),
        year_contacts=year_contacts[order][:, known],
        year_ufes=year_ufes[order][:, known],
    )


def matches_per_player(
    records: RecordTable | Iterable[ServeRecord], tour: str | None = None
) -> dict[str, int]:
    """How many distinct matches each player served or received in."""
    table = as_table(records)
    counts = table.match_counts(tour)
    return {table.players[i]: int(counts[i]) for i in np.flatnonzero(counts)}


def collect_profiles(
    records: RecordTable | Iterable[ServeRecord],
    tour: str | None = None,
    max_touch: int = DEFAULT_MAX_TOUCH,
) -> dict[str, PlayerUfeProfile]:
    """A profile per player."""
    return tally_records(records, tour, max_touch).profiles()


def ufe_rate_by_touch(
    records: RecordTable | Iterable[ServeRecord],
    tour: str | None = None,
    role: Role = Role.SERVER,
    max_touch: int = DEFAULT_MAX_TOUCH,
) -> list[tuple[int, float]]:
    """Tour-level UFE rate per touch for one role; see RecordTally.touch_curve."""
    return tally_records(records, tour, max_touch).touch_curve(role)


def ufe_rate_by_year(
    records: RecordTable | Iterable[ServeRecord], tour: str | None = None
) -> list[tuple[int, float]]:
    """Aggregate UFE-per-contact rate per calendar year, year-unknown
    records excluded."""
    return tally_records(records, tour).year_series()


def ufe_termination_share(
    records: RecordTable | Iterable[ServeRecord], tour: str | None = None
) -> float:
    """Share of decisive serves that ended on an unforced error."""
    return tally_records(records, tour).termination_share()


def tour_ufe_rate(
    records: RecordTable | Iterable[ServeRecord], tour: str | None = None
) -> float:
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
