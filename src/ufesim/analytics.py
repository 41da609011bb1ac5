"""Descriptive statistics of unforced errors over normalized records.

Exposure accounting: in a rally of t* touches the server contacted the
ball ceil(t*/2) times and the receiver floor(t*/2) times.  First-serve
faults are excluded from exposure entirely; the point they belong to is
represented by its decisive second-serve record.  A double fault counts
as one server contact but is never an unforced error here.

Every statistic reads a RecordTally: each player's matches, contacts,
errors and touch and year histograms, as plain lists of ints, so each
rate is one exact int / int.  tally_records is the one builder: it reads
a RecordTable (a plain iterable of ServeRecords is converted first) with
numpy bincounts, and counts each player's distinct matches in the same
pass.  One pass tallies every tour and each tour, and
tour_tally picks one; the records sidecar keeps those tallies, so stats
reads a tally without numpy.  This module imports numpy and records
only inside tally_records.
"""
from __future__ import annotations

import csv
from itertools import accumulate
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple, Sequence

from .sidecar import KIND_CODES, NONE_CODE, ROLE_CODES, ROLES, Role, TerminalKind

if TYPE_CHECKING:
    import numpy as np

    from .records import RecordTable, ServeRecord

DEFAULT_MAX_TOUCH = 13
# Rows tally_records takes at a time, so that its temporaries stay near
# 100 kB however long the table: ingest tallies the table it has made at
# its own peak of memory.
_COUNT_ROWS = 8192


class TouchExposure(NamedTuple):
    server_contacts: int
    receiver_contacts: int


def touch_exposure(t_star: int) -> TouchExposure:
    """Ball contacts by each side in a rally that ended on touch t*."""
    if t_star < 1:
        raise ValueError(f"t_star must be at least 1, got {t_star}")
    return TouchExposure((t_star + 1) // 2, t_star // 2)


class PlayerUfeProfile(NamedTuple):
    player_id: str
    matches_played: int
    ball_contacts: int
    unforced_errors: int
    ufe_rate: float
    per_touch_rates: Mapping[tuple[str, int], float]
    per_year_rates: Mapping[int, float]


def _suffix_sums(counts: Sequence[int]) -> list[int]:
    """[t] counts the bins from t on."""
    return list(accumulate(reversed(counts)))[::-1]


def _column_sums(rows: Sequence[Sequence[int]], width: int) -> list[int]:
    """The sum of each column of rows of `width` ints."""
    return [sum(column) for column in zip(*rows)] if rows else [0] * width


class RecordTally(NamedTuple):
    """Per-player integer counts; every statistic is read off them.

    Item i of each list belongs to players[i].  served[i][t] and
    received[i][t] count the decisive serves player i hit or received
    whose rally ended on touch t, clamped at max_touch, so the rallies
    that reached touch t are the suffix sum from t.  touch_ufes[i][r][t]
    counts player i's unforced errors in role ROLES[r] on touch
    t <= max_touch.  year_contacts[i][y] and year_ufes[i][y] count
    player i's contacts and unforced errors in years[y].

    Each decisive record is served by exactly one player, so a
    tour-level figure is the sum of that figure's player counts.  Every
    count is an int, so each rate is one exact int / int.
    """

    players: tuple[str, ...]
    max_touch: int
    matches: list[int]
    contacts: list[int]
    ufes: list[int]
    served: list[list[int]]
    received: list[list[int]]
    touch_ufes: list[list[list[int]]]
    years: tuple[int, ...]
    year_contacts: list[list[int]]
    year_ufes: list[list[int]]

    def profiles(self) -> dict[str, PlayerUfeProfile]:
        # A touch-t opportunity exists for whoever contacts touch t in any
        # rally that lasted at least t touches: the server on odd touches
        # from 3, the receiver on even touches from 2.
        curves = [(Role.RECEIVER, 2, self.received), (Role.SERVER, 3, self.served)]
        profiles: dict[str, PlayerUfeProfile] = {}
        for i, (player, matches, contacts, ufes) in enumerate(
            zip(self.players, self.matches, self.contacts, self.ufes)
        ):
            per_touch = {}
            for role, start, hist in curves:
                hits, errs = _suffix_sums(hist[i]), self.touch_ufes[i][ROLE_CODES[role]]
                for t in range(start, self.max_touch + 1, 2):
                    if hits[t]:
                        per_touch[(role.value, t)] = errs[t] / hits[t]
            per_year = {
                year: errs / n
                for year, n, errs in zip(self.years, self.year_contacts[i], self.year_ufes[i])
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
        width = self.max_touch + 1
        reach = _suffix_sums(_column_sums(self.served, width))
        errs = _column_sums([player[ROLE_CODES[role]] for player in self.touch_ufes], width)
        start = 3 if role is Role.SERVER else 2
        return [
            (t, errs[t] / reach[t]) for t in range(start, self.max_touch + 1, 2) if reach[t]
        ]

    def year_series(self) -> list[tuple[int, float]]:
        """UFE-per-contact rate per calendar year, year-unknown records
        excluded."""
        contacts = _column_sums(self.year_contacts, len(self.years))
        errs = _column_sums(self.year_ufes, len(self.years))
        return [(year, e / n) for year, n, e in zip(self.years, contacts, errs) if n]

    def ufe_rate(self) -> float:
        """UFEs per ball contact over every record tallied."""
        contacts, ufes = sum(self.contacts), sum(self.ufes)
        return ufes / contacts if contacts else 0.0

    def termination_share(self) -> float:
        """Share of decisive serves that ended on an unforced error."""
        decisive, ufes = sum(map(sum, self.served)), sum(self.ufes)
        return ufes / decisive if decisive else 0.0


def tour_tally(tallies: Mapping[str | None, RecordTally], tour: str | None) -> RecordTally:
    """The tally of one tour (every tour when tour is None) from the
    tallies tally_records gives; a tour with no rows has the empty tally."""
    if tour in tallies:
        return tallies[tour]
    return RecordTally(
        players=(), max_touch=tallies[None].max_touch, matches=[], contacts=[], ufes=[],
        served=[], received=[], touch_ufes=[], years=(), year_contacts=[], year_ufes=[],
    )


def tally_records(
    records: RecordTable | Iterable[ServeRecord], max_touch: int = DEFAULT_MAX_TOUCH
) -> dict[str | None, RecordTally]:
    """Per-player counts over every row and over each tour's rows, as
    bincounts over the columns: a dict keyed None for every row, then by
    each of the table's tours in its order.

    One pass tallies each group of rows by tour at once, keyed by each
    row's tour; the tally of every row sums the groups' counts, its match
    counts taken over every row, so a match named in two tours counts
    once.  A player's matches are the distinct (id, match) pairs of the
    rows that name the player, gathered chunk by chunk.

    Sums run in integers (bincount without weights, np.add.at on int64
    index and value arrays, its fast path), so each rate stays one exact
    int / int.  The pass reads the columns _COUNT_ROWS rows at a time and
    widens only keys and summed values to int64, so it adds little to the
    peak memory of its caller.
    """
    import numpy as np

    from .records import as_table, distinct

    table = as_table(records)
    n_players, width, n_roles = len(table.players), max_touch + 1, len(ROLES)
    # Rows of no tour make group 0 and those of tour id t group t + 1; a
    # player's id in group g is g * n_players + its player id.
    n_groups = len(table.tours) + 1
    n_ids = n_groups * n_players
    # A (player, match) pair is id * n_matches + match id.
    n_matches = max(len(table.matches), 1)
    pairs = [np.empty(0, dtype=np.int64)]
    # Every year the rows name, unknown (NONE_CODE) or not: a player's
    # year counts then sum to the totals, and the years no decisive row of
    # a tally names are dropped at the end.
    years = distinct(table.year.copy())
    n_years = len(years)
    # Where a walk over the rows first meets each id, each row's server
    # before its receiver: 2 * row for a server, one more for a receiver.
    end = 2 * len(table)
    first = np.full(n_ids, end, dtype=np.int64)
    # Each histogram has a last bin more, dropped at the end: a first-serve
    # fault counts there, as does an error past max_touch in touch_ufes.
    bins = width + 1
    served, received = np.zeros((2, n_ids * bins), dtype=np.int64)
    year_contacts, year_ufes = np.zeros((2, n_ids * n_years), dtype=np.int64)
    touch_ufes = np.zeros(n_ids * n_roles * bins, dtype=np.int64)
    for start in range(0, len(table), _COUNT_ROWS):
        rows = slice(start, start + _COUNT_ROWS)
        offset = (table.tour[rows].astype(np.int64) + 1) * n_players
        server, receiver = offset + table.server[rows], offset + table.receiver[rows]
        at = np.arange(2 * start, 2 * start + 2 * len(server), 2, dtype=np.int64)
        np.minimum.at(first, server, at)
        at += 1
        np.minimum.at(first, receiver, at)

        kind, touch = table.kind[rows], table.touch[rows]
        decisive = kind != KIND_CODES[TerminalKind.FIRST_SERVE_FAULT]
        touch_bin = np.where(decisive, np.minimum(touch, max_touch), width)
        year_index = np.searchsorted(years, table.year[rows])
        # touch_exposure per row, none for a fault; touch - touch // 2
        # cannot wrap as (touch + 1) // 2 can.
        rcv_contacts = touch // 2
        match = table.match[rows]
        for ids, hist, contacts in ((server, served, touch - rcv_contacts),
                                    (receiver, received, rcv_contacts)):
            pairs.append(distinct(ids * n_matches + match))
            hist += np.bincount(ids * bins + touch_bin, minlength=n_ids * bins)
            contacts = contacts.astype(np.int64)
            contacts *= decisive
            np.add.at(year_contacts, ids * n_years + year_index, contacts)

        ufe = np.flatnonzero(kind == KIND_CODES[TerminalKind.UNFORCED_ERROR])
        committer = table.committer[rows][ufe].astype(np.int64)
        who = np.where(committer == ROLE_CODES[Role.SERVER], server[ufe], receiver[ufe])
        year_ufes += np.bincount(who * n_years + year_index[ufe], minlength=n_ids * n_years)
        key = (who * n_roles + committer) * bins + np.minimum(touch[ufe], width)
        touch_ufes += np.bincount(key, minlength=n_ids * n_roles * bins)

    first = first.reshape(n_groups, n_players)
    pairs = distinct(np.concatenate(pairs))
    matches = np.bincount(pairs // n_matches, minlength=n_ids).reshape(n_groups, n_players)
    # Each player's pairs of any group, once.
    every = distinct(pairs % max(n_players * n_matches, 1))
    every = np.bincount(every // n_matches, minlength=n_players)
    counts = [served.reshape(n_groups, n_players, bins)[..., :width],
              received.reshape(n_groups, n_players, bins)[..., :width],
              touch_ufes.reshape(n_groups, n_players, n_roles, bins)[..., :width],
              year_contacts.reshape(n_groups, n_players, n_years),
              year_ufes.reshape(n_groups, n_players, n_years)]

    def tally(first, matches, served, received, touch_ufes, year_contacts, year_ufes):
        seen = np.flatnonzero(first < end)
        order = seen[np.argsort(first[seen])]
        year_contacts, year_ufes = year_contacts[order], year_ufes[order]
        known = (years != NONE_CODE) & (year_contacts.sum(axis=0) > 0)
        return RecordTally(
            players=tuple(table.players[i] for i in order.tolist()),
            max_touch=max_touch,
            matches=matches[order].tolist(),
            contacts=year_contacts.sum(axis=1).tolist(),
            ufes=year_ufes.sum(axis=1).tolist(),
            served=served[order].tolist(),
            received=received[order].tolist(),
            touch_ufes=touch_ufes[order].tolist(),
            years=tuple(years[known].tolist()),
            year_contacts=year_contacts[:, known].tolist(),
            year_ufes=year_ufes[:, known].tolist(),
        )

    tallies = {None: tally(first.min(axis=0), every, *(c.sum(axis=0) for c in counts))}
    for g, name in enumerate(table.tours, start=1):
        tallies[name] = tally(first[g], matches[g], *(c[g] for c in counts))
    return tallies


def collect_profiles(
    records: RecordTable | Iterable[ServeRecord],
    tour: str | None = None,
    max_touch: int = DEFAULT_MAX_TOUCH,
) -> dict[str, PlayerUfeProfile]:
    """A profile per player."""
    return tour_tally(tally_records(records, max_touch), tour).profiles()


def ufe_rate_by_touch(
    records: RecordTable | Iterable[ServeRecord],
    tour: str | None = None,
    role: Role = Role.SERVER,
    max_touch: int = DEFAULT_MAX_TOUCH,
) -> list[tuple[int, float]]:
    """Tour-level UFE rate per touch for one role; see RecordTally.touch_curve."""
    return tour_tally(tally_records(records, max_touch), tour).touch_curve(role)


def ufe_rate_by_year(
    records: RecordTable | Iterable[ServeRecord], tour: str | None = None
) -> list[tuple[int, float]]:
    """Aggregate UFE-per-contact rate per calendar year, year-unknown
    records excluded."""
    return tour_tally(tally_records(records), tour).year_series()


def ufe_termination_share(
    records: RecordTable | Iterable[ServeRecord], tour: str | None = None
) -> float:
    """Share of decisive serves that ended on an unforced error."""
    return tour_tally(tally_records(records), tour).termination_share()


def tour_ufe_rate(
    records: RecordTable | Iterable[ServeRecord], tour: str | None = None
) -> float:
    """UFEs per ball contact over the whole corpus."""
    return tour_tally(tally_records(records), tour).ufe_rate()


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
