"""Seeded synthetic charting data for the benchmark; nothing is downloaded.

Files follow the columns of ``tests/data/points_sample.csv`` and use the
whole notation key of ``ufesim.notation``: let marks, serve-and-volley
``+``, every fault letter, double faults, return depth, shot modifiers,
error details and rallies past touch 10 and 13.  Each dataset injects an
exact number of rows with a bad ``rallyCount`` and of rows with
undecodable notation, and records what an ingest must report for it.

The same seed always gives byte-identical files.
"""
from __future__ import annotations

import csv
import random
from dataclasses import dataclass, field
from pathlib import Path

HEADER = ("match_id", "Pt", "Set1", "Set2", "Pts", "Svr", "1st", "2nd", "rallyCount")

DIRECTIONS = "4564560"
FAULT_LETTERS = "nwdxge!"
RALLY_SHOTS = "fbrsvzopuylmhijktq"
MODIFIERS = "+-=;"
ERROR_DETAILS = "nwdxe!"
BAD_RALLY_COUNTS = ("", "2;", "x", "-1", "3.0", "1 2")
# Each raises NotationError: bad shot code, error on the serve, no terminal
# mark, bad direction, text after the terminal, lets only, shot after a fault.
BAD_NOTATIONS = ("4f2Z*", "4@", "4f1b2", "7*", "5f8b3*x", "c", "4nf", "6+f2q")

RIVAL_A = "Ann Ace"
RIVAL_B = "Bob Base"
RIVALRY_POINTS = 4800
_POINT_CALLS = ("0", "15", "30", "40")

FIRST_NAMES_M = (
    "Adam Boris Carlos Dmitri Emil Felix Goran Hugo Ivan Jonas Karl Luca Marco "
    "Nico Oscar Pablo Quentin Rafael Stefan Tomas"
).split()
FIRST_NAMES_W = (
    "Alma Bianca Clara Dora Elena Flavia Greta Hana Irina Julia Katya Lena Mira "
    "Nadia Olga Petra Rosa Sofia Tamara Vera"
).split()
LAST_NAMES = (
    "Abel Berger Costa Dahl Eriksen Fuchs Garcia Horvat Ivanov Jensen Kovac Lund "
    "Moreau Novak Olsen Petrov Quint Rossi Silva Tanaka Urban Varga Weber Xu Young "
    "Zeller Alonso Brandt Cerny Duval Engel Ferro Gomez Hahn Ito Jovanovic Keller "
    "Lopez Meyer Nagy"
).split()


@dataclass
class Expected:
    """What ``ufesim ingest`` (and list-players) must report for a dataset."""

    rows_read: int = 0
    rows_dropped_bad_rally_count: int = 0
    rows_dropped_bad_notation: int = 0
    serve_records_emitted: int = 0
    points_augmented_with_fault_serve: int = 0
    player_matches: dict[str, int] = field(default_factory=dict)

    def ingest_counts(self) -> dict:
        return {
            "rows_read": self.rows_read,
            "rows_dropped_bad_rally_count": self.rows_dropped_bad_rally_count,
            "rows_dropped_bad_notation": self.rows_dropped_bad_notation,
            "serve_records_emitted": self.serve_records_emitted,
            "points_augmented_with_fault_serve": self.points_augmented_with_fault_serve,
        }


@dataclass
class Dataset:
    files: list[Path]
    expected: Expected
    # (player, player, tour, head-to-head match count) for pairs that met.
    rivalries: list[tuple[str, str, str, int]]
    players_by_tour: dict[str, list[str]]


@dataclass(frozen=True)
class _Profile:
    fault1: float  # P(first serve is a fault)
    fault2: float  # P(second serve is a fault), i.e. a double fault
    ace1: float
    winner1: float  # unreturned first serve
    ace2: float
    winner2: float
    end: float  # P(the rally ends after each further shot)
    ufe: float  # share of rally endings that are unforced errors
    forced: float  # share that are forced errors; the rest are winners


def _random_profile(rng: random.Random) -> _Profile:
    return _Profile(
        fault1=rng.uniform(0.30, 0.45),
        fault2=rng.uniform(0.05, 0.12),
        ace1=rng.uniform(0.03, 0.15),
        winner1=rng.uniform(0.05, 0.12),
        ace2=rng.uniform(0.005, 0.02),
        winner2=rng.uniform(0.02, 0.05),
        end=rng.uniform(0.25, 0.35),
        ufe=rng.uniform(0.35, 0.55),
        forced=rng.uniform(0.15, 0.25),
    )


# Fixed rivals: Ann serves big, Bob grinds from the baseline.
_RIVAL_PROFILES = {
    RIVAL_A: _Profile(0.40, 0.10, 0.14, 0.10, 0.02, 0.04, 0.32, 0.45, 0.20),
    RIVAL_B: _Profile(0.33, 0.06, 0.04, 0.06, 0.005, 0.03, 0.26, 0.40, 0.22),
}


def _serve(rng: random.Random) -> str:
    lets = "c" * (rng.random() < 0.03) * (1 + (rng.random() < 0.2))
    volley = "+" if rng.random() < 0.04 else ""
    return lets + rng.choice(DIRECTIONS) + volley


def _fault(rng: random.Random) -> str:
    letters = rng.choice(FAULT_LETTERS)
    if rng.random() < 0.05:
        letters += rng.choice(FAULT_LETTERS)
    return _serve(rng) + letters


def _in_play(rng: random.Random, prof: _Profile, second: bool) -> tuple[str, int]:
    """A decisive serve's notation and its terminal touch."""
    serve = _serve(rng)
    ace, winner = (prof.ace2, prof.winner2) if second else (prof.ace1, prof.winner1)
    u = rng.random()
    if u < ace:
        return serve + "*", 1
    if u < ace + winner:
        return serve + "#", 1
    shots = []
    touch = 1
    while True:
        touch += 1
        shot = rng.choice(RALLY_SHOTS)
        if rng.random() < 0.85:
            shot += rng.choice("1230")
        if touch == 2 and rng.random() < 0.6:
            shot += rng.choice("789")
        if rng.random() < 0.06:
            shot += rng.choice(MODIFIERS)
        shots.append(shot)
        if rng.random() < prof.end:
            break
    v = rng.random()
    if v < prof.ufe:
        end = rng.choice(ERROR_DETAILS) + "@"
    elif v < prof.ufe + prof.forced:
        end = (rng.choice(ERROR_DETAILS) if rng.random() < 0.7 else "") + "#"
    else:
        end = "*"
    return serve + "".join(shots) + end, touch


def _point(rng: random.Random, prof: _Profile) -> tuple[str, str, str]:
    """(1st, 2nd, rallyCount) for one charted point."""
    if rng.random() < prof.fault1:
        first = _fault(rng)
        if rng.random() < prof.fault2:
            return first, _fault(rng), "0"
        second, touch = _in_play(rng, prof, True)
        return first, second, str(touch)
    first, touch = _in_play(rng, prof, False)
    return first, "", str(touch)


def _match_rows(
    rng: random.Random,
    match_id: str,
    p1: str,
    p2: str,
    profiles: dict[str, _Profile],
    best_of: int,
) -> list[list[str]]:
    """Rows of one match: games of 4-10 points, serve alternating by game."""
    sets_to_play = rng.randint(best_of // 2 + 1, best_of)
    server = rng.choice((1, 2))
    rows: list[list[str]] = []
    pt = 0
    sets = [0, 0]
    for set_no in range(sets_to_play):
        for _game in range(rng.randint(6, 13)):
            for in_game in range(rng.choice((4, 4, 5, 5, 6, 6, 7, 8, 10))):
                pt += 1
                name = p1 if server == 1 else p2
                first, second, rally = _point(rng, profiles[name])
                call = _POINT_CALLS[min(in_game, 3)]
                rows.append(
                    [match_id, str(pt), str(sets[0]), str(sets[1]), f"{call}-0",
                     str(server), first, second, rally]
                )
            server = 3 - server
        sets[set_no % 2] += 1
    return rows


def _inject(rng: random.Random, rows: list[list[str]], expected: Expected) -> None:
    """Corrupt exact numbers of rows, then count what ingest must see."""
    n_rally = max(3, len(rows) // 500)
    n_notation = max(3, len(rows) // 400)
    picked = rng.sample(range(len(rows)), n_rally + n_notation)
    bad_rally, bad_notation = set(picked[:n_rally]), set(picked[n_rally:])
    for i in bad_rally:
        rows[i][8] = rng.choice(BAD_RALLY_COUNTS)
    for i in bad_notation:
        # The notation ingest decodes is the second serve's when one exists.
        rows[i][7 if rows[i][7] else 6] = rng.choice(BAD_NOTATIONS)

    kept_matches: dict[str, set[str]] = {}
    for i, row in enumerate(rows):
        expected.rows_read += 1
        if i in bad_rally:
            expected.rows_dropped_bad_rally_count += 1
            continue
        if i in bad_notation:
            expected.rows_dropped_bad_notation += 1
            continue
        if row[7]:
            expected.serve_records_emitted += 2
            expected.points_augmented_with_fault_serve += 1
        else:
            expected.serve_records_emitted += 1
        kept_matches.setdefault(row[0], set())
    for match_id in kept_matches:
        p1, p2 = (p.replace("_", " ") for p in match_id.split("-")[-2:])
        for name in (p1, p2):
            expected.player_matches[name] = expected.player_matches.get(name, 0) + 1


def _write(path: Path, rows: list[list[str]]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(HEADER)
        writer.writerows(rows)


def _match_id(date: str, gender: str, event: str, rnd: str, p1: str, p2: str) -> str:
    return f"{date}-{gender}-{event}-{rnd}-{p1.replace(' ', '_')}-{p2.replace(' ', '_')}"


def rivalry(out_dir: str | Path, seed: int) -> Dataset:
    """One file of best-of-5 matches between the two rivals, cut to exactly
    ``RIVALRY_POINTS`` rows so that every seed gives the same amount of work."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"perfbench.rivalry.{seed}")
    rows: list[list[str]] = []
    m = 0
    while len(rows) < RIVALRY_POINTS:
        year = 2012 + m % 10
        p1, p2 = (RIVAL_A, RIVAL_B) if rng.random() < 0.5 else (RIVAL_B, RIVAL_A)
        mid = _match_id(f"{year}{1 + m % 12:02d}15", "M", f"Event{m}", "F", p1, p2)
        rows.extend(_match_rows(rng, mid, p1, p2, _RIVAL_PROFILES, 5))
        m += 1
    del rows[RIVALRY_POINTS:]
    expected = Expected()
    _inject(rng, rows, expected)
    path = out_dir / "rivalry.csv"
    _write(path, rows)
    return Dataset(
        files=[path],
        expected=expected,
        rivalries=[(RIVAL_A, RIVAL_B, "ATP", m)],
        players_by_tour={"ATP": [RIVAL_A, RIVAL_B]},
    )


def _names(first: tuple[str, ...] | list[str], count: int, salt: str) -> list[str]:
    pool = [f"{f} {l}" for f in first for l in LAST_NAMES]
    random.Random(salt).shuffle(pool)
    return pool[:count]


EVENTS = ("Melbourne", "Doha", "Indian_Wells", "Miami", "Madrid", "Rome", "Paris",
          "London", "Halle", "Toronto", "Cincinnati", "New_York", "Beijing", "Vienna")
ROUNDS = ("R64", "R32", "R16", "QF", "SF", "F")
PLAYERS_PER_TOUR = 100
YEARS = (2012, 2021)
N_FILES = 5


def corpus(out_dir: str | Path, seed: int, points: int = 100_000) -> Dataset:
    """ATP and WTA matches over ``YEARS``, split by year into ``N_FILES``.

    Player participation is Zipf-like, so a few stars have hundreds of
    charted service games and many players fall under ``--min-matches``.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"perfbench.corpus.{seed}")
    tours = {
        "ATP": ("M", 5, _names(FIRST_NAMES_M, PLAYERS_PER_TOUR, "perfbench.names.M")),
        "WTA": ("W", 3, _names(FIRST_NAMES_W, PLAYERS_PER_TOUR, "perfbench.names.W")),
    }
    profiles = {name: _random_profile(rng) for _, _, names in tours.values() for name in names}
    weights = [1.0 / (rank + 1) for rank in range(PLAYERS_PER_TOUR)]
    n_years = YEARS[1] - YEARS[0] + 1
    per_file: list[list[list[str]]] = [[] for _ in range(N_FILES)]
    seen: set[str] = set()
    meetings: dict[tuple[str, str, str], int] = {}
    total = 0
    while total < points:
        tour = "ATP" if rng.random() < 0.5 else "WTA"
        gender, best_of, names = tours[tour]
        p1, p2 = rng.choices(names, weights=weights, k=2)
        if p1 == p2:
            continue
        year = rng.randint(*YEARS)
        e = rng.randrange(len(EVENTS))
        date = f"{year}{1 + e * 11 // len(EVENTS):02d}{rng.randint(1, 28):02d}"
        mid = _match_id(date, gender, EVENTS[e], rng.choice(ROUNDS), p1, p2)
        if mid in seen:
            continue
        seen.add(mid)
        rows = _match_rows(rng, mid, p1, p2, profiles, best_of)
        per_file[(year - YEARS[0]) * N_FILES // n_years].extend(rows)
        total += len(rows)
        key = (*sorted((p1, p2)), tour)
        meetings[key] = meetings.get(key, 0) + 1
    expected = Expected()
    files = []
    for i, rows in enumerate(per_file):
        _inject(rng, rows, expected)
        path = out_dir / f"points_{i}.csv"
        _write(path, rows)
        files.append(path)
    rivalries = sorted(
        ((a, b, tour, n) for (a, b, tour), n in meetings.items()),
        key=lambda r: (-r[3], r[0], r[1]),
    )
    return Dataset(
        files=files,
        expected=expected,
        rivalries=rivalries,
        players_by_tour={tour: list(names) for tour, (_, _, names) in tours.items()},
    )
