"""Ingestion of charted point files into normalized serve records.

Point rows arrive one per point with the first and (when played) second
serve notation side by side.  Normalization explodes each point into
one record per serve: a row with a second serve implies the first serve
was a fault, so an augmented fault record is emitted ahead of the
decisive one.  Rows with a non-numeric rally count or undecodable
notation are dropped and counted, never repaired.

ingest_table reads each file on its own into a compact part: the ids,
local to the file, of each kept point's match, serving side and
(serve_number, mark, touch) key, with the strings they name, the file's
counts, the set of matches it names and its first repeated point, if
any.  A point's serves depend only on its key, and each distinct
notation of a file is decoded once.  Every file is read through
forking.forked, the fork helper simulate shares: in forked worker
processes, one per allowed CPU, when there are two files or more holding
at least _MIN_FORK_BYTES and two such CPUs (`taskset -c 0` reads them in
process), and otherwise in process, each file when its part is taken.
The parts are taken in file order, and their strings are interned by
first appearance.  A file read on its own can only find the duplicate
points within it, so one that names a match an earlier file named is read
again in process, with the points of those earlier files as seen;
charting exports split by tour and period keep each match in one file,
and never pay that read, not even to report a duplicate point.  The
table is made from every part's points at the end, so no row or record
object outlives its part, and ids, report and errors are those of one
pass over every row.  `ufesim ingest` writes the records CSV from that
table once it is made.

parse_points_file, clean_rows and explode_to_serves are the same steps
one stage at a time, on the same per-row helpers: explode_to_serves
adds each row's codes to a records.TableBuilder, and its table's
to_records makes the ServeRecords it returns.  ingest_files is
ingest_table's records as ServeRecords.
"""
from __future__ import annotations

import csv
import os
import re
from array import array
from contextlib import contextmanager
from dataclasses import asdict, astuple, dataclass
from functools import lru_cache
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import CsvFormatError, DuplicatePointError, NotationError
from .forking import forked
from .notation import point_outcome, scan_notation
from .records import (
    KIND_CODES,
    NONE_CODE,
    ROLE_CODES,
    RawPointRow,
    RecordTable,
    ServeRecord,
    TableBuilder,
    TerminalKind,
    open_csv,
)

REQUIRED_COLUMNS = ("match_id", "Pt", "Svr", "1st", "2nd", "rallyCount")
_RALLY_COUNT_RE = re.compile(r"^[0-9]+$")


class MatchMeta(NamedTuple):
    year: int | None
    tour: str | None
    player1: str
    player2: str


@lru_cache(maxsize=4096)
def parse_match_id(match_id: str) -> MatchMeta:
    """Split a charting match id into (year, tour, player1, player2).

    Ids look like 20080706-M-Wimbledon-F-Roger_Federer-Rafael_Nadal:
    date, gender, tournament, round, then the two players with
    underscores for spaces.  Tournament and round may themselves not
    contain hyphens, so the last two fields are always the players.
    Raises ValueError for fewer than six fields, a missing player name,
    or one player named on both sides.
    """
    parts = match_id.split("-")
    if len(parts) < 6:
        raise ValueError(f"match id {match_id!r} has {len(parts)} hyphen-separated fields")
    date_part, gender = parts[0], parts[1]
    # isdecimal accepts exactly the digits int() reads ('²' is a digit, not a decimal).
    year = int(date_part[:4]) if len(date_part) >= 4 and date_part[:4].isdecimal() else None
    tour = {"M": "ATP", "W": "WTA"}.get(gender)
    player1 = parts[-2].replace("_", " ").strip()
    player2 = parts[-1].replace("_", " ").strip()
    if not player1 or not player2:
        raise ValueError(f"match id {match_id!r} is missing a player name")
    if player1 == player2:
        raise ValueError(f"match id {match_id!r} names {player1!r} on both sides")
    return MatchMeta(year=year, tour=tour, player1=player1, player2=player2)


@dataclass(frozen=True, slots=True)
class IngestReport:
    rows_read: int = 0
    rows_dropped_bad_rally_count: int = 0
    rows_dropped_bad_notation: int = 0
    serve_records_emitted: int = 0
    points_augmented_with_fault_serve: int = 0

    def combined(self, other: "IngestReport") -> "IngestReport":
        return IngestReport(*(a + b for a, b in zip(astuple(self), astuple(other))))

    def to_dict(self) -> dict:
        return asdict(self)


# One data row: (line, match_id, point_index, meta, side, first serve
# notation, second serve notation, rallyCount), every text field
# stripped; side is 0 when player1 serves, 1 when player2 does.
_Row = tuple[int, str, int, MatchMeta, int, str, str, str]


def _checked_rows(path: Path) -> Iterator[_Row]:
    """The data rows of one charting CSV, read as csv.DictReader reads
    them: a BOM is dropped, blank lines are skipped, and of a repeated
    header name the last column counts.  Raises CsvFormatError for
    structural problems (missing columns, ragged lines, unusable ids)."""
    where = str(path)
    with open_csv(path, encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise CsvFormatError("file has no header row", path=where)
        index = {name: i for i, name in enumerate(header)}
        for column in REQUIRED_COLUMNS:
            if column not in index:
                raise CsvFormatError(f"missing required column {column!r}", path=where)
        mid, pt, svr, first, second, rally = (index[c] for c in REQUIRED_COLUMNS)
        # A row may be short of trailing columns that are not required.
        shortest, widest = max(mid, pt, svr, first, second, rally) + 1, len(header)
        for row in reader:
            if not row:
                continue
            line = reader.line_num
            if not shortest <= len(row) <= widest:
                raise CsvFormatError("wrong number of fields", path=where, line=line)
            match_id = row[mid].strip()
            try:
                meta = parse_match_id(match_id)
            except ValueError as exc:
                raise CsvFormatError(str(exc), path=where, line=line) from None
            try:
                point_index = int(row[pt])
            except ValueError:
                raise CsvFormatError(
                    f"Pt value {row[pt]!r} is not an integer", path=where, line=line
                ) from None
            server = row[svr].strip()
            if server == "1":
                side = 0
            elif server == "2":
                side = 1
            else:
                raise CsvFormatError(
                    f"Svr value {row[svr]!r} is not 1 or 2", path=where, line=line
                )
            yield (
                line,
                match_id,
                point_index,
                meta,
                side,
                row[first].strip(),
                row[second].strip(),
                row[rally].strip(),
            )


# (serve_number, touch, kind, winner, committer) of the first-serve fault
# a played second serve implies.
_IMPLIED_FAULT = (1, 1, KIND_CODES[TerminalKind.FIRST_SERVE_FAULT], NONE_CODE, NONE_CODE)


def _point_serves(
    serve_number: int, mark: str | None, touch: int
) -> tuple[tuple[int, int, int, int, int], ...]:
    """The column codes of a point's serves, given its decisive serve's
    number and scan_notation's (mark, touch): after a second serve, the
    implied first-serve fault comes first."""
    parsed = point_outcome(serve_number, mark, touch)
    decisive = (
        serve_number,
        parsed.terminal_touch,
        KIND_CODES[parsed.terminal_kind],
        ROLE_CODES[parsed.point_winner],
        ROLE_CODES[parsed.error_committer],
    )
    return (_IMPLIED_FAULT, decisive) if serve_number == 2 else (decisive,)


class _Part(NamedTuple):
    """One charting file as read, in a form that crosses a pipe cheaply.

    The kept points are three columns: match (into matches), side (0
    when the match's player1 serves) and key (into keys, each a point's
    (serve_number, mark, touch)).  matches and players are the strings
    the kept points name, by first appearance: a point names its server,
    then its receiver.  counts are the rows read, the rows dropped for
    their rally count and for their notation, and the points given an
    implied first-serve fault.  named is every match the file names,
    kept or not: ingest_table reads a file again when it shares one with
    an earlier file.  duplicate is the DuplicatePointError of the file's
    first repeated row, or None; the points after that row are not kept.
    """

    matches: tuple[str, ...]
    players: tuple[str, ...]
    keys: tuple[tuple[int, str | None, int], ...]
    match: array
    side: array
    key: array
    counts: tuple[int, int, int, int]
    named: frozenset[str]
    duplicate: DuplicatePointError | None


def _key_id(keys: dict, serve_number: int, notation: str) -> int:
    """The id in keys of a decisive serve's key, added if new; -1 when
    the notation does not decode."""
    try:
        key = (serve_number, *scan_notation(notation))
    except NotationError:
        return -1
    return keys.setdefault(key, len(keys))


def _read_part(path: Path, seen: dict[str, set[int]] | None = None) -> _Part:
    """Read one charting file.

    seen maps a match to the point indices read so far and gains this
    file's points.  A structural error raises as the row is read.  The
    first point already in seen becomes the part's duplicate, a
    DuplicatePointError naming its row, which ingest_table raises once
    it knows which earlier files could hold that point; the rest of the
    file is still read for structural errors.  This is the one code that
    decides whether a point repeats.
    """
    seen = {} if seen is None else seen
    matches: dict[str, int] = {}
    players: dict[str, int] = {}
    keys: dict[tuple[int, str | None, int], int] = {}
    named: set[str] = set()
    # Notation -> key id (-1: undecodable), for decisive first and second serves.
    first_keys: dict[str, int] = {}
    second_keys: dict[str, int] = {}
    match, side, key = array("i"), array("b"), array("i")
    add_match, add_side, add_key = match.append, side.append, key.append
    rows_read = dropped_rally = dropped_notation = augmented = 0
    duplicate: DuplicatePointError | None = None
    current = None  # the match of the previous row
    for line, match_id, point_index, meta, server, first, second, rally in _checked_rows(path):
        rows_read += 1
        if match_id != current:
            current = match_id
            named.add(match_id)
            points = seen.setdefault(match_id, set())
            kept_id = matches.get(match_id)
        if point_index in points:
            if duplicate is None:
                duplicate = DuplicatePointError(match_id, point_index, path=str(path), line=line)
            continue
        points.add(point_index)
        if duplicate is not None:
            continue  # the file fails when it ends; only structure matters now
        if not _RALLY_COUNT_RE.match(rally):
            dropped_rally += 1
            continue
        # The decisive serve: the second when one was played.
        if second:
            point_key = second_keys.get(second)
            if point_key is None:
                point_key = second_keys[second] = _key_id(keys, 2, second)
        else:
            point_key = first_keys.get(first)
            if point_key is None:
                point_key = first_keys[first] = _key_id(keys, 1, first)
        if point_key < 0:
            dropped_notation += 1
            continue
        if second:
            augmented += 1
        if kept_id is None:
            kept_id = matches[match_id] = len(matches)
            pair = (meta.player1, meta.player2)
            players.setdefault(pair[server], len(players))
            players.setdefault(pair[1 - server], len(players))
        add_match(kept_id)
        add_side(server)
        add_key(point_key)
    return _Part(
        tuple(matches), tuple(players), tuple(keys), match, side, key,
        (rows_read, dropped_rally, dropped_notation, augmented), frozenset(named), duplicate,
    )


def _read_task(paths: list[Path], i: int) -> _Part:
    return _read_part(paths[i])


# Fewest bytes, over two files or more, that are read in forked workers.
# Starting the pool takes about 30 ms, about what a second worker saves
# on 1 MiB (read at about 15 MB/s per CPU on a 2-vCPU machine).
_MIN_FORK_BYTES = 1 << 20


def _size(path: Path) -> int:
    try:
        return os.stat(path).st_size
    except OSError:  # reading it raises, in file order
        return 0


@contextmanager
def _reader(paths: list[Path]) -> Iterator[Callable[[int], _Part]]:
    """Yields read(i), the part of paths[i], from forking.forked.

    The files are its tasks, largest first, and it may fork one worker
    per file once they hold _MIN_FORK_BYTES between them; the caller
    takes the parts in file order.  A file read in process is read when
    its part is taken.
    """
    sizes = [_size(path) for path in paths]
    most = len(paths) if sum(sizes) >= _MIN_FORK_BYTES else 1
    order = sorted(range(len(paths)), key=lambda i: -sizes[i])
    place = {i: n for n, i in enumerate(order)}
    with forked(_read_task, paths, order, most, "an ingest worker process died") as take:
        yield lambda i: take(place[i])


class _Interned:
    """The strings and point keys of the parts taken so far, by first
    appearance, and the head (RecordTable.from_points) of each match id:
    the ids of the match, its player1 and player2, its year and its tour.

    Taking the parts in file order interns every string as one pass over
    the rows would: a part lists its strings by first appearance.
    """

    def __init__(self) -> None:
        self._ids: tuple[dict[str, int], ...] = ({}, {}, {})
        self.strings: tuple[list[str], list[str], list[str]] = ([], [], [])
        self.heads: list[tuple[int, int, int, int, int]] = []
        self._keys: dict[tuple[int, str | None, int], int] = {}
        self.serves: list[tuple] = []  # of each key id

    def _id(self, table: int, s: str) -> int:
        ids = self._ids[table]
        i = ids.get(s)
        if i is None:
            i = ids[s] = len(ids)
            self.strings[table].append(s)
        return i

    def add(self, part: _Part) -> tuple[np.ndarray, np.ndarray]:
        """Intern what a part names; returns the id of each of its matches
        and the key id of each of its points."""
        for name in part.players:
            self._id(1, name)
        matches = []
        for match_id in part.matches:
            m = self._id(0, match_id)
            if m == len(self.heads):
                meta = parse_match_id(match_id)
                self.heads.append((
                    m,
                    self._id(1, meta.player1),
                    self._id(1, meta.player2),
                    NONE_CODE if meta.year is None else meta.year,
                    NONE_CODE if meta.tour is None else self._id(2, meta.tour),
                ))
            matches.append(m)
        keys = []
        for key in part.keys:
            k = self._keys.setdefault(key, len(self._keys))
            if k == len(self.serves):
                self.serves.append(_point_serves(*key))
            keys.append(k)
        keys = np.array(keys, dtype=np.int32)[np.asarray(part.key)]
        return np.array(matches, dtype=np.int32), keys


def ingest_table(paths: Iterable[str | Path]) -> tuple[RecordTable, IngestReport]:
    """Every file's serve records as one table.

    Each file is read into a part on its own (in forked workers when
    there are enough bytes; see _reader), and the parts are taken in file
    order, their strings interned.  The table is made from every part's
    points once the last is in, each column at its full length.

    Errors come in the order of a single pass: a structural error
    anywhere in a file before a duplicate point in it (raised when the
    file ends, naming the repeated row), and both before anything in the
    next file.  A file's own read sees only its own points, and a point
    can repeat only an earlier point of its own match.  So a file that
    names a match an earlier file named, whether or not its own read
    found a duplicate, is read again in process, after the earlier files
    that name one of its matches have filled its seen: that read gives
    the single pass's part and duplicate.  A file that shares no match
    with an earlier file keeps its own read's part and duplicate.
    """
    paths = [Path(path) for path in paths]
    interned = _Interned()
    # Each part's points as (match id, side, key id) columns, after a start
    # of no points.
    columns = [(np.empty(0, np.int32), np.empty(0, np.int8), np.empty(0, np.int32))]
    named: list[frozenset[str]] = []  # the matches each part names
    totals = [0, 0, 0, 0]
    with _reader(paths) as read:
        for i, path in enumerate(paths):
            part = read(i)
            shared = [j for j, names in enumerate(named) if not names.isdisjoint(part.named)]
            if shared:
                seen: dict[str, set[int]] = {}
                for j in shared:
                    _read_part(paths[j], seen)
                part = _read_part(path, seen)
            if part.duplicate is not None:
                raise part.duplicate
            named.append(part.named)
            totals = [a + b for a, b in zip(totals, part.counts)]
            matches, keys = interned.add(part)
            columns.append((matches[np.asarray(part.match)], np.asarray(part.side), keys))
            del part
    match, side, key = (np.concatenate(column) for column in zip(*columns))
    del columns
    table = RecordTable.from_points(
        interned.strings, np.array(interned.heads, dtype=np.int32).reshape(-1, 5),
        match, side, interned.serves, key,
    )
    rows_read, dropped_rally, dropped_notation, augmented = totals
    report = IngestReport(
        rows_read=rows_read,
        rows_dropped_bad_rally_count=dropped_rally,
        rows_dropped_bad_notation=dropped_notation,
        serve_records_emitted=len(table),
        points_augmented_with_fault_serve=augmented,
    )
    return table, report


def parse_points_file(path: str | Path) -> list[RawPointRow]:
    """Read one charting CSV into raw rows, no notation interpretation.

    Raises CsvFormatError for structural problems (missing columns,
    ragged lines, unusable ids).  Duplicate points are ingest_files'
    check, across every file.
    """
    rows = []
    for _, match_id, point_index, meta, side, first, second, rally in _checked_rows(Path(path)):
        players = (meta.player1, meta.player2)
        rows.append(RawPointRow(
            match_id, point_index, players[side], players[1 - side], first, second, rally
        ))
    return rows


def clean_rows(rows: Sequence[RawPointRow]) -> tuple[list[RawPointRow], IngestReport]:
    """Drop rows whose rally count is not a plain non-negative integer."""
    kept = [row for row in rows if _RALLY_COUNT_RE.match(row.rally_count)]
    report = IngestReport(
        rows_read=len(rows), rows_dropped_bad_rally_count=len(rows) - len(kept)
    )
    return kept, report


def explode_to_serves(
    rows: Sequence[RawPointRow],
) -> tuple[list[ServeRecord], IngestReport]:
    """One ServeRecord per serve; a present second serve implies the
    first was a fault, and that implied fault is emitted too.  Each row
    is decoded to the column codes ingest_table adds."""
    builder = TableBuilder()
    augmented = dropped = 0
    for row in rows:
        meta = parse_match_id(row.match_id)
        # The decisive serve: the second when one was played.
        second = row.second_serve_notation
        serve_number = 2 if second else 1
        try:
            mark, touch = scan_notation(second or row.first_serve_notation)
        except NotationError:
            dropped += 1
            continue
        if serve_number == 2:
            augmented += 1
        builder.add(row.match_id, row.server_id, row.receiver_id, meta.year, meta.tour,
                    _point_serves(serve_number, mark, touch))
    records = builder.build().to_records()
    report = IngestReport(
        rows_read=len(rows),
        rows_dropped_bad_notation=dropped,
        serve_records_emitted=len(records),
        points_augmented_with_fault_serve=augmented,
    )
    return records, report


def ingest_files(paths: Iterable[str | Path]) -> tuple[list[ServeRecord], IngestReport]:
    """ingest_table's records as ServeRecords, in file and row order."""
    table, report = ingest_table(paths)
    return table.to_records(), report
