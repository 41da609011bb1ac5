"""Ingestion of charted point files into normalized serve records.

Point rows arrive one per point with the first and (when played) second
serve notation side by side.  Normalization explodes each point into
one record per serve: a row with a second serve implies the first serve
was a fault, so an augmented fault record is emitted ahead of the
decisive one.  Rows with a non-numeric rally count or undecodable
notation are dropped and counted, never repaired.

ingest_table does all of this in one streaming pass over each file:
every structurally checked row is decoded and its serves' codes added to
a records.TableBuilder, which interns the ids and becomes a RecordTable,
so no row or record object outlives its line.  Decoding a row is one
notation.scan_notation call and one lookup: a point's serves depend only
on its serve number, terminal mark and touch.

parse_points_file, clean_rows and explode_to_serves are the same steps
one stage at a time, on the same per-row helpers: explode_to_serves
adds each row's codes to a TableBuilder of its own, and its table's
to_records makes the ServeRecords it returns.  ingest_files is
ingest_table's records as ServeRecords.
"""
from __future__ import annotations

import csv
import re
from dataclasses import asdict, astuple, dataclass
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import CsvFormatError, DuplicatePointError, NotationError
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


# One data row: (line, match_id, point_index, meta, server_id,
# receiver_id, first serve notation, second serve notation, rallyCount),
# every text field stripped.
_Row = tuple[int, str, int, MatchMeta, str, str, str, str, str]


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
                server_id, receiver_id = meta.player1, meta.player2
            elif server == "2":
                server_id, receiver_id = meta.player2, meta.player1
            else:
                raise CsvFormatError(
                    f"Svr value {row[svr]!r} is not 1 or 2", path=where, line=line
                )
            yield (
                line,
                match_id,
                point_index,
                meta,
                server_id,
                receiver_id,
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


def ingest_table(paths: Iterable[str | Path]) -> tuple[RecordTable, IngestReport]:
    """Every file's serve records as one table, in one pass per file.

    Errors come in the order of the staged pipeline: a structural error
    anywhere in a file before a duplicate point in it (raised when the
    file ends, naming the repeated row), and both before anything in the
    next file.  A duplicate of a point in an earlier file counts too.
    """
    builder = TableBuilder()
    add = builder.add
    seen: dict[str, set[int]] = {}
    # A point's serves depend only on (serve_number, mark, touch).
    point_serves: dict[tuple[int, str | None, int], tuple] = {}
    rows_read = dropped_rally = dropped_notation = augmented = 0
    for path in paths:
        path = Path(path)
        duplicate: DuplicatePointError | None = None
        for (line, match_id, point_index, meta, server_id, receiver_id,
             first, second, rally) in _checked_rows(path):
            rows_read += 1
            points = seen.get(match_id)
            if points is None:
                points = seen[match_id] = set()
            if point_index in points:
                if duplicate is None:
                    duplicate = DuplicatePointError(
                        match_id, point_index, path=str(path), line=line
                    )
                continue
            points.add(point_index)
            if duplicate is not None:
                continue  # the file fails when it ends; only structure matters now
            if not _RALLY_COUNT_RE.match(rally):
                dropped_rally += 1
                continue
            # The decisive serve: the second when one was played.
            serve_number = 2 if second else 1
            try:
                key = (serve_number, *scan_notation(second or first))
            except NotationError:
                dropped_notation += 1
                continue
            serves = point_serves.get(key)
            if serves is None:
                serves = point_serves[key] = _point_serves(*key)
            if serve_number == 2:
                augmented += 1
            add(match_id, server_id, receiver_id, meta.year, meta.tour, serves)
        if duplicate is not None:
            raise duplicate

    table = builder.build()
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
    return [
        RawPointRow(match_id, point_index, server_id, receiver_id, first, second, rally)
        for _, match_id, point_index, _, server_id, receiver_id, first, second, rally
        in _checked_rows(Path(path))
    ]


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
