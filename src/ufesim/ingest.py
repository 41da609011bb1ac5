"""Ingestion of charted point files into normalized serve records.

Point rows arrive one per point with the first and (when played) second
serve notation side by side.  Normalization explodes each point into
one record per serve: a row with a second serve implies the first serve
was a fault, so an augmented fault record is emitted ahead of the
decisive one.  Rows with a non-numeric rally count or undecodable
notation are dropped and counted, never repaired.
"""
from __future__ import annotations

import csv
import re
from dataclasses import asdict, astuple, dataclass, replace
from functools import lru_cache
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

from .errors import CsvFormatError, DuplicatePointError, NotationError
from .notation import parse_shot_notation
from .records import RawPointRow, ServeRecord, TerminalKind, open_csv

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
    """
    parts = match_id.split("-")
    if len(parts) < 6:
        raise ValueError(f"match id {match_id!r} has {len(parts)} hyphen-separated fields")
    date_part, gender = parts[0], parts[1]
    year = int(date_part[:4]) if len(date_part) >= 4 and date_part[:4].isdigit() else None
    tour = {"M": "ATP", "W": "WTA"}.get(gender)
    player1 = parts[-2].replace("_", " ").strip()
    player2 = parts[-1].replace("_", " ").strip()
    if not player1 or not player2:
        raise ValueError(f"match id {match_id!r} is missing a player name")
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


def parse_points_file(path: str | Path) -> list[RawPointRow]:
    """Read one charting CSV into raw rows, no notation interpretation.

    Raises CsvFormatError for structural problems (missing columns,
    ragged lines, unusable ids).  Duplicate points are ingest_files'
    check, across every file.
    """
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


def clean_rows(rows: Sequence[RawPointRow]) -> tuple[list[RawPointRow], IngestReport]:
    """Drop rows whose rally count is not a plain non-negative integer."""
    kept = [row for row in rows if _RALLY_COUNT_RE.match(row.rally_count)]
    report = IngestReport(
        rows_read=len(rows), rows_dropped_bad_rally_count=len(rows) - len(kept)
    )
    return kept, report


def _fault_record(row: RawPointRow, meta: MatchMeta) -> ServeRecord:
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


def explode_to_serves(
    rows: Sequence[RawPointRow],
) -> tuple[list[ServeRecord], IngestReport]:
    """One ServeRecord per serve; a present second serve implies the
    first was a fault, and that implied fault is emitted too."""
    records: list[ServeRecord] = []
    augmented = dropped = 0
    for row in rows:
        meta = parse_match_id(row.match_id)
        serve_number = 2 if row.second_serve_notation else 1
        try:
            parsed = parse_shot_notation(
                row.second_serve_notation or row.first_serve_notation, serve_number
            )
        except NotationError:
            dropped += 1
            continue
        if serve_number == 2:
            records.append(_fault_record(row, meta))
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


def ingest_files(paths: Iterable[str | Path]) -> tuple[list[ServeRecord], IngestReport]:
    """Full pipeline over several files with cross-file duplicate checks."""
    all_records: list[ServeRecord] = []
    total = IngestReport()
    seen: set[tuple[str, int]] = set()
    for path in paths:
        rows = parse_points_file(path)
        for row in rows:
            key = (row.match_id, row.point_index)
            if key in seen:
                raise DuplicatePointError(row.match_id, row.point_index)
            seen.add(key)
        cleaned, clean_report = clean_rows(rows)
        records, explode_report = explode_to_serves(cleaned)
        all_records.extend(records)
        # explode_to_serves reads only the rows clean_rows kept.
        total = total.combined(clean_report).combined(replace(explode_report, rows_read=0))
    return all_records, total
