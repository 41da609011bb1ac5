"""Serve-level record types and their CSV serialization.

A ServeRecord is one serve event in a normalized form: who served, which
serve it was, how the point ended (terminal touch and kind) and who won.
First-serve faults are records in their own right so that empirical fault
rates survive into the serve pools.
"""
from __future__ import annotations

import csv
from contextlib import contextmanager
from dataclasses import dataclass, fields
from enum import Enum
from pathlib import Path

from .errors import CsvFormatError


class TerminalKind(Enum):
    ACE = "ace"
    SERVICE_WINNER = "service_winner"
    RALLY_WINNER = "rally_winner"
    FORCED_ERROR = "forced_error"
    UNFORCED_ERROR = "unforced_error"
    DOUBLE_FAULT = "double_fault"
    FIRST_SERVE_FAULT = "first_serve_fault"


#: Kinds that decide a point (everything except a first-serve fault).
DECISIVE_KINDS = frozenset(k for k in TerminalKind if k is not TerminalKind.FIRST_SERVE_FAULT)

#: Rally-error kinds, the only kinds that carry an error committer.
ERROR_KINDS = frozenset({TerminalKind.FORCED_ERROR, TerminalKind.UNFORCED_ERROR})


class Role(Enum):
    """Role of a player within one point, relative to the record's server."""

    SERVER = "server"
    RECEIVER = "receiver"


def opponent_role(role: Role) -> Role:
    return Role.RECEIVER if role is Role.SERVER else Role.SERVER


@dataclass(frozen=True, slots=True)
class RawPointRow:
    """One as-charted point row, prior to any notation interpretation."""

    match_id: str
    point_index: int
    server_id: str
    receiver_id: str
    first_serve_notation: str
    second_serve_notation: str
    rally_count: str


@dataclass(frozen=True, slots=True)
class ServeRecord:
    """One serve event with its decoded outcome.

    terminal_touch counts ball contacts including the serve; it is 1 for
    aces, service winners, faults and double faults.  point_winner and
    error_committer are roles relative to this record's server; both are
    None for first-serve faults, and error_committer is set only for rally
    errors (forced/unforced).
    """

    match_id: str
    server_id: str
    receiver_id: str
    serve_number: int
    is_first_serve_fault: bool
    terminal_touch: int
    terminal_kind: TerminalKind
    point_winner: Role | None
    error_committer: Role | None
    year: int | None = None
    tour: str | None = None

    def __post_init__(self):
        if self.serve_number not in (1, 2):
            raise ValueError(f"serve_number must be 1 or 2, got {self.serve_number}")
        if self.terminal_touch < 1:
            raise ValueError(f"terminal_touch must be >= 1, got {self.terminal_touch}")
        if self.server_id == self.receiver_id:
            raise ValueError("server_id and receiver_id must differ")
        is_fault = self.terminal_kind is TerminalKind.FIRST_SERVE_FAULT
        if is_fault != self.is_first_serve_fault or is_fault != (self.point_winner is None):
            raise ValueError(
                "first_serve_fault flag, kind and missing point_winner must agree"
            )
        if is_fault and self.serve_number != 1:
            raise ValueError("a first-serve fault must have serve_number 1")
        if (self.error_committer is not None) != (self.terminal_kind in ERROR_KINDS):
            raise ValueError("error_committer is set exactly for forced/unforced errors")
        if self.error_committer is not None:
            if self.point_winner is not opponent_role(self.error_committer):
                raise ValueError("an error awards the point to the committer's opponent")
            if (self.error_committer is Role.SERVER) != (self.terminal_touch % 2 == 1):
                raise ValueError("error committer must match the parity of the terminal touch")
        if self.terminal_kind is TerminalKind.UNFORCED_ERROR and self.terminal_touch < 2:
            raise ValueError("unforced errors cannot occur on the serve (touch 1)")
        if self.terminal_kind is TerminalKind.DOUBLE_FAULT:
            if self.serve_number != 2 or self.point_winner is not Role.RECEIVER:
                raise ValueError("a double fault is a second serve won by the receiver")


RECORD_FIELDS = [f.name for f in fields(ServeRecord)]


def _record_to_strings(rec: ServeRecord) -> list[str]:
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


def _role_from_string(s: str) -> Role | None:
    if s in ("", "none"):
        return None
    return Role(s)


@contextmanager
def open_csv(path, encoding: str = "utf-8"):
    """Open a CSV for reading; bytes that do not decode raise CsvFormatError."""
    try:
        with open(path, newline="", encoding=encoding) as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise CsvFormatError(f"not UTF-8 text ({exc.reason})", path=str(path)) from None


def write_records_csv(records, path) -> None:
    """Write normalized serve records to CSV (one record per serve)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(RECORD_FIELDS)
        for rec in records:
            writer.writerow(_record_to_strings(rec))


def read_records_csv(path) -> list[ServeRecord]:
    """Read records written by write_records_csv."""
    path = Path(path)
    records: list[ServeRecord] = []
    with open_csv(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != RECORD_FIELDS:
            raise CsvFormatError(
                f"unexpected header {header!r}; expected {RECORD_FIELDS!r}", path=str(path), line=1
            )
        for row in reader:
            if len(row) != len(RECORD_FIELDS):
                raise CsvFormatError(
                    f"expected {len(RECORD_FIELDS)} fields, got {len(row)}",
                    path=str(path),
                    line=reader.line_num,
                )
            try:
                records.append(
                    ServeRecord(
                        match_id=row[0],
                        server_id=row[1],
                        receiver_id=row[2],
                        serve_number=int(row[3]),
                        is_first_serve_fault=row[4] == "true",
                        terminal_touch=int(row[5]),
                        terminal_kind=TerminalKind(row[6]),
                        point_winner=_role_from_string(row[7]),
                        error_committer=_role_from_string(row[8]),
                        year=int(row[9]) if row[9] else None,
                        tour=row[10] or None,
                    )
                )
            except (ValueError, KeyError) as exc:
                raise CsvFormatError(str(exc), path=str(path), line=reader.line_num) from exc
    return records
