"""Serve-level record types and their CSV serialization.

A ServeRecord is one serve event in a normalized form: who served, which
serve it was, how the point ended (terminal touch and kind) and who won.
First-serve faults are records in their own right so that empirical fault
rates survive into the serve pools.

A RecordTable holds the same records as columns: one numpy array per
field, with names interned and kinds and roles as small int codes.
RecordTable.from_records and the CSV reader add points one at a time to
a TableBuilder, which interns each string in the order of the rows;
ingest_table hands RecordTable.from_points every point at once, as
columns of ids it has interned in that order.  RecordTable's
vectorised checks are the one check of records read from a file, and
RecordTable.to_records is the one place records become ServeRecords.
_record_rules states the rules between a record's fields once, over
column codes, for ServeRecord and RecordTable alike.

write_records_csv writes a table as the records CSV, byte for byte what
csv.writer would write (UTF-8, CRLF, minimal quoting), through a
RecordsWriter: lines go to a temporary file beside the output, hashed as
they are written, which replaces the output only once every line is in.
RecordsWriter.write is the one code that formats a line: its match and
players, quoted by csv.writer once per string, its serve and year,
formatted once per distinct value, and its tour.  ingest makes its
table first and then writes it so, as save_records does.

load_records reads a records CSV into a table, with the SHA-256 of the
CSV's bytes: _read_table maps each row's fields straight to column codes
(kind and role by lookup, numbers by int()).  It reads no sidecar and
writes none; the records cache (sidecar.lookup) runs the same read on a
miss and keeps only the header, the tallies and the serve index of the
table, and the sidecar module keeps that layout and defines the kind and
role codes.  read_records_csv is the same read as ServeRecords.
save_records writes a table's CSV and its sidecar together, as
RecordsWriter.commit does given the table.  This module is the only one
that knows the column layout.
"""
from __future__ import annotations

import csv
import hashlib
import io
import os
import stat
import tempfile
from array import array
from contextlib import contextmanager, suppress
from dataclasses import dataclass, fields
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import CsvFormatError
from .sidecar import (
    KIND_CODES,
    KINDS,
    NONE_CODE,
    ROLE_CODES,
    ROLES,
    Role,
    TerminalKind,
    cache_path,
    file_identity,
    file_sha256,
    opponent_role,
    write_sidecar,
)


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


#: Bounds that let a RecordTable store touch and year in fixed-width ints.
MAX_TERMINAL_TOUCH = 2**31 - 1
MAX_YEAR = 9999


@dataclass(frozen=True, slots=True)
class ServeRecord:
    """One serve event with its decoded outcome.

    terminal_touch counts ball contacts including the serve; it is 1 for
    aces, service winners, faults and double faults.  point_winner and
    error_committer are roles relative to this record's server; both are
    None for first-serve faults, and error_committer is set only for rally
    errors (forced/unforced).  Construction checks each field's domain,
    then _record_rules, the rules between fields that RecordTable checks.
    serve_number, terminal_touch and year (unless None) must be ints: a
    numpy integer counts, a bool does not.
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
        for name in ("serve_number", "terminal_touch", "year"):
            value = getattr(self, name)
            if type(value) is not int and not isinstance(value, np.integer):
                if value is not None or name != "year":
                    raise ValueError(f"{name} must be an int, got {value!r}")
        if self.serve_number not in (1, 2):
            raise ValueError(f"serve_number must be 1 or 2, got {self.serve_number}")
        if not 1 <= self.terminal_touch <= MAX_TERMINAL_TOUCH:
            raise ValueError(
                f"terminal_touch must be in 1..{MAX_TERMINAL_TOUCH}, got {self.terminal_touch}"
            )
        if self.year is not None and not 0 <= self.year <= MAX_YEAR:
            raise ValueError(f"year must be in 0..{MAX_YEAR}, got {self.year}")
        if self.server_id == self.receiver_id:
            raise ValueError("server_id and receiver_id must differ")
        if not isinstance(self.terminal_kind, TerminalKind):
            raise ValueError(f"terminal_kind must be a TerminalKind, got {self.terminal_kind!r}")
        for name in ("point_winner", "error_committer"):
            if not isinstance(getattr(self, name), (Role, type(None))):
                raise ValueError(f"{name} must be a Role or None, got {getattr(self, name)!r}")
        if self.is_first_serve_fault != (self.terminal_kind is TerminalKind.FIRST_SERVE_FAULT):
            raise ValueError(_FLAG_RULE)
        kind = KIND_CODES[self.terminal_kind]
        roles = ROLE_CODES[self.point_winner], ROLE_CODES[self.error_committer]
        for message, broken in _record_rules(self.serve_number, self.terminal_touch, kind, *roles):
            if broken:
                raise ValueError(message)


RECORD_FIELDS = [f.name for f in fields(ServeRecord)]
# csv.writer quotes no field name.
_HEADER_LINE = ",".join(RECORD_FIELDS) + "\r\n"


@contextmanager
def open_csv(path, encoding: str = "utf-8"):
    """Open a CSV for reading; bytes that do not decode, and lines the csv
    module refuses (a field over its size limit), raise CsvFormatError."""
    try:
        with open(path, newline="", encoding=encoding) as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise CsvFormatError(f"not UTF-8 text ({exc.reason})", path=str(path)) from None
    except csv.Error as exc:
        raise CsvFormatError(str(exc), path=str(path)) from None


def write_records_csv(records: RecordTable | Iterable[ServeRecord], path) -> None:
    """Write normalized serve records to CSV (one record per serve).

    The bytes are csv.writer's: UTF-8, CRLF line ends, minimal quoting.
    The file is written as RecordsWriter writes it: an interrupted or
    failed write leaves `path` as it was.
    """
    with RecordsWriter(path) as out:
        out.write(as_table(records))
        out.commit()


class RecordsWriter:
    """A records CSV being written: enter, write one table, commit.

    Entering opens a temporary file beside `path` and writes the header,
    so an output that cannot be written fails before a table is made;
    the SHA-256 of the bytes is taken as they are written.  commit moves
    the file into place, with the permissions open(path, "w") would give
    it, and writes the sidecar of the table given to it.  Leaving without
    a commit removes the temporary file, so a write that fails or is
    interrupted leaves `path` as it was.  A `path` that is there and is
    not a regular file (a device, a pipe) is written in place, with no
    sidecar.
    """

    def __init__(self, path) -> None:
        # open() writes through a symbolic link; so does the replace.  The
        # sidecar goes where sidecar.lookup looks for it, beside `path`.
        self.path = Path(os.path.realpath(path))
        self._sidecar = cache_path(path)
        self._digest = hashlib.sha256()

    def __enter__(self) -> RecordsWriter:
        try:
            regular = stat.S_ISREG(os.stat(self.path).st_mode)
        except FileNotFoundError:
            regular = True
        if not regular:  # a device or a pipe is written in place, never replaced
            self._tmp = None
            self._fh = open(self.path, "wb")
        else:
            try:
                fd, self._tmp = tempfile.mkstemp(
                    dir=self.path.parent, prefix=self.path.name + ".", suffix=".tmp"
                )
            except OSError as exc:  # name the output, not the temporary file
                raise OSError(exc.errno, exc.strerror, str(self.path)) from None
            self._fh = os.fdopen(fd, "wb")
        try:
            self._put(_HEADER_LINE)
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._fh.close()
        if self._tmp is not None:
            with suppress(OSError):
                os.unlink(self._tmp)

    def _put(self, text: str) -> None:
        data = text.encode("utf-8")
        self._digest.update(data)
        self._fh.write(data)

    def write(self, table: RecordTable) -> None:
        """Write a table's rows after the header.

        A line is its match, server and receiver, each string quoted once
        by csv.writer; then its serve and year, formatted once per
        distinct (serve_number, touch, kind, winner, committer, year);
        then its tour.  Each piece carries the comma or line end after it.
        The rows are keyed and written _CHUNK at a time.
        """
        matches = [f"{s}," for s in _csv_fields(table.matches)]
        players = [f"{s}," for s in _csv_fields(table.players)]
        # Index -1 picks a missing tour's empty field.
        tours = [f"{s}\r\n" for s in (*_csv_fields(table.tours), "")]
        serves: dict[int, str] = {}
        for start in range(0, len(table), _CHUNK):
            rows = slice(start, start + _CHUNK)
            # serve_number, kind, winner, committer and year take 2, 7, 3, 3
            # and MAX_YEAR + 2 values, so a key stays below 2**52 even at
            # touch MAX_TERMINAL_TOUCH; the tour is looked up on its own.
            keys = ((((table.touch[rows].astype(np.int64) * 2 + table.serve_number[rows] - 1)
                      * len(KINDS) + table.kind[rows]) * 3 + table.winner[rows] + 1) * 3
                    + table.committer[rows] + 1) * (MAX_YEAR + 2) + table.year[rows] + 1
            row_keys = keys.tolist()
            for key in distinct(keys).tolist():
                if key not in serves:
                    serves[key] = _serve_and_year(key)
            self._put("".join([
                f"{matches[m]}{players[s]}{players[r]}{serves[key]}{tours[t]}"
                for m, s, r, key, t in zip(table.match[rows].tolist(), table.server[rows].tolist(),
                                           table.receiver[rows].tolist(), row_keys,
                                           table.tour[rows].tolist())
            ]))

    def commit(self, table: RecordTable | None = None) -> str:
        """Move the CSV into place and, given the table written, write its
        sidecar as a cache miss would; returns the SHA-256 of the CSV.  A
        CSV written in place gets no sidecar: its bytes cannot be read back."""
        self._fh.close()
        sha256 = self._digest.hexdigest()
        if self._tmp is None:
            return sha256
        try:
            mode = stat.S_IMODE(os.stat(self.path).st_mode)
        except FileNotFoundError:
            mode = 0o666 & ~_umask()
        os.chmod(self._tmp, mode)
        os.replace(self._tmp, self.path)
        self._tmp = None
        if table is not None:
            write_sidecar(self._sidecar, table, sha256, self.path)
        return sha256


def _umask() -> int:
    umask = os.umask(0)
    os.umask(umask)
    return umask


def _csv_fields(strings: tuple[str, ...]) -> list[str]:
    """Each string as csv.writer writes it as a field of a longer row."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    fields = []
    for s in strings:
        buffer.seek(0)
        buffer.truncate()
        # A second field, so that an empty string is not quoted as a row
        # of one empty field would be.
        writer.writerow((s, ""))
        fields.append(buffer.getvalue()[:-3])  # drop ",\r\n"
    return fields


_FAULT = KIND_CODES[TerminalKind.FIRST_SERVE_FAULT]
_FORCED = KIND_CODES[TerminalKind.FORCED_ERROR]
_UFE = KIND_CODES[TerminalKind.UNFORCED_ERROR]
_DOUBLE_FAULT = KIND_CODES[TerminalKind.DOUBLE_FAULT]
_FLAG_RULE = "is_first_serve_fault must agree with terminal_kind"


def _record_rules(serve, touch, kind, winner, committer) -> Iterator[tuple[str, bool]]:
    """Each rule between a record's fields as (message, broken), over one
    record's codes or whole columns: only operators ints and arrays share."""
    fault, has_committer = kind == _FAULT, committer != NONE_CODE
    error = (kind == _FORCED) | (kind == _UFE)
    yield "first-serve fault and missing point_winner must agree", fault != (winner == NONE_CODE)
    yield "a first-serve fault must have serve_number 1", fault & (serve != 1)
    yield "error_committer is set exactly for forced/unforced errors", has_committer != error
    yield "an error awards the point to the committer's opponent", has_committer & (
        winner != 1 - committer
    )
    yield "error committer must match the parity of the terminal touch", has_committer & (
        (committer == 0) != (touch % 2 == 1)
    )
    yield "unforced errors cannot occur on the serve (touch 1)", (kind == _UFE) & (touch < 2)
    yield "a double fault is a second serve won by the receiver", (kind == _DOUBLE_FAULT) & (
        (serve != 2) | (winner != 1)
    )


# (column, dtype) in ServeRecord order; id columns index a string table.
_COLUMNS = (
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
# Each string table and the id columns that index it.
_ID_COLUMNS = {"matches": ("match",), "players": ("server", "receiver"), "tours": ("tour",)}
_STRING_TABLES = tuple(_ID_COLUMNS)
# Rows the row rules are checked over at a time.
_CHECK_ROWS = 8192


class BrokenRowError(ValueError):
    """A RecordTable row breaks a record invariant."""

    def __init__(self, row: int, reason: str) -> None:
        super().__init__(f"row {row}: {reason}")
        self.row = row
        self.reason = reason


@dataclass(frozen=True, eq=False)
class RecordTable:
    """Serve records as read-only columns; row i is the i-th record.

    match, server, receiver and tour are ids into the matches, players and
    tours tables (server and receiver share players).  serve_number and
    touch hold the fields' values, kind a KINDS index, winner and
    committer a ROLES index or -1, year the year or -1, tour an id or -1.
    is_first_serve_fault is not stored: it is kind == first-serve fault.

    Construction checks each column's codes and _record_rules as masks,
    every id's range, and that each string table holds distinct strings
    that some record uses.
    """

    match: np.ndarray
    server: np.ndarray
    receiver: np.ndarray
    serve_number: np.ndarray
    touch: np.ndarray
    kind: np.ndarray
    winner: np.ndarray
    committer: np.ndarray
    year: np.ndarray
    tour: np.ndarray
    matches: tuple[str, ...]
    players: tuple[str, ...]
    tours: tuple[str, ...]

    def __post_init__(self) -> None:
        n = len(self.match)
        for name, dtype in _COLUMNS:
            column = getattr(self, name)
            if not isinstance(column, np.ndarray) or column.dtype != dtype:
                raise ValueError(f"column {name} must be a {np.dtype(dtype)} array")
            if column.shape != (n,):
                raise ValueError(f"column {name} must have shape ({n},)")
            column.flags.writeable = False
        for name in _STRING_TABLES:
            strings = getattr(self, name)
            if not all(type(s) is str for s in strings) or len(set(strings)) != len(strings):
                raise ValueError(f"{name} must hold distinct strings")
        self._check_ids()
        self._check_invariants()

    def _check_ids(self) -> None:
        """Every id is in range and every string is used by some row."""
        for name, columns in _ID_COLUMNS.items():
            strings = getattr(self, name)
            ids = [getattr(self, column) for column in columns]
            low = NONE_CODE if name == "tours" else 0
            if any(i.size and (i.min() < low or i.max() >= len(strings)) for i in ids):
                raise ValueError("an id is out of range")
            # A last slot takes the -1s of the tour column.
            used = np.zeros(len(strings) + 1, dtype=bool)
            for i in ids:
                used[i] = True
            if not used[:-1].all():
                raise ValueError("a string table holds a string no record uses")

    def _check_invariants(self) -> None:
        """The row masks, _CHECK_ROWS rows at a time, so that their
        temporaries stay small however long the table; an error names the
        first row that breaks any."""
        for start in range(0, len(self), _CHECK_ROWS):
            broken = [
                (start + int(np.flatnonzero(mask)[0]), message)
                for message, mask in self._broken_rows(slice(start, start + _CHECK_ROWS))
                if mask.any()
            ]
            if broken:
                raise BrokenRowError(*min(broken, key=lambda b: b[0]))

    def _broken_rows(self, rows: slice) -> Iterator[tuple[str, np.ndarray]]:
        serve, touch, kind = self.serve_number[rows], self.touch[rows], self.kind[rows]
        winner, committer, year = self.winner[rows], self.committer[rows], self.year[rows]
        yield "serve_number must be 1 or 2", (serve != 1) & (serve != 2)
        yield "terminal_touch must be >= 1", touch < 1
        yield "server_id and receiver_id must differ", self.server[rows] == self.receiver[rows]
        yield "terminal_kind out of range", (kind < 0) | (kind >= len(KINDS))
        yield "point_winner out of range", (winner < NONE_CODE) | (winner >= len(ROLES))
        yield "error_committer out of range", (committer < NONE_CODE) | (committer >= len(ROLES))
        yield from _record_rules(serve, touch, kind, winner, committer)
        yield f"year must be -1 or in 0..{MAX_YEAR}", (year < NONE_CODE) | (year > MAX_YEAR)

    def __len__(self) -> int:
        return len(self.match)

    @classmethod
    def from_records(cls, records: Iterable[ServeRecord]) -> RecordTable:
        """Columns for records in iteration order; iterates them once and
        keeps none of them."""
        builder = TableBuilder()
        add = builder.add
        for r in records:
            serve = (
                r.serve_number,
                r.terminal_touch,
                KIND_CODES[r.terminal_kind],
                ROLE_CODES[r.point_winner],
                ROLE_CODES[r.error_committer],
            )
            add(r.match_id, r.server_id, r.receiver_id, r.year, r.tour, (serve,))
        return builder.build()

    def to_records(self) -> list[ServeRecord]:
        """A ServeRecord per row, in row order."""
        columns = [getattr(self, name).tolist() for name, _ in _COLUMNS]
        matches, players = self.matches, self.players
        # Index -1 of these picks the trailing None.
        roles = (*ROLES, None)
        tours = (*self.tours, None)
        return [
            ServeRecord(
                match_id=matches[m],
                server_id=players[s],
                receiver_id=players[r],
                serve_number=serve,
                is_first_serve_fault=kind == _FAULT,
                terminal_touch=touch,
                terminal_kind=KINDS[kind],
                point_winner=roles[winner],
                error_committer=roles[committer],
                year=None if year == NONE_CODE else year,
                tour=tours[tour],
            )
            for m, s, r, serve, touch, kind, winner, committer, year, tour in zip(*columns)
        ]

    @classmethod
    def from_points(
        cls,
        strings: tuple[Sequence[str], Sequence[str], Sequence[str]],
        heads: np.ndarray,
        point_heads: np.ndarray,
        sides: np.ndarray,
        serves: Sequence[tuple[tuple[int, int, int, int, int], ...]],
        point_serves: np.ndarray,
    ) -> RecordTable:
        """The table of points given as columns, each column allocated
        once at its full length.

        strings are the matches, players and tours tables.  A head is a
        row of heads: the ids of a match and of its two players, a year
        and a tour id (-1 for a missing year or tour).  Point i is one of
        head point_heads[i], served by the head's first player when
        sides[i] is 0 and by its second when it is 1; it makes one row for
        each serve in serves[point_serves[i]], a tuple of (serve_number,
        touch, kind, winner, committer) codes.  Checked as RecordTable
        checks.
        """
        # Checked here, as the int16 year column would wrap a wider year.
        if ((heads[:, 3] < NONE_CODE) | (heads[:, 3] > MAX_YEAR)).any():
            raise ValueError(f"a head's year is not -1 or in 0..{MAX_YEAR}")
        if ((sides != 0) & (sides != 1)).any():
            raise ValueError("a side is not 0 or 1")
        lengths = np.array([len(point) for point in serves], dtype=np.intp)
        # Where each point's serves start in the flat list of serves.
        firsts = np.cumsum(lengths) - lengths
        n_rows = int(np.bincount(point_serves, minlength=len(serves)) @ lengths)
        columns = {name: np.empty(n_rows, dtype=dtype) for name, dtype in _COLUMNS}
        # Each code of the flat list of serves, in its column's dtype.
        codes = [
            (name, np.array([serve[i] for point in serves for serve in point], dtype=dtype))
            for i, (name, dtype) in enumerate(_COLUMNS[3:8])
        ]
        stop = 0
        for start in range(0, len(point_serves), _CHUNK):
            points = slice(start, start + _CHUNK)
            keys = point_serves[points]
            counts = lengths[keys]
            ends = np.cumsum(counts)
            # A row's serve is its point's first serve plus its place among
            # its point's rows.
            serve_rows = np.repeat(firsts[keys] - (ends - counts), counts)
            serve_rows += np.arange(len(serve_rows))
            rows = slice(stop, stop + len(serve_rows))
            stop = rows.stop
            head, side = point_heads[points], sides[points]
            for name, column in (("match", 0), ("server", 1 + side), ("receiver", 2 - side),
                                 ("year", 3), ("tour", 4)):
                columns[name][rows] = np.repeat(heads[head, column], counts)
            for name, code in codes:
                columns[name][rows] = code[serve_rows]
        matches, players, tours = strings
        return cls(**columns, matches=tuple(matches), players=tuple(players), tours=tuple(tours))


class TableBuilder:
    """Grows the columns of a RecordTable one point at a time.

    add appends one row per serve of a point; build makes the table, and
    is called once, after the last add.  Each string's id is its place
    in the order the rows first name it: a row names its server, then its
    receiver.  A missing year or tour is -1.
    """

    def __init__(self) -> None:
        self._columns = [array(np.dtype(dtype).char) for _, dtype in _COLUMNS]
        # Appenders in column order.
        self._appenders = tuple(column.append for column in self._columns)
        self._matches: dict[str, int] = {}
        self._players: dict[str, int] = {}
        self._tours: dict[str, int] = {}

    def add(
        self,
        match_id: str,
        server_id: str,
        receiver_id: str,
        year: int | None,
        tour: str | None,
        serves: Iterable[tuple[int, int, int, int, int]],
    ) -> None:
        """One row per serve of a point, in order; a serve is its
        (serve_number, touch, kind, winner, committer) column codes."""
        matches, players = self._matches, self._players
        m = matches.setdefault(match_id, len(matches))
        s = players.setdefault(server_id, len(players))
        r = players.setdefault(receiver_id, len(players))
        y = NONE_CODE if year is None else year
        t = NONE_CODE if tour is None else self._tours.setdefault(tour, len(self._tours))
        (add_match, add_server, add_receiver, add_serve_number, add_touch,
         add_kind, add_winner, add_committer, add_year, add_tour) = self._appenders
        for serve_number, touch, kind, winner, committer in serves:
            add_match(m)
            add_server(s)
            add_receiver(r)
            add_serve_number(serve_number)
            add_touch(touch)
            add_kind(kind)
            add_winner(winner)
            add_committer(committer)
            add_year(y)
            add_tour(t)

    def build(self) -> RecordTable:
        """The table of every row added, checked as RecordTable checks."""
        return RecordTable(
            **{name: np.asarray(column) for (name, _), column in zip(_COLUMNS, self._columns)},
            matches=tuple(self._matches),
            players=tuple(self._players),
            tours=tuple(self._tours),
        )


def as_table(records: RecordTable | Iterable[ServeRecord]) -> RecordTable:
    """The table itself, or a table built from an iterable of records."""
    if isinstance(records, RecordTable):
        return records
    return RecordTable.from_records(records)


def distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct values of keys, sorted; sorts keys in place.

    Plain np.unique would do, but numpy 2.4 imports numpy.ma inside it
    to check for a mask: about 18 ms and 1.2 MB of RSS per process.
    """
    keys.sort()
    keep = np.empty(len(keys), dtype=bool)
    keep[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return keys[keep]


# Points expanded to rows, or rows written, at a time: a chunk's index
# arrays and lines are all that building or writing holds besides the output.
_CHUNK = 1024
_KIND_NAMES = tuple(kind.value for kind in KINDS)
_FAULT_FIELDS = tuple("true" if code == _FAULT else "false" for code in range(len(KINDS)))
# Index -1 picks the trailing "none".
_ROLE_NAMES = (*(role.value for role in ROLES), "none")
_KIND_BY_NAME = {name: code for code, name in enumerate(_KIND_NAMES)}
# A role field reads "" as none too.
_ROLE_BY_NAME = {role.value: code for code, role in enumerate(ROLES)} | {
    "none": NONE_CODE, "": NONE_CODE
}


def _serve_and_year(key: int) -> str:
    """The serve_number to year fields of a RecordsWriter.write key, each
    with the comma after it."""
    key, year = divmod(key, MAX_YEAR + 2)
    key, committer = divmod(key, 3)
    key, winner = divmod(key, 3)
    key, kind = divmod(key, len(KINDS))
    touch, serve = divmod(key, 2)
    return (f"{serve + 1},{_FAULT_FIELDS[kind]},{touch},{_KIND_NAMES[kind]},"
            f"{_ROLE_NAMES[winner - 1]},{_ROLE_NAMES[committer - 1]},{year - 1 if year else ''},")


def _read_table(path: Path) -> RecordTable:
    """The table of a CSV written by write_records_csv, each row's fields
    mapped straight to column codes.

    A row that is not a valid record raises CsvFormatError naming file
    and line: a row that cannot be coded as it is read, and a row that
    RecordTable's checks reject once every row is in.
    """
    where = str(path)
    builder = TableBuilder()
    add = builder.add
    with open_csv(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != RECORD_FIELDS:
            raise CsvFormatError(
                f"unexpected header {header!r}; expected {RECORD_FIELDS!r}", path=where, line=1
            )
        for row in reader:
            if len(row) != len(RECORD_FIELDS):
                raise CsvFormatError(
                    f"expected {len(RECORD_FIELDS)} fields, got {len(row)}",
                    path=where,
                    line=reader.line_num,
                )
            (match_id, server_id, receiver_id, serve, fault, touch, kind, winner, committer,
             year, tour) = row
            try:
                kind = _KIND_BY_NAME[kind]
                if (fault == "true") != (kind == _FAULT):
                    raise ValueError(_FLAG_RULE)
                year = int(year) if year else None
                if year is not None and year < 0:
                    raise ValueError(f"year must be in 0..{MAX_YEAR}, got {year}")
                codes = (int(serve), int(touch), kind, _ROLE_BY_NAME[winner],
                         _ROLE_BY_NAME[committer])
                # A value too wide for its column overflows here.
                add(match_id, server_id, receiver_id, year, tour or None, (codes,))
            except KeyError as exc:
                raise CsvFormatError(
                    f"unknown value {exc.args[0]!r}", path=where, line=reader.line_num
                ) from None
            except (ValueError, OverflowError) as exc:
                raise CsvFormatError(str(exc), path=where, line=reader.line_num) from None
    try:
        return builder.build()
    except BrokenRowError as exc:
        raise CsvFormatError(exc.reason, path=where, line=_line_of_row(path, exc.row)) from None


def _line_of_row(path: Path, row: int) -> int:
    """The line on which data row `row` of a records CSV ends; a quoted
    field may span lines, so the CSV is read again up to that row."""
    with open_csv(path) as fh:
        reader = csv.reader(fh)
        next(islice(reader, row + 1, None), None)  # past the header and the rows before
        return reader.line_num


def read_records_csv(path) -> list[ServeRecord]:
    """The records of a CSV written by write_records_csv; a row that is
    not a valid record raises CsvFormatError naming file and line."""
    return _read_table(Path(path)).to_records()


def load_records(path: str | Path) -> tuple[RecordTable, str]:
    """The records of a CSV written by write_records_csv, as a table, and
    the SHA-256 of the CSV's bytes.

    Each of the CSV's rows is coded into the table's columns, so errors
    name file and line; the CSV is parsed on every call, and no sidecar
    is read or written.  A path that is not a regular file (a pipe, a
    device, a directory) raises CsvFormatError.
    """
    file_identity(path)
    sha256 = file_sha256(path)
    return _read_table(Path(path)), sha256


def save_records(table: RecordTable, path: str | Path) -> str:
    """Write a table as a records CSV, and its sidecar as a cache miss
    would; returns the SHA-256 of the CSV's bytes.

    The CSV is written as RecordsWriter writes it, and a sidecar that
    cannot be written is dropped.
    """
    with RecordsWriter(path) as out:
        out.write(table)
        return out.commit(table)
