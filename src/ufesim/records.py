"""Serve-level record types, their CSV serialization and the records cache.

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
RecordTable.take cuts a table of some rows out of a table, with string
tables cut down to what those rows use and no check run again; each
serve pool is one.  _record_rules states the rules between a record's
fields once, over column codes, for ServeRecord and RecordTable alike.

write_records_csv writes a table as the records CSV, byte for byte what
csv.writer would write (UTF-8, CRLF, minimal quoting), through a
RecordsWriter: lines go to a temporary file beside the output, hashed as
they are written, which replaces the output only once every line is in.
A line is three formatted strings: its match and players, its serve, and
its year and tour; csv.writer quotes each distinct string once.
RecordsWriter.write_points writes the lines of points given as
RecordTable.from_points takes them, without making the table: ingest
writes each file's lines so while later files are still being read.

load_records reads a records CSV into a table through a sidecar cache,
`<csv name>.ufesim-cache.npz`, keyed on the SHA-256 of the CSV's bytes.
On a miss each row's fields are mapped straight to column codes (kind
and role by lookup, numbers by int()), and the sidecar is rewritten
from the table.  The sidecar holds the ten columns and a JSON header of
the format version, that digest and the string tables.
read_records_csv is the same read as ServeRecords, with no sidecar.
save_records writes a table's CSV and its sidecar together, as
RecordsWriter.commit does given the table.  This module is the only one
that knows the column layout and the sidecar's.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import shutil
import stat
import struct
import tempfile
import zipfile
import zlib
from array import array
from contextlib import contextmanager, suppress
from dataclasses import dataclass, fields
from enum import Enum
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import CsvFormatError


class TerminalKind(Enum):
    ACE = "ace"
    SERVICE_WINNER = "service_winner"
    RALLY_WINNER = "rally_winner"
    FORCED_ERROR = "forced_error"
    UNFORCED_ERROR = "unforced_error"
    DOUBLE_FAULT = "double_fault"
    FIRST_SERVE_FAULT = "first_serve_fault"


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
    """A records CSV being written, one table of rows after another.

    Entering opens a temporary file beside `path` and writes the header;
    the SHA-256 of the bytes is taken as they are written.  commit moves
    the file into place, with the permissions open(path, "w") would give
    it, and writes the sidecar of a table given to it.  Leaving without
    a commit removes the temporary file, so a write that fails or is
    interrupted leaves `path` as it was.  A `path` that is there and is
    not a regular file (a device, a pipe) is written in place.
    """

    def __init__(self, path) -> None:
        # open() writes through a symbolic link; so does the replace.  The
        # sidecar goes where load_records looks for it, beside `path`.
        self.path = Path(os.path.realpath(path))
        self._sidecar = cache_path(path)
        self._digest = hashlib.sha256()
        self._quoted: dict[str, str] = {}

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
        """Append a table's rows.

        Each row is a point of one serve: its head is its distinct
        (match, server, receiver, year, tour), served by the head's first
        player, and its serve its distinct serve codes.
        """
        n_players = len(table.players)
        pairs, pair_ids = _coded(table.server.astype(np.int64) * n_players + table.receiver)
        n_pairs = len(pairs)
        heads, head_ids = _coded(table.match.astype(np.int64) * n_pairs + pair_ids)
        tails, tail_ids = _coded(
            (table.tour.astype(np.int64) + 1) * (MAX_YEAR + 2) + table.year + 1
        )
        n_tails = len(tails)
        codes, point_heads = _coded(head_ids * n_tails + tail_ids)
        del pair_ids, head_ids, tail_ids
        pairs, heads, tails = pairs.tolist(), heads.tolist(), tails.tolist()
        rows = []
        for code in codes.tolist():
            head, tail = divmod(code, n_tails)
            match, pair = divmod(heads[head], n_pairs)
            tour, year = divmod(tails[tail], MAX_YEAR + 2)
            rows.append((match, *divmod(pairs[pair], n_players), year - 1, tour - 1))
        # serve_number, kind, winner and committer take 2, 7, 3 and 3 values.
        codes, point_serves = _coded(
            (((table.touch.astype(np.int64) * 2 + table.serve_number - 1) * len(KINDS)
              + table.kind) * 3 + table.winner + 1) * 3 + table.committer + 1
        )
        serves = []
        for code in codes.tolist():
            code, committer = divmod(code, 3)
            code, winner = divmod(code, 3)
            code, kind = divmod(code, len(KINDS))
            touch, serve = divmod(code, 2)
            serves.append(((serve + 1, touch, kind, winner - 1, committer - 1),))
        self.write_points(
            (table.matches, table.players, table.tours),
            np.array(rows, dtype=np.int32).reshape(-1, 5),
            point_heads,
            np.zeros(len(table), dtype=np.int8),
            serves,
            point_serves,
        )

    def write_points(
        self,
        strings: tuple[Sequence[str], Sequence[str], Sequence[str]],
        heads: np.ndarray,
        point_heads: np.ndarray,
        sides: np.ndarray,
        serves: Sequence[tuple[tuple[int, int, int, int, int], ...]],
        point_serves: np.ndarray,
    ) -> None:
        """Append the rows RecordTable.from_points makes of the same
        arguments, without making them.

        A line is its head's match and players, in serving order, its
        serve, and its head's year and tour.  Each head is formatted once,
        with csv.writer quoting each string once per writer, and each
        serve once.
        """
        matches, players, tours = strings
        field = self._field
        starts, ends = [], []  # the start of head h served by side s is starts[2 * h + s]
        for match, first, second, year, tour in heads.tolist():
            match, first, second = (
                field(matches[match]), field(players[first]), field(players[second])
            )
            starts += (f"{match},{first},{second},", f"{match},{second},{first},")
            ends.append(f",{'' if year == NONE_CODE else year},"
                        f"{'' if tour == NONE_CODE else field(tours[tour])}\r\n")
        fields = [
            f"{serve_number},{_FAULT_FIELDS[kind]},{touch},{_KIND_NAMES[kind]},"
            f"{_ROLE_NAMES[winner]},{_ROLE_NAMES[committer]}"
            for point in serves
            for serve_number, touch, kind, winner, committer in point
        ]
        for points, counts, serve_rows in _row_chunks(serves, point_serves):
            head = point_heads[points]
            self._put("".join([
                f"{starts[start]}{fields[serve]}{ends[end]}"
                for start, serve, end in zip(np.repeat(2 * head + sides[points], counts).tolist(),
                                             serve_rows.tolist(), np.repeat(head, counts).tolist())
            ]))

    def _field(self, s: str) -> str:
        """s as csv.writer writes it as a field of a longer row."""
        quoted = self._quoted.get(s)
        if quoted is None:
            self._quoted[s] = quoted = _csv_fields((s,))[0]
        return quoted

    def commit(self, table: RecordTable | None = None) -> str:
        """Move the CSV into place and, given the table written, write its
        sidecar as load_records would; returns the SHA-256 of the CSV."""
        self._fh.close()
        if self._tmp is not None:
            try:
                mode = stat.S_IMODE(os.stat(self.path).st_mode)
            except FileNotFoundError:
                mode = 0o666 & ~_umask()
            os.chmod(self._tmp, mode)
            os.replace(self._tmp, self.path)
            self._tmp = None
        sha256 = self._digest.hexdigest()
        if table is not None:
            _write_sidecar(self._sidecar, _to_arrays(table, sha256), self.path)
        return sha256


def _umask() -> int:
    umask = os.umask(0)
    os.umask(umask)
    return umask


def _coded(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct codes, sorted, and each code's place among them."""
    keys = distinct(codes.copy())
    return keys, np.searchsorted(keys, codes)


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


#: Column codes.  A kind is its index in KINDS; a role is its index in
#: ROLES, and -1 stands for None in role, year and tour columns.
KINDS = tuple(TerminalKind)
KIND_CODES = {kind: code for code, kind in enumerate(KINDS)}
ROLES = (Role.SERVER, Role.RECEIVER)
ROLE_CODES = {None: -1, Role.SERVER: 0, Role.RECEIVER: 1}
NONE_CODE = -1

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
            if not _used(strings, ids)[:-1].all():
                raise ValueError("a string table holds a string no record uses")

    def _check_invariants(self) -> None:
        """The row masks; an error names the first row that breaks any."""
        broken = [
            (int(np.flatnonzero(mask)[0]), message)
            for message, mask in self._broken_rows()
            if mask.any()
        ]
        if broken:
            raise BrokenRowError(*min(broken, key=lambda b: b[0]))

    def _broken_rows(self) -> Iterator[tuple[str, np.ndarray]]:
        serve, touch, kind = self.serve_number, self.touch, self.kind
        winner, committer, year = self.winner, self.committer, self.year
        yield "serve_number must be 1 or 2", (serve != 1) & (serve != 2)
        yield "terminal_touch must be >= 1", touch < 1
        yield "server_id and receiver_id must differ", self.server == self.receiver
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

    def take(self, rows: np.ndarray) -> RecordTable:
        """The table of the given row indices, in their order; a row may
        repeat.  Each string table keeps the strings those rows use, in
        its order, and a missing tour stays -1; checked rows are not re-checked."""
        columns = {name: getattr(self, name)[rows] for name, _ in _COLUMNS}
        strings = {}
        for name, id_columns in _ID_COLUMNS.items():
            table = getattr(self, name)
            kept = _used(table, [columns[column] for column in id_columns])[:-1]
            # The new id of each old one; index -1 maps -1 to itself.
            new_ids = np.append(np.cumsum(kept, dtype=np.int32) - 1, np.int32(NONE_CODE))
            for column in id_columns:
                columns[column] = new_ids[columns[column]]
            strings[name] = tuple(s for s, keep in zip(table, kept.tolist()) if keep)
        for column in columns.values():
            column.flags.writeable = False
        part = object.__new__(RecordTable)
        part.__dict__.update(columns, **strings)
        return part

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
        n_rows = sum(
            int(lengths[point_serves[start:start + _CHUNK]].sum())
            for start in range(0, len(point_serves), _CHUNK)
        )
        columns = {name: np.empty(n_rows, dtype=dtype) for name, dtype in _COLUMNS}
        # Each code of the flat list of serves, in its column's dtype.
        codes = [
            (name, np.array([serve[i] for point in serves for serve in point], dtype=dtype))
            for i, (name, dtype) in enumerate(_COLUMNS[3:8])
        ]
        stop = 0
        for points, counts, serve_rows in _row_chunks(serves, point_serves):
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

    def tour_rows(self, tour: str | None) -> np.ndarray | slice:
        """Index of the rows of one tour; every row when tour is None."""
        if tour is None:
            return slice(None)
        tour_id = self.tours.index(tour) if tour in self.tours else len(self.tours)
        return self.tour == tour_id


def _row_chunks(
    serves: Sequence[tuple], point_serves: np.ndarray
) -> Iterator[tuple[slice, np.ndarray, np.ndarray]]:
    """The rows of points, _CHUNK points at a time, as (points, counts,
    serve_rows): the slice of points, each point's number of rows, and
    each row's index in the flat list of serves (every point's serves,
    one after another, in the order of serves)."""
    lengths = np.array([len(point) for point in serves], dtype=np.intp)
    firsts = np.cumsum(lengths) - lengths
    for start in range(0, len(point_serves), _CHUNK):
        points = slice(start, start + _CHUNK)
        keys = point_serves[points]
        counts = lengths[keys]
        ends = np.cumsum(counts)
        # A row's serve is its point's first serve plus its place among
        # its point's rows.
        serve_rows = np.repeat(firsts[keys] - (ends - counts), counts)
        serve_rows += np.arange(len(serve_rows))
        yield points, counts, serve_rows


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


def _used(strings: tuple[str, ...], ids: Iterable[np.ndarray]) -> np.ndarray:
    """Which strings some id points at, and a last slot for the -1s of
    the tour column."""
    used = np.zeros(len(strings) + 1, dtype=bool)
    for column in ids:
        used[column] = True
    return used


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


# Points expanded to rows at a time: a chunk's index arrays and lines are
# all that writing or building holds besides the output.
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


CACHE_VERSION = 2
CACHE_SUFFIX = ".ufesim-cache.npz"

# What reading a missing, truncated or otherwise corrupt sidecar can raise.
_UNREADABLE = (
    EOFError,
    KeyError,
    NotImplementedError,
    OSError,
    RuntimeError,
    TypeError,
    ValueError,
    struct.error,
    zipfile.BadZipFile,
    zlib.error,
)


def file_sha256(path: str | Path) -> str:
    """Hex SHA-256 of a file's bytes."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def cache_path(records_path: str | Path) -> Path:
    """Where load_records keeps the sidecar of a records CSV."""
    path = Path(records_path)
    return path.with_name(path.name + CACHE_SUFFIX)


def _to_arrays(table: RecordTable, sha256: str) -> dict[str, np.ndarray]:
    """The sidecar's contents for a table read from a CSV with this digest.

    The header's JSON is ASCII, with every other character escaped, so a
    name keeps a trailing NUL that a numpy str array would drop."""
    header = {"version": CACHE_VERSION, "sha256": sha256}
    header.update((name, getattr(table, name)) for name in _STRING_TABLES)
    arrays = {"header": np.frombuffer(json.dumps(header).encode("ascii"), dtype=np.uint8)}
    arrays.update((name, getattr(table, name)) for name, _ in _COLUMNS)
    return arrays


def _from_arrays(arrays: Mapping[str, np.ndarray], sha256: str) -> RecordTable | None:
    """The table in a sidecar's contents; None if they are of another
    version or digest, and an error if they fail a check."""
    header = json.loads(arrays["header"].tobytes().decode("utf-8"))
    if not isinstance(header, dict):
        raise ValueError("the sidecar header is not a JSON object")
    if header.get("version") != CACHE_VERSION or header.get("sha256") != sha256:
        return None
    strings = {name: header[name] for name in _STRING_TABLES}
    if not all(isinstance(table, list) for table in strings.values()):
        raise ValueError("a string table is not a list")
    return RecordTable(
        **{name: arrays[name] for name, _ in _COLUMNS},
        **{name: tuple(table) for name, table in strings.items()},
    )


def _read_sidecar(sidecar: Path, sha256: str) -> RecordTable | None:
    """The cached table, or None unless the sidecar is readable, of this
    version, keyed on this digest and passes every check."""
    try:
        # np.load leaves a file it opened unclosed when that is no zip.
        with open(sidecar, "rb") as fh, np.load(fh, allow_pickle=False) as npz:
            return _from_arrays(npz, sha256)
    except _UNREADABLE:
        return None


def _write_sidecar(sidecar: Path, arrays: dict[str, np.ndarray], like: Path) -> None:
    """Replace the sidecar atomically, with the permissions of `like`;
    a write that fails is dropped."""
    try:
        fd, tmp = tempfile.mkstemp(dir=sidecar.parent, prefix=sidecar.name + ".", suffix=".tmp")
    except OSError:
        return
    try:
        with os.fdopen(fd, "wb") as fh:
            np.savez(fh, **arrays)
        shutil.copymode(like, tmp)
        os.replace(tmp, sidecar)
    except OSError:
        with suppress(OSError):
            os.unlink(tmp)


def load_records(path: str | Path) -> tuple[RecordTable, str]:
    """The records of a CSV written by write_records_csv, as a table, and
    the SHA-256 of the CSV's bytes.

    A sidecar keyed on that digest is read when it is valid.  Otherwise
    each of the CSV's rows is coded into the table's columns, so errors
    name file and line, and the sidecar is rewritten if the directory
    allows.
    """
    path = Path(path)
    before = _identity(path)
    sha256 = file_sha256(path)
    sidecar = cache_path(path)
    table = _read_sidecar(sidecar, sha256)
    if table is None:
        table = _read_table(path)
        # Cache only what matches the key: the CSV may change while read.
        if _identity(path) == before:
            _write_sidecar(sidecar, _to_arrays(table, sha256), path)
    return table, sha256


def save_records(table: RecordTable, path: str | Path) -> str:
    """Write a table as a records CSV, and its sidecar as load_records
    would; returns the SHA-256 of the CSV's bytes.

    The CSV is written as RecordsWriter writes it, and a sidecar that
    cannot be written is dropped.
    """
    with RecordsWriter(path) as out:
        out.write(table)
        return out.commit(table)


def _identity(path: Path) -> tuple[int, int, int, int]:
    st = path.stat()
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns
