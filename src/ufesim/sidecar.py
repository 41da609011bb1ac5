"""The records cache: a records CSV's sidecar, its key, its layout and
its one lookup.

list-players, stats and simulate each reach a records CSV through
lookup, which keeps what they read of the table in a sidecar beside it,
`<csv name>.ufesim-cache.npz`, keyed on the SHA-256 of the CSV's bytes.
The sidecar is a zip (layout 7) of three members: two JSON members, each
the ASCII text of one JSON object, and the serve index.
`header.json` holds
- `version`, CACHE_VERSION, so that a sidecar of another layout is a miss;
- `sha256`, the digest of the CSV the sidecar caches;
- `players` and `tours`, the table's player and tour names;
- `counts`, each player's distinct matches over all tours, and
  `tour_counts`, one such list for each entry of `tours`; every count
  list is aligned with `players`, and 0 means no match in that tour.
`tally.json` holds the same `version` and `sha256`, the `max_touch` of
its tallies, `tours`, and `tallies`: the RecordTally of every tour, then
one for each entry of `tours`, each an object of RecordTally's fields
besides max_touch, in the order RecordTally declares them.
`serves.bin` is the serve index (ServeIndex): one line of ASCII JSON,
with the same `version` and `sha256` and `offsets`, then three blobs of
little-endian bytes.  The rows are grouped stably by (server id, serve
number): group 2 * p + serve_number - 1 holds player p's serves of that
number, rows offsets[g] to offsets[g + 1] - 1, in file order.  The blobs
hold each row's receiver id (int32), tour id (int32, -1 for none) and
serve code (one byte: SERVE_FAULT, SERVER_WINS, RECEIVER_WINS, or an
unforced error by the server or the receiver at its touch).
Every member is dated 1980-01-01, so a sidecar's bytes depend only on
its table.

A sidecar is written only for a table that passed every RecordTable
check, from a CSV of exactly the bytes its digest names.  So a header of
this version and digest answers list-players, a tally member stats, and
a serve index, with the header's names, simulate: read_header,
read_tallies and read_serves read only their members, with zipfile,
json and array.  The header, the tallies and the serve index are made
wherever a sidecar is written (summarize), and write_sidecar hands them
back, so a miss builds them once.

The codes the table's columns, the tallies and the serve index hold are
defined here too: TerminalKind and Role, their column codes, and the
serve codes.  This module imports no numpy at load: only the functions
that build the serve index import it, so importing the module costs only
the standard library.  It is the only one that knows the sidecar's
layout.
"""
from __future__ import annotations

import hashlib
import json
import os
import shutil
import stat
import struct
import sys
import tempfile
import zipfile
import zlib
from array import array
from contextlib import suppress
from enum import Enum
from itertools import chain
from operator import gt
from pathlib import Path
from typing import IO, TYPE_CHECKING, Mapping, NamedTuple

from .errors import CsvFormatError

if TYPE_CHECKING:
    from .analytics import RecordTally
    from .records import RecordTable


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


#: Column codes.  A kind is its index in KINDS; a role is its index in
#: ROLES, and -1 stands for None in role, year and tour columns.
KINDS = tuple(TerminalKind)
KIND_CODES = {kind: code for code, kind in enumerate(KINDS)}
ROLES = (Role.SERVER, Role.RECEIVER)
ROLE_CODES = {None: -1, Role.SERVER: 0, Role.RECEIVER: 1}
NONE_CODE = -1

#: The touch at which a serve code stops telling touches apart, and the
#: last touch of the counterfactual table.
MAX_TOUCH = 10
#: Serve codes, relative to the serve's server: a first-serve fault, a
#: point won by the server or by the receiver, and an unforced error at
#: touch t (2..MAX_TOUCH, a later touch counted as MAX_TOUCH) by the
#: server, SERVER_ERROR + t, or by the receiver, RECEIVER_ERROR + t.
SERVE_FAULT, SERVER_WINS, RECEIVER_WINS = 0, 1, 2
SERVER_ERROR = RECEIVER_WINS - 1
RECEIVER_ERROR = SERVER_ERROR + MAX_TOUCH - 1
SERVE_CODES = RECEIVER_ERROR + MAX_TOUCH + 1

CACHE_VERSION = 7
# Kept from the np.savez layouts, so that a new sidecar replaces an old one in place.
CACHE_SUFFIX = ".ufesim-cache.npz"
_HEADER, _TALLY, _SERVES = "header.json", "tally.json", "serves.bin"
# Bytes per row of the serve index: a receiver id, a tour id, a code.
_SERVE_ROW_BYTES = 9
# Rows the serve index is built from at a time, so that its temporaries
# stay near 0.5 MB however long the table.
_INDEX_ROWS = 8192

_STRING_TABLES = ("players", "tours")

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


class ServeIndex(NamedTuple):
    """A table's serves grouped by server and serve number, as the serve
    index member holds them (see the module docstring), with the table's
    players and tours."""

    players: tuple[str, ...]
    tours: tuple[str, ...]
    offsets: tuple[int, ...]
    receivers: array
    tour_ids: array
    codes: bytes

    def group(self, player: int, serve_number: int) -> slice:
        """The rows of one player's serves of one number."""
        g = 2 * player + serve_number - 1
        return slice(self.offsets[g], self.offsets[g + 1])


class Summary(NamedTuple):
    """What a table's sidecar keeps of it: the header, the tallies, keyed
    None for every tour and by each of the table's tours, and the serve
    index.  Each field names what lookup can read."""

    header: dict
    tallies: dict[str | None, RecordTally]
    serves: ServeIndex


def file_sha256(path: str | Path) -> str:
    """Hex SHA-256 of a file's bytes."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def file_identity(path: str | Path) -> tuple[int, int, int, int]:
    """A regular file's device, inode, size and mtime, which a write or a
    replace changes.  A path that is not a regular file (a pipe, a
    device, a directory) raises CsvFormatError: a hash would drain a
    pipe, and a read would then wait on it."""
    st = os.stat(path)
    if not stat.S_ISREG(st.st_mode):
        raise CsvFormatError("not a regular file", path=str(path))
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns


def cache_path(records_path: str | Path) -> Path:
    """Where lookup keeps the sidecar of a records CSV."""
    path = Path(records_path)
    return path.with_name(path.name + CACHE_SUFFIX)


def serve_codes(table: RecordTable, rows: slice = slice(None)):
    """The serve code of each of these rows of a table, a uint8 array."""
    import numpy as np

    kind, touch = table.kind[rows], np.minimum(table.touch[rows], MAX_TOUCH)
    codes = np.where(table.winner[rows] == ROLE_CODES[Role.SERVER], SERVER_WINS, RECEIVER_WINS)
    by_server = table.committer[rows] == ROLE_CODES[Role.SERVER]
    errors = np.where(by_server, SERVER_ERROR, RECEIVER_ERROR) + touch
    codes = np.where(kind == KIND_CODES[TerminalKind.UNFORCED_ERROR], errors, codes)
    codes[kind == KIND_CODES[TerminalKind.FIRST_SERVE_FAULT]] = SERVE_FAULT
    return codes.astype(np.uint8)


def serve_index(table: RecordTable) -> ServeIndex:
    """A table's serve index: a stable counting sort of its rows by
    (server, serve number), _INDEX_ROWS rows at a time, written straight
    into the index's arrays."""
    import numpy as np

    n_groups = 2 * len(table.players)
    # The narrowest key type: numpy sorts 8- and 16-bit keys by radix.
    key_type = np.min_scalar_type(max(n_groups - 1, 0))
    chunks = [slice(start, start + _INDEX_ROWS) for start in range(0, len(table), _INDEX_ROWS)]

    def groups(rows: slice) -> np.ndarray:
        return (table.server[rows] * 2 + (table.serve_number[rows] - 1)).astype(key_type)

    counts = [np.bincount(groups(rows), minlength=n_groups) for rows in chunks]
    offsets = np.zeros(n_groups + 1, dtype=np.intp)
    for count in counts:
        offsets[1:] += count
    np.cumsum(offsets, out=offsets)
    receivers, tour_ids = array("i", [0]) * len(table), array("i", [0]) * len(table)
    codes = bytearray(len(table))
    # Where the next row of each group goes.
    ends = offsets[:-1].copy()
    for rows, count in zip(chunks, counts):
        key = groups(rows)
        order = np.argsort(key, kind="stable")
        # The chunk's rows in key order, each at its group's end plus its
        # place among the chunk's rows of that group.
        starts = ends - (np.cumsum(count) - count)
        at = starts[key[order]] + np.arange(len(order))
        for out, dtype, values in ((receivers, np.intc, table.receiver[rows]),
                                   (tour_ids, np.intc, table.tour[rows]),
                                   (codes, np.uint8, serve_codes(table, rows))):
            np.frombuffer(out, dtype=dtype)[at] = values[order]
        ends += count
    return ServeIndex(
        table.players, table.tours, tuple(offsets.tolist()), receivers, tour_ids, bytes(codes)
    )


def summarize(table: RecordTable, sha256: str) -> Summary:
    """The header, the tallies and the serve index of the sidecar of a
    table read from a CSV with this digest, the tallies from one
    tally_records call.  The header's counts are the tallies' match
    counts, aligned with the table's players."""
    from .analytics import tally_records

    tallies = tally_records(table)
    ids = {name: i for i, name in enumerate(table.players)}

    def counts(tally: RecordTally) -> list[int]:
        aligned = [0] * len(ids)
        for name, n in zip(tally.players, tally.matches):
            aligned[ids[name]] = n
        return aligned

    header = {"version": CACHE_VERSION, "sha256": sha256}
    header.update((name, list(getattr(table, name))) for name in _STRING_TABLES)
    header["counts"] = counts(tallies[None])
    header["tour_counts"] = [counts(tallies[tour]) for tour in table.tours]
    return Summary(header, tallies, serve_index(table))


def _naturals(values: object, shape: tuple[int, ...]) -> bool:
    """Whether values are lists nested to this shape, holding ints >= 0
    (not bools) only."""
    level = [values]
    for length in shape:
        if not all(type(item) is list and len(item) == length for item in level):
            return False
        level = list(chain.from_iterable(level))
    return set(map(type, level)) <= {int} and min(level, default=0) >= 0


def _strings(values: object) -> bool:
    return type(values) is list and set(map(type, values)) <= {str}


def _distinct_strings(values: object) -> bool:
    return _strings(values) and len(set(values)) == len(values)


def _checked(header: object, sha256: str) -> dict | None:
    """The header if it is of this version and digest, its player and
    tour names are distinct strings and each count list is well formed;
    else None."""
    if not isinstance(header, dict):
        return None
    if header.get("version") != CACHE_VERSION or header.get("sha256") != sha256:
        return None
    if not all(_distinct_strings(header.get(name)) for name in _STRING_TABLES):
        return None
    n_players = len(header["players"])
    if not _naturals(header.get("counts"), (n_players,)):
        return None
    if not _naturals(header.get("tour_counts"), (len(header["tours"]), n_players)):
        return None
    return header


def _checked_tallies(member: object, sha256: str, max_touch: int) -> dict | None:
    """The tallies a tally member holds, keyed as Summary keys them, if
    the member is of this version, digest and max_touch and each tally is
    well formed; else None."""
    from .analytics import RecordTally

    if not isinstance(member, dict) or member.keys() != {
        "version", "sha256", "max_touch", "tours", "tallies"
    }:
        return None
    if member["version"] != CACHE_VERSION or member["sha256"] != sha256:
        return None
    tours, stored = member["tours"], member["tallies"]
    if type(member["max_touch"]) is not int or member["max_touch"] != max_touch:
        return None
    if not _distinct_strings(tours):
        return None
    if type(stored) is not list or len(stored) != len(tours) + 1:
        return None
    width, tallies = max_touch + 1, {}
    for tour, tally in zip((None, *tours), stored):
        # A missing field raises KeyError below, and one RecordTally does
        # not take (max_touch among them) TypeError: read_tallies misses.
        if not isinstance(tally, dict):
            return None
        players, years = tally["players"], tally["years"]
        if not _distinct_strings(players):
            return None
        if type(years) is not list or not _naturals(years, (len(years),)):
            return None
        if years != sorted(set(years)):
            return None
        n = len(players)
        shapes = {"matches": (n,), "contacts": (n,), "ufes": (n,), "served": (n, width),
                  "received": (n, width), "touch_ufes": (n, len(ROLES), width),
                  "year_contacts": (n, len(years)), "year_ufes": (n, len(years))}
        if not all(_naturals(tally[name], shape) for name, shape in shapes.items()):
            return None
        tallies[tour] = RecordTally(
            **{**tally, "players": tuple(players), "years": tuple(years)}, max_touch=max_touch
        )
    return tallies


def _int32s(data: memoryview) -> array:
    """The int32 values of little-endian bytes."""
    values = array("i")
    values.frombytes(data)
    if sys.byteorder == "big":
        values.byteswap()
    return values


def _little_endian(values: array) -> memoryview:
    """The bytes of int32 values, little-endian."""
    if sys.byteorder == "big":
        values = array(values.typecode, values)
        values.byteswap()
    return memoryview(values).cast("B")


def _in_range(values: array, low: int, stop: int) -> bool:
    """Whether every value is in low..stop-1."""
    distinct = set(values)
    return not distinct or (min(distinct) >= low and max(distinct) < stop)


def _checked_serves(member: bytes, header: dict) -> ServeIndex | None:
    """The serve index a serve index member holds, with the header's
    players and tours, if the member is of the header's version and
    digest and well formed: offsets of one group per player and serve
    number, from 0 and never falling, that end at the blobs' row count,
    and every id and code in range; else None."""
    start = member.index(b"\n") + 1
    meta = json.loads(member[:start].decode("ascii"))
    if not isinstance(meta, dict) or meta.keys() != {"version", "sha256", "offsets"}:
        return None
    if meta["version"] != CACHE_VERSION or meta["sha256"] != header["sha256"]:
        return None
    players, tours, offsets = tuple(header["players"]), tuple(header["tours"]), meta["offsets"]
    if not _naturals(offsets, (2 * len(players) + 1,)) or offsets[0] != 0:
        return None
    rows = offsets[-1]
    if any(map(gt, offsets, offsets[1:])) or len(member) - start != _SERVE_ROW_BYTES * rows:
        return None
    # Each blob read straight out of the member, with no copy between.
    blobs = memoryview(member)[start:]
    receivers, tour_ids = _int32s(blobs[: 4 * rows]), _int32s(blobs[4 * rows : 8 * rows])
    codes = member[start + 8 * rows :]
    if not (_in_range(receivers, 0, len(players)) and _in_range(tour_ids, NONE_CODE, len(tours))):
        return None
    if codes.translate(None, bytes(range(SERVE_CODES))):
        return None
    return ServeIndex(players, tours, tuple(offsets), receivers, tour_ids, codes)


def _read_json(archive: zipfile.ZipFile, name: str) -> object:
    """The JSON value of one member of the sidecar, read alone; zipfile
    checks its CRC, and a member that is not ASCII is an error."""
    return json.loads(archive.read(name).decode("ascii"))


def read_header(sidecar: Path, sha256: str) -> dict | None:
    """The sidecar's header, or None unless the sidecar is readable, of
    this version, keyed on this digest and its header well formed.  Only
    the header member is read."""
    try:
        with zipfile.ZipFile(sidecar) as archive:
            return _checked(_read_json(archive, _HEADER), sha256)
    except _UNREADABLE:
        return None


def read_tallies(sidecar: Path, sha256: str) -> dict[str | None, RecordTally] | None:
    """The sidecar's tallies, keyed as Summary keys them, or None unless
    the sidecar is readable, of this version, keyed on this digest and
    its tally member well formed, with the default max_touch.  Only the
    tally member is read."""
    from .analytics import DEFAULT_MAX_TOUCH

    try:
        with zipfile.ZipFile(sidecar) as archive:
            return _checked_tallies(_read_json(archive, _TALLY), sha256, DEFAULT_MAX_TOUCH)
    except _UNREADABLE:
        return None


def read_serves(sidecar: Path, sha256: str) -> ServeIndex | None:
    """The sidecar's serve index, with the header's players and tours, or
    None unless the sidecar is readable, of this version, keyed on this
    digest and its header and serve index well formed.  Only those two
    members are read."""
    try:
        with zipfile.ZipFile(sidecar) as archive:
            header = _checked(_read_json(archive, _HEADER), sha256)
            if header is None:
                return None
            return _checked_serves(archive.read(_SERVES), header)
    except _UNREADABLE:
        return None


def players_of(header: Mapping, tour: str | None) -> dict[str, int]:
    """Each player's distinct matches in one tour (every tour when tour
    is None), from a header; a player with none is left out."""
    if tour is None:
        counts = header["counts"]
    elif tour in header["tours"]:
        counts = header["tour_counts"][header["tours"].index(tour)]
    else:
        return {}
    return {name: n for name, n in zip(header["players"], counts) if n}


def _dumps(value: object, depth: int = 3) -> str:
    """json.dumps(value), with the lists and dicts of the top `depth`
    levels encoded an item at a time: one json.dumps of a tally member
    would hold a piece of text for each of its counts at once, about
    2 MB on a 136k-row corpus."""
    if depth and isinstance(value, dict):
        items = (f"{json.dumps(key)}: {_dumps(item, depth - 1)}" for key, item in value.items())
        return "{" + ", ".join(items) + "}"
    if depth and isinstance(value, list):
        return "[" + ", ".join(_dumps(item, depth - 1) for item in value) + "]"
    return json.dumps(value)


def _write_zip(fh: IO[bytes], summary: Summary) -> None:
    """Write the sidecar of a summary's table to fh: the header, tally and
    serve index members.

    Each JSON member is ASCII, with every other character escaped, so
    every name is kept as it is.  Each member is opened by name, which
    dates it 1980-01-01: the bytes depend only on the table, never on
    the clock."""
    tallies = list(summary.tallies.values())
    tally = {
        "version": CACHE_VERSION,
        "sha256": summary.header["sha256"],
        "max_touch": tallies[0].max_touch,
        "tours": [tour for tour in summary.tallies if tour is not None],
        # RecordTally's fields in the order it declares them, besides
        # max_touch, which the member holds once.
        "tallies": [{k: v for k, v in t._asdict().items() if k != "max_touch"} for t in tallies],
    }
    serves = summary.serves
    meta = {"version": CACHE_VERSION, "sha256": summary.header["sha256"],
            "offsets": list(serves.offsets)}
    with zipfile.ZipFile(fh, "w") as archive:
        for name, text in ((_HEADER, json.dumps(summary.header)), (_TALLY, _dumps(tally))):
            with archive.open(name, "w", force_zip64=True) as out:
                out.write(text.encode("ascii"))
        with archive.open(_SERVES, "w", force_zip64=True) as out:
            out.write(json.dumps(meta).encode("ascii") + b"\n")
            out.write(_little_endian(serves.receivers))
            out.write(_little_endian(serves.tour_ids))
            out.write(serves.codes)


def write_sidecar(sidecar: Path, table: RecordTable, sha256: str, like: Path) -> Summary:
    """Replace the sidecar of a table read from a CSV with this digest
    atomically, with the permissions of `like`, and return the summary it
    holds; a write that fails is dropped."""
    summary = summarize(table, sha256)
    try:
        fd, tmp = tempfile.mkstemp(dir=sidecar.parent, prefix=sidecar.name + ".", suffix=".tmp")
    except OSError:
        return summary
    try:
        with os.fdopen(fd, "wb") as fh:
            _write_zip(fh, summary)
        shutil.copymode(like, tmp)
        os.replace(tmp, sidecar)
    except OSError:
        with suppress(OSError):
            os.unlink(tmp)
    return summary


_READERS = {"header": read_header, "tallies": read_tallies, "serves": read_serves}


def lookup(path: str | Path, member: str) -> tuple[object, str]:
    """One field of a records CSV's Summary ("header", "tallies" or
    "serves"), and the SHA-256 of the CSV's bytes, hashed once.

    The file's identity is taken before the hash, and a sidecar keyed on
    that digest answers when its member is valid.  Otherwise the CSV is
    parsed once, so errors name file and line, and the answer is made
    from that table: the sidecar is rewritten if the directory allows,
    unless the CSV changed while it was read, when it is only
    summarized.  records is imported only then, so a hit loads no
    numpy.  A path that is not a regular file raises CsvFormatError.
    """
    path = Path(path)
    before = file_identity(path)
    sha256 = file_sha256(path)
    sidecar = cache_path(path)
    value = _READERS[member](sidecar, sha256)
    if value is None:
        from .records import _read_table

        table = _read_table(path)
        # Cache only what matches the key: the CSV may change while read.
        if file_identity(path) == before:
            summary = write_sidecar(sidecar, table, sha256, path)
        else:
            summary = summarize(table, sha256)
        value = getattr(summary, member)
    return value, sha256
