"""The records cache: a records CSV's sidecar, its key, its layout and
its one lookup.

load_records, list-players and stats each reach a records CSV through
lookup, which keeps the table read from the CSV in a sidecar beside it,
`<csv name>.ufesim-cache.npz`, keyed on the SHA-256 of the CSV's bytes.
The sidecar is a zip (layout 5) of two JSON members, each the ASCII text
of one JSON object, and the ten columns of a RecordTable as .npy members,
each as np.save writes it.  `header.json` holds
- `version`, CACHE_VERSION, so that a sidecar of another layout is a miss;
- `sha256`, the digest of the CSV the sidecar caches;
- `matches`, `players` and `tours`, the table's string tables;
- `counts`, each player's distinct matches over all tours, and
  `tour_counts`, one such list for each entry of `tours`; every count
  list is aligned with `players`, and 0 means no match in that tour.
`tally.json` holds the same `version` and `sha256`, the `max_touch` of
its tallies, `tours`, and `tallies`: the RecordTally of every tour, then
one for each entry of `tours`, each an object of RecordTally's fields
besides max_touch, in the order RecordTally declares them.
Every member is dated 1980-01-01, so a sidecar's bytes depend only on
its table.

A sidecar is written only for a table that passed every RecordTable
check, from a CSV of exactly the bytes its digest names.  So a header of
this version and digest answers list-players, and a tally member answers
stats: read_header and read_tallies each read their one member alone,
with zipfile and json, and never load the columns; read_table reads the
header the same way and then the columns, from one open archive.  The
tallies and the header's counts come from one tally_records call
wherever a sidecar is written (summarize), and write_sidecar hands them
back, so a miss builds them once.

The codes the columns and the tallies hold are defined here too:
TerminalKind and Role, and their column codes.  This module imports no
numpy at load: only the functions that read or write the columns import
it, so importing the module costs only the standard library.  It is the
only one that knows the sidecar's layout.
"""
from __future__ import annotations

import hashlib
import json
import os
import shutil
import stat
import struct
import tempfile
import zipfile
import zlib
from contextlib import suppress
from enum import Enum
from itertools import chain
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

CACHE_VERSION = 5
CACHE_SUFFIX = ".ufesim-cache.npz"
_HEADER, _TALLY = "header.json", "tally.json"

_STRING_TABLES = ("matches", "players", "tours")

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


class Summary(NamedTuple):
    """A table and what its sidecar keeps of it beside the columns: the
    header, and the tallies, keyed None for every tour and by each of the
    table's tours.  Each field names what lookup can read."""

    table: RecordTable
    header: dict
    tallies: dict[str | None, RecordTally]


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
    """Where load_records keeps the sidecar of a records CSV."""
    path = Path(records_path)
    return path.with_name(path.name + CACHE_SUFFIX)


def summarize(table: RecordTable, sha256: str) -> Summary:
    """The header and the tallies of the sidecar of a table read from a
    CSV with this digest, from one tally_records call.  The header's
    counts are the tallies' match counts, aligned with the table's players."""
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
    return Summary(table, header, tallies)


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


def _checked(header: object, sha256: str) -> dict | None:
    """The header if it is of this version and digest and each of its
    tables and count lists is well formed; else None."""
    if not isinstance(header, dict):
        return None
    if header.get("version") != CACHE_VERSION or header.get("sha256") != sha256:
        return None
    if not all(_strings(header.get(name)) for name in _STRING_TABLES):
        return None
    n_players = len(header["players"])
    if not _naturals(header.get("counts"), (n_players,)):
        return None
    if not _naturals(header.get("tour_counts"), (len(header["tours"]), n_players)):
        return None
    return header


def _tally_fields() -> list[str]:
    """A stored tally's fields: RecordTally's in the order it declares
    them, besides max_touch, which the tally member holds once."""
    from dataclasses import fields

    from .analytics import RecordTally

    return [field.name for field in fields(RecordTally) if field.name != "max_touch"]


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
    if not _strings(tours) or len(set(tours)) != len(tours):
        return None
    if type(stored) is not list or len(stored) != len(tours) + 1:
        return None
    width, names = max_touch + 1, set(_tally_fields())
    tallies = {}
    for tour, tally in zip((None, *tours), stored):
        if not isinstance(tally, dict) or tally.keys() != names:
            return None
        players, years = tally["players"], tally["years"]
        if not _strings(players) or len(set(players)) != len(players):
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


def read_table(sidecar: Path, sha256: str) -> RecordTable | None:
    """The cached table, or None unless the sidecar is readable, of this
    version, keyed on this digest and passes every check.  The header
    and the columns are read from one ZipFile, each column with the
    read_array that pairs with _write_zip's write_array."""
    from numpy.lib.format import read_array

    from .records import _COLUMNS, RecordTable

    try:
        with zipfile.ZipFile(sidecar) as archive:
            header = _checked(_read_json(archive, _HEADER), sha256)
            if header is None:
                return None
            columns = {}
            for name, _ in _COLUMNS:
                with archive.open(name + ".npy") as member:
                    columns[name] = read_array(member, allow_pickle=False)
            return RecordTable(
                **columns, **{name: tuple(header[name]) for name in _STRING_TABLES}
            )
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
    """Write the sidecar of a summary's table to fh: the header and tally
    members, then each column as np.savez writes it.

    Each JSON member is ASCII, with every other character escaped, so
    every name is kept as it is.  Each member is opened by name, which
    dates it 1980-01-01 as np.savez dates its members: the bytes depend
    only on the table, never on the clock."""
    from numpy.lib.format import write_array

    from .records import _COLUMNS

    tallies, names = list(summary.tallies.values()), _tally_fields()
    tally = {
        "version": CACHE_VERSION,
        "sha256": summary.header["sha256"],
        "max_touch": tallies[0].max_touch,
        "tours": [tour for tour in summary.tallies if tour is not None],
        "tallies": [{name: getattr(t, name) for name in names} for t in tallies],
    }
    with zipfile.ZipFile(fh, "w") as archive:
        for name, text in ((_HEADER, json.dumps(summary.header)), (_TALLY, _dumps(tally))):
            with archive.open(name, "w", force_zip64=True) as out:
                out.write(text.encode("ascii"))
        for name, _ in _COLUMNS:
            with archive.open(name + ".npy", "w", force_zip64=True) as out:
                write_array(out, getattr(summary.table, name), allow_pickle=False)


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


_READERS = {"table": read_table, "header": read_header, "tallies": read_tallies}


def lookup(path: str | Path, member: str) -> tuple[object, str]:
    """One field of a records CSV's Summary ("table", "header" or
    "tallies"), and the SHA-256 of the CSV's bytes, hashed once.

    The file's identity is taken before the hash, and a sidecar keyed on
    that digest answers when its member is valid.  Otherwise the CSV is
    parsed once, so errors name file and line, and the answer is made
    from that table: the sidecar is rewritten if the directory allows,
    unless the CSV changed while it was read, when it is only
    summarized.  records is imported only then, so a hit on the header
    or the tallies loads no numpy.  A path that is not a regular file
    raises CsvFormatError.
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
