"""The records cache: a records CSV's sidecar, its key and its layout.

load_records keeps the table it reads from a records CSV in a sidecar
beside it, `<csv name>.ufesim-cache.npz`, keyed on the SHA-256 of the
CSV's bytes.  The sidecar is an np.savez zip of uint8 and int .npy
members: the ten columns of a RecordTable, and `header`, the ASCII bytes
of a JSON object holding
- `version`, CACHE_VERSION, so that a sidecar of another layout is a miss;
- `sha256`, the digest of the CSV the sidecar caches;
- `matches`, `players` and `tours`, the table's string tables;
- `counts`, each player's distinct matches over all tours, and
  `tour_counts`, one such list for each entry of `tours`; every count
  list is aligned with `players`, and 0 means no match in that tour.

A sidecar is written only for a table that passed every RecordTable
check, from a CSV of exactly the bytes its digest names.  So a header of
this version and digest answers list-players: read_header reads the
header member alone, with zipfile and json, and never loads the columns.
This module imports no numpy at load: only the functions that read or
write the columns import it, so importing the module costs only the
standard library.  It is the only one that knows the sidecar's layout.
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
from pathlib import Path
from typing import TYPE_CHECKING, Mapping

from .errors import CsvFormatError

if TYPE_CHECKING:
    import numpy as np

    from .records import RecordTable

CACHE_VERSION = 3
CACHE_SUFFIX = ".ufesim-cache.npz"

_STRING_TABLES = ("matches", "players", "tours")
# The preamble np.save writes before a 1-D uint8 array of n bytes, less
# the spaces and line end that pad it (.npy format version 1.0).
_NPY_MAGIC = b"\x93NUMPY\x01\x00"
_NPY_HEADER = "{'descr': '|u1', 'fortran_order': False, 'shape': (%d,), }"

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


def build_header(table: RecordTable, sha256: str) -> dict:
    """The header of the sidecar of a table read from a CSV with this digest."""
    header = {"version": CACHE_VERSION, "sha256": sha256}
    header.update((name, list(getattr(table, name))) for name in _STRING_TABLES)
    header["counts"] = table.match_counts().tolist()
    header["tour_counts"] = [table.match_counts(tour).tolist() for tour in table.tours]
    return header


def _checked(header: object, sha256: str) -> dict | None:
    """The header if it is of this version and digest and each of its
    tables and count lists is well formed; else None."""
    if not isinstance(header, dict):
        return None
    if header.get("version") != CACHE_VERSION or header.get("sha256") != sha256:
        return None
    strings = [header.get(name) for name in _STRING_TABLES]
    if not all(isinstance(table, list) and all(type(s) is str for s in table)
               for table in strings):
        return None
    tour_counts = header.get("tour_counts")
    if not isinstance(tour_counts, list) or len(tour_counts) != len(header["tours"]):
        return None
    n_players = len(header["players"])
    for counts in (header.get("counts"), *tour_counts):
        if not isinstance(counts, list) or len(counts) != n_players:
            return None
        if not all(type(n) is int and n >= 0 for n in counts):
            return None
    return header


def read_header(sidecar: Path, sha256: str) -> dict | None:
    """The sidecar's header, or None unless the sidecar is readable, of
    this version, keyed on this digest and its header well formed.

    Only the `header` member is read; zipfile checks its CRC, and its
    .npy preamble must be the one np.save writes for its length."""
    try:
        with open(sidecar, "rb") as fh, zipfile.ZipFile(fh) as archive:
            member = archive.read("header.npy")
        if not member.startswith(_NPY_MAGIC):
            return None
        (length,) = struct.unpack_from("<H", member, len(_NPY_MAGIC))
        start = len(_NPY_MAGIC) + 2
        preamble = member[start:start + length].decode("ascii")
        data = member[start + length:]
        if not preamble.endswith("\n"):
            return None
        if preamble[:-1].rstrip(" ") != _NPY_HEADER % len(data):
            return None
        return _checked(json.loads(data), sha256)
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


def _to_arrays(table: RecordTable, sha256: str) -> dict[str, np.ndarray]:
    """The sidecar's contents for a table read from a CSV with this digest.

    The header's JSON is ASCII, with every other character escaped, so a
    name keeps a trailing NUL that a numpy str array would drop."""
    import numpy as np

    from .records import _COLUMNS

    header = json.dumps(build_header(table, sha256)).encode("ascii")
    arrays = {"header": np.frombuffer(header, dtype=np.uint8)}
    arrays.update((name, getattr(table, name)) for name, _ in _COLUMNS)
    return arrays


def _from_arrays(arrays: Mapping[str, np.ndarray], sha256: str) -> RecordTable | None:
    """The table in a sidecar's contents; None if their header is not of
    this version and digest or is malformed, and an error if the columns
    fail a check."""
    from .records import _COLUMNS, RecordTable

    header = _checked(json.loads(arrays["header"].tobytes().decode("utf-8")), sha256)
    if header is None:
        return None
    return RecordTable(
        **{name: arrays[name] for name, _ in _COLUMNS},
        **{name: tuple(header[name]) for name in _STRING_TABLES},
    )


def read_table(sidecar: Path, sha256: str) -> RecordTable | None:
    """The cached table, or None unless the sidecar is readable, of this
    version, keyed on this digest and passes every check."""
    import numpy as np

    try:
        # np.load leaves a file it opened unclosed when that is no zip.
        with open(sidecar, "rb") as fh, np.load(fh, allow_pickle=False) as npz:
            return _from_arrays(npz, sha256)
    except _UNREADABLE:
        return None


def write_sidecar(sidecar: Path, table: RecordTable, sha256: str, like: Path) -> None:
    """Replace the sidecar of a table read from a CSV with this digest
    atomically, with the permissions of `like`; a write that fails is
    dropped."""
    import numpy as np

    arrays = _to_arrays(table, sha256)
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
