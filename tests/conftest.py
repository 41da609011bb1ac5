"""Shared record and pool factories for the test suite."""
from __future__ import annotations

import io
import json
import os
import zipfile
from contextlib import contextmanager
from typing import Iterator
from unittest import mock

import numpy as np
import pytest

from ufesim import sidecar as sidecar_module
from ufesim.pools import PoolScope, ServePoolSet, build_pools
from ufesim.records import RecordTable, Role, ServeRecord, TerminalKind

K = TerminalKind
S, R = Role.SERVER, Role.RECEIVER


def make_record(
    server: str = "Ann Ace",
    receiver: str = "Bob Base",
    kind: TerminalKind = K.ACE,
    touch: int = 1,
    winner: Role | None = S,
    committer: Role | None = None,
    serve_number: int = 1,
    fault: bool = False,
    match_id: str | None = None,
    year: int | None = 2019,
    tour: str | None = "ATP",
) -> ServeRecord:
    if match_id is None:
        match_id = (
            f"{year or 2019}0101-M-Testopen-F-"
            f"{server.replace(' ', '_')}-{receiver.replace(' ', '_')}"
        )
    return ServeRecord(
        match_id=match_id,
        server_id=server,
        receiver_id=receiver,
        serve_number=serve_number,
        is_first_serve_fault=fault,
        terminal_touch=touch,
        terminal_kind=kind,
        point_winner=winner,
        error_committer=committer,
        year=year,
        tour=tour,
    )


def serve_mix(server: str, receiver: str) -> list[ServeRecord]:
    """A plausible spread of outcomes for one server."""
    return [
        *[make_record(server, receiver, K.ACE, 1, S)] * 4,
        *[make_record(server, receiver, K.SERVICE_WINNER, 1, S)] * 2,
        *[make_record(server, receiver, K.RALLY_WINNER, 3, S)] * 3,
        *[make_record(server, receiver, K.RALLY_WINNER, 2, R)] * 3,
        *[make_record(server, receiver, K.FORCED_ERROR, 2, S, committer=R)] * 2,
        *[make_record(server, receiver, K.UNFORCED_ERROR, 3, R, committer=S)] * 3,
        *[make_record(server, receiver, K.UNFORCED_ERROR, 4, S, committer=R)] * 2,
        *[make_record(server, receiver, K.FIRST_SERVE_FAULT, 1, None, fault=True)] * 6,
        *[make_record(server, receiver, K.DOUBLE_FAULT, 1, R, serve_number=2)] * 1,
        *[make_record(server, receiver, K.RALLY_WINNER, 2, R, serve_number=2)] * 2,
        *[make_record(server, receiver, K.UNFORCED_ERROR, 2, S, committer=R, serve_number=2)] * 2,
        *[make_record(server, receiver, K.RALLY_WINNER, 3, S, serve_number=2)] * 2,
    ]


@contextmanager
def _cpus_allowed(cpus: int) -> Iterator[list[int]]:
    forked: list[int] = []
    real_fork = os.fork

    def fork() -> int:
        pid = real_fork()
        if pid:
            forked.append(pid)
        return pid

    with mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(cpus))), \
            mock.patch.object(os, "fork", fork):
        yield forked


@pytest.fixture(scope="session")
def allow_cpus():
    """allow_cpus(cpus) is a context manager in which the process may use
    `cpus` CPUs, as os.sched_getaffinity reports them; it yields the list
    of the pids forked in it.  Session-scoped, so that hypothesis tests
    can use it."""
    return _cpus_allowed


@pytest.fixture
def two_player_records() -> list[ServeRecord]:
    a, b = "Ann Ace", "Bob Base"
    return serve_mix(a, b) + serve_mix(b, a)


@pytest.fixture
def mixed_pools(two_player_records) -> ServePoolSet:
    return build_pools(
        two_player_records, "Ann Ace", "Bob Base", PoolScope.HEAD_TO_HEAD
    )


def assert_same_table(table: RecordTable, expected: RecordTable) -> None:
    """Equal string tables, and columns of equal dtype and values."""
    for name in ("matches", "players", "tours"):
        assert getattr(table, name) == getattr(expected, name)
    for name in ("match", "server", "receiver", "serve_number", "touch", "kind", "winner",
                 "committer", "year", "tour"):
        column, want = getattr(table, name), getattr(expected, name)
        assert column.dtype == want.dtype and column.tolist() == want.tolist()


def sidecar_bytes(table: RecordTable, sha256: str) -> bytes:
    """The bytes of the sidecar that caches a table under this digest."""
    buffer = io.BytesIO()
    sidecar_module._write_zip(buffer, sidecar_module.summarize(table, sha256))
    return buffer.getvalue()


class Blob(bytes):
    """A sidecar member kept as its bytes, as `<name>.bin`."""


def read_members(sidecar: bytes) -> dict:
    """A sidecar's members, keyed by name less the extension: each .json
    member as its JSON value and each .bin member as a Blob."""
    members = {}
    with zipfile.ZipFile(io.BytesIO(sidecar)) as archive:
        for name in archive.namelist():
            stem, _, extension = name.rpartition(".")
            with archive.open(name) as fh:
                if extension == "bin":
                    members[stem] = Blob(fh.read())
                else:
                    members[stem] = json.loads(fh.read())
    return members


def write_members(members: dict) -> bytes:
    """The bytes of a sidecar of these members, in this order: an array
    as `<name>.npy`, as np.save writes it (an object array pickled), a
    Blob as `<name>.bin`, other bytes as `<name>.json`, each as they are,
    and any other value as `<name>.json`, its JSON text."""
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w") as archive:
        for name, value in members.items():
            if isinstance(value, np.ndarray):
                with archive.open(f"{name}.npy", "w", force_zip64=True) as out:
                    np.lib.format.write_array(out, value, allow_pickle=True)
            elif isinstance(value, Blob):
                with archive.open(f"{name}.bin", "w", force_zip64=True) as out:
                    out.write(value)
            else:
                data = value if isinstance(value, bytes) else json.dumps(value).encode("ascii")
                with archive.open(f"{name}.json", "w", force_zip64=True) as out:
                    out.write(data)
    return buffer.getvalue()
