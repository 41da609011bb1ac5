"""Serve pools: the four empirical datasets a simulation resamples.

Serves are grouped by (server, serve number) for one pairing.  In
head_to_head scope only serves between the two named players qualify;
in versus_field scope each player's serves against anyone qualify.

Each pool is a ServePool: the serve code of each of its serves (see
sidecar: a fault, a point won by the server or the receiver, or an
unforced error by either at its touch), in file order, and the tours
they name.  A ServePoolSet also compiles every pool, once, into a tuple
of point codes that the simulator draws from:

    -1        first-serve fault (redraw from the second-serve pool)
     0        A wins the point
     1        B wins the point
     t >= 2   unforced error by A at touch min(t, 10); B wins unless struck

A code t >= 2 indexes TouchWinTable.by_touch.  Index 0 of
first_codes/second_codes is A serving, index 1 is B; each is the pool's
serve codes passed through one lookup table per side.

select_pools takes each pool's serves, in file order, from a ServeIndex:
a records table's serves grouped by server and serve number, which
simulate reads from the records sidecar without numpy.  build_pools
builds the index of a table, or of records, and selects from it the
same way.  This module imports neither numpy nor records at load.
"""
from __future__ import annotations

from enum import Enum
from itertools import compress
from types import MappingProxyType
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple

from .errors import EmptyPoolError
from .sidecar import (
    MAX_TOUCH,
    NONE_CODE,
    RECEIVER_ERROR,
    RECEIVER_WINS,
    SERVE_CODES,
    SERVE_FAULT,
    SERVER_ERROR,
    SERVER_WINS,
    ServeIndex,
)

if TYPE_CHECKING:
    from .records import RecordTable, ServeRecord


class PoolId(Enum):
    A_FIRST = "A_first"
    A_SECOND = "A_second"
    B_FIRST = "B_first"
    B_SECOND = "B_second"


class PoolScope(Enum):
    HEAD_TO_HEAD = "head_to_head"
    VERSUS_FIELD = "versus_field"


_POOL_FOR = {
    ("A", 1): PoolId.A_FIRST,
    ("A", 2): PoolId.A_SECOND,
    ("B", 1): PoolId.B_FIRST,
    ("B", 2): PoolId.B_SECOND,
}


def select_pool(server: str, serve_number: int) -> PoolId:
    """Map the simulated server ('A'/'B') and serve number to a pool."""
    try:
        return _POOL_FOR[(server, serve_number)]
    except KeyError:
        raise ValueError(f"no pool for server={server!r}, serve_number={serve_number}") from None


FAULT = -1

_TOUCHES = range(2, MAX_TOUCH + 1)


def _point_code_table(server: int) -> tuple[int, ...]:
    """A's point code of each serve code, when A (server 0) or B (1)
    serves: an error by A codes its touch, one by B is A's point."""
    codes = [0] * SERVE_CODES
    codes[SERVE_FAULT] = FAULT
    codes[SERVER_WINS], codes[RECEIVER_WINS] = server, 1 - server
    for t in _TOUCHES:
        codes[SERVER_ERROR + t] = 0 if server else t
        codes[RECEIVER_ERROR + t] = t if server else 0
    return tuple(codes)


_POINT_CODES = (_point_code_table(0), _point_code_table(1))


class _ServePool(NamedTuple):
    codes: bytes
    tours: frozenset[str]


class ServePool(_ServePool):
    """One pool: the serve code of each of its serves, in the order they
    are drawn from, and the tours those serves name.  Its len() is its
    number of serves."""

    __slots__ = ()

    def __len__(self) -> int:
        return len(self.codes)

    @classmethod
    def _make(cls, values) -> ServePool:
        # The tuple's own _make, which _replace calls, checks the field
        # count with len().
        return cls(*values)


def _as_pool(pool: ServePool | RecordTable | Iterable[ServeRecord]) -> ServePool:
    """The pool itself, or the pool of a table's rows or of records, in
    their order."""
    if isinstance(pool, ServePool):
        return pool
    from .records import as_table
    from .sidecar import serve_codes

    table = as_table(pool)
    # A table's tours are exactly those its rows name.
    return ServePool(serve_codes(table).tobytes(), frozenset(table.tours))


class _ServePoolSet(NamedTuple):
    pools: Mapping[PoolId, ServePool]
    player_a: str
    player_b: str
    scope: PoolScope
    first_codes: tuple[tuple[int, ...], tuple[int, ...]]
    second_codes: tuple[tuple[int, ...], tuple[int, ...]]


class ServePoolSet(_ServePoolSet):
    """The four pools of one pairing and their point codes.  A pool may
    be given as a ServePool, a RecordTable or any iterable of
    ServeRecords.  The codes are derived: the constructor, _make and
    _replace take the first four fields and compile them."""

    __slots__ = ()

    def __new__(
        cls, pools: Mapping[PoolId, ServePool], player_a: str, player_b: str, scope: PoolScope
    ) -> ServePoolSet:
        own = {}
        for pid in PoolId:
            if pid not in pools:
                raise EmptyPoolError(pid.value, "pool missing entirely")
            own[pid] = _as_pool(pools[pid])
            if not own[pid]:
                raise EmptyPoolError(pid.value, "pool is empty")
        first_codes, second_codes = (
            tuple(
                tuple(map(table.__getitem__, own[select_pool(side, serve_number)].codes))
                for table, side in zip(_POINT_CODES, "AB")
            )
            for serve_number in (1, 2)
        )
        if FAULT in second_codes[0] or FAULT in second_codes[1]:
            raise ValueError("a second-serve pool cannot hold a first-serve fault")
        # Read-only, so the codes cannot go stale.
        own = MappingProxyType(own)
        return super().__new__(cls, own, player_a, player_b, scope, first_codes, second_codes)

    @classmethod
    def _make(cls, values) -> ServePoolSet:
        # Through the checks, as _replace calls it; the codes are compiled again.
        pools, player_a, player_b, scope, _, _ = values
        return cls(pools, player_a, player_b, scope)

    def __getnewargs__(self) -> tuple:
        return dict(self.pools), self.player_a, self.player_b, self.scope

    def size(self, pool_id: PoolId) -> int:
        return len(self.pools[pool_id])


def select_pools(
    index: ServeIndex,
    player_a: str,
    player_b: str,
    scope: PoolScope = PoolScope.HEAD_TO_HEAD,
) -> ServePoolSet:
    """The four pools of a pairing from a serve index: each is its
    server's serves of its number, in file order, in head_to_head scope
    only those received by the other player.

    Raises EmptyPoolError naming the first empty pool; for head-to-head
    pairings with thin history the caller can retry with versus_field.
    """
    if player_a == player_b:
        raise ValueError("player_a and player_b must differ")
    ids = {name: i for i, name in enumerate(index.players)}
    pools = {}
    for (side, number), pid in _POOL_FOR.items():
        server, receiver = (player_a, player_b) if side == "A" else (player_b, player_a)
        if server not in ids:
            pools[pid] = ServePool(b"", frozenset())
            continue
        rows = index.group(ids[server], number)
        codes, tour_ids = index.codes[rows], index.tour_ids[rows]
        if scope is PoolScope.HEAD_TO_HEAD:
            wanted = ids.get(receiver, NONE_CODE)
            keep = [r == wanted for r in index.receivers[rows]]
            codes, tour_ids = bytes(compress(codes, keep)), compress(tour_ids, keep)
        tours = frozenset(index.tours[t] for t in set(tour_ids) if t != NONE_CODE)
        pools[pid] = ServePool(codes, tours)
    for pid in PoolId:
        if not pools[pid]:
            raise EmptyPoolError(pid.value, f"no qualifying serves for {pid.value}")
    return ServePoolSet(pools=pools, player_a=player_a, player_b=player_b, scope=scope)


def build_pools(
    records: RecordTable | Iterable[ServeRecord],
    player_a: str,
    player_b: str,
    scope: PoolScope = PoolScope.HEAD_TO_HEAD,
) -> ServePoolSet:
    """Partition qualifying records into the four pools, in file order:
    select_pools over the serve index of their table."""
    from .records import as_table
    from .sidecar import serve_index

    return select_pools(serve_index(as_table(records)), player_a, player_b, scope)


def pool_summary(pool_set: ServePoolSet) -> dict:
    """Diagnostic counts per pool: size, fault rate, UFE share."""
    out: dict = {
        "player_a": pool_set.player_a,
        "player_b": pool_set.player_b,
        "scope": pool_set.scope.value,
        "pools": {},
    }
    for pid in PoolId:
        codes = pool_set.pools[pid].codes
        by_server = sum(codes.count(SERVER_ERROR + t) for t in _TOUCHES)
        by_receiver = sum(codes.count(RECEIVER_ERROR + t) for t in _TOUCHES)
        out["pools"][pid.value] = {
            "size": len(codes),
            "first_serve_faults": codes.count(SERVE_FAULT),
            "unforced_errors": by_server + by_receiver,
            "unforced_errors_by_server": by_server,
        }
    return out


__all__ = [
    "PoolId",
    "PoolScope",
    "ServePool",
    "ServePoolSet",
    "build_pools",
    "select_pool",
    "select_pools",
    "pool_summary",
]
