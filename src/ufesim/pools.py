"""Serve pools: the four empirical datasets a simulation resamples.

Serves are grouped by (server, serve number) for one pairing.  In
head_to_head scope only serves between the two named players qualify;
in versus_field scope each player's serves against anyone qualify.

Each pool is a RecordTable.  A ServePoolSet also compiles every pool,
once, from its columns into a tuple of point codes that the simulator
draws from instead of records:

    -1        first-serve fault (redraw from the second-serve pool)
     0        A wins the point
     1        B wins the point
     t >= 2   unforced error by A at touch min(t, 10); B wins unless struck

A code t >= 2 indexes TouchWinTable.by_touch.  Index 0 of
first_codes/second_codes is A serving, index 1 is B.

build_pools selects each pool's rows of a RecordTable with a mask and
takes those rows, in file order, as the pool's table.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np

from .counterfactual import MAX_TOUCH
from .errors import EmptyPoolError
from .records import KIND_CODES, RecordTable, ServeRecord, TerminalKind, as_table


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

_FAULT_KIND = KIND_CODES[TerminalKind.FIRST_SERVE_FAULT]
_UFE_KIND = KIND_CODES[TerminalKind.UNFORCED_ERROR]


def _point_codes(pool: RecordTable, server: int) -> tuple[int, ...]:
    """The point code of each row of a pool served by A (server 0) or B
    (1); role code r of a row belongs to player r ^ server."""
    by_a = (pool.kind == _UFE_KIND) & (pool.committer == server)
    codes = np.where(by_a, np.minimum(pool.touch, MAX_TOUCH), pool.winner ^ server)
    codes[pool.kind == _FAULT_KIND] = FAULT
    return tuple(codes.tolist())


@dataclass(frozen=True, slots=True)
class ServePoolSet:
    """The four pools of one pairing, each a RecordTable, and their point
    codes.  A pool may be given as a table or as any iterable of
    ServeRecords."""

    pools: Mapping[PoolId, RecordTable]
    player_a: str
    player_b: str
    scope: PoolScope
    first_codes: tuple[tuple[int, ...], tuple[int, ...]] = field(
        init=False, repr=False, compare=False
    )
    second_codes: tuple[tuple[int, ...], tuple[int, ...]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        tables = {}
        for pid in PoolId:
            if pid not in self.pools:
                raise EmptyPoolError(pid.value, "pool missing entirely")
            tables[pid] = as_table(self.pools[pid])
            if not tables[pid]:
                raise EmptyPoolError(pid.value, "pool is empty")
        # Read-only, so the codes below cannot go stale.
        object.__setattr__(self, "pools", MappingProxyType(tables))
        for name, serve_number in (("first_codes", 1), ("second_codes", 2)):
            pools = (tables[select_pool(side, serve_number)] for side in "AB")
            codes = tuple(_point_codes(pool, server) for server, pool in enumerate(pools))
            object.__setattr__(self, name, codes)
        if FAULT in self.second_codes[0] or FAULT in self.second_codes[1]:
            raise ValueError("a second-serve pool cannot hold a first-serve fault")

    def size(self, pool_id: PoolId) -> int:
        return len(self.pools[pool_id])


def build_pools(
    records: RecordTable | Iterable[ServeRecord],
    player_a: str,
    player_b: str,
    scope: PoolScope = PoolScope.HEAD_TO_HEAD,
) -> ServePoolSet:
    """Partition qualifying records into the four pools, in file order.

    Raises EmptyPoolError naming the first empty pool; for head-to-head
    pairings with thin history the caller can retry with versus_field.
    """
    if player_a == player_b:
        raise ValueError("player_a and player_b must differ")
    table = as_table(records)
    ids = {name: i for i, name in enumerate(table.players)}
    a, b = ids.get(player_a, -1), ids.get(player_b, -1)
    served_by = {"A": table.server == a, "B": table.server == b}
    if scope is PoolScope.HEAD_TO_HEAD:
        served_by["A"] &= table.receiver == b
        served_by["B"] &= table.receiver == a
    first = table.serve_number == 1
    rows = {
        pid: np.flatnonzero(served_by[side] & (first if number == 1 else ~first))
        for (side, number), pid in _POOL_FOR.items()
    }
    for pid in PoolId:
        if not rows[pid].size:
            raise EmptyPoolError(pid.value, f"no qualifying serves for {pid.value}")
    pools = {pid: table.take(rows[pid]) for pid in PoolId}
    return ServePoolSet(pools=pools, player_a=player_a, player_b=player_b, scope=scope)


def pool_summary(pool_set: ServePoolSet) -> dict:
    """Diagnostic counts per pool: size, fault rate, UFE share."""
    out: dict = {
        "player_a": pool_set.player_a,
        "player_b": pool_set.player_b,
        "scope": pool_set.scope.value,
        "pools": {},
    }
    for pid in PoolId:
        pool = pool_set.pools[pid]
        ufe = pool.kind == _UFE_KIND
        # Role code 0 is the server.
        out["pools"][pid.value] = {
            "size": len(pool),
            "first_serve_faults": int(np.count_nonzero(pool.kind == _FAULT_KIND)),
            "unforced_errors": int(np.count_nonzero(ufe)),
            "unforced_errors_by_server": int(np.count_nonzero(ufe & (pool.committer == 0))),
        }
    return out


__all__ = [
    "PoolId",
    "PoolScope",
    "ServePoolSet",
    "build_pools",
    "select_pool",
    "pool_summary",
]
