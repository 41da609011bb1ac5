"""Serve pools: the four empirical datasets a simulation resamples.

Serves are grouped by (server, serve number) for one pairing.  In
head_to_head scope only serves between the two named players qualify;
in versus_field scope each player's serves against anyone qualify.

A ServePoolSet also compiles every pool, once, into a tuple of point
codes that the simulator draws from instead of records:

    -1        first-serve fault (redraw from the second-serve pool)
     0        A wins the point
     1        B wins the point
     t >= 2   unforced error by A at touch t; B wins unless it is struck

Index 0 of first_codes/second_codes is A serving, index 1 is B.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum
from types import MappingProxyType
from typing import Iterable, Mapping

from .errors import EmptyPoolError
from .records import Role, ServeRecord, TerminalKind


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


def _point_code(record: ServeRecord, server: int) -> int:
    """The point code of one record served by A (server 0) or B (1)."""
    if record.is_first_serve_fault:
        return FAULT
    if record.terminal_kind is TerminalKind.UNFORCED_ERROR:
        committer = server if record.error_committer is Role.SERVER else 1 - server
        if committer == 0:
            return record.terminal_touch
    return server if record.point_winner is Role.SERVER else 1 - server


@dataclass(frozen=True, slots=True)
class ServePoolSet:
    pools: Mapping[PoolId, tuple[ServeRecord, ...]]
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
        for pid in PoolId:
            if pid not in self.pools:
                raise EmptyPoolError(pid.value, "pool missing entirely")
            if not self.pools[pid]:
                raise EmptyPoolError(pid.value, "pool is empty")
        # Read-only, so the codes below cannot go stale.
        frozen = MappingProxyType({pid: tuple(self.pools[pid]) for pid in PoolId})
        object.__setattr__(self, "pools", frozen)
        for name, serve_number in (("first_codes", 1), ("second_codes", 2)):
            pools = (self.pools[select_pool(side, serve_number)] for side in "AB")
            codes = tuple(
                tuple(_point_code(rec, server) for rec in pool)
                for server, pool in enumerate(pools)
            )
            object.__setattr__(self, name, codes)
        if FAULT in self.second_codes[0] or FAULT in self.second_codes[1]:
            raise ValueError("a second-serve pool cannot hold a first-serve fault")

    def size(self, pool_id: PoolId) -> int:
        return len(self.pools[pool_id])


def build_pools(
    records: Iterable[ServeRecord],
    player_a: str,
    player_b: str,
    scope: PoolScope = PoolScope.HEAD_TO_HEAD,
) -> ServePoolSet:
    """Partition qualifying records into the four pools.

    Raises EmptyPoolError naming the first empty pool; for head-to-head
    pairings with thin history the caller can retry with versus_field.
    """
    if player_a == player_b:
        raise ValueError("player_a and player_b must differ")
    buckets: dict[PoolId, list[ServeRecord]] = {pid: [] for pid in PoolId}
    for rec in records:
        if scope is PoolScope.HEAD_TO_HEAD:
            pair = {rec.server_id, rec.receiver_id}
            if pair != {player_a, player_b}:
                continue
        if rec.server_id == player_a:
            side = "A"
        elif rec.server_id == player_b:
            side = "B"
        else:
            continue
        buckets[select_pool(side, rec.serve_number)].append(rec)
    for pid in PoolId:
        if not buckets[pid]:
            raise EmptyPoolError(pid.value, f"no qualifying serves for {pid.value}")
    pools = {pid: tuple(recs) for pid, recs in buckets.items()}
    return ServePoolSet(pools=pools, player_a=player_a, player_b=player_b, scope=scope)


def sample(pool_set: ServePoolSet, pool_id: PoolId, rng: random.Random) -> ServeRecord:
    """Uniform draw with replacement; consumes exactly one rng.random()."""
    pool = pool_set.pools[pool_id]
    return pool[int(rng.random() * len(pool))]


def pool_summary(pool_set: ServePoolSet) -> dict:
    """Diagnostic counts per pool: size, fault rate, UFE share."""
    out: dict = {
        "player_a": pool_set.player_a,
        "player_b": pool_set.player_b,
        "scope": pool_set.scope.value,
        "pools": {},
    }
    for pid in PoolId:
        recs = pool_set.pools[pid]
        n = len(recs)
        faults = sum(1 for r in recs if r.is_first_serve_fault)
        ufes = sum(1 for r in recs if r.terminal_kind is TerminalKind.UNFORCED_ERROR)
        server_ufes = sum(
            1
            for r in recs
            if r.terminal_kind is TerminalKind.UNFORCED_ERROR and r.error_committer is Role.SERVER
        )
        out["pools"][pid.value] = {
            "size": n,
            "first_serve_faults": faults,
            "unforced_errors": ufes,
            "unforced_errors_by_server": server_ufes,
        }
    return out


__all__ = [
    "PoolId",
    "PoolScope",
    "ServePoolSet",
    "build_pools",
    "sample",
    "select_pool",
    "pool_summary",
]
