"""Serve pools: the four empirical datasets a simulation resamples.

Serves are grouped by (server, serve number) for one pairing.  In
head_to_head scope only serves between the two named players qualify;
in versus_field scope each player's serves against anyone qualify.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
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


@dataclass(frozen=True, slots=True)
class ServePoolSet:
    pools: Mapping[PoolId, tuple[ServeRecord, ...]]
    player_a: str
    player_b: str
    scope: PoolScope

    def __post_init__(self) -> None:
        for pid in PoolId:
            if pid not in self.pools:
                raise EmptyPoolError(pid.value, "pool missing entirely")

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
    if not pool:
        raise EmptyPoolError(pool_id.value)
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
