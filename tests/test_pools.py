"""Pool construction and the pool map."""
from __future__ import annotations

import copy
import pickle

import pytest

from conftest import make_record, serve_mix
from oracles import reference_build_pools, reference_point_code, reference_serve_pool
from ufesim.errors import EmptyPoolError
from ufesim.pools import (
    PoolId,
    PoolScope,
    ServePoolSet,
    build_pools,
    pool_summary,
    select_pool,
)
from ufesim.records import Role, TerminalKind

K = TerminalKind


def test_select_pool_covers_the_four_cases():
    assert select_pool("A", 1) is PoolId.A_FIRST
    assert select_pool("A", 2) is PoolId.A_SECOND
    assert select_pool("B", 1) is PoolId.B_FIRST
    assert select_pool("B", 2) is PoolId.B_SECOND
    assert len(PoolId) == 4


def test_select_pool_rejects_unknown():
    with pytest.raises(ValueError):
        select_pool("C", 1)
    with pytest.raises(ValueError):
        select_pool("A", 3)


def test_build_pools_partitions_by_server_and_serve_number():
    a, b = "Ann Ace", "Bob Base"
    records = [
        *[make_record(a, b, K.ACE, 1, Role.SERVER)] * 3,
        *[make_record(a, b, K.RALLY_WINNER, 2, Role.RECEIVER, serve_number=2)] * 2,
        *[make_record(b, a, K.ACE, 1, Role.SERVER)] * 4,
        *[make_record(b, a, K.DOUBLE_FAULT, 1, Role.RECEIVER, serve_number=2)] * 1,
    ]
    pools = build_pools(records, a, b)
    assert pools.size(PoolId.A_FIRST) == 3
    assert pools.size(PoolId.A_SECOND) == 2
    assert pools.size(PoolId.B_FIRST) == 4
    assert pools.size(PoolId.B_SECOND) == 1
    total = sum(pools.size(pid) for pid in PoolId)
    assert total == len(records)
    reference = reference_build_pools(records, a, b)
    assert dict(pools.pools) == {pid: reference_serve_pool(reference[pid]) for pid in PoolId}


def test_head_to_head_excludes_other_opponents(two_player_records):
    intruder = serve_mix("Ann Ace", "Carl Clay")
    pools = build_pools(two_player_records + intruder, "Ann Ace", "Bob Base")
    total = sum(pools.size(pid) for pid in PoolId)
    assert total == len(two_player_records)
    assert pools.pools == build_pools(two_player_records, "Ann Ace", "Bob Base").pools


def test_versus_field_keeps_other_opponents(two_player_records):
    intruder = serve_mix("Ann Ace", "Carl Clay")
    pools = build_pools(
        two_player_records + intruder, "Ann Ace", "Bob Base", PoolScope.VERSUS_FIELD
    )
    a_first = pools.size(PoolId.A_FIRST)
    baseline = build_pools(two_player_records, "Ann Ace", "Bob Base")
    assert a_first > baseline.size(PoolId.A_FIRST)


def test_empty_pool_error_names_the_pool(two_player_records):
    only_a_serves = [r for r in two_player_records if r.server_id == "Ann Ace"]
    with pytest.raises(EmptyPoolError) as exc:
        build_pools(only_a_serves, "Ann Ace", "Bob Base")
    assert "B_first" in str(exc.value)


def test_singleton_pool_always_returns_it(two_player_records):
    record = reference_build_pools(two_player_records, "Ann Ace", "Bob Base")[PoolId.A_FIRST][0]
    singleton = build_pools([record] * 1 + [
        make_record("Ann Ace", "Bob Base", K.ACE, 1, Role.SERVER, serve_number=2),
        make_record("Bob Base", "Ann Ace", K.ACE, 1, Role.SERVER),
        make_record("Bob Base", "Ann Ace", K.ACE, 1, Role.SERVER, serve_number=2),
    ], "Ann Ace", "Bob Base")
    # The pool holds the code of the one record given.
    assert singleton.pools[PoolId.A_FIRST] == reference_serve_pool([record])
    assert singleton.first_codes[0] == (reference_point_code(record, 0),)


def test_pool_ufe_rate_matches_raw_records(two_player_records, mixed_pools):
    # Pooling must lose nothing: A's UFE count over A's contacts agrees
    # whether counted from raw records or from the union of pools.
    def a_ufes_and_contacts(records):
        ufes = contacts = 0
        for rec in records:
            if rec.is_first_serve_fault:
                continue
            server_contacts = (rec.terminal_touch + 1) // 2
            receiver_contacts = rec.terminal_touch // 2
            if rec.server_id == "Ann Ace":
                contacts += server_contacts
            elif rec.receiver_id == "Ann Ace":
                contacts += receiver_contacts
            if rec.terminal_kind is K.UNFORCED_ERROR:
                committer = (
                    rec.server_id if rec.error_committer is Role.SERVER else rec.receiver_id
                )
                if committer == "Ann Ace":
                    ufes += 1
        return ufes, contacts

    partition = reference_build_pools(two_player_records, "Ann Ace", "Bob Base")
    pooled = [rec for pid in PoolId for rec in partition[pid]]
    assert a_ufes_and_contacts(pooled) == a_ufes_and_contacts(two_player_records)
    # The pools hold the partition's serves, and each of A's errors is a
    # point code of 2 or more.
    assert dict(mixed_pools.pools) == {pid: reference_serve_pool(partition[pid]) for pid in PoolId}
    codes = [*mixed_pools.first_codes, *mixed_pools.second_codes]
    assert sum(code >= 2 for side in codes for code in side) == a_ufes_and_contacts(pooled)[0]


def test_pool_summary_counts(mixed_pools):
    summary = pool_summary(mixed_pools)
    a_first = summary["pools"]["A_first"]
    assert a_first["size"] == 25
    pool = mixed_pools.pools[PoolId.A_FIRST]
    assert len(pool) == len(pool.codes) == 25
    assert len(pool._replace(codes=pool.codes[:3])) == 3
    assert a_first["first_serve_faults"] == 6
    assert a_first["unforced_errors"] == 5
    assert summary["scope"] == "head_to_head"


def test_pools_compile_to_point_codes():
    a, b = "Ann Ace", "Bob Base"
    records = [
        make_record(a, b, K.ACE, 1, Role.SERVER),
        make_record(a, b, K.FIRST_SERVE_FAULT, 1, None, fault=True),
        make_record(a, b, K.UNFORCED_ERROR, 5, Role.RECEIVER, committer=Role.SERVER),
        make_record(a, b, K.UNFORCED_ERROR, 4, Role.SERVER, committer=Role.RECEIVER),
        make_record(a, b, K.DOUBLE_FAULT, 1, Role.RECEIVER, serve_number=2),
        make_record(a, b, K.RALLY_WINNER, 3, Role.SERVER, serve_number=2),
        make_record(b, a, K.UNFORCED_ERROR, 4, Role.SERVER, committer=Role.RECEIVER),
        make_record(b, a, K.UNFORCED_ERROR, 3, Role.RECEIVER, committer=Role.SERVER),
        make_record(b, a, K.FORCED_ERROR, 2, Role.SERVER, committer=Role.RECEIVER),
        make_record(b, a, K.ACE, 1, Role.SERVER, serve_number=2),
    ]
    pools = build_pools(records, a, b)
    # A's own errors keep their touch; B's errors are plain points.
    assert pools.first_codes == ((0, -1, 5, 0), (4, 0, 1))
    assert pools.second_codes == ((1, 0), (1,))


def test_pool_set_rejects_empty_and_faulty_second_pools(mixed_pools):
    empty = dict(mixed_pools.pools)
    empty[PoolId.B_SECOND] = ()
    with pytest.raises(EmptyPoolError, match="B_second"):
        ServePoolSet(empty, "Ann Ace", "Bob Base", PoolScope.HEAD_TO_HEAD)
    faulty = dict(mixed_pools.pools)
    faulty[PoolId.A_SECOND] = mixed_pools.pools[PoolId.A_FIRST]
    with pytest.raises(ValueError, match="first-serve fault"):
        ServePoolSet(faulty, "Ann Ace", "Bob Base", PoolScope.HEAD_TO_HEAD)
    # _replace and _make build through the same checks.
    with pytest.raises(EmptyPoolError, match="B_second"):
        mixed_pools._replace(pools=empty)
    with pytest.raises(ValueError, match="first-serve fault"):
        ServePoolSet._make([faulty, "Ann Ace", "Bob Base", PoolScope.HEAD_TO_HEAD, (), ()])


def test_pool_set_keeps_its_own_read_only_pools(mixed_pools):
    given = dict(mixed_pools.pools)
    pools = ServePoolSet(given, "Ann Ace", "Bob Base", PoolScope.HEAD_TO_HEAD)
    given[PoolId.A_FIRST] = mixed_pools.pools[PoolId.B_FIRST]
    assert pools.pools[PoolId.A_FIRST] == mixed_pools.pools[PoolId.A_FIRST]
    with pytest.raises(TypeError):
        pools.pools[PoolId.A_FIRST] = ()
    for same in (copy.deepcopy(pools), pickle.loads(pickle.dumps(pools))):
        assert same == pools and type(same.pools) is type(pools.pools)
