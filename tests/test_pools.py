"""Pool construction, the pool map, and uniform sampling."""
from __future__ import annotations

import math
import random
from collections import Counter

import pytest

from conftest import make_record, serve_mix
from ufesim.errors import EmptyPoolError
from ufesim.pools import (
    PoolId,
    PoolScope,
    ServePoolSet,
    build_pools,
    pool_summary,
    sample,
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
    for rec in pools.pools[PoolId.A_FIRST]:
        assert rec.server_id == a and rec.serve_number == 1
    for rec in pools.pools[PoolId.B_SECOND]:
        assert rec.server_id == b and rec.serve_number == 2


def test_head_to_head_excludes_other_opponents(two_player_records):
    intruder = serve_mix("Ann Ace", "Carl Clay")
    pools = build_pools(two_player_records + intruder, "Ann Ace", "Bob Base")
    total = sum(pools.size(pid) for pid in PoolId)
    assert total == len(two_player_records)
    for pid in PoolId:
        for rec in pools.pools[pid]:
            assert {rec.server_id, rec.receiver_id} == {"Ann Ace", "Bob Base"}


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


def test_singleton_pool_always_returns_it(mixed_pools):
    record = mixed_pools.pools[PoolId.A_FIRST][0]
    singleton = build_pools([record] * 1 + [
        make_record("Ann Ace", "Bob Base", K.ACE, 1, Role.SERVER, serve_number=2),
        make_record("Bob Base", "Ann Ace", K.ACE, 1, Role.SERVER),
        make_record("Bob Base", "Ann Ace", K.ACE, 1, Role.SERVER, serve_number=2),
    ], "Ann Ace", "Bob Base")
    rng = random.Random(1)
    for _ in range(50):
        assert sample(singleton, PoolId.A_FIRST, rng) is record


def test_sampling_is_uniform_within_four_sd():
    a, b = "Ann Ace", "Bob Base"
    distinct = [
        make_record(a, b, K.RALLY_WINNER, 2 + (i % 2), Role.RECEIVER if i % 2 == 0 else Role.SERVER,
                    match_id=f"2019010{i}-M-T-F-Ann_Ace-Bob_Base")
        for i in range(10)
    ]
    fillers = [
        make_record(a, b, K.ACE, 1, Role.SERVER, serve_number=2),
        make_record(b, a, K.ACE, 1, Role.SERVER),
        make_record(b, a, K.ACE, 1, Role.SERVER, serve_number=2),
    ]
    pools = build_pools(distinct + fillers, a, b)
    rng = random.Random(424242)
    n = 100_000
    counts = Counter(id(sample(pools, PoolId.A_FIRST, rng)) for _ in range(n))
    expected = n / 10
    sd = math.sqrt(n * 0.1 * 0.9)
    assert len(counts) == 10
    for c in counts.values():
        assert abs(c - expected) <= 4 * sd


def test_sampling_is_deterministic_under_seed(mixed_pools):
    draws1 = [sample(mixed_pools, PoolId.B_FIRST, random.Random(7)) for _ in range(1)]
    rng_a, rng_b = random.Random(123), random.Random(123)
    seq_a = [sample(mixed_pools, PoolId.A_FIRST, rng_a) for _ in range(200)]
    seq_b = [sample(mixed_pools, PoolId.A_FIRST, rng_b) for _ in range(200)]
    assert seq_a == seq_b
    assert draws1  # draws happen at all


def test_sampled_records_are_the_pooled_objects(mixed_pools):
    rng = random.Random(3)
    pool = mixed_pools.pools[PoolId.A_FIRST]
    for _ in range(100):
        rec = sample(mixed_pools, PoolId.A_FIRST, rng)
        assert any(rec is candidate for candidate in pool)


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

    pooled = [rec for pid in PoolId for rec in mixed_pools.pools[pid]]
    assert a_ufes_and_contacts(pooled) == a_ufes_and_contacts(two_player_records)


def test_pool_summary_counts(mixed_pools):
    summary = pool_summary(mixed_pools)
    a_first = summary["pools"]["A_first"]
    assert a_first["size"] == 25
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


def test_pool_set_keeps_its_own_read_only_pools(mixed_pools):
    given = dict(mixed_pools.pools)
    pools = ServePoolSet(given, "Ann Ace", "Bob Base", PoolScope.HEAD_TO_HEAD)
    given[PoolId.A_FIRST] = mixed_pools.pools[PoolId.B_FIRST]
    assert pools.pools[PoolId.A_FIRST] == mixed_pools.pools[PoolId.A_FIRST]
    with pytest.raises(TypeError):
        pools.pools[PoolId.A_FIRST] = ()
