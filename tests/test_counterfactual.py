"""The touch-win table, its clamp, and the removal policy."""
from __future__ import annotations

import math
import random

import pytest

from ufesim.counterfactual import (
    ELIMINATE,
    HISTORIC,
    ReductionPolicy,
    TouchWinTable,
    check_monotonicity,
    default_table,
    load_table,
    prob_win_if_no_ufe,
    resolve_removed_ufe,
    should_remove_ufe,
)
from ufesim.errors import TableFormatError, TouchRangeError

EXPECTED = {
    2: 0.535,
    3: 0.599,
    4: 0.558,
    5: 0.586,
    6: 0.569,
    7: 0.575,
    8: 0.571,
    9: 0.573,
    10: 0.573,
}


def test_default_table_values_exact():
    table = default_table()
    for t, p in EXPECTED.items():
        assert table.lookup(t) == p
        assert prob_win_if_no_ufe(table, t) == p


def test_clamp_above_ten():
    table = default_table()
    for t in (11, 12, 37, 1000):
        assert table.lookup(t) == EXPECTED[10]


def test_touch_below_two_rejected():
    table = default_table()
    with pytest.raises(TouchRangeError):
        table.lookup(1)
    with pytest.raises(TouchRangeError):
        prob_win_if_no_ufe(table, 0)


def test_default_table_monotone_pattern():
    assert check_monotonicity(default_table()) == []


def test_table_must_cover_touches_exactly():
    with pytest.raises(TableFormatError):
        TouchWinTable(prob_by_touch={t: 0.5 for t in range(2, 10)})  # missing 10
    with pytest.raises(TableFormatError):
        TouchWinTable(prob_by_touch={**EXPECTED, 11: 0.5})


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.7])
def test_probabilities_strictly_inside_unit_interval(bad):
    values = dict(EXPECTED)
    values[5] = bad
    with pytest.raises(TableFormatError):
        TouchWinTable(prob_by_touch=values)


def test_resolve_removed_ufe_frequency():
    table = default_table()
    rng = random.Random(1009)
    n = 100_000
    wins = sum(1 for _ in range(n) if resolve_removed_ufe(table, 2, rng) == "A")
    p = EXPECTED[2]
    bound = 3 * math.sqrt(p * (1 - p) / n)
    assert abs(wins / n - p) <= bound


def test_policy_edge_cases():
    rng = random.Random(4)
    assert not any(should_remove_ufe(HISTORIC, rng) for _ in range(1000))
    assert all(should_remove_ufe(ELIMINATE, rng) for _ in range(1000))


def test_policy_frequency_mid_range():
    policy = ReductionPolicy(x=0.1)
    rng = random.Random(77)
    n = 100_000
    hits = sum(1 for _ in range(n) if should_remove_ufe(policy, rng))
    bound = 3 * math.sqrt(0.1 * 0.9 / n)
    assert abs(hits / n - 0.1) <= bound


def test_policy_always_consumes_one_draw():
    # Two streams with the same seed stay aligned whatever x is, which
    # is what lets scenarios share a seed and differ only in outcomes.
    r0, r1 = random.Random(5), random.Random(5)
    for _ in range(100):
        should_remove_ufe(HISTORIC, r0)
        should_remove_ufe(ELIMINATE, r1)
    assert r0.random() == r1.random()


def test_policy_rejects_out_of_range():
    with pytest.raises(ValueError):
        ReductionPolicy(x=-0.01)
    with pytest.raises(ValueError):
        ReductionPolicy(x=1.01)


def test_load_table_round_trip(tmp_path):
    path = tmp_path / "table.txt"
    lines = ["# touch prob"] + [f"{t} {p}" for t, p in EXPECTED.items()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    table = load_table(str(path))
    assert dict(table.prob_by_touch) == EXPECTED


def test_load_table_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 0.5\n3 not_a_number\n", encoding="utf-8")
    with pytest.raises(TableFormatError):
        load_table(str(path))


def test_load_table_rejects_duplicates(tmp_path):
    path = tmp_path / "dup.txt"
    lines = [f"{t} {p}" for t, p in EXPECTED.items()] + ["2 0.4"]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(TableFormatError):
        load_table(str(path))


def test_load_table_warns_on_broken_pattern(tmp_path):
    values = dict(EXPECTED)
    values[4] = 0.51  # dips below the touch-2 value
    path = tmp_path / "warn.txt"
    path.write_text("\n".join(f"{t} {p}" for t, p in values.items()), encoding="utf-8")
    with pytest.warns(UserWarning):
        table = load_table(str(path))
    assert table.lookup(4) == 0.51


def test_by_touch_indexes_the_table_by_touch():
    table = default_table()
    assert table.by_touch[:2] == (None, None)
    assert {t: table.by_touch[t] for t in EXPECTED} == EXPECTED


def test_load_table_rejects_non_utf8_naming_the_file(tmp_path):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"# \xd6\n2 0.5\n")
    with pytest.raises(TableFormatError, match="not UTF-8") as excinfo:
        load_table(str(path))
    assert str(path) in str(excinfo.value)
