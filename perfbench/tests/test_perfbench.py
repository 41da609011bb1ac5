"""Tests of the benchmark itself: generator, injected counts, golden check.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""
from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import cpuclock  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
from ufesim.ingest import ingest_files  # noqa: E402
from ufesim.notation import parse_shot_notation  # noqa: E402
from ufesim.errors import NotationError  # noqa: E402


def _bytes(ds: gen.Dataset) -> list[bytes]:
    return [p.read_bytes() for p in ds.files]


def test_generator_is_deterministic_per_seed(tmp_path):
    a = gen.corpus(tmp_path / "a", seed=7, points=4000)
    b = gen.corpus(tmp_path / "b", seed=7, points=4000)
    c = gen.corpus(tmp_path / "c", seed=8, points=4000)
    assert _bytes(a) == _bytes(b)
    assert a.expected == b.expected
    assert _bytes(a) != _bytes(c)
    assert _bytes(gen.rivalry(tmp_path / "r1", 3)) == _bytes(gen.rivalry(tmp_path / "r2", 3))


@pytest.mark.parametrize("seed", [1, 2])
def test_injected_counts_match_the_ingest_report(tmp_path, seed):
    for ds in (gen.corpus(tmp_path / "c", seed, points=6000), gen.rivalry(tmp_path / "r", seed)):
        records, report = ingest_files(ds.files)
        assert report.to_dict() == ds.expected.ingest_counts()
        assert report.rows_dropped_bad_rally_count > 0
        assert report.rows_dropped_bad_notation > 0
        matches: dict[str, set[str]] = {}
        for rec in records:
            matches.setdefault(rec.server_id, set()).add(rec.match_id)
            matches.setdefault(rec.receiver_id, set()).add(rec.match_id)
        assert {p: len(m) for p, m in matches.items()} == ds.expected.player_matches


def test_generated_notation_covers_the_key(tmp_path):
    ds = gen.corpus(tmp_path, seed=1, points=20000)
    rows = [line.split(",") for p in ds.files for line in p.read_text().splitlines()[1:]]
    notations = [n for row in rows for n in (row[6], row[7]) if n]
    text = "".join(notations)
    assert any(n.startswith("c") for n in notations)
    assert any(len(n) > 1 and n[1] == "+" for n in notations)
    assert set(gen.FAULT_LETTERS) <= set(text)
    assert set("789") <= set(text) and set(gen.MODIFIERS) <= set(text)
    touches = []
    double_faults = 0
    for n, serve_number in [(row[7], 2) if row[7] else (row[6], 1) for row in rows]:
        try:
            parsed = parse_shot_notation(n, serve_number)
        except NotationError:
            continue
        touches.append(parsed.terminal_touch)
        double_faults += parsed.terminal_kind.value == "double_fault"
    assert double_faults > 0
    assert max(touches) > 13 and sum(t > 10 for t in touches) > 10


def test_match_counts_fall_on_both_sides_of_min_matches(tmp_path):
    counts = gen.corpus(tmp_path, seed=1).expected.player_matches.values()
    assert min(counts) < 10 <= max(counts)


def test_golden_check_rejects_one_altered_digit():
    goldens = checks.load_goldens()
    key, payload = next(iter(goldens["simulate_payload"].items()))
    assert checks.check_golden("simulate_payload", key, payload, goldens) == []
    text = json.dumps(payload)
    i = text.index('"pct_points_won_a": ') + len('"pct_points_won_a": ') + 3
    digit = text[i]
    assert digit.isdigit()
    altered = json.loads(text[:i] + str((int(digit) + 1) % 10) + text[i + 1:])
    assert checks.check_golden("simulate_payload", key, altered, goldens) != []

    key, pinned = next(iter(goldens["simulate"].items()))
    assert checks.check_golden("simulate", key, pinned, goldens) == []
    other = "0" if pinned[-1] != "0" else "1"
    assert checks.check_golden("simulate", key, pinned[:-1] + other, goldens) != []
    assert checks.check_golden("simulate", key + "|unpinned", pinned, goldens) != []


def test_timed_runs_the_call_on_every_allowed_cpu():
    cpus = len(os.sched_getaffinity(0))
    code = "import os, sys, time; time.sleep(0.3); sys.exit(len(os.sched_getaffinity(0)))"
    wall, scaled, returncode = cpuclock.timed([sys.executable, "-c", code])
    assert returncode == cpus
    assert 0.3 <= wall < 5
    assert scaled > 0


def test_peak_rss_is_the_childs_own(tmp_path):
    ballast = bytearray(200 * 1024 * 1024)
    ballast[::4096] = b"\1" * len(ballast[::4096])
    call = run.Cli(tmp_path).run("--version")
    assert call.returncode == 0
    assert 5 < call.rss_mb < 100
