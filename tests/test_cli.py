"""End-to-end command tests driven through main()."""
from __future__ import annotations

import argparse
import csv
import io
import json
import os
import shutil
import struct
import subprocess
import sys
from datetime import datetime
from pathlib import Path

import numpy as np
import pytest

from conftest import Blob, make_record, read_members, sidecar_bytes, write_members
from oracles import reference_ingest_files, reference_write_records_csv
from ufesim import analytics as analytics_module
from ufesim import cli
from ufesim import ingest as ingest_module
from ufesim import records as records_module
from ufesim import sidecar as sidecar_module
from ufesim import simulate as simulate_module
from ufesim.analytics import tally_records
from ufesim.cli import DATA_DIR_ENV, main
from ufesim.records import (
    RecordTable,
    Role,
    TerminalKind,
    cache_path,
    read_records_csv,
    write_records_csv,
)
from ufesim.sidecar import file_sha256

FIXTURE = Path(__file__).parent / "data" / "points_sample.csv"
# A valid --table1 file.
TABLE1 = "2 0.53\n3 0.60\n4 0.55\n5 0.59\n6 0.56\n7 0.58\n8 0.57\n9 0.575\n10 0.57\n"
K = TerminalKind
S, R = Role.SERVER, Role.RECEIVER


@pytest.fixture()
def records_csv(tmp_path, capsys):
    out = tmp_path / "records.csv"
    assert main(["ingest", str(FIXTURE), "-o", str(out)]) == 0
    capsys.readouterr()
    return out


def test_ingest_end_to_end(tmp_path, capsys):
    out = tmp_path / "records.csv"
    code = main(["ingest", str(FIXTURE), "-o", str(out)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rows_read"] == 15
    assert payload["rows_dropped_bad_rally_count"] == 1
    assert payload["rows_dropped_bad_notation"] == 1
    assert payload["serve_records_emitted"] == 17
    assert payload["points_augmented_with_fault_serve"] == 4
    assert payload["serve_records_emitted"] >= (
        payload["rows_read"]
        - payload["rows_dropped_bad_rally_count"]
        - payload["rows_dropped_bad_notation"]
    )
    manifest = payload["manifest"]
    assert manifest["command"] == "ingest"
    assert len(manifest["dataset_sha256"]) == 64
    assert len(read_records_csv(out)) == 17


def test_ingest_missing_file_is_data_error(tmp_path, capsys):
    code = main(["ingest", str(tmp_path / "missing.csv"), "-o", str(tmp_path / "r.csv")])
    assert code == 3
    assert "error:" in capsys.readouterr().err


def test_ingest_duplicate_across_files_is_data_error(tmp_path, capsys):
    code = main(["ingest", str(FIXTURE), str(FIXTURE), "-o", str(tmp_path / "r.csv")])
    assert code == 3
    assert "duplicate" in capsys.readouterr().err.lower()


def test_ingest_same_player_on_both_sides_is_data_error(tmp_path, capsys):
    points = tmp_path / "same.csv"
    points.write_text(
        "match_id,Pt,Svr,1st,2nd,rallyCount\n20210101-M-Cup-F-P_One-P_One,1,1,4*,,1\n",
        encoding="utf-8",
    )
    assert main(["ingest", str(points), "-o", str(tmp_path / "r.csv")]) == 3
    assert capsys.readouterr().err == (
        f"error: {points}: line 2: match id '20210101-M-Cup-F-P_One-P_One'"
        " names 'P One' on both sides\n"
    )
    assert sorted(tmp_path.iterdir()) == [points]


def test_ingest_records_a_year_int_cannot_read_as_unknown(tmp_path, capsys):
    points = tmp_path / "years.csv"
    points.write_text(
        "match_id,Pt,Svr,1st,2nd,rallyCount\n²²²²0101-M-X-F-A_B-C_D,1,1,4*,,1\n",
        encoding="utf-8",
    )
    out = tmp_path / "r.csv"
    assert main(["ingest", str(points), "-o", str(out)]) == 0
    assert capsys.readouterr().err == ""
    (record,) = read_records_csv(out)
    assert record.year is None and record.match_id == "²²²²0101-M-X-F-A_B-C_D"


def test_ingest_refuses_to_overwrite_an_input(tmp_path, capsys):
    points = tmp_path / "points.csv"
    points.write_bytes(FIXTURE.read_bytes())
    sidecar_input = tmp_path / ("r.csv" + sidecar_module.CACHE_SUFFIX)
    sidecar_input.write_bytes(FIXTURE.read_bytes())
    for inputs, output in (
        ([points], points),
        # The same file under another name.
        ([FIXTURE, tmp_path / "." / "points.csv"], points),
        # The output's sidecar would replace the input.
        ([sidecar_input], tmp_path / "r.csv"),
    ):
        before = {p: p.read_bytes() for p in inputs}
        assert main(["ingest", *map(str, inputs), "-o", str(output)]) == 2
        assert "would overwrite the input" in capsys.readouterr().err
        assert {p: p.read_bytes() for p in inputs} == before
    assert not (tmp_path / "r.csv").exists()
    assert not cache_path(points).exists()


def test_failed_ingest_writes_nothing(tmp_path, capsys):
    out = tmp_path / "records.csv"
    code = main(["ingest", str(FIXTURE), str(FIXTURE), "-o", str(out)])
    assert code == 3
    assert sorted(tmp_path.iterdir()) == []


def test_ingest_claims_its_output_before_it_reads(tmp_path, monkeypatch, capsys):
    def must_not_read(*args):
        raise AssertionError("an input was read")

    monkeypatch.setattr(ingest_module, "_read_part", must_not_read)
    out = tmp_path / "missing_dir" / "records.csv"
    assert main(["ingest", str(FIXTURE), "-o", str(out)]) == 3
    assert f"missing_dir{os.sep}records.csv" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["list-players", "stats", "simulate"])
def test_first_command_after_ingest_reads_its_sidecar(command, tmp_path, monkeypatch, capsys):
    out = tmp_path / "records.csv"
    assert main(["ingest", str(FIXTURE), "-o", str(out)]) == 0
    digest = json.loads(capsys.readouterr().out)["manifest"]["dataset_sha256"]
    assert digest == file_sha256(out)
    monkeypatch.setattr(records_module, "_read_table", _must_not_read)
    argv = {
        "list-players": ["list-players", "--records", str(out)],
        "stats": ["stats", "--records", str(out), "--out-dir", str(tmp_path / "s")],
        "simulate": simulate_args(out),
    }[command]
    assert main(argv) == 0
    monkeypatch.undo()
    table, sha256 = records_module.load_records(out)
    assert sha256 == digest and table.to_records() == read_records_csv(out)


def test_ingest_replaces_a_stale_sidecar(tmp_path, capsys):
    out = tmp_path / "records.csv"
    earlier = tmp_path / "earlier.csv"
    lines = FIXTURE.read_text(encoding="utf-8").splitlines(keepends=True)
    earlier.write_text("".join(lines[:4]), encoding="utf-8")
    assert main(["ingest", str(earlier), "-o", str(out)]) == 0
    stale = cache_path(out).read_bytes()
    assert main(["ingest", str(FIXTURE), "-o", str(out)]) == 0
    assert cache_path(out).read_bytes() != stale
    table, sha256 = records_module.load_records(out)
    assert len(table) == 17
    assert cache_path(out).read_bytes() == sidecar_bytes(table, sha256)


def test_ingest_with_an_unwritable_sidecar_still_succeeds(tmp_path, capsys):
    out = tmp_path / "records.csv"
    cache_path(out).mkdir()
    assert main(["ingest", str(FIXTURE), "-o", str(out)]) == 0
    want = tmp_path / "want.csv"
    reference_write_records_csv(reference_ingest_files([FIXTURE])[0], want)
    assert out.read_bytes() == want.read_bytes()
    # No temp file is left behind.
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["records.csv", cache_path(out).name, "want.csv"]
    )
    assert list(cache_path(out).iterdir()) == []


def test_list_players(records_csv, capsys):
    assert main(["list-players", "--records", str(records_csv)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == [
        "Alpha One\t1",
        "Beta Two\t1",
        "Delta Four\t1",
        "Gamma Three\t1",
    ]


def test_list_players_tour_filter(records_csv, capsys):
    assert main(["list-players", "--records", str(records_csv), "--tour", "WTA"]) == 0
    names = [line.split("\t")[0] for line in capsys.readouterr().out.splitlines()]
    assert names == ["Delta Four", "Gamma Three"]


def test_stats_writes_all_outputs(records_csv, tmp_path, capsys):
    out_dir = tmp_path / "stats"
    code = main(
        [
            "stats",
            "--records",
            str(records_csv),
            "--out-dir",
            str(out_dir),
            "--min-matches",
            "1",
            "--k",
            "2",
        ]
    )
    assert code == 0
    for name in (
        "profiles.csv",
        "rankings.csv",
        "touch_curve_server.csv",
        "touch_curve_receiver.csv",
        "year_series.csv",
        "histogram.csv",
        "manifest.json",
    ):
        assert (out_dir / name).exists(), name
    summary = json.loads(capsys.readouterr().out)
    assert summary["players"] == 4
    assert summary["eligible_players"] == 4
    assert 0.0 <= summary["aggregate_ufe_rate"] <= 1.0
    assert 0.0 <= summary["ufe_termination_share"] <= 1.0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["command"] == "stats"
    with open(out_dir / "profiles.csv", newline="") as fh:
        assert len(list(csv.reader(fh))) == 5


def test_stats_svg_charts(records_csv, tmp_path, capsys):
    out_dir = tmp_path / "stats"
    code = main(
        [
            "stats",
            "--records",
            str(records_csv),
            "--out-dir",
            str(out_dir),
            "--min-matches",
            "1",
            "--svg",
        ]
    )
    assert code == 0
    svgs = sorted(p.name for p in out_dir.glob("*.svg"))
    assert svgs == [
        "histogram.svg",
        "touch_curve_receiver.svg",
        "touch_curve_server.svg",
        "year_series.svg",
    ]
    for p in out_dir.glob("*.svg"):
        assert p.read_text().lstrip().startswith("<svg")


def test_stats_iterates_records_once(records_csv, tmp_path, monkeypatch, capsys):
    # On a cache miss the CSV is read once into a table, and the one
    # tally_records pass over that table makes the tallies the sidecar
    # keeps and stats answers from; on a hit, neither runs.
    cache_path(records_csv).unlink()  # ingest wrote it
    read, tallied = [], []
    read_table = records_module._read_table

    def read_counting(path):
        table = read_table(path)
        read.append(len(table))
        return table

    def tally_counting(table, *args, **kwargs):
        tallied.append(table)
        return tally_records(table, *args, **kwargs)

    monkeypatch.setattr(records_module, "_read_table", read_counting)
    monkeypatch.setattr(analytics_module, "tally_records", tally_counting)
    argv = ["stats", "--records", str(records_csv), "--out-dir", str(tmp_path / "s"), "--svg"]
    assert main(argv) == 0
    assert read == [17]
    assert len(tallied) == 1 and isinstance(tallied[0], RecordTable)
    read.clear()
    tallied.clear()
    assert main(argv) == 0
    assert read == [] and tallied == []


def test_stats_warns_when_nobody_qualifies(records_csv, tmp_path, capsys):
    code = main(
        ["stats", "--records", str(records_csv), "--out-dir", str(tmp_path / "s")]
    )
    assert code == 0
    assert "no players with at least 10 matches" in capsys.readouterr().err


def test_stats_config_overrides_flags(records_csv, tmp_path, capsys):
    cfg = tmp_path / "stats.cfg"
    cfg.write_text("min_matches = 1  # flag says 10\n")
    code = main(
        [
            "stats",
            "--records",
            str(records_csv),
            "--out-dir",
            str(tmp_path / "s"),
            "--min-matches",
            "10",
            "--config",
            str(cfg),
        ]
    )
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["eligible_players"] == 4


@pytest.mark.parametrize("tour", ["XYZ", "atp", ""])
def test_stats_config_tour_outside_the_choices_is_usage_error(records_csv, tmp_path, capsys,
                                                              tour):
    cfg = tmp_path / "stats.cfg"
    cfg.write_text(f"tour = {tour}\n")
    out = tmp_path / "s"
    code = main(["stats", "--records", str(records_csv), "--out-dir", str(out),
                 "--config", str(cfg)])
    assert code == 2
    assert f"tour must be one of ATP, WTA, got {tour!r}" in capsys.readouterr().err
    assert not out.exists()


def test_stats_config_tour_filters_like_the_flag(records_csv, tmp_path, capsys):
    cfg = tmp_path / "stats.cfg"
    cfg.write_text("tour = WTA\n")
    assert main(["stats", "--records", str(records_csv), "--out-dir", str(tmp_path / "s"),
                 "--config", str(cfg)]) == 0
    assert json.loads(capsys.readouterr().out)["players"] == 2
    manifest = json.loads((tmp_path / "s" / "manifest.json").read_text())
    assert manifest["parameters"]["tour"] == "WTA"


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--min-matches", "0"], "min_matches must be at least 1"),
        (["--k", "0"], "k must be at least 1"),
    ],
)
def test_stats_usage_error_creates_nothing(records_csv, tmp_path, capsys, flags, message):
    cache_path(records_csv).unlink()  # a read would write it again
    before = sorted(tmp_path.rglob("*"))
    out = tmp_path / "new" / "dir"
    code = main(["stats", "--records", str(records_csv), "--out-dir", str(out), *flags])
    assert code == 2
    assert message in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize(
    "records, config, flags",
    [
        ("profiles.csv", "stats.cfg", []),
        ("records.csv", "manifest.json", []),
        ("histogram.svg", "stats.cfg", ["--svg"]),
    ],
)
def test_stats_refuses_to_overwrite_an_input(records_csv, tmp_path, monkeypatch, capsys,
                                             records, config, flags):
    out = tmp_path / "out"
    out.mkdir()
    monkeypatch.chdir(out)
    shutil.copy(records_csv, records)  # no sidecar: a read would write one
    Path(config).write_text("min_matches = 1\n")
    before = {p: p.read_bytes() for p in out.iterdir()}
    argv = ["stats", "--records", records, "--out-dir", ".", "--config", config, *flags]
    assert main(argv) == 2
    assert "would overwrite the input" in capsys.readouterr().err
    assert {p: p.read_bytes() for p in out.iterdir()} == before


def simulate_args(records_csv, *extra):
    return [
        "simulate",
        "--records",
        str(records_csv),
        "--a",
        "Alpha_One",
        "--b",
        "Beta_Two",
        "--n",
        "40",
        *extra,
    ]


def test_simulate_text_output(records_csv, capsys):
    assert main(simulate_args(records_csv)) == 0
    out = capsys.readouterr().out
    assert "players: A = Alpha One, B = Beta Two" in out
    assert "seed: 20177" in out
    assert "Scenario" in out and "historic" in out


def test_simulate_case_insensitive_player_resolution(records_csv, capsys):
    code = main(
        [
            "simulate",
            "--records",
            str(records_csv),
            "--a",
            "alpha_one",
            "--b",
            "BETA_TWO",
            "--n",
            "10",
        ]
    )
    assert code == 0
    assert "A = Alpha One, B = Beta Two" in capsys.readouterr().out


def test_simulate_unknown_player_is_data_error(records_csv, capsys):
    code = main(
        [
            "simulate",
            "--records",
            str(records_csv),
            "--a",
            "Nobody_Here",
            "--b",
            "Beta_Two",
        ]
    )
    assert code == 3
    assert "Nobody_Here" in capsys.readouterr().err


def test_simulate_unknown_player_message_names_it(records_csv, capsys):
    argv = ["simulate", "--records", str(records_csv), "--a", "alpha one", "--b", "zed"]
    assert main(argv) == 3
    assert capsys.readouterr().err == "error: no player named 'zed' in the records\n"


def test_simulate_ambiguous_player_is_data_error(tmp_path, capsys):
    mid = "20190101-M-Testopen-F-Alpha_One-Beta_Two"
    records = [
        make_record("Alpha One", "Beta Two", K.ACE, 1, S, match_id=mid),
        make_record("ALPHA ONE", "Beta Two", K.ACE, 1, S, match_id=mid),
    ]
    path = tmp_path / "dup.csv"
    write_records_csv(records, path)
    code = main(
        ["simulate", "--records", str(path), "--a", "alpha_one", "--b", "Beta_Two"]
    )
    assert code == 3
    assert "ambiguous" in capsys.readouterr().err


def test_simulate_empty_pool_suggests_wider_scope(records_csv, capsys):
    code = main(
        [
            "simulate",
            "--records",
            str(records_csv),
            "--a",
            "Gamma_Three",
            "--b",
            "Delta_Four",
        ]
    )
    assert code == 3
    err = capsys.readouterr().err
    assert "A_second" in err
    assert "versus_field" in err


def test_simulate_empty_pool_in_field_scope_has_no_scope_hint(records_csv, capsys):
    code = main(
        [
            "simulate",
            "--records",
            str(records_csv),
            "--a",
            "Gamma_Three",
            "--b",
            "Delta_Four",
            "--scope",
            "versus_field",
        ]
    )
    assert code == 3
    err = capsys.readouterr().err
    assert "A_second" in err
    assert "--scope" not in err


def test_simulate_unwritable_out_fails_before_simulating(
    records_csv, tmp_path, monkeypatch, capsys
):
    def must_not_run(*args, **kwargs):
        raise AssertionError("simulation started")

    monkeypatch.setattr(simulate_module, "compare_scenarios", must_not_run)
    code = main(simulate_args(records_csv, "--out", str(tmp_path)))
    assert code == 3
    assert str(tmp_path) in capsys.readouterr().err


def _endless_match_records(path):
    """Records in which each server wins every point on their serve."""
    mid = "20190101-M-Testopen-F-Alpha_One-Beta_Two"
    records = [
        make_record(server, receiver, K.ACE, 1, S, serve_number=n, match_id=mid)
        for server, receiver in (("Alpha One", "Beta Two"), ("Beta Two", "Alpha One"))
        for n in (1, 2)
    ]
    write_records_csv(records, path)
    return path


@pytest.mark.parametrize("existing", [None, b"earlier output"], ids=["new", "existing"])
def test_failed_simulate_leaves_its_out_file_as_it_found_it(tmp_path, capsys, existing):
    records = _endless_match_records(tmp_path / "aces.csv")
    out = tmp_path / "o.json"
    if existing is not None:
        out.write_bytes(existing)
    argv = ["simulate", "--records", str(records), "--a", "Alpha_One", "--b", "Beta_Two",
            "--out", str(out)]
    assert main(argv) == 3
    assert "no match can end" in capsys.readouterr().err
    if existing is None:
        assert not out.exists()
    else:
        assert out.read_bytes() == existing


def test_simulate_refuses_to_overwrite_an_input(records_csv, tmp_path, monkeypatch, capsys):
    table = tmp_path / "table.txt"
    table.write_text(TABLE1)
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("n = 24\n")
    cache_path(records_csv).unlink()  # a read would write it again
    monkeypatch.setattr(records_module, "_read_table", _must_not_read)
    before = {p: p.read_bytes() for p in tmp_path.iterdir()}
    # The records CSV under another name, its sidecar (not yet written),
    # the table and the config.
    for out in (tmp_path / "." / "records.csv", cache_path(records_csv), table, cfg):
        argv = simulate_args(records_csv, "--table1", str(table), "--config", str(cfg),
                             "--out", str(out))
        assert main(argv) == 2
        assert f"output {out} would overwrite the input" in capsys.readouterr().err
    assert {p: p.read_bytes() for p in tmp_path.iterdir()} == before


@pytest.mark.parametrize(
    "flags, config, message",
    [
        (["--n", "0"], "", "n_matches must be positive"),
        (["--scenario", "bogus"], "", "unknown scenario 'bogus'"),
        ([], "scope = bogus", "scope must be one of head_to_head, versus_field, got 'bogus'"),
        ([], "best_of = 4", "best_of must be one of 3, 5, got '4'"),
    ],
)
def test_simulate_usage_error_reads_and_creates_nothing(records_csv, tmp_path, capsys, flags,
                                                        config, message):
    cache_path(records_csv).unlink()  # a read would write it again
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(config)
    before = sorted(tmp_path.rglob("*"))
    argv = simulate_args(records_csv, *flags, "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before


def test_simulate_endless_match_is_data_error(tmp_path, capsys):
    path = _endless_match_records(tmp_path / "aces.csv")
    code = main(["simulate", "--records", str(path), "--a", "Alpha_One", "--b", "Beta_Two"])
    assert code == 3
    assert "no match can end" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["ingest", "list-players"])
def test_non_utf8_input_is_data_error_naming_the_file(command, tmp_path, capsys):
    path = tmp_path / "latin1.csv"
    # A Latin-1 "Ö" is one byte that UTF-8 cannot decode.
    path.write_bytes(FIXTURE.read_bytes().replace(b"Alpha_One", b"Alpha_\xd6ne"))
    if command == "ingest":
        argv = ["ingest", str(path), "-o", str(tmp_path / "r.csv")]
    else:
        argv = ["list-players", "--records", str(path)]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert str(path) in err
    assert "UTF-8" in err


def test_simulate_bad_scenario_is_usage_error(records_csv, capsys):
    code = main(simulate_args(records_csv, "--scenario", "bogus"))
    assert code == 2
    assert "scenario" in capsys.readouterr().err.lower()


def test_simulate_missing_players_is_usage_error(records_csv, capsys):
    code = main(["simulate", "--records", str(records_csv)])
    assert code == 2
    assert "--a and --b" in capsys.readouterr().err


def test_simulate_json_output_and_determinism(records_csv, tmp_path, capsys):
    payloads = []
    for name in ("one.json", "two.json"):
        out = tmp_path / name
        code = main(
            simulate_args(
                records_csv,
                "--scenario",
                "historic",
                "--scenario",
                "eliminate",
                "--out",
                str(out),
            )
        )
        assert code == 0
        payloads.append(json.loads(out.read_text()))
    capsys.readouterr()
    for payload in payloads:
        assert set(payload) == {"manifest", "pools", "summaries", "differences"}
        payload["manifest"].pop("created")
    assert payloads[0] == payloads[1]
    summaries = payloads[0]["summaries"]
    assert [s["scenario"] for s in summaries] == ["historic", "eliminate"]
    assert all(s["n_matches"] == 40 for s in summaries)
    assert payloads[0]["pools"]["pools"]["A_first"]["size"] == 6
    assert len(payloads[0]["differences"]) == 1


class FrozenDatetime(datetime):
    @classmethod
    def now(cls, tz=None):
        return cls(2024, 1, 2, 3, 4, 5, tzinfo=tz)


def _must_not_read(path):
    raise AssertionError(f"_read_table({path}) on a cache hit")


def test_second_simulate_reads_the_cache(records_csv, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "datetime", FrozenDatetime)
    outputs, stdouts = [], []
    for name in ("one.json", "two.json"):
        out = tmp_path / name
        argv = simulate_args(records_csv, "--scenario", "historic", "--scenario", "eliminate",
                             "--out", str(out))
        assert main(argv) == 0
        outputs.append(out.read_bytes())
        stdouts.append(capsys.readouterr().out.replace(name, "OUT"))
        assert cache_path(records_csv).is_file()
        monkeypatch.setattr(records_module, "_read_table", _must_not_read)
    assert outputs[0] == outputs[1]
    assert stdouts[0] == stdouts[1]


def _stats_files(records_csv, out_dir):
    assert main(["stats", "--records", str(records_csv), "--out-dir", str(out_dir), "--svg",
                 "--min-matches", "1"]) == 0
    return {p.name: p.read_bytes() for p in out_dir.iterdir()}


def _list_players(records_csv, capsys) -> list[str]:
    """list-players' output over every tour, then over each tour."""
    outputs = []
    for tour in ([], ["--tour", "ATP"], ["--tour", "WTA"]):
        assert main(["list-players", "--records", str(records_csv), *tour]) == 0
        outputs.append(capsys.readouterr().out)
    return outputs


def _edited(sidecar: bytes, member: str, edit, replace=None) -> bytes:
    """The sidecar with one JSON member passed through edit, which changes
    it in place, or any member replaced by replace(member); an edit and a
    replace of None drop the member."""
    members = read_members(sidecar)
    if replace is not None:
        members[member] = replace(members[member])
    elif edit is None:
        del members[member]
    else:
        edit(members[member])
    return write_members(members)


def _edited_header(sidecar: bytes, **changes) -> bytes:
    """The sidecar with these header keys set, or dropped where None."""

    def edit(header):
        header.update(changes)
        for key in [key for key, value in changes.items() if value is None]:
            del header[key]

    return _edited(sidecar, "header", edit)


def test_corrupt_or_stale_sidecar_changes_no_output(records_csv, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "datetime", FrozenDatetime)
    sidecar = cache_path(records_csv)
    clean = _stats_files(records_csv, tmp_path / "clean")
    capsys.readouterr()
    players = _list_players(records_csv, capsys)  # a hit
    assert all(players) and len(set(players)) == 3
    good = sidecar.read_bytes()
    sidecar.unlink()  # a miss
    assert _list_players(records_csv, capsys) == players
    assert sidecar.read_bytes() == good
    other = tmp_path / "other.csv"
    write_records_csv([make_record()], other)
    assert main(["list-players", "--records", str(other)]) == 0
    capsys.readouterr()
    header = read_members(good)["header"]
    counts, names, tours = header["counts"], header["players"], header["tours"]
    malformed = [
        dict(version=2, counts=None, tour_counts=None),  # the layout before the counts
        dict(counts=counts[:-1]),
        dict(counts=[-1, *counts[1:]]),
        dict(counts=[float(n) for n in counts]),
        dict(counts=[str(n) for n in counts]),
        dict(counts=[True, *counts[1:]]),
        dict(counts=None),
        dict(tour_counts=[]),
        dict(tour_counts=[counts[:-1]]),
        dict(tour_counts={"ATP": counts}),
        dict(players=[names[0], *names[:-1]]),  # a repeated player
        dict(tours=[tours[0], *tours[:-1]]),  # a repeated tour
    ]
    for damaged in (
        b"not a zip",
        good[: len(good) // 2],
        cache_path(other).read_bytes(),
        *(_edited_header(good, **changes) for changes in malformed),
    ):
        sidecar.write_bytes(damaged)
        assert _list_players(records_csv, capsys) == players
        assert sidecar.read_bytes() == good
        sidecar.write_bytes(damaged)
        # stats reads the tally member alone: a sidecar whose header alone
        # is damaged answers it, and only a miss rewrites the sidecar.
        hit = sidecar_module.read_tallies(sidecar, file_sha256(records_csv)) is not None
        assert _stats_files(records_csv, tmp_path / "again") == clean
        assert sidecar.read_bytes() == (damaged if hit else good)
        capsys.readouterr()


def _first(member: dict) -> dict:
    return member["tallies"][0]


def _add_year(member: dict, at: int, year: int) -> None:
    """A year inserted into the first tally, with a 0 count for each
    player, so that only the years themselves are wrong."""
    tally = _first(member)
    tally["years"].insert(at, year)
    for name in ("year_contacts", "year_ufes"):
        for row in tally[name]:
            row.insert(at, 0)


def _repeat_tour(member: dict) -> None:
    member["tours"].append(member["tours"][0])
    member["tallies"].append(member["tallies"][1])


# Tally members a read must take for a miss, each by one edit.
MALFORMED_TALLIES = {
    "missing-field": lambda m: _first(m).pop("ufes"),
    "extra-field": lambda m: _first(m).__setitem__("max_touch", m["max_touch"]),
    "unknown-field": lambda m: _first(m).__setitem__("rallies", _first(m)["matches"]),
    "repeated-player": lambda m: _first(m)["players"].__setitem__(1, _first(m)["players"][0]),
    "years-out-of-order": lambda m: _add_year(m, 0, _first(m)["years"][-1] + 1),
    "repeated-year": lambda m: _add_year(m, len(_first(m)["years"]), _first(m)["years"][-1]),
    "repeated-tour": _repeat_tour,
    "touch-ufes-nesting": lambda m: _first(m)["touch_ufes"].__setitem__(
        0, [n for row in _first(m)["touch_ufes"][0] for n in row]
    ),
    "short": lambda m: _first(m)["matches"].pop(),
    "short-row": lambda m: m["tallies"][-1]["served"][0].pop(),
    "negative": lambda m: _first(m)["contacts"].__setitem__(0, -1),
    "float": lambda m: m["tallies"][-1].__setitem__(
        "ufes", [float(n) for n in m["tallies"][-1]["ufes"]]
    ),
    "bool": lambda m: _first(m)["year_contacts"][0].__setitem__(0, True),
    "str": lambda m: _first(m).__setitem__("years", [str(y) for y in _first(m)["years"]]),
    "per-tour-count": lambda m: m["tallies"].pop(),
    "max-touch": lambda m: m.__setitem__("max_touch", m["max_touch"] - 1),
}


@pytest.mark.parametrize(
    "tours, tour",
    [(None, None), (None, "ATP"), (None, "WTA"), ("ATP", "WTA")],
    ids=["every-tour", "ATP", "WTA", "absent-tour"],
)
def test_stats_hit_and_miss_write_the_same_files(tours, tour, tmp_path, monkeypatch, capsys):
    # Over every tour, each tour, and a tour the records do not name:
    # stats writes the same files from the sidecar's tallies (a hit) as
    # from the CSV (a miss), and a miss rewrites the sidecar.
    monkeypatch.setattr(cli, "datetime", FrozenDatetime)
    records_csv = tmp_path / "records.csv"
    records = reference_ingest_files([FIXTURE])[0]
    write_records_csv([r for r in records if tours in (None, r.tour)], records_csv)
    sidecar = cache_path(records_csv)
    argv = ["stats", "--records", str(records_csv), "--svg", "--min-matches", "1",
            *(["--tour", tour] if tour else [])]

    def files(out_dir):
        assert main([*argv, "--out-dir", str(out_dir)]) == 0
        capsys.readouterr()
        return {p.name: p.read_bytes() for p in out_dir.iterdir()}

    clean = files(tmp_path / "miss")  # no sidecar yet
    good = sidecar.read_bytes()
    assert files(tmp_path / "hit") == clean
    assert sidecar.read_bytes() == good
    other = tmp_path / "other.csv"
    write_records_csv([make_record()], other)
    assert main(["list-players", "--records", str(other)]) == 0
    for damaged in (
        None,  # deleted
        _edited_header(_edited(good, "tally", None), version=3),  # layout 3 had no tallies
        b"not a zip",
        good[: len(good) // 2],
        cache_path(other).read_bytes(),
        *(_edited(good, "tally", edit) for edit in MALFORMED_TALLIES.values()),
    ):
        if damaged is None:
            sidecar.unlink()
        else:
            sidecar.write_bytes(damaged)
            assert sidecar_module.read_tallies(sidecar, file_sha256(records_csv)) is None
        assert files(tmp_path / "again") == clean
        assert sidecar.read_bytes() == good


def _serve_edit(edit):
    """An edit of the serve index member, which edit changes in place as
    a dict of its parts: `meta`, its JSON line as a value, and
    `receivers`, `tours` and `codes`, its blobs as lists of ints."""

    def apply(member: bytes) -> Blob:
        line, _, blobs = member.partition(b"\n")
        meta = json.loads(line)
        rows = meta["offsets"][-1]
        parts = {
            "meta": meta,
            "receivers": list(struct.unpack(f"<{rows}i", blobs[: 4 * rows])),
            "tours": list(struct.unpack(f"<{rows}i", blobs[4 * rows : 8 * rows])),
            "codes": list(blobs[8 * rows :]),
        }
        edit(parts)
        n = len(parts["receivers"])
        return Blob(
            json.dumps(parts["meta"]).encode("ascii") + b"\n"
            + struct.pack(f"<{n}i", *parts["receivers"])
            + struct.pack(f"<{len(parts['tours'])}i", *parts["tours"])
            + bytes(parts["codes"])
        )

    return apply


def _set_meta(**changes):
    return _serve_edit(lambda parts: parts["meta"].update(changes))


def _set_offset(at: int, value):
    return _serve_edit(lambda parts: parts["meta"]["offsets"].__setitem__(at, value))


def _swap_first_distinct_offsets(parts) -> None:
    """Offsets that start at 0, fall once and still end at the row count."""
    offsets = parts["meta"]["offsets"]
    i = next(i for i in range(1, len(offsets) - 2) if offsets[i] < offsets[i + 1])
    offsets[i], offsets[i + 1] = offsets[i + 1], offsets[i]


# Serve index members a read must take for a miss, each by one edit of
# the member's bytes.
MALFORMED_SERVES = {
    "old-version": _set_meta(version=sidecar_module.CACHE_VERSION - 1),
    "other-digest": _set_meta(sha256="0" * 64),
    "extra-key": _set_meta(rows=0),
    "no-offsets": _serve_edit(lambda parts: parts["meta"].pop("offsets")),
    "not-an-object": lambda member: Blob(b"[]\n" + member.partition(b"\n")[2]),
    "no-line": lambda member: Blob(member.partition(b"\n")[2]),
    "truncated-blob": lambda member: Blob(member[:-1]),
    "padded-blob": lambda member: Blob(member + b"\0"),
    "offsets-out-of-order": _serve_edit(_swap_first_distinct_offsets),
    "offsets-not-from-zero": _set_offset(0, 1),
    "offsets-end-short": _serve_edit(
        lambda parts: parts["meta"]["offsets"].__setitem__(-1, parts["meta"]["offsets"][-1] - 1)
    ),
    "offsets-short": _serve_edit(lambda parts: parts["meta"]["offsets"].pop(1)),
    "offset-float": _set_offset(1, 6.0),
    "offset-bool": _set_offset(0, False),
    "receiver-past-players": _serve_edit(lambda parts: parts["receivers"].__setitem__(0, 99)),
    "receiver-negative": _serve_edit(lambda parts: parts["receivers"].__setitem__(-1, -1)),
    "tour-past-tours": _serve_edit(lambda parts: parts["tours"].__setitem__(0, 99)),
    "tour-below-none": _serve_edit(lambda parts: parts["tours"].__setitem__(-1, -2)),
    "code-out-of-range": _serve_edit(
        lambda parts: parts["codes"].__setitem__(0, sidecar_module.SERVE_CODES)
    ),
}


@pytest.mark.parametrize("scope", ["head_to_head", "versus_field"])
def test_simulate_hit_and_miss_print_and_write_the_same_bytes(
    scope, records_csv, tmp_path, monkeypatch, capsys
):
    # simulate prints and writes the same bytes from the sidecar's serve
    # index (a hit) as from the CSV (a miss), and a miss of any kind
    # rewrites the sidecar ingest wrote, byte for byte.
    monkeypatch.setattr(cli, "datetime", FrozenDatetime)
    sidecar, out = cache_path(records_csv), tmp_path / "out.json"
    argv = simulate_args(records_csv, "--scope", scope, "--scenario", "historic",
                         "--scenario", "reduce:0.5", "--out", str(out))

    def run():
        assert main(argv) == 0
        return capsys.readouterr(), out.read_bytes()

    good = sidecar.read_bytes()
    # Each edit below changes only what it edits.
    assert _edited(good, "serves", None, _serve_edit(lambda parts: None)) == good
    hit = run()
    assert sidecar.read_bytes() == good
    other = tmp_path / "other.csv"
    write_records_csv([make_record()], other)
    assert main(["list-players", "--records", str(other)]) == 0
    capsys.readouterr()
    for damaged in (
        None,  # deleted
        _edited(good, "serves", None),  # layout 5 had no serve index
        _edited_header(good, players=None),
        _edited(good, "header", lambda header: header["players"].__setitem__(1, header["players"][0])),
        b"not a zip",
        good[: len(good) // 2],
        cache_path(other).read_bytes(),
        *(_edited(good, "serves", None, edit) for edit in MALFORMED_SERVES.values()),
    ):
        if damaged is None:
            sidecar.unlink()
        else:
            sidecar.write_bytes(damaged)
            assert sidecar_module.read_serves(sidecar, file_sha256(records_csv)) is None
        assert run() == hit
        assert sidecar.read_bytes() == good


def _layout_6(sidecar: bytes, table: RecordTable) -> dict:
    """The members of the sidecar as layout 6 wrote it, for this table:
    each member of version 6, the header with the match names, and then
    the ten record columns, each as np.save writes it."""
    members = read_members(sidecar)
    header = members["header"]
    members["header"] = {"version": 6, "sha256": header["sha256"], "matches": list(table.matches),
                         **{key: header[key] for key in ("players", "tours", "counts",
                                                         "tour_counts")}}
    members["tally"]["version"] = 6
    members["serves"] = _set_meta(version=6)(members["serves"])
    members.update((name, getattr(table, name)) for name, _ in records_module._COLUMNS)
    return members


def _layout_4(members: dict) -> bytes:
    """The sidecar as layout 4 wrote it, from layout 6's members: np.savez
    of the header and the tally member, each a uint8 array of its ASCII
    JSON, then the columns; it had no serve index."""
    arrays = {}
    for name, value in members.items():
        if isinstance(value, Blob):
            continue
        if not isinstance(value, np.ndarray):
            value = np.frombuffer(json.dumps({**value, "version": 4}).encode("ascii"), np.uint8)
        arrays[name] = value
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    return buffer.getvalue()


@pytest.mark.parametrize("command", ["list-players", "stats", "simulate"])
def test_a_layout_4_sidecar_is_a_miss_and_is_replaced(command, records_csv, tmp_path,
                                                      monkeypatch, capsys):
    # Layouts 4 and 6 held the record columns: each is a miss, which
    # parses the CSV once and rewrites the sidecar ingest wrote.
    sidecar = cache_path(records_csv)
    good = sidecar.read_bytes()
    layout_6 = _layout_6(good, records_module.load_records(records_csv)[0])
    read = []
    read_table = records_module._read_table

    def read_counting(path):
        read.append(path)
        return read_table(path)

    monkeypatch.setattr(records_module, "_read_table", read_counting)
    argv = {
        "list-players": ["list-players", "--records", str(records_csv)],
        "stats": ["stats", "--records", str(records_csv), "--out-dir", str(tmp_path / "s")],
        "simulate": simulate_args(records_csv),
    }[command]
    for old in (_layout_4(layout_6), write_members(layout_6)):
        sidecar.write_bytes(old)
        read.clear()
        assert main(argv) == 0
        assert read == [records_csv]
        assert sidecar.read_bytes() == good


def test_stale_sidecar_keeps_csv_errors(records_csv, capsys):
    assert main(["list-players", "--records", str(records_csv)]) == 0
    lines = records_csv.read_text(encoding="utf-8").splitlines()
    lines[2] = lines[2].replace(",1,", ",9,", 1)  # serve_number on line 3
    records_csv.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["list-players", "--records", str(records_csv)]) == 3
    err = capsys.readouterr().err
    assert str(records_csv) in err and "line 3" in err


def test_commands_hash_the_dataset_once(records_csv, tmp_path, monkeypatch, capsys):
    hashed = []

    def counting(path):
        hashed.append(path)
        return file_sha256(path)

    # Every command hashes in sidecar.lookup.
    monkeypatch.setattr(sidecar_module, "file_sha256", counting)

    def run_once(argv, miss):
        if miss:
            cache_path(records_csv).unlink()
        hashed.clear()
        assert main(argv) == 0
        assert len(hashed) == 1

    out, sim = tmp_path / "s", tmp_path / "sim.json"
    for miss in (True, False):
        run_once(["list-players", "--records", str(records_csv)], miss)
        run_once(["stats", "--records", str(records_csv), "--out-dir", str(out)], miss)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["dataset_sha256"] == file_sha256(records_csv)
        run_once(simulate_args(records_csv, "--out", str(sim)), miss)
        manifest = json.loads(sim.read_text())["manifest"]
        assert manifest["dataset_sha256"] == file_sha256(records_csv)


def test_manifest_takes_a_precomputed_digest(records_csv, monkeypatch):
    monkeypatch.setattr(cli, "datetime", FrozenDatetime)
    by_path = cli.build_manifest("stats", {"k": 5}, dataset_path=records_csv)
    by_digest = cli.build_manifest(
        "stats", {"k": 5}, dataset_sha256=file_sha256(records_csv)
    )
    assert json.dumps(by_path.to_dict(), indent=2) == json.dumps(by_digest.to_dict(), indent=2)
    assert list(by_path.to_dict().items()) == list({
        "command": "stats",
        "parameters": {"k": 5},
        "seed": None,
        "dataset_sha256": file_sha256(records_csv),
        "tool_version": cli.__version__,
        "created": "2024-01-02T03:04:05+00:00",
    }.items())


@pytest.mark.parametrize("k", ["0", "-2"])
def test_stats_k_below_one_is_usage_error(records_csv, tmp_path, capsys, k):
    out = tmp_path / "s"
    code = main(["stats", "--records", str(records_csv), "--out-dir", str(out), "--k", k])
    assert code == 2
    assert "k must be at least 1" in capsys.readouterr().err
    assert not (out / "rankings.csv").exists()


def test_simulate_multi_scenario_text_differences(records_csv, capsys):
    code = main(
        simulate_args(records_csv, "--scenario", "historic", "--scenario", "eliminate")
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "Differences (variant - baseline):" in out
    assert "eliminate vs historic:" in out


def test_simulate_config_overrides_flags(records_csv, tmp_path, capsys):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("n = 24\nseed = 7\nscenarios = historic, eliminate\n")
    out = tmp_path / "sim.json"
    code = main(
        simulate_args(records_csv, "--seed", "1", "--config", str(cfg), "--out", str(out))
    )
    assert code == 0
    assert "seed: 7" in capsys.readouterr().out
    payload = json.loads(out.read_text())
    assert payload["manifest"]["seed"] == 7
    assert [s["n_matches"] for s in payload["summaries"]] == [24, 24]


def test_simulate_unknown_config_key_is_usage_error(records_csv, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus = 1\n")
    code = main(simulate_args(records_csv, "--config", str(cfg)))
    assert code == 2
    assert "bogus" in capsys.readouterr().err


def test_simulate_table_override(records_csv, tmp_path, capsys):
    table = tmp_path / "table.txt"
    table.write_text(TABLE1)
    assert main(simulate_args(records_csv, "--table1", str(table))) == 0
    capsys.readouterr()

    garbage = tmp_path / "garbage.txt"
    garbage.write_text("not a table\n")
    assert main(simulate_args(records_csv, "--table1", str(garbage))) == 3
    assert "error:" in capsys.readouterr().err


def test_simulate_warns_on_wta_default_table(tmp_path, capsys):
    mid = "20200301-W-Doha-F-Gina_Gold-Dana_Dusk"
    wta = dict(match_id=mid, year=2020, tour="WTA")
    # Gina wins every point on either serve so matches end quickly.
    records = [
        make_record("Gina Gold", "Dana Dusk", K.ACE, 1, S, **wta),
        make_record("Gina Gold", "Dana Dusk", K.ACE, 1, S, serve_number=2, **wta),
        make_record("Dana Dusk", "Gina Gold", K.RALLY_WINNER, 2, R, **wta),
        make_record(
            "Dana Dusk", "Gina Gold", K.RALLY_WINNER, 2, R, serve_number=2, **wta
        ),
    ]
    path = tmp_path / "wta.csv"
    write_records_csv(records, path)
    code = main(
        [
            "simulate",
            "--records",
            str(path),
            "--a",
            "Gina_Gold",
            "--b",
            "Dana_Dusk",
            "--n",
            "10",
        ]
    )
    assert code == 0
    assert "--table1" in capsys.readouterr().err


def test_records_resolved_under_data_dir_env(records_csv, tmp_path, monkeypatch, capsys):
    data_dir = tmp_path / "datadir"
    data_dir.mkdir()
    shutil.copy(records_csv, data_dir / "recs.csv")
    monkeypatch.setenv(DATA_DIR_ENV, str(data_dir))
    assert main(["list-players", "--records", "recs.csv"]) == 0
    assert "Alpha One" in capsys.readouterr().out


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert "ufesim" in capsys.readouterr().out


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "ufesim.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "ufesim" in proc.stdout


def test_list_players_into_a_closed_pipe_exits_quietly(records_csv):
    # The reader is gone before the command writes, as with `| head -1`.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ufesim.cli", "list-players", "--records", str(records_csv)],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 0
    assert proc.stderr == ""


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_records_that_are_no_regular_file_are_refused(tmp_path):
    # A pipe with no writer: hashing it and then reading it again would wait forever.
    fifo = tmp_path / "records.fifo"
    os.mkfifo(fifo)
    proc = subprocess.run(
        [sys.executable, "-m", "ufesim.cli", "list-players", "--records", str(fifo)],
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert proc.returncode == 3
    assert proc.stderr == f"error: {fifo}: not a regular file\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["records.fifo"]


def test_non_utf8_table_is_data_error_naming_the_file(records_csv, tmp_path, capsys):
    table = tmp_path / "table.txt"
    table.write_bytes(b"2 0.535 \xd6\n")
    assert main(simulate_args(records_csv, "--table1", str(table))) == 3
    err = capsys.readouterr().err
    assert str(table) in err
    assert "UTF-8" in err


def _config_argv(command, records_csv, tmp_path, cfg):
    if command == "simulate":
        return simulate_args(records_csv, "--config", str(cfg))
    return ["stats", "--records", str(records_csv), "--out-dir", str(tmp_path / "s"),
            "--config", str(cfg)]


@pytest.mark.parametrize("command", ["simulate", "stats"])
def test_non_utf8_config_is_usage_error_naming_the_file(command, records_csv, tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(b"seed = 7 # \xd6\n")
    assert main(_config_argv(command, records_csv, tmp_path, cfg)) == 2
    err = capsys.readouterr().err
    assert str(cfg) in err
    assert "UTF-8" in err


def _stdout_without_and_with_a_bom(path, text, argv, capsys):
    """The stdout of `main(argv)` with `path` holding `text`, then with it
    holding `text` after a UTF-8 byte order mark (as Windows Notepad saves)."""
    outs = []
    for bom in (b"", b"\xef\xbb\xbf"):
        path.write_bytes(bom + text.encode())
        assert main(argv) == 0
        outs.append(capsys.readouterr().out)
    return outs


def test_config_with_a_byte_order_mark_reads_as_without(records_csv, tmp_path, capsys):
    cfg = tmp_path / "sim.cfg"
    argv = simulate_args(records_csv, "--config", str(cfg))
    plain, bom = _stdout_without_and_with_a_bom(cfg, "seed = 7\nn = 24\n", argv, capsys)
    assert "seed: 7" in plain
    assert bom == plain


def test_table1_with_a_byte_order_mark_reads_as_without(records_csv, tmp_path, capsys):
    table = tmp_path / "table.txt"
    argv = simulate_args(records_csv, "--table1", str(table))
    plain, bom = _stdout_without_and_with_a_bom(table, TABLE1, argv, capsys)
    assert bom == plain


# Each command is given value errors for keys of its own.
@pytest.mark.parametrize(
    "line, message, command",
    [
        ("seed = abc", "config key 'seed' expects an integer, got 'abc'", "simulate"),
        ("ad_scoring = maybe", "config key 'ad_scoring' expects a boolean, got 'maybe'",
         "simulate"),
        ("min_matches = abc", "config key 'min_matches' expects an integer, got 'abc'", "stats"),
        ("svg = maybe", "config key 'svg' expects a boolean, got 'maybe'", "stats"),
    ],
)
def test_config_value_error_names_file_and_line(command, line, message, records_csv, tmp_path,
                                                capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"# overrides\n{line}\n")
    assert main(_config_argv(command, records_csv, tmp_path, cfg)) == 2
    assert f"error: {cfg}: line 2: {message}\n" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize(
    "command, key, value", [("stats", "seed", 7), ("simulate", "min_matches", 2)]
)
def test_config_key_of_another_command_is_usage_error(command, key, value, records_csv,
                                                      tmp_path, monkeypatch, capsys):
    cache_path(records_csv).unlink()  # a read would write it again
    monkeypatch.setattr(records_module, "_read_table", _must_not_read)
    cfg = tmp_path / "other.cfg"
    cfg.write_text(f"# {command} does not take {key}\n{key} = {value}\n")
    before = sorted(tmp_path.rglob("*"))
    assert main(_config_argv(command, records_csv, tmp_path, cfg)) == 2
    assert capsys.readouterr().err == (
        f"error: {cfg}: line 2: unknown config key {key!r} for {command}\n"
    )
    assert sorted(tmp_path.rglob("*")) == before


def _options(command):
    (commands,) = (a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
    return [a for a in commands.choices[command]._actions if a.dest not in ("help", "config")]


# A value for each option, unlike the one the base run gives it where the
# outputs would show the difference.
OPTION_VALUES = {
    "stats": {
        "records": "copy.csv",
        "tour": "WTA",
        "min_matches": 1,
        "k": 2,
        "out_dir": "other_dir",
        "svg": True,
    },
    "simulate": {
        "records": "copy.csv",
        "a": "ALPHA one",
        "b": "beta_two",
        "scenarios": ["historic", "reduce:0.5"],
        "n": 24,
        "seed": 7,
        "best_of": 3,
        "ad_scoring": False,
        "final_set_tiebreak": False,
        "first_server": "random",
        "scope": "versus_field",
        "table1": "table.txt",
        "n_jobs": 2,
        "out": "other.json",
    },
}


@pytest.mark.parametrize(
    "command, option",
    [(command, option) for command in OPTION_VALUES for option in _options(command)],
    ids=lambda value: getattr(value, "dest", value),
)
def test_config_line_and_flag_give_the_same_outputs(command, option, records_csv, tmp_path,
                                                    monkeypatch, capsys):
    monkeypatch.setattr(cli, "datetime", FrozenDatetime)
    monkeypatch.chdir(tmp_path)
    shutil.copy(records_csv, "copy.csv")
    Path("table.txt").write_text(TABLE1)
    value = OPTION_VALUES[command][option.dest]
    if command == "simulate":
        base = simulate_args(records_csv, "--out", "sim.json")
    else:
        base = ["stats", "--records", str(records_csv), "--out-dir", "s"]
    out = Path(value if option.dest in ("out", "out_dir") else base[-1])
    if option.nargs == 0:
        flag, line = [option.option_strings[0]], "yes" if value else "no"
    elif isinstance(value, list):
        flag = [arg for token in value for arg in (option.option_strings[0], token)]
        line = ", ".join(value)
    else:
        flag, line = [option.option_strings[0], str(value)], str(value)
    Path("run.cfg").write_text(f"{option.dest} = {line}\n")
    outputs = []
    for argv in (base + flag, base + ["--config", "run.cfg"]):
        assert main(argv) == 0
        files = sorted(out.iterdir()) if out.is_dir() else [out]
        outputs.append((capsys.readouterr().out, {p.name: p.read_bytes() for p in files}))
        shutil.rmtree(out) if out.is_dir() else out.unlink()
    assert outputs[0] == outputs[1]
