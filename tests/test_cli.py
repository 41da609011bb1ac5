"""End-to-end command tests driven through main()."""
from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import make_record
from ufesim import cli
from ufesim.cli import DATA_DIR_ENV, main
from ufesim.records import Role, TerminalKind, read_records_csv, write_records_csv

FIXTURE = Path(__file__).parent / "data" / "points_sample.csv"
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


class CountingList(list):
    """A list that counts how often it is iterated."""

    iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


def test_stats_iterates_records_once(records_csv, tmp_path, monkeypatch, capsys):
    read = []

    def read_counting(path):
        read.append(CountingList(read_records_csv(path)))
        return read[-1]

    monkeypatch.setattr(cli, "read_records_csv", read_counting)
    code = main(
        ["stats", "--records", str(records_csv), "--out-dir", str(tmp_path / "s"), "--svg"]
    )
    assert code == 0
    assert [records.iterations for records in read] == [1]


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

    monkeypatch.setattr(cli, "compare_scenarios", must_not_run)
    code = main(simulate_args(records_csv, "--out", str(tmp_path)))
    assert code == 3
    assert str(tmp_path) in capsys.readouterr().err


def test_simulate_endless_match_is_data_error(tmp_path, capsys):
    mid = "20190101-M-Testopen-F-Alpha_One-Beta_Two"
    records = [
        make_record(server, receiver, K.ACE, 1, S, serve_number=n, match_id=mid)
        for server, receiver in (("Alpha One", "Beta Two"), ("Beta Two", "Alpha One"))
        for n in (1, 2)
    ]
    path = tmp_path / "aces.csv"
    write_records_csv(records, path)
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
    table.write_text(
        "2 0.53\n3 0.60\n4 0.55\n5 0.59\n6 0.56\n7 0.58\n8 0.57\n9 0.575\n10 0.57\n"
    )
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


def test_non_utf8_table_is_data_error_naming_the_file(records_csv, tmp_path, capsys):
    table = tmp_path / "table.txt"
    table.write_bytes(b"2 0.535 \xd6\n")
    assert main(simulate_args(records_csv, "--table1", str(table))) == 3
    err = capsys.readouterr().err
    assert str(table) in err
    assert "UTF-8" in err


@pytest.mark.parametrize("command", ["simulate", "stats"])
def test_non_utf8_config_is_usage_error_naming_the_file(command, records_csv, tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(b"seed = 7 # \xd6\n")
    if command == "simulate":
        argv = simulate_args(records_csv, "--config", str(cfg))
    else:
        argv = ["stats", "--records", str(records_csv), "--out-dir", str(tmp_path / "s"),
                "--config", str(cfg)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert str(cfg) in err
    assert "UTF-8" in err
