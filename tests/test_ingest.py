"""Ingestion pipeline: raw CSV -> cleaned rows -> serve records.

The fixture file holds two hand-built matches with known contents: 15
point rows, one bad rallyCount ('2;'), one undecodable notation, and
four points that carry a second serve.
"""
from __future__ import annotations

import csv
from pathlib import Path

import pytest

from ufesim.errors import CsvFormatError, DuplicatePointError
from ufesim.ingest import (
    IngestReport,
    clean_rows,
    explode_to_serves,
    ingest_files,
    parse_match_id,
    parse_points_file,
)
from ufesim.records import Role, TerminalKind

FIXTURE = Path(__file__).parent / "data" / "points_sample.csv"
K = TerminalKind


def test_fixture_row_count_matches_plain_csv_read():
    # Independent count with the stdlib csv module, no ingest code.
    with open(FIXTURE, newline="", encoding="utf-8") as fh:
        expected = sum(1 for _ in csv.reader(fh)) - 1
    assert len(parse_points_file(FIXTURE)) == expected == 15


def test_parse_match_id_fields():
    meta = parse_match_id("20190705-M-Wimbledon-F-Alpha_One-Beta_Two")
    assert meta.year == 2019
    assert meta.tour == "ATP"
    assert meta.player1 == "Alpha One"
    assert meta.player2 == "Beta Two"
    wta = parse_match_id("20200301-W-Doha-SF-Gamma_Three-Delta_Four")
    assert wta.tour == "WTA" and wta.year == 2020


def test_parse_match_id_rejects_malformed():
    with pytest.raises(ValueError):
        parse_match_id("just-three-parts")


def test_rows_carry_server_and_context():
    rows = parse_points_file(FIXTURE)
    row3 = rows[2]
    assert row3.server_id == "Beta Two"
    assert row3.receiver_id == "Alpha One"
    assert row3.rally_count == "4"
    assert row3.second_serve_notation == ""


def test_three_row_file_is_identity_passthrough(tmp_path):
    path = tmp_path / "small.csv"
    path.write_text(
        "match_id,Pt,Pts,Svr,1st,2nd,rallyCount\n"
        "20210101-M-Cup-F-P_One-P_Two,1,0-0,1,4*,,1\n"
        "20210101-M-Cup-F-P_One-P_Two,2,15-0,2,6#,,1\n"
        "20210101-M-Cup-F-P_One-P_Two,3,15-15,1,5n,5*,1\n",
        encoding="utf-8",
    )
    assert len(parse_points_file(path)) == 3


def test_missing_column_error_names_it(tmp_path):
    path = tmp_path / "nocol.csv"
    path.write_text("match_id,Pt,Pts,Svr,1st,2nd\nx,1,0-0,1,4*,\n", encoding="utf-8")
    with pytest.raises(CsvFormatError) as exc:
        parse_points_file(path)
    assert "rallyCount" in str(exc.value)


def test_ragged_row_reports_line(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text(
        "match_id,Pt,Pts,Svr,1st,2nd,rallyCount\n"
        "20210101-M-Cup-F-P_One-P_Two,1,0-0,1,4*,,1\n"
        "20210101-M-Cup-F-P_One-P_Two,2,15-0\n",
        encoding="utf-8",
    )
    with pytest.raises(CsvFormatError) as exc:
        parse_points_file(path)
    assert "line 3" in str(exc.value)


def test_bad_server_indicator_rejected(tmp_path):
    path = tmp_path / "badsvr.csv"
    path.write_text(
        "match_id,Pt,Pts,Svr,1st,2nd,rallyCount\n"
        "20210101-M-Cup-F-P_One-P_Two,1,0-0,3,4*,,1\n",
        encoding="utf-8",
    )
    with pytest.raises(CsvFormatError):
        parse_points_file(path)


def test_duplicate_point_within_file_raises(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text(
        "match_id,Pt,Pts,Svr,1st,2nd,rallyCount\n"
        "20210101-M-Cup-F-P_One-P_Two,1,0-0,1,4*,,1\n"
        "20210101-M-Cup-F-P_One-P_Two,1,15-0,2,6#,,1\n",
        encoding="utf-8",
    )
    with pytest.raises(DuplicatePointError):
        ingest_files([path])


def test_clean_rows_drops_bad_rally_counts():
    rows = parse_points_file(FIXTURE)
    kept, report = clean_rows(rows)
    assert report.rows_read == 15
    assert report.rows_dropped_bad_rally_count == 1
    assert len(kept) == 14
    assert not any(row.rally_count == "2;" for row in kept)


def test_clean_rows_empty_input():
    kept, report = clean_rows([])
    assert kept == []
    assert report == IngestReport(rows_read=0)


def test_explode_counts_and_augmentation():
    kept, _ = clean_rows(parse_points_file(FIXTURE))
    records, report = explode_to_serves(kept)
    assert report.rows_read == 14
    assert report.rows_dropped_bad_notation == 1
    assert report.points_augmented_with_fault_serve == 4
    assert report.serve_records_emitted == 17
    assert len(records) == 17
    # Conservation: every surviving row contributes 1 + [second serve].
    survivors = [r for r in kept if r.first_serve_notation != "4f2Z*"]
    expected = sum(1 + (1 if r.second_serve_notation else 0) for r in survivors)
    assert report.serve_records_emitted == expected
    # Here four augmentations outweigh the one dropped row.
    assert report.serve_records_emitted >= report.rows_read


def test_explode_decodes_known_rows():
    kept, _ = clean_rows(parse_points_file(FIXTURE))
    records, _ = explode_to_serves(kept)

    ace = records[0]
    assert ace.terminal_kind is K.ACE
    assert ace.server_id == "Alpha One" and ace.point_winner is Role.SERVER
    assert ace.year == 2019 and ace.tour == "ATP"

    fault, second = records[1], records[2]
    assert fault.is_first_serve_fault and fault.serve_number == 1
    assert fault.point_winner is None
    assert second.serve_number == 2
    assert second.terminal_kind is K.RALLY_WINNER and second.terminal_touch == 3

    receiver_ufe = records[3]
    assert receiver_ufe.terminal_kind is K.UNFORCED_ERROR
    assert receiver_ufe.terminal_touch == 4
    assert receiver_ufe.error_committer is Role.RECEIVER
    assert receiver_ufe.server_id == "Beta Two"

    df = records[5]
    assert df.terminal_kind is K.DOUBLE_FAULT and df.serve_number == 2
    assert df.point_winner is Role.RECEIVER

    server_ufe = records[12]
    assert server_ufe.terminal_kind is K.UNFORCED_ERROR
    assert server_ufe.terminal_touch == 3
    assert server_ufe.error_committer is Role.SERVER

    wta_ace = records[13]
    assert wta_ace.tour == "WTA" and wta_ace.year == 2020


def test_parity_invariant_over_exploded_corpus():
    records, _ = ingest_files([FIXTURE])
    for rec in records:
        if rec.error_committer is None:
            continue
        assert (rec.error_committer is Role.SERVER) == (rec.terminal_touch % 2 == 1)
        assert rec.terminal_kind in (K.FORCED_ERROR, K.UNFORCED_ERROR)
    assert not any(
        r.terminal_kind is K.UNFORCED_ERROR and r.terminal_touch == 1 for r in records
    )


def test_ingest_files_totals():
    records, report = ingest_files([FIXTURE])
    assert report == IngestReport(
        rows_read=15,
        rows_dropped_bad_rally_count=1,
        rows_dropped_bad_notation=1,
        serve_records_emitted=17,
        points_augmented_with_fault_serve=4,
    )
    assert len(records) == 17


def test_ingest_is_deterministic():
    first, _ = ingest_files([FIXTURE])
    second, _ = ingest_files([FIXTURE])
    assert first == second


def test_duplicate_across_files_raises(tmp_path):
    copy = tmp_path / "copy.csv"
    copy.write_text(FIXTURE.read_text(encoding="utf-8"), encoding="utf-8")
    with pytest.raises(DuplicatePointError):
        ingest_files([FIXTURE, copy])
