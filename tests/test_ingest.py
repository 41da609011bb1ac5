"""Ingestion pipeline: raw CSV -> cleaned rows -> serve records.

The fixture file holds two hand-built matches with known contents: 15
point rows, one bad rallyCount ('2;'), one undecodable notation, and
four points that carry a second serve.
"""
from __future__ import annotations

import csv
import io
import multiprocessing
import os
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from dataclasses import replace
from itertools import product
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from conftest import assert_same_table, sidecar_bytes
from oracles import (
    reference_from_records,
    reference_ingest_files,
    reference_write_records_csv,
)
from ufesim import ingest as ingest_module
from ufesim.errors import CsvFormatError, DuplicatePointError, WorkerDiedError
from ufesim.ingest import (
    IngestReport,
    clean_rows,
    explode_to_serves,
    ingest_files,
    ingest_table,
    parse_match_id,
    parse_points_file,
)
from ufesim.records import (
    RecordTable,
    Role,
    TerminalKind,
    cache_path,
    load_records,
    save_records,
)
from ufesim.sidecar import file_sha256, lookup

FIXTURE = Path(__file__).parent / "data" / "points_sample.csv"
FIRST = "20190705-M-Wimbledon-F-Alpha_One-Beta_Two"  # the fixture's first match
K = TerminalKind

# How ingest_table reads its files when two CPUs are allowed: in process,
# or in two forked workers whenever there are two files or more.
READS = ["in_process", "forked"]


def reading(read: str):
    """Read ingest's files the given way on two CPUs (allow_cpus(2)): no
    input reaches the byte threshold, or every input does."""
    return mock.patch.object(ingest_module, "_MIN_FORK_BYTES", 0 if read == "forked" else 1 << 62)


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
    with pytest.raises(DuplicatePointError) as exc:
        ingest_files([path])
    assert (exc.value.path, exc.value.line) == (str(path), 3)
    assert f"{path}: line 3: duplicate point" in str(exc.value)


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


FIXTURE_REPORT = IngestReport(
    rows_read=15,
    rows_dropped_bad_rally_count=1,
    rows_dropped_bad_notation=1,
    serve_records_emitted=17,
    points_augmented_with_fault_serve=4,
)


def _inputs(tmp_path: Path, name: str) -> tuple[list[Path], IngestReport]:
    """Named sets of input files and the report ingesting them gives."""
    if name == "fixture":
        return [FIXTURE], FIXTURE_REPORT
    header_only = _write(tmp_path / "header_only.csv", HEADER)
    all_dropped = _write(
        tmp_path / "all_dropped.csv",
        HEADER + f"{MATCH},1,0-0,1,4*,,2;\n" + f"{MATCH},2,0-0,1,4Z*,,1\n",
    )
    # One match over two files, each with points of its own; the second
    # file also names the first match.
    other = "20210102-W-Cup-SF-Q_One-Q_Two"
    split_first = _write(
        tmp_path / "split_first.csv",
        HEADER + f"{other},1,0-0,2,4*,,1\n" + f"{MATCH},3,0-0,1,4*,,1\n",
    )
    split_second = _write(
        tmp_path / "split_second.csv",
        HEADER + f"{other},2,0-0,1,6n,4f@,2\n" + f"{MATCH},4,0-0,2,5#,,1\n",
    )
    paths = [header_only, FIXTURE, all_dropped, split_first, split_second]
    report = FIXTURE_REPORT.combined(IngestReport(
        rows_read=6,
        rows_dropped_bad_rally_count=1,
        rows_dropped_bad_notation=1,
        serve_records_emitted=5,
        points_augmented_with_fault_serve=1,
    ))
    return paths, report


def test_ingest_files_totals(tmp_path, allow_cpus):
    for inputs, read in product(["fixture", "many"], READS):
        paths, expected = _inputs(tmp_path, inputs)
        with allow_cpus(2) as forked, reading(read):
            records, report = _same_as_reference(paths)
        assert report == expected
        assert len(records) == expected.serve_records_emitted
        assert len(forked) == (2 if read == "forked" and len(paths) > 1 else 0)


def test_ingest_is_deterministic(tmp_path, allow_cpus):
    for inputs in ["fixture", "many"]:
        paths, _ = _inputs(tmp_path, inputs)
        ingested = []
        for read in READS:
            with allow_cpus(2), reading(read):
                ingested += (ingest_files(paths)[0], ingest_files(paths)[0])
        assert all(records == ingested[0] for records in ingested)


def test_duplicate_across_files_raises(tmp_path, allow_cpus):
    copy = tmp_path / "copy.csv"
    copy.write_text(FIXTURE.read_text(encoding="utf-8"), encoding="utf-8")
    for read in READS:
        with allow_cpus(2), reading(read), pytest.raises(DuplicatePointError) as exc:
            ingest_files([FIXTURE, copy])
        # The copy's first data row repeats the fixture's.
        assert (exc.value.path, exc.value.line) == (str(copy), 2)
        assert (exc.value.match_id, exc.value.point_index) == (FIRST, 1)


@pytest.mark.parametrize("read", READS)
def test_a_repeat_of_an_earlier_file_wins_over_a_later_one_in_the_file(read, tmp_path, allow_cpus):
    first = _write(tmp_path / "first.csv", HEADER + f"{MATCH},5,0-0,1,4*,,1\n")
    second = _write(
        tmp_path / "second.csv",
        HEADER + f"{MATCH},1,0-0,1,4*,,1\n" + f"{MATCH},5,0-0,1,4*,,1\n"
        + f"{MATCH},1,0-0,1,4*,,1\n",
    )
    with allow_cpus(2), reading(read), pytest.raises(DuplicatePointError) as exc:
        ingest_table([first, second])
    assert (exc.value.path, exc.value.line, exc.value.point_index) == (str(second), 3, 5)


def test_a_dead_worker_raises_worker_died(tmp_path, monkeypatch, allow_cpus):
    copy = _write(tmp_path / "copy.csv", HEADER + f"{MATCH},1,0-0,1,4*,,1\n")
    caller = os.getpid()

    def die(paths, i):
        if os.getpid() != caller:
            os._exit(1)
        raise AssertionError("a file was read in process")

    monkeypatch.setattr(ingest_module, "_read_task", die)
    died = "an ingest worker process died"
    with allow_cpus(2), reading("forked"), pytest.raises(WorkerDiedError, match=died):
        ingest_table([FIXTURE, copy])
    assert multiprocessing.active_children() == []


# A match split over files: the later file is read again in process.


def _split_fixture(tmp_path: Path) -> tuple[Path, Path]:
    """The fixture cut into two files after its fifth point, inside its
    first match."""
    header, *rows = FIXTURE.read_text(encoding="utf-8").splitlines(keepends=True)
    return (
        _write(tmp_path / "head.csv", header + "".join(rows[:5])),
        _write(tmp_path / "tail.csv", header + "".join(rows[5:])),
    )


@contextmanager
def parent_reads():
    """Yields the paths _read_part reads in the calling process."""
    caller, read_part, calls = os.getpid(), ingest_module._read_part, []

    def counted(path, seen=None):
        if os.getpid() == caller:
            calls.append(path)
        return read_part(path, seen)

    with mock.patch.object(ingest_module, "_read_part", counted):
        yield calls


@pytest.mark.parametrize("read", READS)
def test_a_match_split_over_files_reads_as_one_file(read, tmp_path, allow_cpus):
    head, tail = _split_fixture(tmp_path)
    other = _write(
        tmp_path / "other.csv", HEADER + f"{MATCH},1,0-0,1,4*,,1\n" + f"{MATCH},2,15-0,2,5n,6*,1\n"
    )
    with allow_cpus(2), reading(read):
        with parent_reads() as unshared:
            whole = ingest_table([FIXTURE, other])
        with parent_reads() as shared:
            split = ingest_table([head, tail, other])
    assert_same_table(split[0], whole[0])
    assert split[1] == whole[1]
    outputs = []
    for name, (table, _) in (("whole", whole), ("split", split)):
        out = tmp_path / f"{name}.csv"
        save_records(table, out)
        outputs.append((out.read_bytes(), cache_path(out).read_bytes()))
    assert outputs[0] == outputs[1]
    if read == "forked":
        # Only the tail shares a match with an earlier file: the head fills
        # its seen, then the tail is read again.
        assert shared == [head, tail]
        assert unshared == []


@pytest.mark.parametrize("read", READS)
def test_a_format_error_after_a_file_read_again_names_its_line(read, tmp_path, allow_cpus):
    head, tail = _split_fixture(tmp_path)
    bad = _write(
        tmp_path / "bad.csv", HEADER + f"{MATCH},1,0-0,1,4*,,1\n" + f"{MATCH},2,0-0,3,4*,,1\n"
    )
    with allow_cpus(2), reading(read), pytest.raises(CsvFormatError, match="Svr") as exc:
        ingest_table([head, tail, bad])
    assert (exc.value.path, exc.value.line) == (str(bad), 3)


@pytest.mark.parametrize("read", READS)
def test_a_repeat_of_a_file_read_again_names_the_repeating_row(read, tmp_path, allow_cpus):
    head, tail = _split_fixture(tmp_path)
    # Point 7 of the first match is in the tail, not the head.
    again = _write(
        tmp_path / "again.csv", HEADER + f"{MATCH},1,0-0,1,4*,,1\n" + f"{FIRST},7,0-0,1,4*,,1\n"
    )
    with allow_cpus(2), reading(read), pytest.raises(DuplicatePointError) as exc:
        ingest_table([head, tail, again])
    assert (exc.value.path, exc.value.line) == (str(again), 3)
    assert (exc.value.match_id, exc.value.point_index) == (FIRST, 7)


@pytest.mark.parametrize("read", READS)
def test_a_repeat_within_a_file_that_shares_no_match_reads_nothing_again(
    read, tmp_path, allow_cpus
):
    dup = _write(
        tmp_path / "dup.csv",
        HEADER + f"{MATCH},1,0-0,1,4*,,1\n" + f"{MATCH},2,15-0,1,4*,,1\n"
        + f"{MATCH},1,0-0,1,4*,,1\n",
    )
    with allow_cpus(2), reading(read), parent_reads() as reads, \
            pytest.raises(DuplicatePointError) as exc:
        ingest_table([FIXTURE, dup])
    assert (exc.value.path, exc.value.line, exc.value.point_index) == (str(dup), 4, 1)
    if read == "forked":
        # No earlier file names the match, so only the file's own read counts.
        assert reads == []


# Input semantics of the streaming pass, each as the staged pipeline had
# them (csv.DictReader's reading of the file).

HEADER = "match_id,Pt,Pts,Svr,1st,2nd,rallyCount\n"
MATCH = "20210101-M-Cup-F-P_One-P_Two"


def _write(path: Path, text: str) -> Path:
    path.write_text(text, encoding="utf-8")
    return path


def _same_as_reference(paths) -> tuple:
    records, report = ingest_files(paths)
    assert (records, report) == reference_ingest_files(paths)
    return records, report


def test_utf8_bom_is_stripped(tmp_path):
    path = _write(tmp_path / "bom.csv", "\ufeff" + HEADER + f"{MATCH},1,0-0,1,4*,,1\n")
    records, report = _same_as_reference([path])
    assert report.rows_read == 1 and records[0].match_id == MATCH


def test_blank_lines_are_skipped(tmp_path):
    path = _write(
        tmp_path / "blank.csv",
        HEADER + "\n" + f"{MATCH},1,0-0,1,4*,,1\n" + "\n\n" + f"{MATCH},2,15-0,1,4*,,1\n\n",
    )
    _, report = _same_as_reference([path])
    assert report.rows_read == 2
    # A ragged row after blank lines is reported at its own line.
    bad = _write(tmp_path / "bad.csv", HEADER + "\n\n" + f"{MATCH},1,0-0\n")
    with pytest.raises(CsvFormatError) as exc:
        ingest_table([bad])
    assert (exc.value.path, exc.value.line) == (str(bad), 4)


def test_row_with_more_fields_than_the_header(tmp_path):
    path = _write(
        tmp_path / "long.csv", HEADER + f"{MATCH},1,0-0,1,4*,,1\n" + f"{MATCH},2,15-0,1,4*,,1,x\n"
    )
    with pytest.raises(CsvFormatError, match="wrong number of fields") as exc:
        ingest_table([path])
    assert (exc.value.path, exc.value.line) == (str(path), 3)


def test_short_row_fails_only_without_a_required_column(tmp_path):
    # Notes is optional: a row may end before it.
    header = "match_id,Pt,Svr,1st,2nd,rallyCount,Notes\n"
    ok = _write(tmp_path / "ok.csv", header + f"{MATCH},1,1,4*,,1\n" + f"{MATCH},2,1,4*,,1,n\n")
    _, report = _same_as_reference([ok])
    assert report.serve_records_emitted == 2
    short = _write(tmp_path / "short.csv", header + f"{MATCH},1,1,4*,\n")
    with pytest.raises(CsvFormatError, match="wrong number of fields") as exc:
        ingest_table([short])
    assert (exc.value.path, exc.value.line) == (str(short), 2)


def test_repeated_header_name_takes_the_last_column(tmp_path):
    path = _write(
        tmp_path / "twice.csv",
        "Pt,match_id,Pt,Svr,1st,2nd,rallyCount\n" + f"junk,{MATCH},7,2,4*,,1\n",
    )
    records, _ = _same_as_reference([path])
    assert records[0].server_id == "P Two"
    with pytest.raises(DuplicatePointError) as exc:
        ingest_table([path, _write(tmp_path / "again.csv", HEADER + f"{MATCH},7,0-0,1,4*,,1\n")])
    assert exc.value.point_index == 7


def test_structural_error_in_a_file_wins_over_its_duplicate(tmp_path, allow_cpus):
    path = _write(
        tmp_path / "both.csv",
        HEADER + f"{MATCH},1,0-0,1,4*,,1\n" + f"{MATCH},1,0-0,1,4*,,1\n" + f"{MATCH},3,0-0,9,4*,,1\n",
    )
    # Alone, and after a file of other matches.
    for before, read in product([[], [FIXTURE]], READS):
        with allow_cpus(2), reading(read), pytest.raises(CsvFormatError, match="Svr") as exc:
            ingest_table([*before, path])
        assert (exc.value.path, exc.value.line) == (str(path), 4)


def test_duplicate_in_a_file_wins_over_the_next_file(tmp_path, allow_cpus):
    dup = _write(tmp_path / "dup.csv", HEADER + f"{MATCH},1,0-0,1,4*,,1\n" * 2)
    broken = _write(tmp_path / "broken.csv", "no,header,here\n")
    for read in READS:
        with allow_cpus(2), reading(read), pytest.raises(DuplicatePointError) as exc:
            ingest_table([dup, broken, tmp_path / "missing.csv"])
        assert (exc.value.path, exc.value.line) == (str(dup), 3)


def test_same_player_on_both_sides_is_a_format_error_at_its_line(tmp_path):
    same = "20210101-M-Cup-F-P_One-P_One"
    with pytest.raises(ValueError, match="names 'P One' on both sides"):
        parse_match_id(same)
    # The row is rejected as it is read: before the file's duplicates,
    # and even when its rally count would have dropped it.
    for name, rows in (
        ("same.csv", f"{MATCH},1,0-0,1,4*,,1\n{same},1,0-0,1,4*,,1\n"),
        ("dup.csv", f"{MATCH},1,0-0,1,4*,,1\n{same},1,0-0,1,4*,,x\n"
                    f"{MATCH},1,0-0,1,4*,,1\n"),
    ):
        path = _write(tmp_path / name, HEADER + rows)
        with pytest.raises(CsvFormatError, match="on both sides") as exc:
            ingest_table([path])
        assert (exc.value.path, exc.value.line) == (str(path), 3)
        with pytest.raises(CsvFormatError) as reference:
            reference_ingest_files([path])
        assert str(reference.value) == str(exc.value)


def test_a_date_int_cannot_read_is_an_unknown_year(tmp_path):
    # '²' is a digit to str.isdigit but int() cannot read it; Arabic-Indic
    # digits are decimals, and int() reads them.
    superscript = "²²²²0101-M-X-F-A_B-C_D"
    assert parse_match_id(superscript).year is None
    assert parse_match_id("٢٠١٩0101-M-X-F-A_B-C_D").year == 2019
    path = _write(tmp_path / "years.csv", HEADER + f"{superscript},1,0-0,1,4*,,1\n")
    table, report = ingest_table([path])
    assert report.serve_records_emitted == 1
    (record,) = table.to_records()
    assert (record.year, record.tour, record.server_id) == (None, "ATP", "A B")
    out = tmp_path / "records.csv"
    save_records(table, out)
    assert out.read_text(encoding="utf-8").splitlines()[1].endswith(",,ATP")


def test_oversized_field_is_a_format_error(tmp_path):
    path = _write(tmp_path / "huge.csv", HEADER + f'{MATCH},1,"{"x" * 200_000}",1,4*,,1\n')
    with pytest.raises(CsvFormatError, match="field limit") as exc:
        ingest_table([path])
    assert exc.value.path == str(path)


# Random multi-file corpora against the staged pipeline.

PLAYERS = ["Ann_Ace", "Bob", "Zoë_Ångström", "李_娜", "Cy, Jr", 'Di "D"', "O'Neil"]
NOTATIONS = [
    "4*", "5#", "6n", "0w", "c4*", "cc5n", "4+f1*", "6f2b3@", "5b1f2n@", "4f1b2#", "4f1*",
    "5d", "4x", "6g", "4!", "@", "4@", "", "c", "9*", "4f", "4*x", "4nf", "6f2Zb*",
]
RALLY_COUNTS = ["1", "12", " 3 ", "0", "2;", "", "x", "1.5", "٣"]


@st.composite
def match_ids(draw):
    date = draw(st.sampled_from(["20190705", "19990101", "2020", "x2019", "٢٠١٩0101"]))
    gender = draw(st.sampled_from(["M", "W", "X"]))
    a, b = draw(st.sampled_from(PLAYERS)), draw(st.sampled_from(PLAYERS))
    match_id = f"{date}-{gender}-Cup-F-{a}-{b}"
    if _rarely(draw, 60):
        match_id = draw(
            st.sampled_from(["a-b-c", f"{date}-M-Cup-F--{b}", f"²019-M-Cup-F-{a}-{b}"])
        )
    return match_id


def _rarely(draw, one_in: int) -> bool:
    # Hypothesis favours the ends of a range and shrinks towards its start.
    return draw(st.integers(0, one_in - 1)) == one_in // 2


@st.composite
def point_files(draw, ids: list[str], top_point: int):
    """A charting CSV's bytes: shuffled, repeated and extra columns, blank
    lines and, rarely, ragged rows, bad fields, a BOM or a byte that is
    not UTF-8."""
    columns = ["match_id", "Pt", "Svr", "1st", "2nd", "rallyCount"]
    columns += draw(st.lists(st.sampled_from(["Pts", "Notes", "Pt", "Svr"]), max_size=2))
    columns = draw(st.permutations(columns))
    last = {name: i for i, name in enumerate(columns)}
    values = dict.fromkeys(columns, "junk")
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(columns)
    for _ in range(draw(st.integers(0, 12))):
        point = draw(st.integers(1, top_point))
        values |= {
            "match_id": draw(st.sampled_from(ids)),
            "Pt": draw(st.sampled_from([str(point), f" {point} ", f"+{point}"])),
            "Svr": draw(st.sampled_from(["1", "2", " 2 "])),
            "1st": draw(st.sampled_from(NOTATIONS)),
            "2nd": draw(st.just("") | st.sampled_from(NOTATIONS)),
            "rallyCount": draw(st.sampled_from(RALLY_COUNTS)),
        }
        if _rarely(draw, 150):
            values["Pt"] = "x"
        if _rarely(draw, 150):
            values["Svr"] = "3"
        # A repeated column takes junk except where it is last.
        row = [values[name] if last[name] == i else "junk" for i, name in enumerate(columns)]
        if _rarely(draw, 150):
            row = row[: draw(st.integers(0, len(row) - 1))]
        elif _rarely(draw, 150):
            row.append("extra")
        if _rarely(draw, 6):
            buffer.write("\r\n" if draw(st.booleans()) else "\n")
        writer.writerow(row)
    data = buffer.getvalue().encode("utf-8")
    if _rarely(draw, 10):
        data = b"\xef\xbb\xbf" + data
    if _rarely(draw, 60):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


@st.composite
def corpora(draw):
    """One to three files over a shared pool of match ids; a small point
    range makes duplicates within and across files likely."""
    ids = draw(st.lists(match_ids(), min_size=1, max_size=4))
    top_point = draw(st.sampled_from([4, 40, 10_000]))
    return draw(st.lists(point_files(ids, top_point), min_size=1, max_size=3))


def _raised(fn, *args):
    try:
        return fn(*args), None
    except (CsvFormatError, DuplicatePointError, ValueError) as exc:
        return None, exc


def _first_duplicate(paths) -> tuple[str, int]:
    """(path, line) of the first row repeating an earlier point, read
    with csv.DictReader."""
    seen = set()
    for path in paths:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.DictReader(fh)
            for raw in reader:
                key = (raw["match_id"].strip(), int(raw["Pt"]))
                if key in seen:
                    return str(path), reader.line_num
                seen.add(key)
    raise AssertionError("no duplicate")


@settings(max_examples=300, deadline=None)
@given(files=corpora(), read=st.sampled_from(READS))
def test_streaming_pass_matches_the_staged_pipeline(files, read, allow_cpus):
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, data in enumerate(files):
            paths.append(Path(tmp) / f"points_{i}.csv")
            paths[-1].write_bytes(data)
        expected, expected_exc = _raised(reference_ingest_files, paths)
        with allow_cpus(2) as forked, reading(read):
            got, exc = _raised(ingest_table, paths)
        assert len(forked) == (2 if read == "forked" and len(paths) > 1 else 0)
        event("ingested" if expected_exc is None else type(expected_exc).__name__)
        if expected_exc is not None:
            assert type(exc) is type(expected_exc)
            if isinstance(exc, DuplicatePointError):
                assert (exc.match_id, exc.point_index) == (
                    expected_exc.match_id, expected_exc.point_index
                )
                assert (exc.path, exc.line) == _first_duplicate(paths)
            else:
                assert str(exc) == str(expected_exc)
                if isinstance(exc, CsvFormatError):
                    assert (exc.path, exc.line) == (expected_exc.path, expected_exc.line)
            return
        assert exc is None
        (records, report), (table, got_report) = expected, got
        assert got_report == report
        assert table.to_records() == records
        # The staged functions, file by file, give the same records and counts.
        staged, staged_report = [], IngestReport()
        for path in paths:
            kept, clean_report = clean_rows(parse_points_file(path))
            emitted, explode_report = explode_to_serves(kept)
            assert explode_report.rows_read == len(kept)
            staged += emitted
            staged_report = staged_report.combined(clean_report).combined(
                replace(explode_report, rows_read=0)
            )
        assert staged == records and staged_report == report
        assert_same_table(table, RecordTable.from_records(records))
        out, want = Path(tmp) / "records.csv", Path(tmp) / "reference.csv"
        save_records(table, out)
        reference_write_records_csv(records, want)
        assert out.read_bytes() == want.read_bytes()


@settings(max_examples=150, deadline=None)
@given(files=corpora())
def test_every_builder_matches_the_reference_from_records(files):
    # from_records and load_records (a cache miss's read) build through a
    # TableBuilder, and ingest_table through RecordTable.from_points; each
    # must give the columns, string tables and sidecar of the
    # column-by-column reference, as must a cache miss.
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, data in enumerate(files):
            paths.append(Path(tmp) / f"points_{i}.csv")
            paths[-1].write_bytes(data)
        ingested, exc = _raised(reference_ingest_files, paths)
        event("ingested" if exc is None else "refused")
        if exc is not None:
            return
        records = ingested[0]
        csv_path = Path(tmp) / "records.csv"
        reference_write_records_csv(records, csv_path)
        sha256 = file_sha256(csv_path)
        expected = reference_from_records(records)
        want = sidecar_bytes(expected, sha256)
        assert lookup(csv_path, "header")[1] == sha256
        assert cache_path(csv_path).read_bytes() == want
        missed, missed_sha = load_records(csv_path)
        assert missed_sha == sha256
        built = {
            "from_records": RecordTable.from_records(records),
            "ingest_table": ingest_table(paths)[0],
            "load_records": missed,
        }
        for name, table in built.items():
            assert_same_table(table, expected)
            saved = Path(tmp) / f"{name}.csv"
            assert save_records(table, saved) == sha256, name
            assert cache_path(saved).read_bytes() == want, name


# Ingests the files named by argv[2:] in a fresh interpreter, on the
# first argv[1] allowed CPUs and with no byte threshold; prints whether
# multiprocessing and the fork helper were imported.
CHILD_SCRIPT = """
import os, sys
from ufesim import ingest

cpus = int(sys.argv[1])
os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:cpus])
ingest._MIN_FORK_BYTES = 0
ingest.ingest_table(sys.argv[2:])
print("multiprocessing" in sys.modules, "ufesim.forking" in sys.modules)
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity masks")
@pytest.mark.parametrize(
    "inputs, cpus, imported",
    [("fixture", 2, "False True"), ("many", 1, "False True"), ("many", 2, "True True")],
    ids=["one-file", "one-cpu", "forked"],
)
def test_what_each_way_of_reading_imports(inputs, cpus, imported, tmp_path):
    if len(os.sched_getaffinity(0)) < cpus:
        pytest.skip(f"needs {cpus} CPUs")
    paths, _ = _inputs(tmp_path, inputs)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD_SCRIPT, str(cpus), *map(str, paths)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == imported
