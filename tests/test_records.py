"""ServeRecord invariants and CSV round trips."""
from __future__ import annotations

import csv

import pytest

from conftest import make_record
from ufesim.cli import main
from ufesim.errors import CsvFormatError
from ufesim.records import (
    Role,
    ServeRecord,
    TerminalKind,
    cache_path,
    load_records,
    read_records_csv,
    write_records_csv,
)

K = TerminalKind


def test_valid_record_constructs():
    rec = make_record(kind=K.UNFORCED_ERROR, touch=4, winner=Role.SERVER, committer=Role.RECEIVER)
    assert rec.terminal_kind is K.UNFORCED_ERROR


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(serve_number=3),
        dict(touch=0),
        dict(kind=K.FIRST_SERVE_FAULT, fault=True, winner=Role.SERVER),
        dict(kind=K.ACE, fault=True, winner=None),
        dict(kind=K.FIRST_SERVE_FAULT, fault=True, winner=None, serve_number=2),
        dict(kind=K.ACE, winner=Role.SERVER, committer=Role.SERVER),
        dict(kind=K.UNFORCED_ERROR, touch=3, winner=Role.SERVER, committer=Role.SERVER),
        dict(kind=K.UNFORCED_ERROR, touch=2, winner=Role.RECEIVER, committer=Role.RECEIVER),
        dict(kind=K.UNFORCED_ERROR, touch=3, winner=Role.RECEIVER, committer=None),
        dict(kind=K.UNFORCED_ERROR, touch=1, winner=Role.RECEIVER, committer=Role.SERVER),
        dict(kind=K.FORCED_ERROR, touch=2, winner=Role.SERVER, committer=Role.SERVER),
        dict(kind=K.DOUBLE_FAULT, touch=1, winner=Role.RECEIVER, serve_number=1),
        dict(kind=K.DOUBLE_FAULT, touch=1, winner=Role.SERVER, serve_number=2),
    ],
)
def test_invalid_records_rejected(kwargs):
    with pytest.raises(ValueError):
        make_record(**kwargs)


def test_server_must_differ_from_receiver():
    with pytest.raises(ValueError):
        make_record(server="Same Name", receiver="Same Name")


def test_csv_round_trip(tmp_path, two_player_records):
    path = tmp_path / "records.csv"
    write_records_csv(two_player_records, path)
    assert read_records_csv(path) == two_player_records


def test_csv_round_trip_preserves_missing_year(tmp_path):
    rec = make_record(year=None, tour=None)
    path = tmp_path / "records.csv"
    write_records_csv([rec], path)
    back = read_records_csv(path)
    assert back == [rec]
    assert back[0].year is None and back[0].tour is None


def test_read_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("nope,columns\n1,2\n", encoding="utf-8")
    with pytest.raises(CsvFormatError):
        read_records_csv(path)


# (field index, value) that make the second data row of an ace, served
# by Ann Ace to Bob Base, an invalid record.
BAD_FIELDS = {
    "serve-number-9": (3, "9"),
    "year-negative": (9, "-1"),
    "touch-too-wide": (5, "2147483648"),
    "serve-number-too-wide": (3, "300"),
    "unknown-kind": (6, "smash"),
    "unknown-role": (7, "left"),
    "fault-flag-disagrees": (4, "true"),
    "server-is-receiver": (2, "Ann Ace"),
}


def _write_bad_row(path, bad: str, crlf_name: bool) -> int:
    """Write two aces, the second broken as BAD_FIELDS[bad] says; returns
    its line.  A quoted CRLF in the first row's server name moves it a
    line down."""
    first = make_record(server="line\r\nbreak", match_id="m1") if crlf_name else make_record()
    write_records_csv([first, make_record()], path)
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    index, value = BAD_FIELDS[bad]
    rows[2][index] = value
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    return 4 if crlf_name else 3


def _error_location(read, path) -> tuple[str, int] | None:
    """(path, line) of the CsvFormatError that read(path) raises; None
    if it raises none."""
    try:
        read(path)
    except CsvFormatError as exc:
        return exc.path, exc.line
    return None


def test_read_reports_line_numbers(tmp_path, capsys):
    # Every bad row, also after a quoted CRLF; one comparison names each
    # case that fails.
    got, want = {}, {}
    for bad in sorted(BAD_FIELDS):
        for crlf_name in (False, True):
            path = tmp_path / f"{bad}-{'crlf' if crlf_name else 'plain'}.csv"
            line = _write_bad_row(path, bad, crlf_name)
            code = main(["list-players", "--records", str(path)])
            got[path.name] = (
                _error_location(read_records_csv, path),
                _error_location(load_records, path),
                cache_path(path).exists(),
                code,
                f"{path}: line {line}: " in capsys.readouterr().err,
            )
            want[path.name] = ((str(path), line), (str(path), line), False, 3, True)
    assert got == want


def test_a_bad_csv_names_its_first_bad_row(tmp_path):
    # The later row breaks a check that runs first on the columns.
    path = tmp_path / "records.csv"
    write_records_csv([make_record()] * 3, path)
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    rows[2][2] = rows[2][1]  # server is receiver
    rows[3][3] = "9"  # serve number
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    for read in (read_records_csv, load_records):
        with pytest.raises(CsvFormatError) as exc:
            read(path)
        assert exc.value.line == 3


def test_parsing_same_file_twice_is_identical(tmp_path, two_player_records):
    path = tmp_path / "records.csv"
    write_records_csv(two_player_records, path)
    assert read_records_csv(path) == read_records_csv(path)
