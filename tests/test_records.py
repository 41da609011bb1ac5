"""ServeRecord invariants and CSV round trips."""
from __future__ import annotations

import csv
import os
import stat
import threading
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from conftest import make_record
from ufesim.cli import main
from ufesim import records as records_module
from ufesim.errors import CsvFormatError
from ufesim.records import (
    KINDS,
    MAX_TERMINAL_TOUCH,
    ROLES,
    RecordTable,
    Role,
    ServeRecord,
    TerminalKind,
    cache_path,
    load_records,
    read_records_csv,
    save_records,
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


@pytest.mark.parametrize(
    "field, kwargs",
    [
        ("terminal_kind", dict(kind="ace", winner="server")),
        ("point_winner", dict(winner="server")),
        ("error_committer", dict(kind=K.UNFORCED_ERROR, touch=2, committer="receiver")),
    ],
)
def test_kind_and_roles_must_be_enum_members(field, kwargs):
    with pytest.raises(ValueError, match=f"^{field} must be a "):
        make_record(**kwargs)


@pytest.mark.parametrize(
    "field, kwargs",
    [
        ("serve_number", dict(serve_number=1.0)),
        ("serve_number", dict(serve_number=True)),
        ("serve_number", dict(serve_number=None)),
        ("terminal_touch", dict(kind=K.UNFORCED_ERROR, touch=4.0, committer=Role.RECEIVER)),
        ("terminal_touch", dict(touch=True)),
        ("year", dict(year=2019.0, match_id="20190101-M-X-F-A-B")),
        ("year", dict(year=np.float64(2019), match_id="20190101-M-X-F-A-B")),
    ],
)
def test_count_fields_must_be_ints(field, kwargs):
    with pytest.raises(ValueError, match=f"^{field} must be an int, got "):
        make_record(**kwargs)


def test_numpy_integers_count_as_ints():
    rec = make_record(
        kind=K.UNFORCED_ERROR, touch=np.int32(4), committer=Role.RECEIVER,
        serve_number=np.int8(2), year=np.int16(2019),
    )
    assert RecordTable.from_records([rec]).to_records() == [rec]
    assert make_record(year=None).year is None


# ServeRecord and a one-row RecordTable agree on every combination of codes.

RULE_MESSAGES = [message for message, _ in records_module._record_rules(1, 1, 0, 0, -1)]


def _one_row_table(serve, touch, kind, winner, committer, year=2019, same_player=False):
    """The table of one row of these codes, served by Ann to Bob (or to
    Ann); its error message, or None if it is valid."""
    def column(value, dtype):
        return np.array([value], dtype=dtype)
    try:
        RecordTable(
            match=column(0, np.int32), server=column(0, np.int32),
            receiver=column(0 if same_player else 1, np.int32),
            serve_number=column(serve, np.int8), touch=column(touch, np.int32),
            kind=column(kind, np.int8), winner=column(winner, np.int8),
            committer=column(committer, np.int8), year=column(year, np.int16),
            tour=column(0, np.int32),
            matches=("m",), players=("Ann",) if same_player else ("Ann", "Bob"), tours=("ATP",),
        )
    except ValueError as exc:
        return getattr(exc, "reason", str(exc))
    return None


def _record_of_codes(serve, touch, kind, winner, committer, year=2019, same_player=False):
    """The ServeRecord of the same codes, a code out of its domain passed
    as the bare int; its error message, or None if it is valid."""
    def role(code):
        return None if code == -1 else ROLES[code] if code in (0, 1) else code
    try:
        make_record(
            serve_number=serve, touch=touch,
            kind=KINDS[kind] if 0 <= kind < len(KINDS) else kind,
            fault=kind == KINDS.index(K.FIRST_SERVE_FAULT),
            winner=role(winner), committer=role(committer), year=year,
            receiver="Ann Ace" if same_player else "Bob Base",
        )
    except ValueError as exc:
        return str(exc)
    return None


def test_record_and_table_agree_on_every_code_combination():
    # Every rule a table reports, ServeRecord reports in the same words.
    disagree, rules_seen = {}, set()
    touches = [0, 1, 2, 3, 4, 5, MAX_TERMINAL_TOUCH]
    kinds = range(-1, len(KINDS) + 1)
    for codes in product(range(4), touches, kinds, range(-2, 3), range(-2, 3)):
        table, record = _one_row_table(*codes), _record_of_codes(*codes)
        if table in RULE_MESSAGES:
            rules_seen.add(table)
        if (table is None) != (record is None) or (table in RULE_MESSAGES and record != table):
            disagree[codes] = (table, record)
    assert disagree == {}
    assert rules_seen == set(RULE_MESSAGES)
    # Year and players, on a valid ace and on a double fault on the first serve.
    for codes, year, same_player in product([(1, 1, 0, 0, -1), (1, 1, 5, 1, -1)],
                                            [-2, -1, 0, 2019, 9999, 10000], [False, True]):
        table = _one_row_table(*codes, year, same_player)
        record = _record_of_codes(*codes, year, same_player)
        if year == -1 and table is None:
            # -1 is the table's code for a missing year.
            assert record is not None and _record_of_codes(*codes, None, same_player) is None
        else:
            assert (table is None) == (record is None), (codes, year, same_player)


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


def _ingest(table, path):
    """cmd_ingest of the points fixture, which the table stands in for."""
    fixture = Path(__file__).parent / "data" / "points_sample.csv"
    main(["ingest", str(fixture), "-o", str(path)])


@pytest.mark.parametrize("write", [write_records_csv, save_records, _ingest])
def test_an_interrupted_write_leaves_the_output_as_it_was(write, tmp_path, monkeypatch, capsys):
    path = tmp_path / "records.csv"
    path.write_bytes(b"an earlier CSV\r\n")
    cache_path(path).write_bytes(b"an earlier sidecar")
    table = RecordTable.from_records([make_record(match_id=f"m{i}") for i in range(10)])
    monkeypatch.setattr(records_module, "_CHUNK", 2)
    put, lines = records_module.RecordsWriter._put, []

    def interrupted(self, text):
        lines.append(text)
        if len(lines) == 3:  # the header and two chunks are written
            raise KeyboardInterrupt
        put(self, text)

    monkeypatch.setattr(records_module.RecordsWriter, "_put", interrupted)
    with pytest.raises(KeyboardInterrupt):
        write(table, path)
    assert path.read_bytes() == b"an earlier CSV\r\n"
    assert cache_path(path).read_bytes() == b"an earlier sidecar"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["records.csv", cache_path(path).name]


@pytest.mark.parametrize("existing", [None, 0o640])
def test_the_output_gets_the_mode_open_would_give_it(existing, tmp_path):
    path = tmp_path / "records.csv"
    if existing is not None:
        path.write_bytes(b"")
        path.chmod(existing)
    umask = os.umask(0o022)
    try:
        write_records_csv([make_record()], path)
    finally:
        os.umask(umask)
    assert stat.S_IMODE(path.stat().st_mode) == (0o644 if existing is None else existing)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_a_pipe_is_written_in_place(tmp_path):
    fifo = tmp_path / "records.fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    try:
        write_records_csv([make_record()], fifo)
    finally:
        reader.join(timeout=60)
    assert not reader.is_alive()
    want = tmp_path / "want.csv"
    write_records_csv([make_record()], want)
    assert received == [want.read_bytes()]
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["records.fifo", "want.csv"]
