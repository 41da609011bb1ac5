"""RecordTable columns, the records cache and the consumers that read them."""
from __future__ import annotations

import csv
import io
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import fields
from itertools import accumulate
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import assert_same_table, make_record, serve_mix, sidecar_bytes
from oracles import (
    reference_build_pools,
    reference_from_records,
    reference_matches_per_player,
    reference_point_code,
    reference_pool_summary,
    reference_resolve_player,
    reference_tally_records,
    reference_write_records_csv,
)
from ufesim import records as records_module
from ufesim.analytics import matches_per_player, tally_records
from ufesim.cli import resolve_player
from ufesim.errors import EmptyPoolError
from ufesim.pools import PoolId, PoolScope, ServePoolSet, build_pools, pool_summary, select_pool
from ufesim.records import (
    CACHE_VERSION,
    KINDS,
    MAX_YEAR,
    NONE_CODE,
    RecordTable,
    Role,
    TerminalKind,
    cache_path,
    file_sha256,
    load_records,
    read_records_csv,
    save_records,
    write_records_csv,
)

K = TerminalKind
S, R = Role.SERVER, Role.RECEIVER
COLUMNS = [name for name, _ in records_module._COLUMNS]

# The csv module reads NUL characters from Python 3.11 on.
CSV_READS_NUL = sys.version_info >= (3, 11)

ODD_NAMES = [
    "Zoë Ångström",
    "李娜",
    'Ann, "The Ace"',
    "Bob's, Base",
    "line\r\nbreak",
    "tail\x00",
    "\x00\x00",
]
CSV_NAMES = [n for n in ODD_NAMES if CSV_READS_NUL or "\x00" not in n]
# Few names, two of which normalise alike, so lookups collide.
FEW_NAMES = ["Ann Ace", "ann_ace", "Bob Base", "Cy Chip", "Zoë Ångström"]


def any_names():
    alphabet = st.characters(
        exclude_categories=("Cs",), exclude_characters="" if CSV_READS_NUL else "\x00"
    )
    return st.sampled_from(CSV_NAMES) | st.text(alphabet, max_size=6)


@st.composite
def serve_records(draw, names):
    """Any valid record; rallies up to touch 20."""
    server, receiver = draw(st.lists(names, min_size=2, max_size=2, unique=True))
    context = dict(
        match_id=draw(names),
        year=draw(st.none() | st.integers(0, MAX_YEAR)),
        # The CSV reads an empty tour back as None.
        tour=draw(st.none() | names.filter(bool)),
    )
    kind = draw(st.sampled_from(list(K)))
    if kind is K.FIRST_SERVE_FAULT:
        return make_record(server, receiver, kind, 1, None, fault=True, **context)
    if kind is K.DOUBLE_FAULT:
        return make_record(server, receiver, kind, 1, R, serve_number=2, **context)
    serve_number = draw(st.sampled_from([1, 2]))
    if kind in (K.ACE, K.SERVICE_WINNER):
        return make_record(server, receiver, kind, 1, S, serve_number=serve_number, **context)
    touch = draw(st.integers(2, 20))
    striker = S if touch % 2 else R
    if kind is K.RALLY_WINNER:
        return make_record(
            server, receiver, kind, touch, striker, serve_number=serve_number, **context
        )
    opponent = R if striker is S else S
    return make_record(
        server, receiver, kind, touch, opponent, committer=striker,
        serve_number=serve_number, **context,
    )


def _must_not_read(path):
    raise AssertionError(f"_read_table({path}) on a cache hit")


@pytest.fixture
def reads(monkeypatch):
    """The paths a cache miss read the CSV of."""
    calls = []
    read_table = records_module._read_table

    def counting(path):
        calls.append(path)
        return read_table(path)

    monkeypatch.setattr(records_module, "_read_table", counting)
    return calls


def corpus():
    odd = [
        make_record(a, b, year=year, tour=tour, match_id=f"{a}|{b}")
        for a, b in zip(CSV_NAMES, CSV_NAMES[1:])
        for year, tour in ((None, None), (2019, "ATP"))
    ]
    return (
        serve_mix("Ann Ace", "Bob Base")
        + serve_mix("Bob Base", "Cy Chip")
        + serve_mix("Bob Base", "Ann Ace")
        + odd
    )


@pytest.fixture
def csv_path(tmp_path):
    path = tmp_path / "records.csv"
    write_records_csv(corpus(), path)
    return path


# Round trips


@settings(max_examples=100, deadline=None)
@given(records=st.lists(serve_records(any_names()), max_size=30))
def test_round_trip_through_csv_and_sidecar(records):
    table = RecordTable.from_records(records)
    assert table.to_records() == records
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "records.csv"
        write_records_csv(records, path)
        expected = read_records_csv(path)
        assert expected == records
        first, sha = load_records(path)
        assert first.to_records() == expected
        assert cache_path(path).is_file()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(records_module, "_read_table", _must_not_read)
            cached, cached_sha = load_records(path)
        assert cached.to_records() == expected
        assert sha == cached_sha == file_sha256(path)
        # The column writer writes what the record-by-record one wrote,
        # and save_records leaves a sidecar that load_records hits.
        reference, saved = Path(tmp) / "reference.csv", Path(tmp) / "saved.csv"
        reference_write_records_csv(records, reference)
        assert path.read_bytes() == reference.read_bytes()
        assert save_records(table, saved) == sha
        assert saved.read_bytes() == reference.read_bytes()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(records_module, "_read_table", _must_not_read)
            assert load_records(saved)[0].to_records() == records


# The records CSV's bytes

# Every character the csv module quotes for, at the edges and inside.
WRITER_NAMES = [
    "", " ", " edge ", ",", "a,b", '"', 'say "hi"', "\r", "\n", "a\r\nb", "Zoë Ångström",
    "李娜", "tail\x00", "\x00",
]


def writer_names():
    return st.sampled_from(WRITER_NAMES) | st.text(
        st.characters(exclude_categories=("Cs",)) | st.sampled_from(',"\r\n \x00'), max_size=6
    )


def _csv_bytes(write, records, path: Path) -> bytes | type[csv.Error]:
    try:
        write(records, path)
    except csv.Error:  # NUL before Python 3.11
        return csv.Error
    return path.read_bytes()


@settings(max_examples=150, deadline=None)
@given(records=st.lists(serve_records(writer_names()), max_size=30))
@example(records=[])
def test_writer_matches_the_csv_writer_reference(records):
    table = RecordTable.from_records(records)
    with tempfile.TemporaryDirectory() as tmp:
        want = _csv_bytes(reference_write_records_csv, table, Path(tmp) / "want.csv")
        assert _csv_bytes(write_records_csv, table, Path(tmp) / "table.csv") == want
        assert _csv_bytes(write_records_csv, records, Path(tmp) / "records.csv") == want
        assert _csv_bytes(reference_write_records_csv, records, Path(tmp) / "rows.csv") == want


def test_writer_matches_the_reference_across_chunks(tmp_path):
    # Over two 4,096-line chunks, with years and tours present and missing.
    records = corpus() * (2 * 4096 // len(corpus()) + 1)
    table = RecordTable.from_records(records)
    assert len(table) > 2 * 4096
    want, got = tmp_path / "want.csv", tmp_path / "got.csv"
    reference_write_records_csv(table, want)
    write_records_csv(table, got)
    assert got.read_bytes() == want.read_bytes()


def test_writer_does_not_import_numpy_ma(tmp_path):
    """The writer finds the distinct years without np.unique, which under
    numpy 2.4 imports numpy.ma in every ingest process (about 18 ms)."""
    script = (
        "import sys\n"
        "from conftest import make_record\n"
        "from ufesim.records import write_records_csv\n"
        "write_records_csv([make_record(year=2019), make_record(year=None)], sys.argv[1])\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tests.parent / "src"), str(tests)]))
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "records.csv")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(year=None),
        dict(tour=None),
        dict(year=None, tour=None),
        dict(server="Zoë Ångström", receiver="李娜", tour="Тур"),
        dict(server='Ann, "The Ace"', receiver="Bob's, Base", match_id='m,"1"'),
        dict(server="tail\x00", receiver="\x00\x00", match_id="m\x00", tour="ATP\x00"),
    ],
    ids=["no-year", "no-tour", "neither", "non-ascii", "commas-quotes", "trailing-nul"],
)
def test_round_trip_cases(tmp_path, kwargs):
    records = [make_record(**kwargs), make_record(kind=K.DOUBLE_FAULT, serve_number=2,
                                                  winner=R, **kwargs)]
    table = RecordTable.from_records(records)
    # The sidecar itself, with no CSV in between.
    sidecar = tmp_path / "direct.npz"
    arrays = records_module._to_arrays(table, "0" * 64)
    records_module._write_sidecar(sidecar, arrays, sidecar.parent)
    assert records_module._read_sidecar(sidecar, "0" * 64).to_records() == records
    if not CSV_READS_NUL and any("\x00" in str(v) for v in kwargs.values()):
        pytest.skip("this csv module cannot read NUL")
    path = tmp_path / "records.csv"
    write_records_csv(records, path)
    load_records(path)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(records_module, "_read_table", _must_not_read)
        assert load_records(path)[0].to_records() == records


def test_sidecar_codec_keeps_every_string():
    # A numpy str array would drop trailing NULs; the JSON header keeps
    # them, the empty name and a name outside the BMP.
    names = ["tail\x00", "", "\U0001F3BE serve", "\x00\x00"]
    records = [
        make_record(a, b, match_id=f"{a}|{b}", tour=b or None) for a, b in zip(names, names[1:])
    ]
    table = RecordTable.from_records(records)
    buffer = io.BytesIO()
    np.savez(buffer, **records_module._to_arrays(table, "0" * 64))
    buffer.seek(0)
    with np.load(buffer, allow_pickle=False) as npz:
        assert sorted(npz.files) == sorted(["header", *COLUMNS])
        cached = records_module._from_arrays(npz, "0" * 64)
    assert_same_table(cached, table)
    assert cached.to_records() == records


def test_ids_follow_the_rows(tmp_path):
    # A row names its server, then its receiver; interning every server
    # first would give ("A", "C", "B").
    records = [make_record("A", "B"), make_record("C", "A")]
    path = tmp_path / "records.csv"
    write_records_csv(records, path)
    for table in (RecordTable.from_records(records), load_records(path)[0]):
        assert table.players == ("A", "B", "C")
        assert table.server.tolist() == [0, 2] and table.receiver.tolist() == [1, 0]


@settings(max_examples=100, deadline=None)
@given(records=st.lists(serve_records(any_names()), max_size=30))
def test_from_records_and_a_miss_match_the_reference(records):
    expected = reference_from_records(records)
    assert_same_table(RecordTable.from_records(records), expected)
    assert_same_table(RecordTable.from_records(iter(records)), expected)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "records.csv"
        write_records_csv(records, path)
        table, sha256 = load_records(path)
        assert_same_table(table, expected)
        assert cache_path(path).read_bytes() == sidecar_bytes(expected, sha256)


def test_a_miss_streams_each_row_once_and_keeps_no_record(csv_path, reads, monkeypatch):
    # A miss reads the CSV once and codes each row straight into the
    # columns: it constructs no ServeRecord at all.
    def no_record(*args, **kwargs):
        raise AssertionError("a cache miss constructed a ServeRecord")

    def no_list(path):
        raise AssertionError(f"read_records_csv({path}) on a cache miss")

    def no_decode(arrays, sha256):
        raise AssertionError("a cache miss decoded sidecar arrays")

    monkeypatch.setattr(records_module, "ServeRecord", no_record)
    monkeypatch.setattr(records_module, "read_records_csv", no_list)
    monkeypatch.setattr(records_module, "_from_arrays", no_decode)
    table, _ = load_records(csv_path)
    monkeypatch.undo()
    assert reads == [csv_path] and table.to_records() == corpus()


def test_empty_records_round_trip(tmp_path, reads):
    path = tmp_path / "records.csv"
    write_records_csv([], path)
    for _ in range(2):
        table, _ = load_records(path)
        assert len(table) == 0 and table.to_records() == []
    assert len(reads) == 1


def test_table_columns_are_read_only():
    table = RecordTable.from_records(corpus())
    with pytest.raises(ValueError):
        table.touch[0] = 3


# take: a table of some rows


def _used_strings(records):
    """The strings the records use, by string table."""
    return {
        "matches": {r.match_id for r in records},
        "players": {r.server_id for r in records} | {r.receiver_id for r in records},
        "tours": {r.tour for r in records} - {None},
    }


@settings(max_examples=150, deadline=None)
@given(records=st.lists(serve_records(st.sampled_from(FEW_NAMES)), max_size=30), data=st.data())
def test_take_selects_rows_in_order(records, data):
    table = RecordTable.from_records(records)
    rows = data.draw(st.lists(st.integers(0, len(records) - 1), max_size=40) if records
                     else st.just([]))
    part = table.take(np.array(rows, dtype=np.intp))
    selected = [records[i] for i in rows]
    assert part.to_records() == selected
    for name, used in _used_strings(selected).items():
        assert getattr(part, name) == tuple(s for s in getattr(table, name) if s in used)
    # take checks nothing; its columns are read-only, and the checked
    # constructor accepts the same fields.
    values = {f.name: getattr(part, f.name) for f in fields(RecordTable)}
    assert not any(v.flags.writeable for v in values.values() if isinstance(v, np.ndarray))
    assert_same_table(part, RecordTable(**values))


def test_take_repeats_rows_cuts_the_string_tables_and_keeps_a_missing_tour():
    records = corpus()
    table = RecordTable.from_records(records)
    missing = next(i for i, r in enumerate(records) if r.tour is None and r.year is None)
    rows = [missing, 0, missing]
    part = table.take(np.array(rows))
    selected = [records[i] for i in rows]
    assert part.to_records() == selected
    assert part.tour.tolist() == [NONE_CODE, 0, NONE_CODE]
    assert part.year.tolist() == [NONE_CODE, 2019, NONE_CODE]
    assert part.tours == ("ATP",) and len(part.players) < len(table.players)
    for name, used in _used_strings(selected).items():
        assert getattr(part, name) == tuple(s for s in getattr(table, name) if s in used)


def test_take_of_no_rows_is_an_empty_table():
    part = RecordTable.from_records(corpus()).take(np.array([], dtype=np.intp))
    assert len(part) == 0 and part.to_records() == []
    assert part.matches == part.players == part.tours == ()


def _points():
    """from_points's arguments for three points of two matches, and the
    same points as TableBuilder.add's (match, server, receiver, year,
    tour, serves)."""
    ace = (1, 1, KINDS.index(K.ACE), 0, NONE_CODE)
    fault = (1, 1, KINDS.index(K.FIRST_SERVE_FAULT), NONE_CODE, NONE_CODE)
    double_fault = (2, 1, KINDS.index(K.DOUBLE_FAULT), 1, NONE_CODE)
    strings = (("m1", "m2"), ("Ann", "Bob", "Cy"), ("ATP",))
    heads = np.array([(0, 0, 1, 2019, 0), (1, 2, 0, NONE_CODE, NONE_CODE)], dtype=np.int32)
    serves = [(ace,), (fault, double_fault)]
    args = (strings, heads, np.array([0, 1, 0]), np.array([0, 1, 1], dtype=np.int8), serves,
            np.array([0, 1, 1]))
    added = [
        ("m1", "Ann", "Bob", 2019, "ATP", (ace,)),
        ("m2", "Ann", "Cy", None, None, (fault, double_fault)),
        ("m1", "Bob", "Ann", 2019, "ATP", (fault, double_fault)),
    ]
    return args, added


def test_from_points_makes_the_table_the_builder_makes():
    args, added = _points()
    builder = records_module.TableBuilder()
    for point in added:
        builder.add(*point)
    assert_same_table(RecordTable.from_points(*args), builder.build())
    # And the writer writes what write_records_csv writes of that table.
    with tempfile.TemporaryDirectory() as tmp:
        points, table = Path(tmp) / "points.csv", Path(tmp) / "table.csv"
        with records_module.RecordsWriter(points) as out:
            out.write_points(*args)
            out.commit()
        write_records_csv(builder.build(), table)
        assert points.read_bytes() == table.read_bytes()


@pytest.mark.parametrize("year, side", [(MAX_YEAR + 1, 0), (NONE_CODE - 1, 0), (2019, 2)])
def test_from_points_refuses_a_year_or_side_out_of_range(year, side):
    (strings, heads, point_heads, sides, serves, point_serves), _ = _points()
    heads[0, 3], sides[2] = year, side
    with pytest.raises(ValueError, match="year" if side in (0, 1) else "side"):
        RecordTable.from_points(strings, heads, point_heads, sides, serves, point_serves)


# Fallbacks: each must re-read the CSV and give the right records.


def test_second_load_is_a_hit(csv_path, reads):
    first, sha = load_records(csv_path)
    second, sha2 = load_records(csv_path)
    assert len(reads) == 1 and sha == sha2
    assert second.to_records() == first.to_records() == corpus()


def test_stale_sidecar_after_the_csv_is_edited(csv_path, reads):
    load_records(csv_path)
    edited = corpus()[:-3]
    write_records_csv(edited, csv_path)
    table, sha = load_records(csv_path)
    assert len(reads) == 2
    assert table.to_records() == edited and sha == file_sha256(csv_path)
    assert load_records(csv_path)[0].to_records() == edited
    assert len(reads) == 2


@pytest.mark.parametrize("keep", [0.0, 0.1, 0.5, 0.99])
def test_truncated_sidecar(csv_path, reads, keep):
    load_records(csv_path)
    sidecar = cache_path(csv_path)
    data = sidecar.read_bytes()
    sidecar.write_bytes(data[: int(len(data) * keep)])
    assert load_records(csv_path)[0].to_records() == corpus()
    assert len(reads) == 2
    # The miss rewrote a whole sidecar.
    assert sidecar.read_bytes() == data
    load_records(csv_path)
    assert len(reads) == 2


@pytest.fixture(scope="module")
def good_sidecar(tmp_path_factory):
    path = tmp_path_factory.mktemp("good") / "records.csv"
    write_records_csv(corpus(), path)
    load_records(path)
    return path.read_bytes(), cache_path(path).read_bytes()


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_corrupt_sidecar_never_changes_the_records(good_sidecar, data):
    csv_bytes, sidecar_bytes = good_sidecar
    at = data.draw(st.integers(0, len(sidecar_bytes) - 1))
    flip = data.draw(st.integers(1, 255))
    corrupt = bytearray(sidecar_bytes)
    corrupt[at] ^= flip
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "records.csv"
        path.write_bytes(csv_bytes)
        cache_path(path).write_bytes(bytes(corrupt))
        assert load_records(path)[0].to_records() == corpus()


def _sidecar_arrays(path: Path) -> dict:
    with np.load(cache_path(path), allow_pickle=False) as npz:
        return dict(npz)


def _save_sidecar(path: Path, arrays: dict) -> None:
    with open(cache_path(path), "wb") as fh:
        np.savez(fh, **arrays)


def _header(arrays: dict):
    return json.loads(arrays["header"].tobytes())


def _put_header(arrays: dict, header) -> None:
    arrays["header"] = np.frombuffer(json.dumps(header).encode(), np.uint8)


def test_sidecar_of_another_version(csv_path, reads):
    load_records(csv_path)
    arrays = _sidecar_arrays(csv_path)
    _put_header(arrays, {**_header(arrays), "version": CACHE_VERSION + 1})
    _save_sidecar(csv_path, arrays)
    assert load_records(csv_path)[0].to_records() == corpus()
    assert len(reads) == 2
    assert _header(_sidecar_arrays(csv_path))["version"] == CACHE_VERSION


def test_sidecar_of_the_first_format_is_replaced(csv_path, reads):
    # Format version 1 kept each string table as UTF-8 bytes plus int64
    # offsets, and the version and digest as arrays of their own.
    table, sha256 = load_records(csv_path)
    arrays = {"version": np.array(1), "sha256": np.array(sha256)}
    arrays.update((name, getattr(table, name)) for name in COLUMNS)
    for name in ("matches", "players", "tours"):
        encoded = [s.encode() for s in getattr(table, name)]
        arrays[f"{name}_utf8"] = np.frombuffer(b"".join(encoded), np.uint8)
        arrays[f"{name}_offsets"] = np.array([0, *accumulate(map(len, encoded))], np.int64)
    _save_sidecar(csv_path, arrays)
    assert load_records(csv_path)[0].to_records() == corpus()
    assert len(reads) == 2
    rewritten = _sidecar_arrays(csv_path)
    assert sorted(rewritten) == sorted(["header", *COLUMNS])
    assert _header(rewritten)["version"] == CACHE_VERSION == 2
    assert load_records(csv_path)[0].to_records() == corpus()
    assert len(reads) == 2


TRIPPED: list[str] = []


def _trip():
    TRIPPED.append("unpickled")
    return "Ann Ace"


class Tripwire:
    """Unpickling this object records that it happened."""

    def __reduce__(self):
        return (_trip, ())


@pytest.mark.parametrize("key", ["header", "server"])
def test_sidecar_holding_a_pickled_object_array(csv_path, reads, key):
    load_records(csv_path)
    arrays = _sidecar_arrays(csv_path)
    arrays[key] = np.array([Tripwire(), "x"], dtype=object)
    _save_sidecar(csv_path, arrays)
    assert load_records(csv_path)[0].to_records() == corpus()
    assert len(reads) == 2
    assert TRIPPED == []


def test_read_only_directory(csv_path, reads, monkeypatch):
    csv_path.parent.chmod(0o555)
    try:
        if os.access(csv_path.parent, os.W_OK):
            # Permission bits do not bind this user (root); refuse the
            # temp file as a read-only directory would.
            def refuse(*args, **kwargs):
                raise PermissionError(13, "Permission denied", str(csv_path.parent))

            monkeypatch.setattr(records_module.tempfile, "mkstemp", refuse)
        for expected_reads in (1, 2):
            assert load_records(csv_path)[0].to_records() == corpus()
            assert len(reads) == expected_reads
    finally:
        csv_path.parent.chmod(0o755)
    assert sorted(p.name for p in csv_path.parent.iterdir()) == ["records.csv"]


def test_sidecar_path_taken_by_a_directory(csv_path, reads):
    cache_path(csv_path).mkdir()
    for expected_reads in (1, 2):
        assert load_records(csv_path)[0].to_records() == corpus()
        assert len(reads) == expected_reads
    assert sorted(p.name for p in csv_path.parent.iterdir()) == [
        "records.csv", cache_path(csv_path).name
    ]


# A hit re-checks every invariant, id and key: each breaker breaks one.


def _row(arrays, kind):
    return int(np.flatnonzero(arrays["kind"] == KINDS.index(kind))[0])


def _ufe_by_receiver(arrays):
    ufe = arrays["kind"] == KINDS.index(K.UNFORCED_ERROR)
    return int(np.flatnonzero(ufe & (arrays["committer"] == 1))[0])


def _set(column, row_of, value):
    def breaker(arrays):
        arrays[column][row_of(arrays)] = value
    return breaker


def _edit_header(edit):
    """A breaker that replaces the header with edit(header)."""
    return lambda arrays: _put_header(arrays, edit(_header(arrays)))


def _not_utf8(arrays):
    raw = arrays["header"].tobytes()
    assert b'"Ann Ace"' in raw
    arrays["header"] = np.frombuffer(raw.replace(b'"Ann Ace"', b'"\xffnn Ace"'), np.uint8)


BREAKERS = {
    "serve_number": _set("serve_number", lambda a: 0, 3),
    "touch": _set("touch", lambda a: 0, 0),
    "server_is_receiver": lambda a: a["receiver"].__setitem__(0, a["server"][0]),
    "kind_range": _set("kind", lambda a: 0, len(KINDS)),
    "winner_range": _set("winner", lambda a: 0, 2),
    "committer_range": _set("committer", lambda a: 0, -2),
    "fault_with_winner": _set("winner", lambda a: _row(a, K.FIRST_SERVE_FAULT), 0),
    "fault_on_second_serve": _set("serve_number", lambda a: _row(a, K.FIRST_SERVE_FAULT), 2),
    "committer_without_error": _set("committer", lambda a: _row(a, K.ACE), 1),
    "error_without_committer": _set("committer", _ufe_by_receiver, -1),
    "error_won_by_committer": _set("winner", _ufe_by_receiver, 1),
    "committer_parity": _set("touch", _ufe_by_receiver, 5),
    "ufe_on_the_serve": lambda a: (
        a["committer"].__setitem__(_ufe_by_receiver(a), 0),
        a["winner"].__setitem__(_ufe_by_receiver(a), 1),
        a["touch"].__setitem__(_ufe_by_receiver(a), 1),
    ),
    "double_fault_on_first_serve": _set("serve_number", lambda a: _row(a, K.DOUBLE_FAULT), 1),
    "double_fault_won_by_server": _set("winner", lambda a: _row(a, K.DOUBLE_FAULT), 0),
    "year_range": _set("year", lambda a: 0, MAX_YEAR + 1),
    "year_negative": _set("year", lambda a: 0, -2),
    "match_id_range": lambda a: a["match"].__setitem__(0, a["match"].max() + 1),
    "player_id_negative": _set("server", lambda a: 0, -1),
    "tour_id_range": _set("tour", lambda a: 0, -2),
    "unused_player": _edit_header(lambda h: {**h, "players": [*h["players"], "Ghost"]}),
    "duplicate_tour": lambda a: (
        _edit_header(lambda h: {**h, "tours": ["ATP", "ATP"]})(a),
        a.update(tour=np.where(a["tour"] >= 0, 0, -1).astype(np.int32)),
    ),
    "bad_utf8": _not_utf8,
    "wide_dtype": lambda a: a.update(touch=a["touch"].astype(np.int64)),
    "short_column": lambda a: a.update(kind=a["kind"][:-1]),
    "wrong_sha": _edit_header(lambda h: {**h, "sha256": "0" * 64}),
    "header_not_an_object": _edit_header(lambda h: list(h.values())),
    # A JSON object of the names would give them back as tuple(dict).
    "table_not_a_list": _edit_header(lambda h: {**h, "players": dict.fromkeys(h["players"], 0)}),
    "name_not_a_string": _edit_header(lambda h: {**h, "tours": [1]}),
    "missing_table": _edit_header(lambda h: {k: v for k, v in h.items() if k != "tours"}),
}


@pytest.mark.parametrize("name", sorted(BREAKERS))
def test_a_hit_rechecks_every_invariant(csv_path, reads, name):
    load_records(csv_path)
    arrays = _sidecar_arrays(csv_path)
    BREAKERS[name](arrays)
    _save_sidecar(csv_path, arrays)
    assert load_records(csv_path)[0].to_records() == corpus()
    assert len(reads) == 2


# Consumers on a table equal their per-record references.


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the references raise the same types
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(
    records=st.lists(serve_records(st.sampled_from(FEW_NAMES)), max_size=60),
    tour=st.sampled_from([None, "Ann Ace", "Bob Base", "ATP"]),
    max_touch=st.integers(1, 15),
    pair=st.lists(st.sampled_from(FEW_NAMES), min_size=2, max_size=2, unique=True),
    scope=st.sampled_from(list(PoolScope)),
)
def test_consumers_match_references(records, tour, max_touch, pair, scope):
    table = RecordTable.from_records(records)
    for requested in ("ann ace", "BOB_BASE", "cy chip", "Zoë Ångström", "nobody"):
        assert _outcome(resolve_player, table, requested) == _outcome(
            reference_resolve_player, records, requested
        )

    expected = reference_build_pools(records, *pair, scope)
    empty = [pid for pid in PoolId if not expected[pid]]
    if empty:
        with pytest.raises(EmptyPoolError, match=empty[0].value):
            build_pools(table, *pair, scope)
    else:
        _assert_pools_match_references(build_pools(table, *pair, scope), expected)

    for wanted in (None, "ATP", tour):
        assert matches_per_player(table, wanted) == reference_matches_per_player(
            records, wanted
        )

    tally = tally_records(table, tour, max_touch)
    reference = reference_tally_records(records, tour, max_touch)
    assert list(tally.players) == list(reference.players)
    assert tally.profiles() == reference.profiles()
    for role in Role:
        assert tally.touch_curve(role) == reference.touch_curve(role)
    assert tally.year_series() == reference.year_series()
    assert tally.ufe_rate() == reference.ufe_rate()
    assert tally.termination_share() == reference.termination_share()


def _assert_pools_match_references(pools, expected):
    """A pool set against the reference pools of records: the pools'
    records, their point codes and pool_summary."""
    assert {pid: tuple(pool.to_records()) for pid, pool in pools.pools.items()} == expected
    first, second = (
        tuple(
            tuple(reference_point_code(rec, server) for rec in expected[select_pool(side, number)])
            for server, side in enumerate("AB")
        )
        for number in (1, 2)
    )
    assert (pools.first_codes, pools.second_codes) == (first, second)
    assert pool_summary(pools) == reference_pool_summary(
        expected, pools.player_a, pools.player_b, pools.scope
    )


def test_build_pools_rebuilds_records_in_file_order(csv_path):
    load_records(csv_path)
    cached, _ = load_records(csv_path)
    for scope in PoolScope:
        pools = build_pools(cached, "Ann Ace", "Bob Base", scope)
        expected = reference_build_pools(corpus(), "Ann Ace", "Bob Base", scope)
        _assert_pools_match_references(pools, expected)
        assert pools.first_codes == build_pools(corpus(), "Ann Ace", "Bob Base", scope).first_codes


def test_pool_set_of_records_equals_build_pools_over_their_table():
    records = corpus()
    built = build_pools(RecordTable.from_records(records), "Ann Ace", "Bob Base")
    given = ServePoolSet(
        pools={pid: tuple(pool.to_records()) for pid, pool in built.pools.items()},
        player_a="Ann Ace",
        player_b="Bob Base",
        scope=PoolScope.HEAD_TO_HEAD,
    )
    assert all(isinstance(pool, RecordTable) for pool in given.pools.values())
    assert (given.first_codes, given.second_codes) == (built.first_codes, built.second_codes)
    assert pool_summary(given) == pool_summary(built)
