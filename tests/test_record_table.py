"""RecordTable columns, the records cache and the consumers that read them."""
from __future__ import annotations

import csv
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from itertools import accumulate
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    assert_same_table,
    make_record,
    read_members,
    serve_mix,
    sidecar_bytes,
    write_members,
)
from oracles import (
    reference_build_pools,
    reference_from_records,
    reference_matches_per_player,
    reference_point_code,
    reference_pool_summary,
    reference_resolve_player,
    reference_serve_pool,
    reference_tally_records,
    reference_write_records_csv,
)
from ufesim import records as records_module
from ufesim import sidecar as sidecar_module
from ufesim.analytics import tally_records, tour_tally
from ufesim.cli import resolve_player
from ufesim.errors import EmptyPoolError
from ufesim.pools import (
    PoolId,
    PoolScope,
    ServePool,
    ServePoolSet,
    build_pools,
    pool_summary,
    select_pool,
    select_pools,
)
from ufesim.records import (
    KINDS,
    MAX_YEAR,
    NONE_CODE,
    RecordTable,
    Role,
    TerminalKind,
    cache_path,
    load_records,
    read_records_csv,
    save_records,
    write_records_csv,
)
from ufesim.sidecar import CACHE_VERSION, file_sha256, lookup

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
        assert not cache_path(path).exists()
        summary = sidecar_module.summarize(table, sha)
        assert lookup(path, "serves") == (summary.serves, sha)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(records_module, "_read_table", _must_not_read)
            cached = lookup(path, "serves")
        assert cached == (summary.serves, sha) and sha == file_sha256(path)
        # The column writer writes what the record-by-record one wrote,
        # and save_records leaves a sidecar that lookup hits.
        reference, saved = Path(tmp) / "reference.csv", Path(tmp) / "saved.csv"
        reference_write_records_csv(records, reference)
        assert path.read_bytes() == reference.read_bytes()
        assert save_records(table, saved) == sha
        assert saved.read_bytes() == reference.read_bytes()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(records_module, "_read_table", _must_not_read)
            assert lookup(saved, "serves") == (summary.serves, sha)


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


def test_writer_matches_the_reference_at_the_ends_of_its_key(tmp_path):
    # A's unforced error at the largest touch, years 0, MAX_YEAR and missing,
    # 5,000 tours and names csv.writer quotes, over more than two chunks.
    a, b = 'A, "the ace"', "B\r\nBase"
    serves = [
        dict(kind=K.UNFORCED_ERROR, touch=records_module.MAX_TERMINAL_TOUCH, winner=R,
             committer=S),
        dict(kind=K.FORCED_ERROR, touch=2, winner=S, committer=R),
        dict(kind=K.FIRST_SERVE_FAULT, fault=True, winner=None),
        dict(kind=K.DOUBLE_FAULT, serve_number=2, winner=R),
        dict(),
    ]
    records = [
        make_record(*((a, b) if i % 2 else (b, a)), **serves[i % len(serves)],
                    year=(0, MAX_YEAR, None)[i % 3], tour=f"T,{i}" if i < 5000 else None,
                    match_id=f'm "{i // 100}"')
        for i in range(6000)
    ]
    table = RecordTable.from_records(records)
    assert len(table.tours) == 5000 and len(table) > 2 * records_module._CHUNK
    want, got = tmp_path / "want.csv", tmp_path / "got.csv"
    reference_write_records_csv(table, want)
    write_records_csv(table, got)
    assert got.read_bytes() == want.read_bytes()


def test_writer_does_not_import_numpy_ma(tmp_path):
    """The writer finds the distinct keys of its lines without np.unique,
    which under numpy 2.4 imports numpy.ma in every ingest process (about
    18 ms)."""
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
    sidecar_module.write_sidecar(sidecar, table, "0" * 64, sidecar.parent)
    serves = sidecar_module.read_serves(sidecar, "0" * 64)
    assert (serves.players, serves.tours) == (table.players, table.tours)
    if not CSV_READS_NUL and any("\x00" in str(v) for v in kwargs.values()):
        pytest.skip("this csv module cannot read NUL")
    path = tmp_path / "records.csv"
    write_records_csv(records, path)
    assert load_records(path)[0].to_records() == records
    lookup(path, "header")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(records_module, "_read_table", _must_not_read)
        assert lookup(path, "serves")[0] == serves


def test_sidecar_codec_keeps_every_string(tmp_path):
    # A numpy str array would drop trailing NULs; the ASCII JSON header
    # keeps them, the empty name and a name outside the BMP.
    names = ["tail\x00", "", "\U0001F3BE serve", "\x00\x00"]
    records = [
        make_record(a, b, match_id=f"{a}|{b}", tour=b or None) for a, b in zip(names, names[1:])
    ]
    table = RecordTable.from_records(records)
    sidecar = tmp_path / "records.csv.ufesim-cache.npz"
    sidecar.write_bytes(sidecar_bytes(table, "0" * 64))
    assert list(read_members(sidecar.read_bytes())) == ["header", "tally", "serves"]
    header = sidecar_module.read_header(sidecar, "0" * 64)
    assert (header["players"], header["tours"]) == (list(table.players), list(table.tours))
    serves = sidecar_module.read_serves(sidecar, "0" * 64)
    assert (serves.players, serves.tours) == (table.players, table.tours)
    tally = sidecar_module.read_tallies(sidecar, "0" * 64)[None]
    assert tally.players == table.players


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
        lookup(path, "header")
        assert cache_path(path).read_bytes() == sidecar_bytes(expected, sha256)


def test_a_miss_streams_each_row_once_and_keeps_no_record(csv_path, reads, monkeypatch):
    # A miss reads the CSV once and codes each row straight into the
    # columns: it constructs no ServeRecord at all.
    def no_record(*args, **kwargs):
        raise AssertionError("a cache miss constructed a ServeRecord")

    def no_list(path):
        raise AssertionError(f"read_records_csv({path}) on a cache miss")

    monkeypatch.setattr(records_module, "ServeRecord", no_record)
    monkeypatch.setattr(records_module, "read_records_csv", no_list)
    table, _ = load_records(csv_path)
    lookup(csv_path, "header")
    monkeypatch.undo()
    assert reads == [csv_path] * 2 and table.to_records() == corpus()


def test_empty_records_round_trip(tmp_path, reads):
    path = tmp_path / "records.csv"
    write_records_csv([], path)
    table, _ = load_records(path)
    assert len(table) == 0 and table.to_records() == []
    for _ in range(2):
        header, _ = lookup(path, "header")
        assert header["players"] == header["counts"] == []
        assert lookup(path, "serves")[0].offsets == (0,)
    assert len(reads) == 2


def test_table_columns_are_read_only():
    table = RecordTable.from_records(corpus())
    with pytest.raises(ValueError):
        table.touch[0] = 3


def test_a_broken_row_past_the_first_checked_rows_is_named():
    # The row rules run over _CHECK_ROWS rows at a time; the error still
    # names the first broken row over every rule, counted from row 0.
    table = RecordTable.from_records(corpus())
    reps = records_module._CHECK_ROWS // len(table) + 2
    columns = {name: np.tile(getattr(table, name), reps) for name in COLUMNS}
    late, early = records_module._CHECK_ROWS + 7, records_module._CHECK_ROWS + 3
    columns["serve_number"][late] = 3  # the first rule checked
    columns["touch"][early] = 0  # a later rule, on an earlier row
    strings = {name: getattr(table, name) for name in ("matches", "players", "tours")}
    with pytest.raises(records_module.BrokenRowError) as exc:
        RecordTable(**columns, **strings)
    assert (exc.value.row, exc.value.reason) == (early, "terminal_touch must be >= 1")


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


@pytest.mark.parametrize("year, side", [(MAX_YEAR + 1, 0), (NONE_CODE - 1, 0), (2019, 2)])
def test_from_points_refuses_a_year_or_side_out_of_range(year, side):
    (strings, heads, point_heads, sides, serves, point_serves), _ = _points()
    heads[0, 3], sides[2] = year, side
    with pytest.raises(ValueError, match="year" if side in (0, 1) else "side"):
        RecordTable.from_points(strings, heads, point_heads, sides, serves, point_serves)


# Fallbacks: each must re-read the CSV and give the right header.


def _header(records, path: Path) -> dict:
    """The header of the sidecar of these records, read from this CSV."""
    return sidecar_module.summarize(RecordTable.from_records(records), file_sha256(path)).header


def test_second_load_is_a_hit(csv_path, reads):
    first, sha = lookup(csv_path, "header")
    second, sha2 = lookup(csv_path, "header")
    assert len(reads) == 1 and sha == sha2
    assert second == first == _header(corpus(), csv_path)


def test_stale_sidecar_after_the_csv_is_edited(csv_path, reads):
    lookup(csv_path, "header")
    edited = corpus()[:-3]
    write_records_csv(edited, csv_path)
    header, sha = lookup(csv_path, "header")
    assert len(reads) == 2
    assert header == _header(edited, csv_path) and sha == file_sha256(csv_path)
    assert lookup(csv_path, "header")[0] == header
    assert len(reads) == 2


@pytest.mark.parametrize("keep", [0.0, 0.1, 0.5, 0.99])
def test_truncated_sidecar(csv_path, reads, keep):
    lookup(csv_path, "header")
    sidecar = cache_path(csv_path)
    data = sidecar.read_bytes()
    sidecar.write_bytes(data[: int(len(data) * keep)])
    assert lookup(csv_path, "header")[0] == _header(corpus(), csv_path)
    assert len(reads) == 2
    # The miss rewrote a whole sidecar.
    assert sidecar.read_bytes() == data
    lookup(csv_path, "header")
    assert len(reads) == 2


@pytest.fixture(scope="module")
def good_sidecar(tmp_path_factory):
    path = tmp_path_factory.mktemp("good") / "records.csv"
    write_records_csv(corpus(), path)
    lookup(path, "header")
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
        sha256 = file_sha256(path)
        # list-players' read: the header as written, or a miss.
        header = sidecar_module.read_header(cache_path(path), sha256)
        summary = sidecar_module.summarize(RecordTable.from_records(corpus()), sha256)
        assert header in (None, summary.header)
        # stats' read: the tallies as written, or a miss.
        tallies = sidecar_module.read_tallies(cache_path(path), sha256)
        assert tallies in (None, summary.tallies)
        # simulate's read: the serve index as written, or a miss.
        serves = sidecar_module.read_serves(cache_path(path), sha256)
        assert serves in (None, summary.serves)
        assert lookup(path, "serves")[0] == summary.serves


def _sidecar_arrays(path: Path) -> dict:
    """The members of the sidecar of a CSV, as read_members reads them."""
    return read_members(cache_path(path).read_bytes())


def _save_sidecar(path: Path, arrays: dict) -> None:
    cache_path(path).write_bytes(write_members(arrays))


def test_sidecar_members_read_and_written_back_are_the_same_bytes(csv_path):
    # So each edit of the tests below changes only what it edits.
    lookup(csv_path, "header")
    assert write_members(_sidecar_arrays(csv_path)) == cache_path(csv_path).read_bytes()


def test_sidecar_of_another_version(csv_path, reads):
    lookup(csv_path, "header")
    arrays = _sidecar_arrays(csv_path)
    arrays["header"]["version"] = CACHE_VERSION + 1
    _save_sidecar(csv_path, arrays)
    assert lookup(csv_path, "header")[0] == _header(corpus(), csv_path)
    assert len(reads) == 2
    assert _sidecar_arrays(csv_path)["header"]["version"] == CACHE_VERSION


def test_sidecar_of_the_first_format_is_replaced(csv_path, reads):
    # Format version 1 kept each string table as UTF-8 bytes plus int64
    # offsets, and the version and digest as arrays of their own.
    table, sha256 = load_records(csv_path)
    assert reads == [csv_path]
    arrays = {"version": np.array(1), "sha256": np.array(sha256)}
    arrays.update((name, getattr(table, name)) for name in COLUMNS)
    for name in ("matches", "players", "tours"):
        encoded = [s.encode() for s in getattr(table, name)]
        arrays[f"{name}_utf8"] = np.frombuffer(b"".join(encoded), np.uint8)
        arrays[f"{name}_offsets"] = np.array([0, *accumulate(map(len, encoded))], np.int64)
    _save_sidecar(csv_path, arrays)
    assert lookup(csv_path, "header")[0] == _header(corpus(), csv_path)
    assert len(reads) == 2
    rewritten = _sidecar_arrays(csv_path)
    assert list(rewritten) == ["header", "tally", "serves"]
    assert rewritten["header"]["version"] == CACHE_VERSION == 7
    assert lookup(csv_path, "header")[0] == _header(corpus(), csv_path)
    assert len(reads) == 2


TRIPPED: list[str] = []


def _trip():
    TRIPPED.append("unpickled")
    return "Ann Ace"


class Tripwire:
    """Unpickling this object records that it happened."""

    def __reduce__(self):
        return (_trip, ())


@pytest.mark.parametrize("key", ["header", "tally"])
def test_sidecar_holding_a_pickled_object_array(csv_path, reads, key):
    lookup(csv_path, "header")
    arrays = _sidecar_arrays(csv_path)
    # The JSON member holds a pickled array's .npy bytes.
    buffer = io.BytesIO()
    np.save(buffer, np.array([Tripwire(), "x"], dtype=object), allow_pickle=True)
    arrays[key] = buffer.getvalue()
    _save_sidecar(csv_path, arrays)
    member = {"header": "header", "tally": "tallies"}[key]
    assert lookup(csv_path, member)[0] == getattr(
        sidecar_module.summarize(RecordTable.from_records(corpus()), file_sha256(csv_path)), member
    )
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
            assert lookup(csv_path, "header")[0] == _header(corpus(), csv_path)
            assert len(reads) == expected_reads
    finally:
        csv_path.parent.chmod(0o755)
    assert sorted(p.name for p in csv_path.parent.iterdir()) == ["records.csv"]


def test_sidecar_bytes_depend_only_on_the_table(tmp_path, monkeypatch):
    # Every member is dated as np.savez dates its members, never by the
    # clock, so a sidecar written an hour later is the same bytes.
    table = RecordTable.from_records(corpus())
    sidecar = tmp_path / "records.csv.ufesim-cache.npz"
    sidecar_module.write_sidecar(sidecar, table, "0" * 64, tmp_path)
    first = sidecar.read_bytes()
    later = time.time() + 3600
    monkeypatch.setattr(time, "time", lambda: later)
    sidecar_module.write_sidecar(sidecar, table, "0" * 64, tmp_path)
    assert sidecar.read_bytes() == first


def test_sidecar_path_taken_by_a_directory(csv_path, reads):
    cache_path(csv_path).mkdir()
    for expected_reads in (1, 2):
        assert lookup(csv_path, "header")[0] == _header(corpus(), csv_path)
        assert len(reads) == expected_reads
    assert sorted(p.name for p in csv_path.parent.iterdir()) == [
        "records.csv", cache_path(csv_path).name
    ]


# A hit re-checks every key and every check of the header: each breaker
# breaks one.


def _edit_header(edit):
    """A breaker that replaces the header with edit(header)."""
    return lambda arrays: arrays.__setitem__("header", edit(arrays["header"]))


def _renamed(name: bytes):
    """A breaker that renames Ann Ace in the header's bytes."""

    def breaker(arrays):
        raw = json.dumps(arrays["header"]).encode("ascii")
        assert b'"Ann Ace"' in raw
        arrays["header"] = raw.replace(b'"Ann Ace"', b'"' + name + b'"')

    return breaker


BREAKERS = {
    "unused_player": _edit_header(lambda h: {**h, "players": [*h["players"], "Ghost"]}),
    "duplicate_tour": _edit_header(lambda h: {**h, "tours": ["ATP", "ATP"]}),
    "bad_utf8": _renamed(b"\xffnn Ace"),
    # Valid UTF-8, and a header as good as the one written, but not ASCII.
    "not_ascii": _renamed("\u00c4nn Ace".encode()),
    "wrong_sha": _edit_header(lambda h: {**h, "sha256": "0" * 64}),
    "header_not_an_object": _edit_header(lambda h: list(h.values())),
    # A JSON object of the names would give them back as tuple(dict).
    "table_not_a_list": _edit_header(lambda h: {**h, "players": dict.fromkeys(h["players"], 0)}),
    "name_not_a_string": _edit_header(lambda h: {**h, "tours": [1]}),
    "missing_table": _edit_header(lambda h: {k: v for k, v in h.items() if k != "tours"}),
}


@pytest.mark.parametrize("name", sorted(BREAKERS))
def test_a_hit_rechecks_every_invariant(csv_path, reads, name):
    lookup(csv_path, "header")
    arrays = _sidecar_arrays(csv_path)
    BREAKERS[name](arrays)
    _save_sidecar(csv_path, arrays)
    assert lookup(csv_path, "header")[0] == _header(corpus(), csv_path)
    assert len(reads) == 2


# RecordTable refuses columns of the wrong type or length and ids out of
# range; test_record_and_table_agree_on_every_code_combination covers the
# row rules.  A sidecar is written only for a table that passed them.


def _set(column, value):
    def breaker(columns):
        columns[column][0] = value
    return breaker


# Each breaker, and the error it must raise.
COLUMN_BREAKERS = {
    "wide_dtype": (lambda c: c.update(touch=c["touch"].astype(np.int64)), "must be a"),
    "short_column": (lambda c: c.update(kind=c["kind"][:-1]), "must have shape"),
    "match_id_range": (lambda c: c["match"].__setitem__(0, len(c["matches"])), "out of range"),
    "player_id_negative": (_set("server", -1), "out of range"),
    "tour_id_range": (_set("tour", -2), "out of range"),
    "unused_player": (lambda c: c.update(players=(*c["players"], "Ghost")), "no record uses"),
}


@pytest.mark.parametrize("name", sorted(COLUMN_BREAKERS))
def test_a_table_refuses_a_broken_column(name):
    table = RecordTable.from_records(corpus())
    columns = {field: getattr(table, field).copy() for field in COLUMNS}
    columns.update((field, getattr(table, field)) for field in ("matches", "players", "tours"))
    breaker, message = COLUMN_BREAKERS[name]
    breaker(columns)
    with pytest.raises(ValueError, match=message):
        RecordTable(**columns)


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
)
def test_consumers_match_references(records, tour, max_touch, pair):
    table = RecordTable.from_records(records)
    # list-players', stats' and simulate's answers on a cache hit: the
    # header, the tallies and the serve index the sidecar carries.
    with tempfile.TemporaryDirectory() as tmp:
        sidecar = Path(tmp) / "records.csv.ufesim-cache.npz"
        sidecar.write_bytes(sidecar_bytes(table, "0" * 64))
        header = sidecar_module.read_header(sidecar, "0" * 64)
        tallies = sidecar_module.read_tallies(sidecar, "0" * 64)
        serves = sidecar_module.read_serves(sidecar, "0" * 64)
    assert serves == sidecar_module.serve_index(table)
    for requested in ("ann ace", "BOB_BASE", "cy chip", "Zoë Ångström", "nobody"):
        expected = _outcome(reference_resolve_player, records, requested)
        assert _outcome(resolve_player, table, requested) == expected
        assert _outcome(resolve_player, serves, requested) == expected

    for scope in PoolScope:
        expected = reference_build_pools(records, *pair, scope)
        empty = [pid for pid in PoolId if not expected[pid]]
        for pools_of in (lambda: build_pools(table, *pair, scope),
                         lambda: select_pools(serves, *pair, scope)):
            if empty:
                with pytest.raises(EmptyPoolError, match=empty[0].value):
                    pools_of()
            else:
                _assert_pools_match_references(pools_of(), expected)

    for wanted in (None, "ATP", tour):
        expected = reference_matches_per_player(records, wanted)
        tally = tour_tally(tally_records(table), wanted)
        assert dict(zip(tally.players, tally.matches)) == expected
        assert sidecar_module.players_of(header, wanted) == expected
        # Equal fields, so the same players in the same order.
        assert tour_tally(tallies, wanted) == tally

    tally = tour_tally(tally_records(table, max_touch), tour)
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
    serve codes and tours, their point codes and pool_summary."""
    assert dict(pools.pools) == {pid: reference_serve_pool(recs) for pid, recs in expected.items()}
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
    table, _ = load_records(csv_path)
    for scope in PoolScope:
        pools = build_pools(table, "Ann Ace", "Bob Base", scope)
        expected = reference_build_pools(corpus(), "Ann Ace", "Bob Base", scope)
        _assert_pools_match_references(pools, expected)
        assert pools.first_codes == build_pools(corpus(), "Ann Ace", "Bob Base", scope).first_codes


def test_pool_set_of_records_equals_build_pools_over_their_table():
    records = corpus()
    built = build_pools(RecordTable.from_records(records), "Ann Ace", "Bob Base")
    partition = reference_build_pools(records, "Ann Ace", "Bob Base")
    for pools in (partition, {pid: RecordTable.from_records(recs) for pid, recs in partition.items()}):
        given = ServePoolSet(
            pools=pools, player_a="Ann Ace", player_b="Bob Base", scope=PoolScope.HEAD_TO_HEAD
        )
        assert all(isinstance(pool, ServePool) for pool in given.pools.values())
        assert dict(given.pools) == dict(built.pools)
        assert (given.first_codes, given.second_codes) == (built.first_codes, built.second_codes)
        assert pool_summary(given) == pool_summary(built)
