"""Descriptive statistics over hand-counted corpora."""
from __future__ import annotations

import csv

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_record
from oracles import (
    reference_matches_per_player,
    reference_profiles,
    reference_tally_records,
    reference_termination_share,
    reference_touch_curve,
    reference_ufe_rate,
    reference_year_series,
)
from ufesim import analytics
from ufesim.analytics import (
    DEFAULT_MAX_TOUCH,
    PlayerUfeProfile,
    collect_profiles,
    histogram_bins,
    histogram_to_csv,
    profiles_to_csv,
    rankings_to_csv,
    rate_rankings,
    tally_records,
    touch_curve_to_csv,
    touch_exposure,
    tour_tally,
    tour_ufe_rate,
    ufe_rate_by_touch,
    ufe_rate_by_year,
    ufe_termination_share,
    year_series_to_csv,
)
from ufesim.records import RecordTable, Role, TerminalKind

K = TerminalKind
S, R = Role.SERVER, Role.RECEIVER
MID = "20190101-M-Testopen-F-X_Xavier-Y_Yves"


def corpus():
    """Six records with hand-counted exposures.

    X contacts 7 balls and commits 2 unforced errors (rate 2/7);
    Y contacts 4 and commits none.  Five records are decisive, two of
    them unforced errors, so the termination share is 0.4.
    """
    x, y = "X Xavier", "Y Yves"
    return [
        make_record(x, y, K.ACE, 1, S, match_id=MID),
        make_record(x, y, K.UNFORCED_ERROR, 3, R, committer=S, match_id=MID),
        make_record(x, y, K.FIRST_SERVE_FAULT, 1, None, fault=True, match_id=MID),
        make_record(x, y, K.DOUBLE_FAULT, 1, R, serve_number=2, match_id=MID),
        make_record(y, x, K.UNFORCED_ERROR, 2, S, committer=R, match_id=MID),
        make_record(y, x, K.RALLY_WINNER, 4, R, match_id=MID),
    ]


@pytest.mark.parametrize(
    ("t_star", "expected"),
    [(t, ((t + 1) // 2, t // 2)) for t in range(1, 14)],
)
def test_touch_exposure_formulas(t_star, expected):
    assert touch_exposure(t_star) == expected


def test_touch_exposure_sums_to_t_star():
    for t in range(1, 30):
        ts, tr = touch_exposure(t)
        assert ts + tr == t


def test_touch_exposure_rejects_zero():
    with pytest.raises(ValueError):
        touch_exposure(0)


def test_profiles_hand_counted():
    profiles = collect_profiles(corpus())
    x = profiles["X Xavier"]
    assert x.matches_played == 1
    assert x.ball_contacts == 7
    assert x.unforced_errors == 2
    assert x.ufe_rate == pytest.approx(2 / 7)
    y = profiles["Y Yves"]
    assert y.ball_contacts == 4
    assert y.unforced_errors == 0
    assert y.ufe_rate == 0.0


def test_profile_per_touch_and_per_year():
    x = collect_profiles(corpus())["X Xavier"]
    assert x.per_touch_rates[("server", 3)] == 1.0
    assert x.per_touch_rates[("receiver", 2)] == 0.5
    assert x.per_touch_rates[("receiver", 4)] == 0.0
    assert x.per_year_rates == {2019: pytest.approx(2 / 7)}


def test_simple_rate_example():
    x, y = "X Xavier", "Y Yves"
    records = [make_record(x, y, K.ACE, 1, S, match_id=MID)] * 9
    records += [make_record(x, y, K.UNFORCED_ERROR, 2, S, committer=R, match_id=MID)]
    profile = collect_profiles(records)["Y Yves"]
    assert profile.unforced_errors == 1
    assert profile.ball_contacts == 1
    assert profile.ufe_rate == 1.0


def test_exposure_identity_total_contacts_equal_touches():
    records = corpus()
    profiles = collect_profiles(records)
    total_contacts = sum(p.ball_contacts for p in profiles.values())
    total_touches = sum(
        r.terminal_touch for r in records if not r.is_first_serve_fault
    )
    assert total_contacts == total_touches == 11


def test_aggregate_rate_is_contact_weighted_mean():
    records = corpus()
    profiles = collect_profiles(records)
    weighted = sum(p.ufe_rate * p.ball_contacts for p in profiles.values()) / sum(
        p.ball_contacts for p in profiles.values()
    )
    assert tour_ufe_rate(records) == pytest.approx(weighted) == pytest.approx(2 / 11)


def test_termination_share():
    assert ufe_termination_share(corpus()) == pytest.approx(0.4)
    no_ufes = [make_record(kind=K.ACE, touch=1, winner=S)] * 5
    assert ufe_termination_share(no_ufes) == 0.0


def test_termination_categories_sum_to_one():
    records = corpus()
    decisive = [r for r in records if not r.is_first_serve_fault]
    share_winners = sum(
        r.terminal_kind in (K.ACE, K.SERVICE_WINNER, K.RALLY_WINNER, K.DOUBLE_FAULT)
        for r in decisive
    ) / len(decisive)
    share_forced = sum(r.terminal_kind is K.FORCED_ERROR for r in decisive) / len(decisive)
    share_ufe = ufe_termination_share(records)
    assert share_winners + share_forced + share_ufe == pytest.approx(1.0)


def test_rate_by_touch_hand_counted():
    records = corpus()
    receiver_curve = dict(ufe_rate_by_touch(records, role=R))
    assert receiver_curve[2] == pytest.approx(1 / 3)
    server_curve = dict(ufe_rate_by_touch(records, role=S))
    assert server_curve[3] == pytest.approx(1 / 2)


def test_rate_by_touch_half_errors_example():
    x, y = "X Xavier", "Y Yves"
    records = [
        make_record(x, y, K.UNFORCED_ERROR, 2, S, committer=R, match_id=MID),
        make_record(x, y, K.UNFORCED_ERROR, 2, S, committer=R, match_id=MID),
        make_record(x, y, K.RALLY_WINNER, 2, R, match_id=MID),
        make_record(x, y, K.RALLY_WINNER, 2, R, match_id=MID),
    ]
    curve = dict(ufe_rate_by_touch(records, role=R))
    assert curve[2] == 0.5


def test_rate_by_touch_empty_corpus():
    assert ufe_rate_by_touch([], role=S) == []


def test_rate_by_year_single_year_equals_aggregate():
    records = corpus()
    series = ufe_rate_by_year(records)
    assert series == [(2019, pytest.approx(2 / 11))]


def test_rate_by_year_excludes_unknown_years():
    x, y = "X Xavier", "Y Yves"
    records = [
        make_record(x, y, K.ACE, 1, S, match_id=MID),
        make_record(x, y, K.ACE, 1, S, match_id=MID, year=None, tour=None),
    ]
    series = ufe_rate_by_year(records)
    assert [year for year, _ in series] == [2019]


def test_tour_filter():
    x, y = "X Xavier", "Y Yves"
    atp = [make_record(x, y, K.ACE, 1, S, match_id=MID)]
    wta = [
        make_record(
            "G Gamma",
            "D Delta",
            K.UNFORCED_ERROR,
            2,
            S,
            committer=R,
            match_id="20200101-W-Testopen-F-G_Gamma-D_Delta",
            tour="WTA",
            year=2020,
        )
    ]
    records = atp + wta
    assert "G Gamma" not in collect_profiles(records, tour="ATP")
    assert "X Xavier" not in collect_profiles(records, tour="WTA")
    assert ufe_termination_share(records, tour="ATP") == 0.0
    assert ufe_termination_share(records, tour="WTA") == 1.0


def _profile(player, rate, matches=10):
    return PlayerUfeProfile(
        player_id=player,
        matches_played=matches,
        ball_contacts=1000,
        unforced_errors=int(rate * 1000),
        ufe_rate=rate,
        per_touch_rates={},
        per_year_rates={},
    )


def test_rankings_sorted_with_tie_breaks():
    profiles = [
        _profile("Carol", 0.05),
        _profile("Alice", 0.03),
        _profile("Bob", 0.03, matches=20),
        _profile("Dave", 0.12),
        _profile("Eve", 0.02, matches=3),  # below min_matches
    ]
    lowest, highest = rate_rankings(profiles, min_matches=5, k=2)
    assert [p.player_id for p in lowest] == ["Bob", "Alice"]
    assert [p.player_id for p in highest] == ["Dave", "Carol"]


def test_rankings_k_larger_than_pool():
    profiles = [_profile("Alice", 0.03), _profile("Bob", 0.05)]
    lowest, highest = rate_rankings(profiles, min_matches=1, k=10)
    assert len(lowest) == 2 and len(highest) == 2


def test_rankings_reject_zero_min_matches():
    with pytest.raises(ValueError):
        rate_rankings([], min_matches=0, k=5)


@pytest.mark.parametrize("k", [0, -2])
def test_rankings_reject_k_below_one(k):
    # A negative k used to slice off the last |k| players instead.
    with pytest.raises(ValueError, match="k must be at least 1"):
        rate_rankings(collect_profiles(corpus()).values(), min_matches=1, k=k)


def test_histogram_bins_clamp_and_count():
    profiles = [
        _profile("Alice", 0.001),   # 0.1% -> first bin
        _profile("Bob", 0.052),     # 5.2% -> bin [5.0, 5.5)
        _profile("Carol", 0.30),    # 30% -> clamped into last bin
    ]
    bins = histogram_bins(profiles, bin_width_pct=0.5, max_pct=20.0)
    assert len(bins) == 40
    assert bins[0][2] == 1
    assert bins[10][:2] == (5.0, 5.5) and bins[10][2] == 1
    assert bins[-1][2] == 1
    assert sum(count for _, _, count in bins) == 3


def test_csv_emitters_round_trip(tmp_path):
    records = corpus()
    profiles = collect_profiles(records)
    p_csv = tmp_path / "profiles.csv"
    profiles_to_csv(profiles.values(), p_csv)
    with open(p_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["player", "matches", "ball_contacts", "unforced_errors", "ufe_rate"]
    assert len(rows) == 3

    lowest, highest = rate_rankings(list(profiles.values()), min_matches=1, k=2)
    r_csv = tmp_path / "rankings.csv"
    rankings_to_csv(lowest, highest, r_csv)
    with open(r_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["group", "rank", "player", "matches", "ufe_rate"]
    assert {row[0] for row in rows[1:]} == {"lowest", "highest"}

    t_csv = tmp_path / "touch.csv"
    touch_curve_to_csv(ufe_rate_by_touch(records, role=R), t_csv)
    y_csv = tmp_path / "year.csv"
    year_series_to_csv(ufe_rate_by_year(records), y_csv)
    h_csv = tmp_path / "hist.csv"
    histogram_to_csv(histogram_bins(profiles.values()), h_csv)
    for path in (t_csv, y_csv, h_csv):
        with open(path, newline="") as fh:
            assert len(list(csv.reader(fh))) >= 2


def test_all_rates_bounded():
    records = corpus()
    for profile in collect_profiles(records).values():
        assert 0.0 <= profile.ufe_rate <= 1.0
        for rate in profile.per_touch_rates.values():
            assert 0.0 <= rate <= 1.0
    for _, rate in ufe_rate_by_touch(records, role=S):
        assert 0.0 <= rate <= 1.0


@st.composite
def serve_records(draw):
    """Any valid record among three players, rallies up to touch 20."""
    server, receiver = draw(st.permutations(["P One", "P Two", "P Three"]))[:2]
    context = dict(
        match_id=f"m{draw(st.integers(0, 3))}",
        year=draw(st.sampled_from([None, 2018, 2019])),
        tour=draw(st.sampled_from(["ATP", "WTA"])),
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
    striker = S if touch % 2 else R  # who hit the last touch
    if kind is K.RALLY_WINNER:
        return make_record(
            server, receiver, kind, touch, striker, serve_number=serve_number, **context
        )
    opponent = R if striker is S else S
    return make_record(
        server, receiver, kind, touch, opponent, committer=striker,
        serve_number=serve_number, **context,
    )


@settings(max_examples=300, deadline=None)
@given(
    records=st.lists(serve_records(), max_size=60),
    tour=st.sampled_from([None, "ATP", "WTA"]),
    max_touch=st.integers(1, 15),
)
def test_tally_matches_per_metric_references(records, tour, max_touch):
    tally = tour_tally(tally_records(records, max_touch=max_touch), tour)
    assert tally.profiles() == reference_profiles(records, tour, max_touch)
    for role in Role:
        assert tally.touch_curve(role) == reference_touch_curve(records, tour, role, max_touch)
    assert tally.year_series() == reference_year_series(records, tour)
    assert tally.ufe_rate() == reference_ufe_rate(records, tour)
    assert tally.termination_share() == reference_termination_share(records, tour)


# Edge cases of the column tally against the record-by-record one.


def _same_as_reference_tally(records, tour=None, max_touch=DEFAULT_MAX_TOUCH):
    tally = tour_tally(tally_records(records, max_touch), tour)
    if isinstance(records, RecordTable):
        records = records.to_records()
    reference = reference_tally_records(records, tour, max_touch)
    assert tally.players == tuple(reference.players)
    profiles = tally.profiles()
    assert profiles == reference.profiles()
    for p in profiles.values():
        assert {type(p.matches_played), type(p.ball_contacts), type(p.unforced_errors)} == {int}
        assert type(p.ufe_rate) is float
    for role in Role:
        assert tally.touch_curve(role) == reference.touch_curve(role)
    assert tally.year_series() == reference.year_series()
    assert type(tally.ufe_rate()) is float and tally.ufe_rate() == reference.ufe_rate()
    assert tally.termination_share() == reference.termination_share()
    assert dict(zip(tally.players, tally.matches)) == reference_matches_per_player(records, tour)
    return tally


@pytest.mark.parametrize("tour", [None, "ATP"])
def test_tally_of_an_empty_table(tour):
    for records in ([], RecordTable.from_records([])):
        tally = _same_as_reference_tally(records, tour)
        assert tally.players == () and tally.profiles() == {}
        assert tally.touch_curve(S) == tally.year_series() == []
        assert tally.ufe_rate() == tally.termination_share() == 0.0


def test_tally_of_a_tour_without_decisive_rows_or_not_in_the_table():
    records = corpus() + [
        make_record("W One", "W Two", K.FIRST_SERVE_FAULT, 1, None, fault=True, tour="WTA")
    ]
    tally = _same_as_reference_tally(records, "WTA")
    assert tally.players == ("W One", "W Two")
    assert [p.ball_contacts for p in tally.profiles().values()] == [0, 0]
    assert tally.ufe_rate() == tally.termination_share() == 0.0
    assert _same_as_reference_tally(records, "ITF").players == ()
    untoured = [make_record("A", "B", K.RALLY_WINNER, 3, S, tour=None)]
    assert _same_as_reference_tally(untoured, None).players == ("A", "B")
    assert _same_as_reference_tally(untoured, "ATP").players == ()


def test_tally_with_every_year_unknown():
    records = [make_record(r.server_id, r.receiver_id, r.terminal_kind, r.terminal_touch,
                           r.point_winner, r.error_committer, r.serve_number,
                           r.is_first_serve_fault, MID, year=None) for r in corpus()]
    tally = _same_as_reference_tally(records)
    assert tally.years == () and tally.year_series() == []
    assert all(p.per_year_rates == {} for p in tally.profiles().values())
    assert tally.ufe_rate() == 2 / 11


def test_tally_of_a_player_who_only_receives():
    records = [
        make_record("A", "B", K.RALLY_WINNER, 4, R),
        make_record("A", "C", K.UNFORCED_ERROR, 4, S, committer=R),
        make_record("B", "A", K.ACE, 1, S),
    ]
    tally = _same_as_reference_tally(records)
    c = tally.profiles()["C"]
    assert (c.matches_played, c.ball_contacts, c.unforced_errors) == (1, 2, 1)
    assert c.per_touch_rates == {("receiver", 2): 0.0, ("receiver", 4): 1.0}


@pytest.mark.parametrize("max_touch", [1, 15])
def test_tally_at_the_ends_of_max_touch(two_player_records, max_touch):
    long_rallies = [
        make_record("Ann Ace", "Bob Base", K.UNFORCED_ERROR, t, R if t % 2 else S,
                    committer=S if t % 2 else R)
        for t in range(2, 21)
    ]
    tally = _same_as_reference_tally(two_player_records + long_rallies, max_touch=max_touch)
    assert len(tally.served) == 2 and all(len(row) == max_touch + 1 for row in tally.served)


def test_tally_of_the_longest_int32_touch():
    longest = 2**31 - 1  # (touch + 1) // 2 would wrap in int32
    records = [
        make_record("A", "B", K.UNFORCED_ERROR, longest, R, committer=S),
        make_record("B", "A", K.UNFORCED_ERROR, longest - 1, S, committer=R),
        make_record("A", "B", K.RALLY_WINNER, longest, S),
    ]
    table = RecordTable.from_records(records)
    assert table.touch.max() == longest
    tally = _same_as_reference_tally(table)
    assert tally.contacts == [2**31 + 2**30 - 1, 2**31 + 2**30 - 3] == [
        sum(touch_exposure(r.terminal_touch)[r.server_id != player] for r in records)
        for player in ("A", "B")
    ]
    for max_touch in (1, 15):
        _same_as_reference_tally(table, max_touch=max_touch)


def test_tally_meets_players_in_row_order():
    records = [
        make_record("D", "E", K.FIRST_SERVE_FAULT, 1, None, fault=True, tour="WTA"),
        make_record("B", "C", K.ACE, 1, S),
        make_record("A", "B", K.RALLY_WINNER, 3, S),
        make_record("C", "F", K.ACE, 1, S, tour="WTA"),
        make_record("E", "A", K.ACE, 1, S),
    ]
    assert _same_as_reference_tally(records).players == ("D", "E", "B", "C", "A", "F")
    assert _same_as_reference_tally(records, "ATP").players == ("B", "C", "A", "E")
    assert _same_as_reference_tally(records, "WTA").players == ("D", "E", "C", "F")


@pytest.mark.parametrize("count_rows", [1, 2, 3, 8192])
def test_tally_of_a_match_across_chunks_and_tours(count_rows, monkeypatch):
    # Match M's rows name ATP and WTA and fall in more than one chunk of
    # the pass for each chunk size but the last.
    monkeypatch.setattr(analytics, "_COUNT_ROWS", count_rows)
    records = [
        make_record("A", "B", K.ACE, 1, S, match_id="M", tour="ATP"),
        make_record("C", "D", K.UNFORCED_ERROR, 4, S, committer=R, tour="WTA"),
        make_record("B", "A", K.RALLY_WINNER, 3, S, match_id="M", tour="ATP"),
        make_record("A", "B", K.UNFORCED_ERROR, 4, S, committer=R, match_id="M", tour="WTA",
                    year=2020),
        make_record("C", "A", K.FIRST_SERVE_FAULT, 1, None, fault=True, tour="WTA"),
        make_record("B", "A", K.DOUBLE_FAULT, 1, R, serve_number=2, match_id="M", tour="WTA"),
    ]
    table = RecordTable.from_records(records)
    for tour, a_matches in ((None, 2), ("ATP", 1), ("WTA", 2)):
        tally = _same_as_reference_tally(table, tour)
        matches = dict(zip(tally.players, tally.matches))
        # B plays M alone; A plays M and a WTA match against C.
        assert (matches["A"], matches["B"]) == (a_matches, 1)
