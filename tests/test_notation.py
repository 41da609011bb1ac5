"""Golden decodes for the shot-notation parser.

Every expected tuple below was worked out by hand from the charting key
before the parser existed: count one contact per rally letter starting
from the serve as touch 1, read the last character as the terminal, and
assign the error to whoever hit the final ball (odd touch: server).
"""
from __future__ import annotations

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from oracles import reference_parse_shot_notation
from ufesim.errors import NotationError
from ufesim.notation import ParsedPoint, parse_shot_notation, point_outcome
from ufesim.records import Role, TerminalKind

S, R = Role.SERVER, Role.RECEIVER
K = TerminalKind

# (notation, serve_number) -> (terminal_touch, kind, error_committer, winner)
GOLDEN = [
    # Serve-only points.
    (("4*", 1), (1, K.ACE, None, S)),
    (("6#", 1), (1, K.SERVICE_WINNER, None, S)),
    (("cc6*", 1), (1, K.ACE, None, S)),
    (("5*", 2), (1, K.ACE, None, S)),
    # Faults.
    (("4n", 1), (1, K.FIRST_SERVE_FAULT, None, None)),
    (("4x", 1), (1, K.FIRST_SERVE_FAULT, None, None)),
    (("4g", 1), (1, K.FIRST_SERVE_FAULT, None, None)),
    (("5!", 1), (1, K.FIRST_SERVE_FAULT, None, None)),
    (("5w", 2), (1, K.DOUBLE_FAULT, None, R)),
    (("6d", 2), (1, K.DOUBLE_FAULT, None, R)),
    (("6e", 2), (1, K.DOUBLE_FAULT, None, R)),
    # Rally winners.
    (("5f8b3*", 1), (3, K.RALLY_WINNER, None, S)),
    (("6b28f1*", 1), (3, K.RALLY_WINNER, None, S)),
    (("4+f18v2*", 1), (3, K.RALLY_WINNER, None, S)),
    (("5+f27v1*", 1), (3, K.RALLY_WINNER, None, S)),
    (("4q*", 1), (2, K.RALLY_WINNER, None, R)),
    (("6f1b2f3b1f3*", 1), (6, K.RALLY_WINNER, None, R)),
    (("4f28b3u1*", 1), (4, K.RALLY_WINNER, None, R)),
    (("6m2f1o3*", 1), (4, K.RALLY_WINNER, None, R)),
    # Unforced errors.
    (("4f8b2f1n@", 1), (4, K.UNFORCED_ERROR, R, S)),
    (("4s38r1l2w@", 1), (4, K.UNFORCED_ERROR, R, S)),
    (("0f8n@", 1), (2, K.UNFORCED_ERROR, R, S)),
    (("6f1d@", 2), (2, K.UNFORCED_ERROR, R, S)),
    (("4f2b1f1x@", 1), (4, K.UNFORCED_ERROR, R, S)),
    (("5r2f1b3n@", 1), (4, K.UNFORCED_ERROR, R, S)),
    (("6f1s2d@", 1), (3, K.UNFORCED_ERROR, S, R)),
    (("4b28z1e@", 2), (3, K.UNFORCED_ERROR, S, R)),
    # Forced errors.
    (("5b9f2d#", 1), (3, K.FORCED_ERROR, S, R)),
    (("5b27s2n#", 1), (3, K.FORCED_ERROR, S, R)),
    (("4b3w#", 2), (2, K.FORCED_ERROR, R, S)),
    (("6+v1n#", 1), (2, K.FORCED_ERROR, R, S)),
]


@pytest.mark.parametrize(("args", "expected"), GOLDEN)
def test_golden_decode(args, expected):
    notation, serve_number = args
    got = parse_shot_notation(notation, serve_number)
    assert got == ParsedPoint(*expected)


def test_parity_holds_across_corpus():
    # Whoever hit the terminal ball is fixed by touch parity, so every
    # error committer in the corpus must match it.
    for (notation, serve_number), _ in GOLDEN:
        parsed = parse_shot_notation(notation, serve_number)
        if parsed.error_committer is None:
            continue
        expect = S if parsed.terminal_touch % 2 == 1 else R
        assert parsed.error_committer is expect
        assert parsed.point_winner is (R if expect is S else S)


def test_winner_terminals_award_the_contactor():
    for (notation, serve_number), _ in GOLDEN:
        parsed = parse_shot_notation(notation, serve_number)
        if parsed.terminal_kind not in (K.ACE, K.SERVICE_WINNER, K.RALLY_WINNER):
            continue
        expect = S if parsed.terminal_touch % 2 == 1 else R
        assert parsed.point_winner is expect


@pytest.mark.parametrize(
    ("notation", "serve_number", "offset_hint"),
    [
        ("", 1, 0),
        ("   ", 1, 0),
        ("Z*", 1, 0),
        ("S", 1, 0),
        ("4f2*x", 1, 4),
        ("4f2", 1, None),
        ("4", 1, None),
        ("4@", 1, None),
        ("4nf2*", 1, 2),
        ("cc", 1, None),
    ],
)
def test_rejects_malformed_strings(notation, serve_number, offset_hint):
    with pytest.raises(NotationError) as exc:
        parse_shot_notation(notation, serve_number)
    if offset_hint is not None:
        assert exc.value.offset == offset_hint


def test_lets_do_not_change_the_decode():
    plain = parse_shot_notation("4f8b2f1n@", 1)
    with_lets = parse_shot_notation("c4f8b2f1n@", 1)
    assert plain == with_lets


def test_one_outcome_per_serve_mark_and_touch():
    """point_outcome is memoized: notations that share a serve number,
    terminal mark and touch share one ParsedPoint."""
    first = parse_shot_notation("4f8b2f1n@", 1)
    assert parse_shot_notation("c6+r3s1v@", 1) is first
    assert first == point_outcome.__wrapped__(1, "@", 4)


def test_serve_number_must_be_one_or_two():
    with pytest.raises(ValueError):
        parse_shot_notation("4*", 3)


# Where a pattern could backtrack into an answer the walk never gives.
BACKTRACK_GOLDEN = [
    # The '+' is serve-and-volley, so 'n' opens a fault that 'f' breaks;
    # a pattern skipping the '+' would read a rally "+nf*".
    (("4+nf*", 1), ("unexpected 'f' after a serve fault", 3)),
    (("4++f*", 1), (2, K.RALLY_WINNER, None, R)),
    (("4+*", 1), (1, K.ACE, None, S)),
    (("4@", 1), ("unforced error marker on the serve itself", 1)),
    (("c4n", 1), (1, K.FIRST_SERVE_FAULT, None, None)),
    (("c4n", 2), (1, K.DOUBLE_FAULT, None, R)),
]


def _decode(parse, notation, serve_number):
    """A ParsedPoint, or (message, offset) of the NotationError raised."""
    try:
        return parse(notation, serve_number)
    except NotationError as exc:
        assert exc.notation == notation
        return str(exc), exc.offset


@pytest.mark.parametrize(("args", "expected"), BACKTRACK_GOLDEN)
def test_backtracking_golden(args, expected):
    notation, serve_number = args
    got = _decode(parse_shot_notation, notation, serve_number)
    if isinstance(got, ParsedPoint):
        assert got == ParsedPoint(*expected)
    else:
        message, offset = expected
        assert got == (f"{message} (notation {notation!r}, offset {offset})", offset)
    assert got == _decode(reference_parse_shot_notation, notation, serve_number)


KEY = "c0456+nwdxge!fbrsvzopuylmhijktq123789-=;*@#"
STRAY = " \t\n\r\x0b\x0c\x85\xa0\u3000\x00CZ~é²٣"


def _mostly(draw, usual, odd):
    return draw(odd) if draw(st.integers(0, 7)) == 0 else draw(usual)


@st.composite
def shaped_notations(draw):
    """Lets, a direction, maybe '+', a body and a terminal, each part now
    and then off the key, so that many strings are accepted and the rest
    fail near acceptance."""
    body = KEY[5:-3]
    return "".join([
        _mostly(draw, st.just(""), st.text(STRAY[:9], max_size=2)),
        draw(st.text("c", max_size=2)),
        _mostly(draw, st.sampled_from("0456"), st.text(KEY + STRAY, max_size=1)),
        draw(st.text("+", max_size=2)),
        _mostly(draw, st.text(body, max_size=8), st.text(body + STRAY, max_size=8)),
        _mostly(draw, st.sampled_from("*@#"), st.text(KEY, max_size=2)),
        _mostly(draw, st.just(""), st.text(STRAY[:9], max_size=2)),
    ])


@settings(max_examples=2000, deadline=None)
@given(
    notation=shaped_notations() | st.text(KEY + STRAY, max_size=12),
    serve_number=st.sampled_from([1, 2]),
)
@example(notation="4+nf*", serve_number=1)
@example(notation="4++f*", serve_number=2)
def test_pattern_decodes_as_the_walk(notation, serve_number):
    got = _decode(parse_shot_notation, notation, serve_number)
    event("accepted" if isinstance(got, ParsedPoint) else "rejected")
    assert got == _decode(reference_parse_shot_notation, notation, serve_number)
