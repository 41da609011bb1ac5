"""Decoder for Match Charting Project shot notation.

A point string is: optional let marks, one serve direction digit, then
either a fault/terminal for the serve or a sequence of rally shots ending
in a terminal marker.  Reference key (MCP charting convention):

  serve direction   0 unknown, 4 wide, 5 body, 6 down the T
  serve-and-volley  '+' directly after the direction digit
  lets              'c', repeated once per let, before the direction
  fault letters     n net, w wide, d deep, x wide+deep, g foot fault,
                    e unknown, ! shank
  rally shots       f b r s v z o p u y l m h i j k t q (one contact each)
  shot annotations  direction 1-3 (0 unknown), return depth 7-9
  shot modifiers    '+' approach, '-' at net, '=' at baseline, ';' net cord
  error detail      n w d x e ! on the final errant shot
  terminal marks    '*' winner, '@' unforced error, '#' forced error
                    ('*'/'#' directly after the serve: ace / service winner)

The serve is touch 1, so the parity of the terminal touch identifies the
player who hit the final ball: odd touches belong to the server.

One compiled pattern, built from the key, decides whether a notation is
accepted; the touch is then 1 plus the number of its rally-shot letters.
The outcome depends only on the serve number, the terminal mark and that
touch, so point_outcome memoizes it.  A notation the pattern rejects is
walked character by character, only to say what is wrong and where
(NotationError's message and offset).
"""
from __future__ import annotations

import re
from functools import lru_cache
from typing import NamedTuple

from .errors import NotationError
from .sidecar import Role, TerminalKind, opponent_role

SERVE_DIRECTIONS = frozenset("0456")
FAULT_LETTERS = frozenset("nwdxge!")
RALLY_SHOTS = frozenset("fbrsvzopuylmhijktq")
SHOT_ANNOTATIONS = frozenset("0123789")
SHOT_MODIFIERS = frozenset("+-=;")
ERROR_DETAILS = frozenset("nwdxe!")
TERMINALS = frozenset("*@#")


def _one_of(chars: frozenset[str]) -> str:
    return "[" + "".join(map(re.escape, sorted(chars))) + "]"


# The key as the walk reads it.  The '+' after the direction is taken
# whenever it is there, and a rally cannot open with a fault letter, so
# no backtracking makes "4+nf*" a rally.  Group 1 is the terminal mark,
# None for a serve fault.
_ACCEPTED = re.compile(
    rf"c*{_one_of(SERVE_DIRECTIONS)}(?:\+|(?!\+))"
    rf"(?:{_one_of(FAULT_LETTERS)}+"
    rf"|(?!{_one_of(FAULT_LETTERS)})"
    rf"{_one_of(RALLY_SHOTS | SHOT_ANNOTATIONS | SHOT_MODIFIERS | ERROR_DETAILS)}*"
    rf"({_one_of(TERMINALS)}))"
)
# bytes.translate deletes these three times faster than str.translate.
_RALLY_SHOT_BYTES = "".join(sorted(RALLY_SHOTS)).encode()


class ParsedPoint(NamedTuple):
    terminal_touch: int
    terminal_kind: TerminalKind
    error_committer: Role | None
    point_winner: Role | None


def _committer(touch: int) -> Role:
    # Odd touches are the server's contacts, even touches the receiver's.
    return Role.SERVER if touch % 2 == 1 else Role.RECEIVER


def parse_shot_notation(notation: str, serve_number: int) -> ParsedPoint:
    """Decode one serve's notation into (touch, kind, committer, winner).

    serve_number tells fault handling apart: a bare fault is a
    first_serve_fault for serve 1 and a double_fault for serve 2.
    Raises NotationError for anything outside the key above.
    """
    if serve_number not in (1, 2):
        raise ValueError(f"serve_number must be 1 or 2, got {serve_number}")
    return point_outcome(serve_number, *scan_notation(notation))


def scan_notation(notation: str) -> tuple[str | None, int]:
    """The terminal mark and touch of one serve's notation.

    The mark is '*', '#' or '@', or None for a serve fault (touch 1).
    Raises NotationError for anything outside the key above.
    """
    s = notation.strip()
    accepted = _ACCEPTED.fullmatch(s)
    if accepted is not None:
        mark = accepted.group(1)
        touch = 1 + len(s) - len(s.encode().translate(None, _RALLY_SHOT_BYTES))
        if mark != "@" or touch > 1:  # the walk rejects an '@' on the serve
            return mark, touch
    return _walk(notation, s)


def _walk(notation: str, s: str) -> tuple[str | None, int]:
    """scan_notation one character at a time, for the error it raises."""
    if not s:
        raise NotationError("empty notation", notation=notation, offset=0)

    i = 0
    while i < len(s) and s[i] == "c":  # lets replay the same serve; skip them
        i += 1
    if i >= len(s):
        raise NotationError("nothing after let marks", notation=notation, offset=i)
    if s[i] not in SERVE_DIRECTIONS:
        raise NotationError(
            f"expected a serve direction digit, found {s[i]!r}", notation=notation, offset=i
        )
    i += 1
    if i < len(s) and s[i] == "+":  # serve-and-volley intent
        i += 1

    if i < len(s) and s[i] in FAULT_LETTERS:
        while i < len(s) and s[i] in FAULT_LETTERS:
            i += 1
        if i != len(s):
            raise NotationError(
                f"unexpected {s[i]!r} after a serve fault", notation=notation, offset=i
            )
        return None, 1

    touch = 1
    while i < len(s):
        ch = s[i]
        if ch in TERMINALS:
            if i != len(s) - 1:
                raise NotationError(
                    f"characters after terminal marker {ch!r}", notation=notation, offset=i + 1
                )
            if ch == "@" and touch == 1:
                raise NotationError(
                    "unforced error marker on the serve itself", notation=notation, offset=i
                )
            return ch, touch
        if ch in RALLY_SHOTS:
            touch += 1
        elif ch in SHOT_ANNOTATIONS or ch in SHOT_MODIFIERS or ch in ERROR_DETAILS:
            pass
        else:
            raise NotationError(f"unrecognized shot code {ch!r}", notation=notation, offset=i)
        i += 1

    raise NotationError("missing terminal marker", notation=notation, offset=len(s))


@lru_cache(maxsize=1024)
def point_outcome(serve_number: int, mark: str | None, touch: int) -> ParsedPoint:
    """The outcome of a serve whose notation scan_notation read as
    (mark, touch).

    Memoized: the outcome is immutable and charted touches are few, so
    a decode reuses one ParsedPoint per (serve_number, mark, touch).
    """
    if mark is None:
        if serve_number == 1:
            return ParsedPoint(1, TerminalKind.FIRST_SERVE_FAULT, None, None)
        return ParsedPoint(1, TerminalKind.DOUBLE_FAULT, None, Role.RECEIVER)
    if mark == "*":
        if touch == 1:
            return ParsedPoint(1, TerminalKind.ACE, None, Role.SERVER)
        return ParsedPoint(touch, TerminalKind.RALLY_WINNER, None, _committer(touch))
    if mark == "#":
        if touch == 1:
            return ParsedPoint(1, TerminalKind.SERVICE_WINNER, None, Role.SERVER)
        who = _committer(touch)
        return ParsedPoint(touch, TerminalKind.FORCED_ERROR, who, opponent_role(who))
    # '@', never on the serve itself
    who = _committer(touch)
    return ParsedPoint(touch, TerminalKind.UNFORCED_ERROR, who, opponent_role(who))
