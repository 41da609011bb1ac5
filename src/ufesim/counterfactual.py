"""Counterfactual win probabilities and the error-removal policy.

When a simulated point lands on an unforced error by player A at touch
t, the what-if machinery may strike the error and instead award the
point to A with the touch-indexed probability below (estimated from ATP
rallies that were still live at touch t).  Touches past 10 are sparse
and share the t = 10 value.
"""
from __future__ import annotations

import random
import warnings
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .errors import TableFormatError, TouchRangeError
from .sidecar import MAX_TOUCH

MIN_TOUCH = 2

_DEFAULT_PROBS: Mapping[int, float] = MappingProxyType(
    {
        2: 0.535,
        3: 0.599,
        4: 0.558,
        5: 0.586,
        6: 0.569,
        7: 0.575,
        8: 0.571,
        9: 0.573,
        10: 0.573,
    }
)


class _TouchWinTable(NamedTuple):
    prob_by_touch: Mapping[int, float]
    by_touch: tuple[float | None, ...]


class TouchWinTable(_TouchWinTable):
    """Map touch -> P(the error's committer wins the point absent the UFE).

    by_touch holds the same probabilities in a tuple indexed by touch
    (None below MIN_TOUCH), so a lookup is one index at
    min(t, MAX_TOUCH).  It is derived: the constructor, _make and
    _replace take prob_by_touch and work it out.
    """

    __slots__ = ()

    def __new__(cls, prob_by_touch: Mapping[int, float]) -> TouchWinTable:
        touches = sorted(prob_by_touch)
        if touches != list(range(MIN_TOUCH, MAX_TOUCH + 1)):
            raise TableFormatError(
                f"table must cover touches {MIN_TOUCH}..{MAX_TOUCH} exactly, got {touches}"
            )
        for t, p in prob_by_touch.items():
            if not 0.0 < p < 1.0:
                raise TableFormatError(f"probability at touch {t} must be in (0,1), got {p}")
        probs = MappingProxyType(dict(prob_by_touch))
        return super().__new__(cls, probs, tuple(map(probs.get, range(MAX_TOUCH + 1))))

    @classmethod
    def _make(cls, values) -> TouchWinTable:
        # Through the checks, as _replace calls it; by_touch is worked out again.
        prob_by_touch, _ = values
        return cls(prob_by_touch)

    def __getnewargs__(self) -> tuple:
        return (dict(self.prob_by_touch),)

    def lookup(self, t: int) -> float:
        if t < MIN_TOUCH:
            raise TouchRangeError(f"touch must be at least {MIN_TOUCH}, got {t}")
        return self.by_touch[t if t < MAX_TOUCH else MAX_TOUCH]


def default_table() -> TouchWinTable:
    return TouchWinTable(prob_by_touch=_DEFAULT_PROBS)


def prob_win_if_no_ufe(table: TouchWinTable, t: int) -> float:
    """Win probability had the touch-t unforced error not happened."""
    return table.lookup(t)


def resolve_removed_ufe(table: TouchWinTable, t: int, rng: random.Random) -> str:
    """Redraw the point after striking the error: 'A' wins with p_t.

    Consumes exactly one uniform draw.
    """
    p = table.lookup(t)
    return "A" if rng.random() < p else "B"


class _ReductionPolicy(NamedTuple):
    x: float


class ReductionPolicy(_ReductionPolicy):
    """Remove each of A's sampled unforced errors with probability x."""

    __slots__ = ()

    def __new__(cls, x: float) -> ReductionPolicy:
        if not 0.0 <= x <= 1.0:
            raise ValueError(f"x must be within [0,1], got {x}")
        return super().__new__(cls, x)

    @classmethod
    def _make(cls, values) -> ReductionPolicy:
        # Through the checks, as _replace calls it; the tuple's own skips them.
        return cls(*values)


HISTORIC = ReductionPolicy(x=0.0)
ELIMINATE = ReductionPolicy(x=1.0)


def should_remove_ufe(policy: ReductionPolicy, rng: random.Random) -> bool:
    """One Bernoulli(x) draw per sampled UFE; always consumes one uniform."""
    return rng.random() < policy.x


def check_monotonicity(table: TouchWinTable) -> list[str]:
    """Return human-readable violations of the expected touch pattern.

    Even touches should not decrease with t and odd touches should not
    increase; the default table satisfies both.
    """
    problems: list[str] = []
    evens = [t for t in range(MIN_TOUCH, MAX_TOUCH + 1) if t % 2 == 0]
    odds = [t for t in range(MIN_TOUCH, MAX_TOUCH + 1) if t % 2 == 1]
    for seq, direction in ((evens, "non-decreasing"), (odds, "non-increasing")):
        for prev, cur in zip(seq, seq[1:]):
            a, b = table.prob_by_touch[prev], table.prob_by_touch[cur]
            bad = a > b if direction == "non-decreasing" else a < b
            if bad:
                problems.append(
                    f"{direction} violated between touches {prev} and {cur}: {a} vs {b}"
                )
    return problems


def load_table(path: str) -> TouchWinTable:
    """Read a table override file: one 'touch probability' pair per line.

    Blank lines and lines starting with '#' are ignored.  The file must
    cover touches 2..10 exactly once each.  A table that breaks the
    expected even/odd pattern loads with a warning, since user-supplied
    estimates are allowed to be noisy.
    """
    probs: dict[int, float] = {}
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise TableFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise TableFormatError(f"{path}: line {lineno}: expected 'touch probability'")
        try:
            t = int(parts[0])
            p = float(parts[1])
        except ValueError:
            raise TableFormatError(f"{path}: line {lineno}: could not parse {line!r}") from None
        if t in probs:
            raise TableFormatError(f"{path}: line {lineno}: duplicate touch {t}")
        probs[t] = p
    try:
        table = TouchWinTable(prob_by_touch=probs)
    except TableFormatError as exc:
        raise TableFormatError(f"{path}: {exc}") from None
    for problem in check_monotonicity(table):
        warnings.warn(f"{path}: {problem}", stacklevel=2)
    return table
