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
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

from .errors import TableFormatError, TouchRangeError

MIN_TOUCH = 2
MAX_TOUCH = 10

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


@dataclass(frozen=True, slots=True)
class TouchWinTable:
    """Map touch -> P(the error's committer wins the point absent the UFE).

    by_touch holds the same probabilities in a tuple indexed by touch
    (None below MIN_TOUCH), so a lookup is one index at
    min(t, MAX_TOUCH).
    """

    prob_by_touch: Mapping[int, float]
    by_touch: tuple[float | None, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        touches = sorted(self.prob_by_touch)
        if touches != list(range(MIN_TOUCH, MAX_TOUCH + 1)):
            raise TableFormatError(
                f"table must cover touches {MIN_TOUCH}..{MAX_TOUCH} exactly, got {touches}"
            )
        for t, p in self.prob_by_touch.items():
            if not 0.0 < p < 1.0:
                raise TableFormatError(f"probability at touch {t} must be in (0,1), got {p}")
        object.__setattr__(self, "prob_by_touch", MappingProxyType(dict(self.prob_by_touch)))
        by_touch = tuple(self.prob_by_touch.get(t) for t in range(MAX_TOUCH + 1))
        object.__setattr__(self, "by_touch", by_touch)

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


@dataclass(frozen=True, slots=True)
class ReductionPolicy:
    """Remove each of A's sampled unforced errors with probability x."""

    x: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.x <= 1.0:
            raise ValueError(f"x must be within [0,1], got {self.x}")


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
        with open(path, encoding="utf-8") as fh:
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
