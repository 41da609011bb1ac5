"""Bootstrap Monte Carlo simulation of matches from serve pools.

One simulated point: draw a serve from the current server's first-serve
pool; on a fault, draw again from their second-serve pool.  If the
decisive serve is an unforced error by player A, the reduction policy
may strike it, in which case the point is re-resolved from the
touch-indexed counterfactual table.  Replicate summaries carry
bootstrap standard errors.

The pools are drawn as the int point codes a ServePoolSet compiles once
(-1 fault, 0 A wins, 1 B wins, t >= 2 an unforced error by A at touch
t, clamped at 10).  Every match is played by one kernel, _play_match:
the scoring rules as loops over local int counters around one point
loop, which holds the point draw once and calls no Python function.  A
tiebreak is a game in that loop, to the format's target points by 2,
whose serve changes after each odd point.  simulate_match wraps the
kernel's counters in a MatchResult; a replicate block appends each
match's shares straight to its columns.  A point consumes uniforms from
the replicate stream in a fixed order: one per serve drawn, one removal
draw for every drawn error by A (whatever x is, x = 0 included), and one
resolution draw when the error is struck.  Only rng.random() is called,
and the first server costs one draw under the 'random' policy.  A serve
drawn with uniform u from a pool of n codes is the code at index
floor(u * n).  For u in [0, 1) that is the index int(u * n) gives, so
seeded outputs match those of int() draws bit for bit; math.floor is
the cheaper call on CPython 3.10-3.12, where int(float) goes through
the int type's constructor.

Replicates run on every CPU the process may use.  run_simulation and
compare_scenarios cut each scenario into blocks of at least _MIN_BLOCK
replicates and hand every block to forking.forked, the fork helper
ingest shares.  It decides where they are played: in forked worker
processes, one per allowed CPU (os.sched_getaffinity, so `taskset`
limits the count) and at most one per full block, or in process when
that is fewer than two.  Replicate i always draws from its own stream
replicate_stream(seed, i), and a block returns only its per-match shares
as flat float columns, which are joined in index order; so every summary
is bit-identical for any number of workers.
"""
from __future__ import annotations

import math
from array import array
from functools import reduce, wraps
from operator import add
from typing import Iterable, NamedTuple, Sequence

from .counterfactual import (
    ReductionPolicy,
    TouchWinTable,
    default_table,
    resolve_removed_ufe,
    should_remove_ufe,
)
from .errors import EndlessMatchError
from .forking import forked
from .pools import FAULT, PoolScope, ServePoolSet
from .rng import replicate_stream
from .scoring import PLAYERS, MatchFormat

FIRST_SERVER_POLICIES = ("alternate", "fixed_A", "fixed_B", "random")


def scenario_label(x: float) -> str:
    if x == 0.0:
        return "historic"
    if x == 1.0:
        return "eliminate"
    return f"reduce({x:g})"


def parse_scenario(token: str) -> float:
    """Turn a scenario token into a reduction fraction.

    Accepted forms: 'historic', 'eliminate', 'reduce:0.1', 'reduce=0.1'.
    """
    t = token.strip().lower()
    if t == "historic":
        return 0.0
    if t == "eliminate":
        return 1.0
    for sep in (":", "="):
        if t.startswith("reduce" + sep):
            try:
                x = float(t.split(sep, 1)[1])
            except ValueError:
                raise ValueError(f"bad reduction fraction in scenario {token!r}") from None
            if not 0.0 <= x <= 1.0:
                raise ValueError(f"reduction fraction must be in [0,1], got {x}")
            return x
    raise ValueError(
        f"unknown scenario {token!r}; expected historic, eliminate, or reduce:<x>"
    )


class _SimulationConfig(NamedTuple):
    n_matches: int = 3000
    seed: int = 20177
    reduction_x: float = 0.0
    format: MatchFormat = MatchFormat()
    first_server_policy: str = "alternate"
    pool_scope: PoolScope = PoolScope.HEAD_TO_HEAD


class SimulationConfig(_SimulationConfig):
    """Everything one run needs besides the pools and the table.

    reduction_x canonicalizes the scenario: 0 is the historic replay,
    1 removes every sampled unforced error by A, values between are the
    partial-reduction what-ifs.
    """

    __slots__ = ()

    @wraps(_SimulationConfig.__new__)  # the fields' signature and defaults
    def __new__(cls, *args, **kwargs) -> SimulationConfig:
        config = super().__new__(cls, *args, **kwargs)
        if config.n_matches < 1:
            raise ValueError("n_matches must be positive")
        if not 0.0 <= config.reduction_x <= 1.0:
            raise ValueError(f"reduction_x must be in [0,1], got {config.reduction_x}")
        if config.first_server_policy not in FIRST_SERVER_POLICIES:
            raise ValueError(
                f"first_server_policy must be one of {FIRST_SERVER_POLICIES}, "
                f"got {config.first_server_policy!r}"
            )
        return config

    @classmethod
    def _make(cls, values) -> SimulationConfig:
        # Through the checks, as _replace calls it; the tuple's own skips them.
        return cls(*values)

    @property
    def scenario(self) -> str:
        return scenario_label(self.reduction_x)


class PointOutcome(NamedTuple):
    winner: str
    serve_number: int
    ufe_by_a: bool
    ufe_removed: bool


class MatchResult(NamedTuple):
    points_won: tuple[int, int]
    games_won: tuple[int, int]
    sets_won: tuple[int, int]
    set_scores: tuple[tuple[int, int], ...]
    match_winner: str
    ufes_kept: int
    ufes_removed: int


class SimulationSummary(NamedTuple):
    scenario: str
    n_matches: int
    pct_points_won_a: float
    pct_games_won_a: float
    pct_sets_won_a: float
    pct_matches_won_a: float
    se_points: float
    se_games: float
    se_sets: float
    se_matches: float

    def to_dict(self) -> dict:
        return self._asdict()


def simulate_point(
    pools: ServePoolSet,
    server: str,
    table: TouchWinTable,
    policy: ReductionPolicy,
    rng,
) -> PointOutcome:
    """Play one point with `server` ('A' or 'B') serving."""
    side = PLAYERS.index(server)
    codes = pools.first_codes[side]
    code = codes[math.floor(rng.random() * len(codes))]
    serve_number = 1
    if code < 0:
        codes = pools.second_codes[side]
        code = codes[math.floor(rng.random() * len(codes))]
        serve_number = 2
    if code < 2:
        return PointOutcome(PLAYERS[code], serve_number, False, False)
    if should_remove_ufe(policy, rng):
        return PointOutcome(resolve_removed_ufe(table, code, rng), serve_number, True, True)
    return PointOutcome("B", serve_number, True, False)


def first_server_for(config: SimulationConfig, replicate_index: int, rng) -> str:
    policy = config.first_server_policy
    if policy == "alternate":
        return "A" if replicate_index % 2 == 0 else "B"
    if policy == "fixed_A":
        return "A"
    if policy == "fixed_B":
        return "B"
    return "A" if rng.random() < 0.5 else "B"


def simulate_match(
    config: SimulationConfig,
    pools: ServePoolSet,
    table: TouchWinTable,
    rng,
    replicate_index: int = 0,
) -> MatchResult:
    """Play one full match and tally its counters.

    Draws exactly as simulate_point would, point after point, but keeps
    everything in local ints: no record, outcome or score object per
    point.
    """
    first_server = PLAYERS.index(first_server_for(config, replicate_index, rng))
    points, games, sets, set_scores, winner, kept, removed = _play_match(
        config.format, first_server, config.reduction_x, *_pool_draws(pools, table), rng.random
    )
    return MatchResult(points, games, sets, set_scores, PLAYERS[winner], kept, removed)


def _pool_draws(pools: ServePoolSet, table: TouchWinTable) -> tuple:
    """_play_match's pool arguments: for each server (A first) a
    (first-serve codes, their count, second-serve codes, their count)
    tuple, and the chance that A wins a point whose error at each code is
    struck.

    The counts are floats: u * 2410.0 is the same double as u * 2410 for
    any size below 2**53, so floor(u * 2410.0) indexes as the int count
    does.
    """
    (a_first, b_first), (a_second, b_second) = pools.first_codes, pools.second_codes
    return (
        (
            (a_first, float(len(a_first)), a_second, float(len(a_second))),
            (b_first, float(len(b_first)), b_second, float(len(b_second))),
        ),
        table.by_touch,
    )


def _play_match(
    fmt: MatchFormat,
    server: int,
    x: float,
    serves: tuple[tuple[tuple[int, ...], float, tuple[int, ...], float], ...],
    struck_wins: tuple[float | None, ...],
    rand,
) -> tuple:
    """Play one match from the point codes; players are 0 for A, 1 for B.

    Returns (points, games, sets, set_scores, winner, ufes_kept,
    ufes_removed), each pair A's count first.  The rules, the serve
    rotation and every counter agree with new_match/apply_point fed the
    same winners, and each point draws as simulate_point does.

    Every point is played by one loop, which holds the point draw once
    and calls no Python function.  A game is won by the first to `goal`
    points with a lead of `margin`: 4 by 2 (4 by 1 without ad scoring),
    or, in a tiebreak, `target` by 2.  In a tiebreak the serve changes
    after each odd point; the tiebreak ends the set and counts as one
    game of the rotation, so the player who received its first point
    serves next.
    """
    lead = 2 if fmt.ad_scoring else 1  # no-ad: the first to four points wins
    trigger = fmt.tiebreak_trigger_games
    target = fmt.tiebreak_target_points
    sets_to_win = fmt.sets_to_win
    final_set = fmt.best_of - 1  # sets completed before the final set
    final_set_tiebreak = fmt.final_set_tiebreak
    floor = math.floor
    points_a = points_b = games_a = games_b = sets_a = sets_b = kept = removed = 0
    set_scores = []
    while True:
        ga = gb = 0
        set_has_tiebreak = final_set_tiebreak or sets_a + sets_b != final_set
        goal, margin, tiebreak = 4, lead, False
        while True:
            a = b = 0
            if ga == gb == trigger and set_has_tiebreak:
                goal, margin, tiebreak = target, 2, True
                opener = server
            firsts, n_firsts, seconds, n_seconds = serves[server]
            while True:
                code = firsts[floor(rand() * n_firsts)]
                if code < 0:
                    code = seconds[floor(rand() * n_seconds)]
                if code > 1:
                    # An unforced error by A at touch `code`: B's point unless struck.
                    if rand() < x:
                        removed += 1
                        code = 0 if rand() < struck_wins[code] else 1
                    else:
                        kept += 1
                        code = 1
                if code:
                    b += 1
                    if b >= goal and b - a >= margin:
                        break
                else:
                    a += 1
                    if a >= goal and a - b >= margin:
                        break
                if tiebreak and (a + b) % 2:
                    server = 1 - server
                    firsts, n_firsts, seconds, n_seconds = serves[server]
            server = 1 - server
            points_a += a
            points_b += b
            if b > a:
                gb += 1
                if gb >= trigger and gb - ga >= 2:
                    break
            else:
                ga += 1
                if ga >= trigger and ga - gb >= 2:
                    break
            if tiebreak:
                # A tiebreak ends the set (the check above lets a one-game
                # lead through) and counts as one game of the rotation.
                server = 1 - opener
                break
        games_a += ga
        games_b += gb
        set_scores.append((ga, gb))
        if gb > ga:
            sets_b += 1
            if sets_b == sets_to_win:
                winner = 1
                break
        else:
            sets_a += 1
            if sets_a == sets_to_win:
                winner = 0
                break
    return (
        (points_a, points_b),
        (games_a, games_b),
        (sets_a, sets_b),
        tuple(set_scores),
        winner,
        kept,
        removed,
    )


def binomial_se_pct(p_hat: float, n: int) -> float:
    """Standard error of a proportion, in percentage points."""
    return math.sqrt(p_hat * (1.0 - p_hat) / n) * 100.0


def _pct_share(pair: tuple[int, int]) -> float:
    total = pair[0] + pair[1]
    return 100.0 * pair[0] / total if total else 0.0


# Per-match figures of A, one float column each: the points, games and
# sets shares (percent) and the match win flag (1.0 or 0.0).
_Columns = tuple[array, array, array, array]


def _columns(results: Iterable[MatchResult]) -> _Columns:
    pts, gms, sts, wins = array("d"), array("d"), array("d"), array("d")
    for r in results:
        pts.append(_pct_share(r.points_won))
        gms.append(_pct_share(r.games_won))
        sts.append(_pct_share(r.sets_won))
        wins.append(1.0 if r.match_winner == "A" else 0.0)
    return pts, gms, sts, wins


# numpy's pairwise summation of float64 (Higham 1993), step for step:
# under 8 values a running sum from 0.0; up to _PAIRWISE_BLOCK, 8 strided
# running sums combined in pairs, then the rest added in order; above
# that, the two halves, split at a multiple of 8, summed so and added.
_PAIRWISE_BLOCK = 128


def _pairwise_sum(values: Sequence[float], start: int, n: int) -> float:
    """The sum of values[start:start + n] as numpy's add.reduce of a
    contiguous float64 array sums it."""
    if n < 8:
        return reduce(add, values[start : start + n], 0.0)
    if n <= _PAIRWISE_BLOCK:
        stop = start + n - n % 8
        r = [reduce(add, values[start + j : stop : 8]) for j in range(8)]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        return reduce(add, values[stop : start + n], total)
    half = n // 2
    half -= half % 8
    return _pairwise_sum(values, start, half) + _pairwise_sum(values, start + half, n - half)


def _mean(values: Sequence[float]) -> float:
    """numpy's mean: the reduction, which starts from 0.0, over n."""
    return (0.0 + _pairwise_sum(values, 0, len(values))) / len(values)


def _se(values: Sequence[float], mean: float) -> float:
    """The standard error of the mean, as numpy's std(ddof=1) / sqrt(n):
    the square root of the summed squared deviations over n - 1."""
    n = len(values)
    if n < 2:
        return 0.0
    squares = [(x - mean) * (x - mean) for x in values]
    return math.sqrt((0.0 + _pairwise_sum(squares, 0, n)) / (n - 1)) / math.sqrt(n)


def _summarize_columns(columns: _Columns, scenario: str) -> SimulationSummary:
    # Each mean and SE is numpy's over the column as a float64 array,
    # bit for bit, without numpy: its pairwise sums are copied above.
    pts, gms, sts, wins = columns
    n = len(pts)
    if n < 1:
        raise ValueError("cannot summarize zero matches")
    means = [_mean(column) for column in (pts, gms, sts)]
    se_points, se_games, se_sets = map(_se, (pts, gms, sts), means)
    p_hat = _mean(wins)
    return SimulationSummary(
        scenario=scenario,
        n_matches=n,
        pct_points_won_a=means[0],
        pct_games_won_a=means[1],
        pct_sets_won_a=means[2],
        pct_matches_won_a=100.0 * p_hat,
        se_points=se_points,
        se_games=se_games,
        se_sets=se_sets,
        se_matches=binomial_se_pct(p_hat, n),
    )


def summarize(results: Sequence[MatchResult], scenario: str) -> SimulationSummary:
    """Average per-match percentages and attach bootstrap SEs."""
    return _summarize_columns(_columns(results), scenario)


def _point_winners(pools: ServePoolSet, server: int, reduction_x: float) -> set[int]:
    """Who can win a point `server` (0 for A, 1 for B) serves, over the
    codes a draw can reach.

    The second-serve codes are reachable only if the first hold a fault,
    and with x > 0 a removable error by A (code >= 2) can go to either
    player; with x = 0 it goes to B.
    """
    codes = set(pools.first_codes[server])
    if FAULT in codes:
        codes.discard(FAULT)
        codes.update(pools.second_codes[server])
    winners = {code for code in codes if code < 2}
    if len(winners) < len(codes):
        winners.update((0, 1) if reduction_x > 0 else (1,))
    return winners


def _check_match_can_end(pools: ServePoolSet, reduction_x: float) -> None:
    """Raise EndlessMatchError when every point on A's serve goes to one
    player and every point on B's serve to the other."""
    on_a = _point_winners(pools, 0, reduction_x)
    on_b = _point_winners(pools, 1, reduction_x)
    if len(on_a) == len(on_b) == 1 and on_a != on_b:
        names = (pools.player_a, pools.player_b)
        raise EndlessMatchError(
            f"every point {pools.player_a} serves goes to {names[on_a.pop()]} and every "
            f"point {pools.player_b} serves goes to {names[on_b.pop()]}, so no match can end"
        )


# Fewest replicates in one block.  A worker is forked only per full block
# and per allowed CPU, so a call of fewer than 2 * _MIN_BLOCK matches
# never forks: below that, starting the pool costs more than it saves.
_MIN_BLOCK = 1000


class _Job(NamedTuple):
    configs: tuple[SimulationConfig, ...]
    pools: ServePoolSet
    table: TouchWinTable


def _replicate_block(job: _Job, config_index: int, start: int, stop: int) -> _Columns:
    """Play replicates start..stop-1 of job.configs[config_index].

    Appends each match's shares straight from _play_match's counters.
    Calls no numpy, so that forked workers never touch numpy's state.
    """
    config = job.configs[config_index]
    fmt, x, seed = config.format, config.reduction_x, config.seed
    draws = _pool_draws(job.pools, job.table)
    pts, gms, sts, wins = columns = _columns(())
    for i in range(start, stop):
        rng = replicate_stream(seed, i)
        first_server = PLAYERS.index(first_server_for(config, i, rng))
        (pa, pb), (ga, gb), (sa, sb), _, winner, _, _ = _play_match(
            fmt, first_server, x, *draws, rng.random
        )
        # A played match has a point, a game and a set: no total is 0.
        pts.append(100.0 * pa / (pa + pb))
        gms.append(100.0 * ga / (ga + gb))
        sts.append(100.0 * sa / (sa + sb))
        wins.append(1.0 if winner == 0 else 0.0)
    return columns


def _blocks(n_matches: int) -> list[tuple[int, int]]:
    """Index ranges cutting 0..n_matches-1 into blocks of at least
    _MIN_BLOCK replicates (one shorter block when n_matches is smaller)."""
    k = max(1, n_matches // _MIN_BLOCK)
    return [(n_matches * j // k, n_matches * (j + 1) // k) for j in range(k)]


def _replicate_task(job: _Job, task: tuple[int, int, int]) -> _Columns:
    return _replicate_block(job, *task)


def _play(
    configs: Sequence[SimulationConfig],
    pools: ServePoolSet,
    table: TouchWinTable | None,
) -> list[_Columns]:
    """Every config's columns, in replicate index order.

    Each config's blocks are (config index, start, stop) tasks for
    forking.forked, which plays them in at most one worker per full
    block, or in process; their columns are joined in task order.
    """
    for config in configs:
        _check_match_can_end(pools, config.reduction_x)
    if table is None:
        table = default_table()
    job = _Job(tuple(configs), pools, table)
    tasks = [
        (i, start, stop)
        for i, config in enumerate(configs)
        for start, stop in _blocks(config.n_matches)
    ]
    most = sum(c.n_matches // _MIN_BLOCK for c in configs)
    played = [_columns(()) for _ in configs]
    with forked(_replicate_task, job, tasks, most, "a replicate worker process died") as take:
        for n, (config_index, _, _) in enumerate(tasks):
            for column, part in zip(played[config_index], take(n)):
                column.extend(part)
    return played


def run_simulation(
    config: SimulationConfig,
    pools: ServePoolSet,
    table: TouchWinTable | None = None,
    n_jobs: int = 1,
) -> SimulationSummary:
    """Run config.n_matches independent replicates and summarize.

    Each replicate owns a random stream derived from (seed, index).
    Replicates run on every allowed CPU once there are at least two
    blocks of _MIN_BLOCK of them (see the module docstring); the summary
    is bit-identical for any number of workers.  Restrict the process's
    CPUs (`taskset -c 0`) to run serially.  n_jobs is accepted for
    compatibility and changes nothing.
    """
    (columns,) = _play([config], pools, table)
    return _summarize_columns(columns, config.scenario)


class ScenarioDelta(NamedTuple):
    """Metric differences of one scenario against a baseline.

    SEs combine the two runs' standard errors in quadrature, which would
    be right for independently seeded replicate sets.  Every scenario
    reuses the same seeds, though, so the runs are positively correlated
    and these SEs overstate the paired SE of the difference (at 3,000
    matches, historic against reduce:0.1, 0.083 against 0.056 for
    points).  They are kept as they are until the pinned outputs are
    re-pinned with paired SEs.
    """

    baseline: str
    variant: str
    d_points: float
    d_games: float
    d_sets: float
    d_matches: float
    se_points: float
    se_games: float
    se_sets: float
    se_matches: float

    def to_dict(self) -> dict:
        return self._asdict()


class ScenarioComparison(NamedTuple):
    summaries: tuple[SimulationSummary, ...]
    deltas: tuple[ScenarioDelta, ...]


def compare_scenarios(
    configs: Sequence[SimulationConfig],
    pools: ServePoolSet,
    table: TouchWinTable | None = None,
    n_jobs: int = 1,
) -> ScenarioComparison:
    """Run several scenarios over the same pools and difference them.

    Configs should differ only in reduction_x so the comparison is a
    clean what-if; every unordered pair gets a delta row.  The blocks of
    every scenario go to one pool of workers, one per allowed CPU, as in
    run_simulation; the output is bit-identical for any number of
    workers.  n_jobs is accepted for compatibility and changes nothing.
    """
    summaries = tuple(
        _summarize_columns(columns, cfg.scenario)
        for cfg, columns in zip(configs, _play(configs, pools, table))
    )
    deltas = []
    for i in range(len(summaries)):
        for j in range(i + 1, len(summaries)):
            a, b = summaries[i], summaries[j]
            deltas.append(
                ScenarioDelta(
                    baseline=a.scenario,
                    variant=b.scenario,
                    d_points=b.pct_points_won_a - a.pct_points_won_a,
                    d_games=b.pct_games_won_a - a.pct_games_won_a,
                    d_sets=b.pct_sets_won_a - a.pct_sets_won_a,
                    d_matches=b.pct_matches_won_a - a.pct_matches_won_a,
                    se_points=math.hypot(a.se_points, b.se_points),
                    se_games=math.hypot(a.se_games, b.se_games),
                    se_sets=math.hypot(a.se_sets, b.se_sets),
                    se_matches=math.hypot(a.se_matches, b.se_matches),
                )
            )
    return ScenarioComparison(summaries=summaries, deltas=tuple(deltas))


def _cell(value: float, se: float) -> str:
    return f"{value:.1f} ({se:.2f})"


def format_summary_table(summaries: Sequence[SimulationSummary]) -> str:
    """Aligned text table: one scenario per row, SEs in parentheses."""
    headers = ["Scenario", "Points Won", "Games Won", "Sets Won", "Matches Won"]
    rows = [headers]
    for s in summaries:
        rows.append(
            [
                s.scenario,
                _cell(s.pct_points_won_a, s.se_points),
                _cell(s.pct_games_won_a, s.se_games),
                _cell(s.pct_sets_won_a, s.se_sets),
                _cell(s.pct_matches_won_a, s.se_matches),
            ]
        )
    widths = [max(len(r[c]) for r in rows) for c in range(len(headers))]
    lines = []
    for r in rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines)


def format_comparison(comparison: ScenarioComparison) -> str:
    lines = [format_summary_table(comparison.summaries)]
    if comparison.deltas:
        lines.append("")
        lines.append("Differences (variant - baseline):")
        for d in comparison.deltas:
            lines.append(
                f"  {d.variant} vs {d.baseline}: "
                f"points {d.d_points:+.1f} ({d.se_points:.2f}), "
                f"games {d.d_games:+.1f} ({d.se_games:.2f}), "
                f"sets {d.d_sets:+.1f} ({d.se_sets:.2f}), "
                f"matches {d.d_matches:+.1f} ({d.se_matches:.2f})"
            )
    return "\n".join(lines)
