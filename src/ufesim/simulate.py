"""Bootstrap Monte Carlo simulation of matches from serve pools.

One simulated point: draw a serve from the current server's first-serve
pool; on a fault, draw again from their second-serve pool.  If the
decisive serve is an unforced error by player A, the reduction policy
may strike it, in which case the point is re-resolved from the
touch-indexed counterfactual table.  Replicate summaries carry
bootstrap standard errors.

The pools are drawn as the int point codes a ServePoolSet compiles once
(-1 fault, 0 A wins, 1 B wins, t >= 2 an unforced error by A at touch
t), and a match is one scoring.play_match loop that pulls each point
from a closure over those codes.  A point consumes uniforms from the
replicate stream in a fixed order: one per serve drawn, one removal
draw for every drawn error by A (whatever x is, x = 0 included), and
one resolution draw when the error is struck.  Only rng.random() is
called, and the first server costs one draw under the 'random' policy.

Replicates run on every CPU the process may use.  run_simulation and
compare_scenarios cut each scenario into blocks of at least _MIN_BLOCK
replicates and, when there are two full blocks or more and two allowed
CPUs or more, play the blocks in forked worker processes, one worker per
CPU (os.sched_getaffinity, so `taskset` limits the count).  Replicate i
always draws from its own stream replicate_stream(seed, i), and a block
returns only its per-match shares as flat float columns, which are
joined in index order; so every summary is bit-identical for any number
of workers, the in-process loop being the one-worker case.
"""
from __future__ import annotations

import math
import os
import threading
from array import array
from dataclasses import asdict, dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .counterfactual import (
    MAX_TOUCH,
    ReductionPolicy,
    TouchWinTable,
    default_table,
    resolve_removed_ufe,
    should_remove_ufe,
)
from .errors import EndlessMatchError, WorkerDiedError
from .pools import FAULT, PoolScope, ServePoolSet
from .rng import replicate_stream
from .scoring import PLAYERS, MatchFormat, play_match

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


@dataclass(frozen=True, slots=True)
class SimulationConfig:
    """Everything one run needs besides the pools and the table.

    reduction_x canonicalizes the scenario: 0 is the historic replay,
    1 removes every sampled unforced error by A, values between are the
    partial-reduction what-ifs.
    """

    n_matches: int = 3000
    seed: int = 20177
    reduction_x: float = 0.0
    format: MatchFormat = MatchFormat()
    first_server_policy: str = "alternate"
    pool_scope: PoolScope = PoolScope.HEAD_TO_HEAD

    def __post_init__(self) -> None:
        if self.n_matches < 1:
            raise ValueError("n_matches must be positive")
        if not 0.0 <= self.reduction_x <= 1.0:
            raise ValueError(f"reduction_x must be in [0,1], got {self.reduction_x}")
        if self.first_server_policy not in FIRST_SERVER_POLICIES:
            raise ValueError(
                f"first_server_policy must be one of {FIRST_SERVER_POLICIES}, "
                f"got {self.first_server_policy!r}"
            )

    @property
    def scenario(self) -> str:
        return scenario_label(self.reduction_x)


class PointOutcome(NamedTuple):
    winner: str
    serve_number: int
    ufe_by_a: bool
    ufe_removed: bool


@dataclass(frozen=True, slots=True)
class MatchResult:
    points_won: tuple[int, int]
    games_won: tuple[int, int]
    sets_won: tuple[int, int]
    set_scores: tuple[tuple[int, int], ...]
    match_winner: str
    ufes_kept: int
    ufes_removed: int


@dataclass(frozen=True, slots=True)
class SimulationSummary:
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
        return asdict(self)


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
    code = codes[int(rng.random() * len(codes))]
    serve_number = 1
    if code < 0:
        codes = pools.second_codes[side]
        code = codes[int(rng.random() * len(codes))]
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
    rand = rng.random
    x = config.reduction_x
    by_touch = table.by_touch
    first_codes, second_codes = pools.first_codes, pools.second_codes
    first_sizes = (len(first_codes[0]), len(first_codes[1]))
    second_sizes = (len(second_codes[0]), len(second_codes[1]))
    kept = removed = 0

    def point(server: int) -> int:
        nonlocal kept, removed
        code = first_codes[server][int(rand() * first_sizes[server])]
        if code < 0:
            code = second_codes[server][int(rand() * second_sizes[server])]
        if code < 2:
            return code
        # An unforced error by A at touch `code`: B's point unless struck.
        if rand() < x:
            removed += 1
            return 0 if rand() < by_touch[code if code < MAX_TOUCH else MAX_TOUCH] else 1
        kept += 1
        return 1

    first_server = PLAYERS.index(first_server_for(config, replicate_index, rng))
    played = play_match(config.format, first_server, point)
    return MatchResult(
        points_won=played.points_won,
        games_won=played.games_won,
        sets_won=played.sets_won,
        set_scores=played.set_scores,
        match_winner=PLAYERS[played.winner],
        ufes_kept=kept,
        ufes_removed=removed,
    )


def _run_replicate(
    config: SimulationConfig,
    pools: ServePoolSet,
    table: TouchWinTable,
    index: int,
) -> MatchResult:
    rng = replicate_stream(config.seed, index)
    return simulate_match(config, pools, table, rng, replicate_index=index)


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


def _summarize_columns(columns: _Columns, scenario: str) -> SimulationSummary:
    # Each metric is its own contiguous float64 array, as np.array made
    # from a list of floats: numpy's pairwise sums, and so the means and
    # SEs, are then bit-identical to summing that list.
    pts, gms, sts, wins = (np.array(column, dtype=np.float64) for column in columns)
    n = len(pts)
    if n < 1:
        raise ValueError("cannot summarize zero matches")

    def se(arr: np.ndarray) -> float:
        return float(arr.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0

    p_hat = float(wins.mean())
    return SimulationSummary(
        scenario=scenario,
        n_matches=n,
        pct_points_won_a=float(pts.mean()),
        pct_games_won_a=float(gms.mean()),
        pct_sets_won_a=float(sts.mean()),
        pct_matches_won_a=100.0 * p_hat,
        se_points=se(pts),
        se_games=se(gms),
        se_sets=se(sts),
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

    Calls no numpy, so that forked workers never touch numpy's state.
    """
    config = job.configs[config_index]
    return _columns(
        _run_replicate(config, job.pools, job.table, i) for i in range(start, stop)
    )


def _blocks(n_matches: int) -> list[tuple[int, int]]:
    """Index ranges cutting 0..n_matches-1 into blocks of at least
    _MIN_BLOCK replicates (one shorter block when n_matches is smaller)."""
    k = max(1, n_matches // _MIN_BLOCK)
    return [(n_matches * j // k, n_matches * (j + 1) // k) for j in range(k)]


def _allowed_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity masks on this platform
        return os.cpu_count() or 1


# A forked worker's job: set in each worker by the pool initializer, never
# in the calling process.
_worker_job: _Job | None = None


def _adopt_job(job: _Job) -> None:
    global _worker_job
    _worker_job = job


def _worker_block(task: tuple[int, int, int]) -> _Columns:
    return _replicate_block(_worker_job, *task)


def _play_forked(job: _Job, workers: int) -> list[_Columns] | None:
    """Play every block of the job in `workers` forked processes.

    The workers inherit the job at fork time (fork does not pickle the
    initializer's arguments); each task is a (config index, start, stop)
    tuple and each result a block's columns.  Returns None when the pool
    cannot start, so the caller plays in process instead.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    tasks = [
        (i, start, stop)
        for i, config in enumerate(job.configs)
        for start, stop in _blocks(config.n_matches)
    ]
    children = set(multiprocessing.active_children())
    try:
        pool = ProcessPoolExecutor(
            workers,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_adopt_job,
            initargs=(job,),
        )
    except OSError:
        return None
    try:
        try:
            # A fork-context pool forks all its workers in the first submit.
            futures = [pool.submit(_worker_block, task) for task in tasks]
        except OSError:
            # A fork was refused: stop the workers that did start.
            for child in set(multiprocessing.active_children()) - children:
                child.terminate()
                child.join()
            return None
        try:
            blocks = [future.result() for future in futures]
        except BrokenProcessPool as exc:
            raise WorkerDiedError(f"a replicate worker process died: {exc}") from None
    finally:
        # Blocks not yet started are dropped when the wait ends early
        # (an interrupt, a dead worker).
        pool.shutdown(cancel_futures=True)
    played = [_columns(()) for _ in job.configs]
    for (config_index, _, _), block in zip(tasks, blocks):
        for column, part in zip(played[config_index], block):
            column.extend(part)
    return played


def _play(
    configs: Sequence[SimulationConfig],
    pools: ServePoolSet,
    table: TouchWinTable | None,
) -> list[_Columns]:
    """Every config's columns, in replicate index order.

    Forks one worker per full block, at most one per allowed CPU; plays
    in process when that is fewer than two, when the platform cannot
    fork, when the pool cannot start, or when other threads are running
    (a fork copies no thread but the caller's, and any lock another
    thread holds stays held in the child).
    """
    for config in configs:
        _check_match_can_end(pools, config.reduction_x)
    if table is None:
        table = default_table()
    job = _Job(tuple(configs), pools, table)
    workers = min(_allowed_cpus(), sum(c.n_matches // _MIN_BLOCK for c in configs))
    if workers >= 2 and hasattr(os, "fork") and threading.active_count() == 1:
        played = _play_forked(job, workers)
        if played is not None:
            return played
    return [_replicate_block(job, i, 0, c.n_matches) for i, c in enumerate(configs)]


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


@dataclass(frozen=True, slots=True)
class ScenarioDelta:
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
        return asdict(self)


@dataclass(frozen=True, slots=True)
class ScenarioComparison:
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
