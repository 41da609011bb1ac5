"""Traced run: per-layer metrics from spans the benchmark records itself.

Each CLI command of a workload runs twice: once as the real ``ufesim``
process (untraced, for the command's wall time and output check) and
once replayed in this process, calling the same public functions in the
order the command does, each call wrapped in a span.  The replay's
outputs must equal the command's, so the spans time the real work.
Probes then time the simulation layers directly (``run_simulation`` at
one and two threads, ``simulate_match`` with a draw-counting stream,
``summarize``, ``apply_point`` over recorded winners, ``replicate_stream``).

Spans are kept in memory and written to ``trace.json`` when the run
ends.  A span is (name, start, end, parent, command id, round, scale);
its layer is the name's first dotted part, a module of ``src/ufesim``.
Durations inside a replayed command are rescaled to the reference CPU
(``scale``); probe durations are raw wall time.
"""
from __future__ import annotations

import json
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

import checks
import cpuclock

LAYERS = ("notation", "ingest", "records", "analytics", "svg", "pools", "scoring",
          "counterfactual", "rng", "simulate", "cli")
PROBE_MATCHES = 400
PROBE_X = 0.1
PROBE_SEED = 20177
RNG_STREAMS = 20_000


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    command: int | None
    round: int
    scale: float = 1.0  # cpuclock factor of the span's command; 1 in probes

    @property
    def duration(self) -> float:
        """Wall time, rescaled to the reference CPU inside a command."""
        return (self.end - self.start) * self.scale


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._commands = 0
        self.round = 0  # 0 for set-up and probes

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        command = self.spans[parent].command if parent is not None else None
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, command, self.round))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    @contextmanager
    def command(self, kind: str):
        """A root span.  Its spans are rescaled to the reference CPU by the
        mean loop time over all CPUs (``cpuclock``), timed before and after."""
        self._commands += 1
        first = len(self.spans)
        before = cpuclock.spin()
        with self.span(f"cli.{kind}"):
            self.spans[-1].command = self._commands
            yield
        factor = cpuclock.factor(before, cpuclock.spin())
        for s in self.spans[first:]:
            s.scale = factor

    def commands(self, kind: str) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s.name == f"cli.{kind}" and s.parent is None]

    def within(self, root: int, *names: str) -> float:
        """Summed duration of the named spans inside one command."""
        command = self.spans[root].command
        return sum(s.duration for s in self.spans if s.command == command and s.name in names)

    def per_command(self, kind: str, *names: str) -> list[float]:
        return [self.within(root, *names) for root in self.commands(kind)]

    def covered(self, root: int) -> float:
        return sum(s.duration for s in self.spans if s.parent == root)

    def self_seconds(self, rounds: int) -> dict[str, float]:
        """Self time per layer: set-up and probes counted once, round
        spans averaged over the rounds."""
        children = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                children[s.parent] += s.duration
        out = dict.fromkeys(LAYERS, 0.0)
        for s, child in zip(self.spans, children):
            out[s.name.split(".")[0]] += (s.duration - child) / (rounds if s.round else 1)
        return out

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps([asdict(s) for s in self.spans]), encoding="utf-8")


class _PassCounter(list):
    """A record list that counts how often it is iterated from the start."""

    passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


class _CountingRandom:
    """Wraps a replicate stream and counts its uniform draws."""

    def __init__(self, rng) -> None:
        self._rng = rng
        self.draws = 0

    def random(self) -> float:
        self.draws += 1
        return self._rng.random()


def replay_ingest(tr: Tracer, files: list[Path], output: Path):
    """cmd_ingest: ingest_files' per-file passes, the write, the manifest."""
    from ufesim.cli import build_manifest
    from ufesim.errors import DuplicatePointError
    from ufesim.ingest import IngestReport, clean_rows, explode_to_serves, parse_points_file
    from ufesim.records import write_records_csv

    kept_rows = []
    with tr.command("ingest"):
        records, total, seen = [], IngestReport(), set()
        for path in files:
            with tr.span("ingest.parse_points_file"):
                rows = parse_points_file(path)
            for row in rows:  # ingest_files' cross-file duplicate check
                key = (row.match_id, row.point_index)
                if key in seen:
                    raise DuplicatePointError(*key)
                seen.add(key)
            with tr.span("ingest.clean_rows"):
                cleaned, clean_report = clean_rows(rows)
            with tr.span("ingest.explode_to_serves"):
                emitted, explode_report = explode_to_serves(cleaned)
            records.extend(emitted)
            kept_rows.extend(cleaned)
            total = total.combined(IngestReport(
                rows_read=clean_report.rows_read,
                rows_dropped_bad_rally_count=clean_report.rows_dropped_bad_rally_count,
                rows_dropped_bad_notation=explode_report.rows_dropped_bad_notation,
                serve_records_emitted=explode_report.serve_records_emitted,
                points_augmented_with_fault_serve=explode_report.points_augmented_with_fault_serve,
            ))
        with tr.span("records.write_records_csv"):
            write_records_csv(records, output)
        with tr.span("cli.build_manifest"):
            manifest = build_manifest("ingest", {"inputs": [str(p) for p in files]},
                                      dataset_path=output)
        payload = total.to_dict()
        payload["output"] = str(output)
        payload["manifest"] = manifest.to_dict()
        json.dumps(payload, indent=2)
    return payload, kept_rows


def probe_notation(tr: Tracer, kept_rows) -> tuple[int, int]:
    """Decode every notation ingest decodes; returns (calls, distinct)."""
    from ufesim.errors import NotationError
    from ufesim.notation import parse_shot_notation

    todo = [(r.second_serve_notation, 2) if r.second_serve_notation
            else (r.first_serve_notation, 1) for r in kept_rows]
    with tr.span("notation.parse_shot_notation"):
        for notation, serve_number in todo:
            try:
                parse_shot_notation(notation, serve_number)
            except NotationError:
                pass
    return len(todo), len(set(todo))


def replay_list_players(tr: Tracer, records_path: Path) -> list[str]:
    from ufesim.records import read_records_csv

    with tr.command("list-players"):
        with tr.span("records.read_records_csv"):
            records = read_records_csv(records_path)
        matches: dict[str, set[str]] = {}
        for rec in records:
            matches.setdefault(rec.server_id, set()).add(rec.match_id)
            matches.setdefault(rec.receiver_id, set()).add(rec.match_id)
        lines = [f"{name}\t{len(matches[name])}" for name in sorted(matches)]
    return lines


def replay_stats(tr: Tracer, records_path: Path, out_dir: Path):
    """cmd_stats with --svg; returns how many passes analytics made over the records."""
    from ufesim import analytics as an
    from ufesim.cli import build_manifest
    from ufesim.records import Role, read_records_csv
    from ufesim.svg import bar_chart, line_chart

    out_dir.mkdir(parents=True, exist_ok=True)
    with tr.command("stats"):
        with tr.span("records.read_records_csv"):
            records = read_records_csv(records_path)
        records = _PassCounter(records)
        with tr.span("analytics.collect_profiles"):
            profiles = an.collect_profiles(records)
        eligible = [p for p in profiles.values() if p.matches_played >= checks.MIN_MATCHES]
        with tr.span("analytics.write_csv"):
            an.profiles_to_csv(profiles.values(), out_dir / "profiles.csv")
        with tr.span("analytics.rate_rankings"):
            lowest, highest = an.rate_rankings(profiles.values(), checks.MIN_MATCHES,
                                              checks.STATS_K)
        with tr.span("analytics.write_csv"):
            an.rankings_to_csv(lowest, highest, out_dir / "rankings.csv")
        with tr.span("analytics.ufe_rate_by_touch"):
            server_curve = an.ufe_rate_by_touch(records, role=Role.SERVER)
            receiver_curve = an.ufe_rate_by_touch(records, role=Role.RECEIVER)
        with tr.span("analytics.write_csv"):
            an.touch_curve_to_csv(server_curve, out_dir / "touch_curve_server.csv")
            an.touch_curve_to_csv(receiver_curve, out_dir / "touch_curve_receiver.csv")
        with tr.span("analytics.ufe_rate_by_year"):
            series = an.ufe_rate_by_year(records)
        with tr.span("analytics.write_csv"):
            an.year_series_to_csv(series, out_dir / "year_series.csv")
        with tr.span("analytics.histogram_bins"):
            bins = an.histogram_bins(eligible)
        with tr.span("analytics.write_csv"):
            an.histogram_to_csv(bins, out_dir / "histogram.csv")
        with tr.span("svg.render"):
            for name, text in (
                ("touch_curve_server.svg", line_chart(server_curve, "Server UFE rate by touch")),
                ("touch_curve_receiver.svg",
                 line_chart(receiver_curve, "Receiver UFE rate by touch")),
                ("year_series.svg", line_chart(series, "UFE rate by year")),
                ("histogram.svg", bar_chart(bins, "Players by UFE rate (%)")),
            ):
                (out_dir / name).write_text(text, encoding="utf-8")
        with tr.span("cli.build_manifest"):
            manifest = build_manifest("stats", {"records": str(records_path)},
                                      dataset_path=records_path)
        (out_dir / "manifest.json").write_text(json.dumps(manifest.to_dict(), indent=2),
                                               encoding="utf-8")
        with tr.span("analytics.tour_rates"):
            an.tour_ufe_rate(records)
            an.ufe_termination_share(records)
    return records.passes


def replay_simulate(tr: Tracer, records_path: Path, sim):
    """cmd_simulate; returns (normalized payload, pools, match format)."""
    from ufesim.cli import build_manifest, resolve_player
    from ufesim.counterfactual import default_table
    from ufesim.pools import PoolScope, build_pools, pool_summary
    from ufesim.records import read_records_csv
    from ufesim.scoring import MatchFormat
    from ufesim.simulate import (SimulationConfig, compare_scenarios, format_comparison,
                                 parse_scenario)

    with tr.command("simulate"):
        with tr.span("records.read_records_csv"):
            records = read_records_csv(records_path)
        with tr.span("cli.resolve_player"):
            player_a = resolve_player(records, sim.a)
            player_b = resolve_player(records, sim.b)
        scope = PoolScope(sim.scope)
        with tr.span("pools.build_pools"):
            pools = build_pools(records, player_a, player_b, scope)
        with tr.span("counterfactual.default_table"):
            table = default_table()
        fmt = MatchFormat(best_of=sim.best_of)
        with tr.span("simulate.parse_scenario"):
            fractions = [parse_scenario(token) for token in sim.scenarios]
        configs = [SimulationConfig(n_matches=sim.n, reduction_x=x, format=fmt, pool_scope=scope)
                   for x in fractions]
        with tr.span("simulate.compare_scenarios"):
            comparison = compare_scenarios(configs, pools, table)
        with tr.span("simulate.format_comparison"):
            format_comparison(comparison)
        with tr.span("cli.build_manifest"):
            manifest = build_manifest(
                "simulate",
                {"records": str(records_path), "player_a": player_a, "player_b": player_b,
                 "scenarios": list(sim.scenarios), "n_matches": sim.n, "best_of": sim.best_of,
                 "ad_scoring": True, "final_set_tiebreak": True, "first_server": "alternate",
                 "scope": scope.value, "table1": None, "n_jobs": 1},
                seed=configs[0].seed,
                dataset_path=records_path,
            )
        with tr.span("pools.pool_summary"):
            summary = pool_summary(pools)
        text = json.dumps({
            "manifest": manifest.to_dict(),
            "pools": summary,
            "summaries": [s.to_dict() for s in comparison.summaries],
            "differences": [d.to_dict() for d in comparison.deltas],
        }, indent=2)
    return checks.normalize_simulate(json.loads(text)), pools, fmt


def probe_simulation(tr: Tracer, pools, fmt) -> tuple[dict, list[str]]:
    """Direct timings of the simulation layers on one workload's pools."""
    from ufesim.counterfactual import ReductionPolicy, default_table
    from ufesim.rng import replicate_stream
    from ufesim.scoring import apply_point, new_match
    from ufesim.simulate import (SimulationConfig, first_server_for, run_simulation,
                                 simulate_match, simulate_point, summarize)

    table = default_table()
    cfg = SimulationConfig(n_matches=PROBE_MATCHES, seed=PROBE_SEED, reduction_x=PROBE_X,
                           format=fmt)
    with tr.span("simulate.run_simulation"):
        serial = run_simulation(cfg, pools, table, n_jobs=1)
    with tr.span("simulate.run_simulation_threads2"):
        threaded = run_simulation(cfg, pools, table, n_jobs=2)
    streams = [_CountingRandom(replicate_stream(cfg.seed, i)) for i in range(cfg.n_matches)]
    with tr.span("simulate.simulate_match"):
        results = [simulate_match(cfg, pools, table, streams[i], replicate_index=i)
                   for i in range(cfg.n_matches)]
    with tr.span("simulate.summarize"):
        summarized = summarize(results, cfg.scenario)

    # Winners of the same matches, point by point, for the scoring replay.
    policy = ReductionPolicy(x=cfg.reduction_x)
    matches = []
    for i in range(cfg.n_matches):
        rng = replicate_stream(cfg.seed, i)
        first = first_server_for(cfg, i, rng)
        score, winners = new_match(fmt, first), []
        while not score.match_over:
            winner = simulate_point(pools, score.current_server, table, policy, rng).winner
            winners.append(winner)
            apply_point(score, winner)
        matches.append((first, winners))
    with tr.span("scoring.apply_point"):
        for first, winners in matches:
            score = new_match(fmt, first)
            for winner in winners:
                apply_point(score, winner)
    with tr.span("rng.replicate_stream"):
        for i in range(RNG_STREAMS):
            replicate_stream(PROBE_SEED, i)

    points = sum(sum(r.points_won) for r in results)
    outcomes = [
        (serial == threaded == summarized,
         "run_simulation at 1 and 2 threads and summarize(simulate_match) differ"),
        (points == sum(len(w) for _, w in matches),
         "replayed point winners do not add up to simulate_match's points"),
    ]
    kept = sum(r.ufes_kept for r in results)
    removed = sum(r.ufes_removed for r in results)

    def dur(name: str) -> float:
        return next(s.duration for s in reversed(tr.spans) if s.name == name)

    metrics = {
        "simulate.matches_per_s": (cfg.n_matches / dur("simulate.run_simulation"), "1/s"),
        "simulate.threads2_matches_per_s":
            (cfg.n_matches / dur("simulate.run_simulation_threads2"), "1/s"),
        "simulate.points_per_match": (points / cfg.n_matches, "count"),
        "simulate.rng_draws_per_point": (sum(s.draws for s in streams) / points, "count"),
        "simulate.summarize_s": (dur("simulate.summarize"), "s"),
        "scoring.points_per_s": (points / dur("scoring.apply_point"), "1/s"),
        "rng.streams_per_s": (RNG_STREAMS / dur("rng.replicate_stream"), "1/s"),
        # Realised share of A's sampled errors removed at x = PROBE_X.
        "counterfactual.removal_rate": (removed / (kept + removed) if kept + removed else 0.0,
                                        "share"),
    }
    return metrics, outcomes


def run_traced(session, cli, seconds: float) -> dict:
    """Untraced CLI call and traced replay of every command; per-layer metrics."""
    sys.path.insert(0, str(cli.env["PYTHONPATH"]))
    start = time.perf_counter()
    import ufesim.cli  # noqa: F401  (first import in this process)
    import_s = time.perf_counter() - start

    tr = Tracer()
    work = session.work
    problems: list[str] = []  # replay and probe checks; CLI calls carry their own
    checked = 0
    replayed = []  # (CLI call, replay command span index)

    def compare(ok: bool, problem: str) -> None:
        nonlocal checked
        checked += 1
        if not ok:
            problems.append(problem)

    call = session.ingest(cli)
    traced_records = work / "records_traced.csv"
    report, kept_rows = replay_ingest(tr, session.ds.files, traced_records)
    replayed.append((call, tr.commands("ingest")[-1]))
    compare(checks.digest(traced_records.read_bytes()) == checks.digest(
        session.records.read_bytes()), "replayed ingest wrote other records")
    notation_calls, notation_distinct = probe_notation(tr, kept_rows)
    del kept_rows

    passes, pool_sizes = [], []
    first_pools = None

    def command(kind: str) -> None:
        nonlocal first_pools
        if kind == "simulate":
            sim = session.take_simulation()
            call = session.simulate(cli, sim)
            payload, pools, fmt = replay_simulate(tr, session.records, sim)
            cli_payload = checks.normalize_simulate(
                json.loads((work / "sim.json").read_text(encoding="utf-8")))
            compare(checks.canonical(payload) == checks.canonical(cli_payload),
                    f"replayed simulate {sim.key} differs from the CLI's payload")
            pool_sizes.append({pid.value: len(recs) for pid, recs in pools.pools.items()})
            if first_pools is None:
                first_pools = (pools, fmt)
        elif kind == "stats":
            call = session.stats(cli)
            passes.append(replay_stats(tr, session.records, work / "stats_traced"))
            compare(checks.stats_digests(work / "stats_traced")
                    == checks.stats_digests(work / "stats_out"),
                    "replayed stats wrote other files")
        else:
            call = session.list_players(cli)
            lines = replay_list_players(tr, session.records)
            compare(lines == call.stdout.splitlines(), "replayed list-players differs")
        replayed.append((call, tr.commands(kind)[-1]))

    start = time.perf_counter()
    rounds = 0
    while True:
        rounds += 1
        tr.round = rounds
        for kind in session.workload.round:
            command(kind)
        if time.perf_counter() - start >= seconds:
            break
    tr.round = 0

    probe, outcomes = probe_simulation(tr, *first_pools)
    for ok, problem in outcomes:
        compare(ok, problem)
    # `ufesim --version` costs process start-up and import only.
    startup = statistics.median(cli.run("--version").scaled_s for _ in range(3))
    cli_time = sum(c.scaled_s - startup for c, _ in replayed)
    traced_time = sum(tr.spans[i].duration for _, i in replayed)
    # Start-up and import, plus command glue outside every layer span.
    untraced = [startup + tr.spans[i].duration - tr.covered(i) for _, i in replayed]
    reads = [tr.spans[i] for i in range(len(tr.spans))
             if tr.spans[i].name == "records.read_records_csv"]
    n_records = report["serve_records_emitted"]
    metrics = {
        "notation.calls": (notation_calls, "count"),
        "notation.busy_s": (next(s.duration for s in tr.spans
                                 if s.name == "notation.parse_shot_notation"), "s"),
        "notation.distinct_ratio": (notation_distinct / notation_calls, "share"),
        "ingest.parse_points_file_s":
            (statistics.median(tr.per_command("ingest", "ingest.parse_points_file")), "s"),
        "ingest.clean_rows_s": (statistics.median(tr.per_command("ingest", "ingest.clean_rows")), "s"),
        "ingest.explode_to_serves_s":
            (statistics.median(tr.per_command("ingest", "ingest.explode_to_serves")), "s"),
        "ingest.rows_read": (report["rows_read"], "count"),
        "ingest.rows_dropped": (report["rows_dropped_bad_rally_count"]
                                + report["rows_dropped_bad_notation"], "count"),
        "ingest.records_emitted": (n_records, "count"),
        "records.write_s":
            (statistics.median(tr.per_command("ingest", "records.write_records_csv")), "s"),
        "records.csv_bytes": (traced_records.stat().st_size, "bytes"),
        "records.read_s": (statistics.median([s.duration for s in reads]), "s"),
        "records.read_per_s": (statistics.median([n_records / s.duration for s in reads]), "1/s"),
        "cli.import_s": (import_s, "s"),
        "cli.resolve_player_s":
            (statistics.median(tr.per_command("simulate", "cli.resolve_player")), "s"),
        "cli.dataset_sha256_s": (statistics.median([s.duration for s in tr.spans
                                          if s.name == "cli.build_manifest"]), "s"),
        "cli.untraced_s": (statistics.mean(untraced), "s"),
        "analytics.collect_profiles_s":
            (statistics.median(tr.per_command("stats", "analytics.collect_profiles")), "s"),
        "analytics.touch_curves_s":
            (statistics.median(tr.per_command("stats", "analytics.ufe_rate_by_touch")), "s"),
        "analytics.year_series_s":
            (statistics.median(tr.per_command("stats", "analytics.ufe_rate_by_year")), "s"),
        "analytics.tour_rates_s": (statistics.median(tr.per_command("stats", "analytics.tour_rates")), "s"),
        "analytics.record_passes": (statistics.median(passes), "count"),
        "analytics.csv_write_s": (statistics.median(tr.per_command("stats", "analytics.write_csv")), "s"),
        "svg.render_s": (statistics.median(tr.per_command("stats", "svg.render")), "s"),
        "pools.build_s": (statistics.median(tr.per_command("simulate", "pools.build_pools")), "s"),
    }
    for pid in ("A_first", "A_second", "B_first", "B_second"):
        metrics[f"pools.size_{pid}"] = (statistics.median([p[pid] for p in pool_sizes]), "count")
    metrics.update(probe)
    for layer, value in tr.self_seconds(rounds).items():
        metrics[f"{layer}.self_s"] = (value, "s")
    metrics["trace.overhead_ratio"] = (traced_time / cli_time, "ratio")
    metrics["trace.spans"] = (len(tr.spans), "count")

    tr.dump(work / "trace.json")
    failed = len(cli.failed) + len(problems)
    problems += [f"{c.kind}: {p}" for c in cli.failed for p in c.problems]
    print(f"workload {session.workload.name}  seed {session.seed}  traced  rounds {rounds}  "
          f"spans {len(tr.spans)}  trace {work / 'trace.json'}")
    for name, (value, unit) in metrics.items():
        note = f"  (requested x = {PROBE_X})" if name == "counterfactual.removal_rate" else ""
        print(f"  {name:<36} {value:.6g} {unit}{note}")
    sims = cli.of("simulate")
    if sims:  # how much of a simulate call reading the records takes
        share = metrics["records.read_s"][0] / statistics.median(c.scaled_s for c in sims)
        print(f"  records.read_s / simulate_s = {share:.3f}")
    for p in problems:
        print(f"  FAILED {p}", file=sys.stderr)
    return {
        "correct": not failed,
        "attempted": len(cli.calls) + checked,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
