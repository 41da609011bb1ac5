"""The ufesim benchmark: seeded synthetic data driven through the CLI.

    python3 perfbench/run.py --workload h2h_whatif --seed 1 --seconds 26 --trace 0

One client runs ``ufesim`` commands in a closed loop: each call starts
after the previous one exits, so at most one CLI process runs at a time.
Every workload's set-up is ``ufesim ingest`` of its generated files, run
three times (``setup_s`` is the median).  Every output is checked; a call
that exits non-zero or fails its check counts as failed.

``--trace 0`` prints end-to-end metrics; ``--trace 1`` replays the same
commands in-process with spans around each layer's public functions and
prints per-layer metrics (see ``tracing.py``).  The last stdout line is the
JSON result.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import cpuclock  # noqa: E402
import gen  # noqa: E402

SETUP_REPEATS = 3
H2H_SCENARIOS = ["historic", "reduce:0.1", "eliminate"]
H2H_N = 3000
SWEEP_SCENARIOS = ["historic", "reduce:0.5"]
SWEEP_N = 100
# Runs the CLI; at exit it writes the process's peak RSS (VmHWM, kB) to
# $PERFBENCH_HWM.  wait4's ru_maxrss would not do: across exec it keeps
# the high-water mark of the process that forked the child, so the
# benchmark's own memory would count as the program's.
ENTRY = """\
import atexit, os, sys

def hwm():
    with open("/proc/self/status") as fh, open(os.environ["PERFBENCH_HWM"], "w") as out:
        out.write(next(line for line in fh if line.startswith("VmHWM:")).split()[1])

atexit.register(hwm)
from ufesim.cli import main
sys.exit(main())
"""


@dataclass
class Call:
    kind: str
    wall_s: float
    scaled_s: float
    rss_mb: float
    returncode: int
    stdout: str
    problems: list[str] = field(default_factory=list)


class Cli:
    """Runs ``ufesim`` from ``src/`` one process at a time and keeps every call.

    Each call's ``scaled_s`` is its wall time rescaled to the reference
    CPU (``cpuclock.timed``); the benchmark reports scaled times.

    Peak RSS is each child's own (``ENTRY``).  RUSAGE_CHILDREN's
    ``ru_maxrss`` is a running maximum over all children, so it would
    carry one command's peak into the next.
    """

    def __init__(self, work: Path):
        self.work = work
        self.hwm = work / "hwm.txt"
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PERFBENCH_HWM=str(self.hwm))
        self.calls: list[Call] = []

    def run(self, kind: str, *args: str) -> Call:
        argv = [sys.executable, "-c", ENTRY, kind, *args]
        out_path, err_path = self.work / "stdout.txt", self.work / "stderr.txt"
        self.hwm.unlink(missing_ok=True)
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            wall, scaled, returncode = cpuclock.timed(
                argv, stdout=out, stderr=err, cwd=self.work, env=self.env)
        call = Call(
            kind=kind,
            wall_s=wall,
            scaled_s=scaled,
            rss_mb=int(self.hwm.read_text(encoding="ascii")) / 1024.0,
            returncode=returncode,
            stdout=out_path.read_text(encoding="utf-8"),
        )
        if returncode != 0:
            tail = err_path.read_text(encoding="utf-8", errors="replace").strip()[-300:]
            call.problems.append(f"exit code {returncode}: {tail}")
        self.calls.append(call)
        return call

    def of(self, kind: str) -> list[Call]:
        return [c for c in self.calls if c.kind == kind]

    @property
    def failed(self) -> list[Call]:
        return [c for c in self.calls if c.problems]


@dataclass(frozen=True)
class Simulation:
    """One ``ufesim simulate`` invocation."""

    a: str
    b: str
    scope: str
    best_of: int
    scenarios: tuple[str, ...]
    n: int

    def args(self, records: Path, out: Path) -> list[str]:
        argv = ["--records", str(records), "--a", self.a, "--b", self.b,
                "--scope", self.scope, "--best-of", str(self.best_of), "--n", str(self.n),
                "--out", str(out)]
        for s in self.scenarios:
            argv += ["--scenario", s]
        return argv

    @property
    def key(self) -> str:
        return "|".join([self.a, self.b, self.scope, str(self.best_of),
                         ",".join(self.scenarios), str(self.n)])


H2H = Simulation("ann_ace", "bob_base", "head_to_head", 5, tuple(H2H_SCENARIOS), H2H_N)


def sweep_pairings(ds: gen.Dataset, seed: int) -> list[Simulation]:
    """Distinct pairings: head_to_head rivalries alternating with versus_field
    pairs, best-of-5 and best-of-3 in turn, two scenarios, small n."""
    rng = random.Random(f"perfbench.pairings.{seed}")
    rivals = [(a, b) for a, b, _, met in ds.rivalries if met >= 2]
    regulars = {
        tour: [p for p in names if ds.expected.player_matches.get(p, 0) >= 3]
        for tour, names in ds.players_by_tour.items()
    }
    field_pairs = []
    while len(field_pairs) < len(rivals):
        tour = rng.choice(sorted(regulars))
        a, b = rng.sample(regulars[tour], 2)
        if (a, b) not in field_pairs:
            field_pairs.append((a, b))
    sims = []
    for i, ((ha, hb), (fa, fb)) in enumerate(zip(rivals, field_pairs)):
        for j, (a, b, scope) in enumerate(((ha, hb, "head_to_head"), (fa, fb, "versus_field"))):
            sims.append(Simulation(a.replace(" ", "_"), b.replace(" ", "_"), scope,
                                   5 if (i + j) % 2 == 0 else 3, tuple(SWEEP_SCENARIOS), SWEEP_N))
    return sims


@dataclass(frozen=True)
class Workload:
    """Why each workload exists is in BENCHMARK.json and the README."""

    name: str
    corpus: bool
    # Commands of one round; the round repeats until the time is up.  The
    # commands a workload is not about run too, fewer times, so that every
    # end-to-end metric exists on every workload.
    round: tuple[str, ...]
    # Each simulate call takes the next distinct pairing; otherwise every
    # call repeats the first one.
    sweep: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "h2h_whatif",
            corpus=False,
            round=("simulate",) + ("stats", "list-players") * 3,
        ),
        Workload(
            "corpus_sweep",
            corpus=True,
            round=("simulate", "list-players", "simulate", "stats"),
            sweep=True,
        ),
        Workload(
            "corpus_stats",
            corpus=True,
            round=("stats", "list-players", "simulate", "list-players", "simulate"),
        ),
    )
}


def rounds(workload: Workload, seconds: float):
    """The workload's commands, round after round, until ``seconds`` have
    passed and at least one round is complete."""
    start = time.perf_counter()
    done = 0
    while True:
        for kind in workload.round:
            if done >= len(workload.round) and time.perf_counter() - start >= seconds:
                return
            done += 1
            yield kind


class Session:
    """Generated inputs of one workload run plus the checks on its outputs."""

    def __init__(self, workload: Workload, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        data = work / "data"
        self.ds = gen.corpus(data, seed) if workload.corpus else gen.rivalry(data, seed)
        self.records = work / "records.csv"
        self.sims = sweep_pairings(self.ds, seed) if workload.corpus else [H2H]
        self.goldens = checks.load_goldens()
        self.pin = seed == self.goldens["seed"]
        self.first_payload: dict[str, dict] = {}
        self.dataset = "corpus" if workload.corpus else "rivalry"
        self.next_sim = 0
        self.matches_simulated = 0

    def golden(self, section: str, key: str, value) -> list[str]:
        return checks.check_golden(section, key, value, self.goldens) if self.pin else []

    def ingest(self, cli: Cli) -> Call:
        call = cli.run("ingest", *map(str, self.ds.files), "-o", str(self.records))
        if call.returncode == 0:
            report = json.loads(call.stdout)
            call.problems += checks.check_ingest(report, self.ds.expected.ingest_counts())
            call.problems += self.golden(
                "ingest", self.dataset, checks.normalize_ingest(report)
            )
        return call

    def take_simulation(self) -> Simulation:
        if not self.workload.sweep:
            return self.sims[0]
        sim = self.sims[self.next_sim % len(self.sims)]
        self.next_sim += 1
        return sim

    def simulate(self, cli: Cli, sim: Simulation) -> Call:
        out = self.work / "sim.json"
        out.unlink(missing_ok=True)
        call = cli.run("simulate", *sim.args(self.records, out))
        self.matches_simulated += sim.n * len(sim.scenarios)
        if call.returncode == 0:
            payload = checks.normalize_simulate(json.loads(out.read_text(encoding="utf-8")))
            call.problems += self.check_payload(sim, payload)
        return call

    def check_payload(self, sim: Simulation, payload: dict) -> list[str]:
        problems = checks.check_simulate(payload, list(sim.scenarios), sim.n)
        # A repeated call must reproduce its first payload bit for bit.
        first = self.first_payload.setdefault(sim.key, payload)
        if first != payload:
            problems.append(f"simulate {sim.key} changed between calls")
        key = f"{self.dataset}|{sim.key}"
        if self.pin and key in self.goldens["simulate_payload"]:
            problems += checks.check_golden("simulate_payload", key, payload, self.goldens)
        else:
            problems += self.golden("simulate", key, checks.digest(checks.canonical(payload)))
        return problems

    def stats(self, cli: Cli) -> Call:
        out_dir = self.work / "stats_out"
        shutil.rmtree(out_dir, ignore_errors=True)
        call = cli.run("stats", "--records", str(self.records), "--svg",
                       "--out-dir", str(out_dir), "--min-matches", str(checks.MIN_MATCHES),
                       "--k", str(checks.STATS_K))
        if call.returncode == 0:
            call.problems += self.check_stats(call.stdout, out_dir)
        return call

    def check_stats(self, stdout: str, out_dir: Path) -> list[str]:
        problems = checks.check_stats(stdout, out_dir, self.ds.expected.player_matches)
        if not problems:
            problems += self.golden("stats", self.dataset, checks.stats_digests(out_dir))
        return problems

    def list_players(self, cli: Cli) -> Call:
        call = cli.run("list-players", "--records", str(self.records))
        if call.returncode == 0:
            call.problems += checks.check_list_players(call.stdout,
                                                       self.ds.expected.player_matches)
        return call

    def command(self, cli: Cli, kind: str) -> Call:
        if kind == "simulate":
            return self.simulate(cli, self.take_simulation())
        if kind == "stats":
            return self.stats(cli)
        return self.list_players(cli)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def tail(values: list[float]) -> str:
    """Highest of p90/p99 with at least ten samples beyond it, if any."""
    for pct in (99, 90):
        if len(values) * (100 - pct) / 100 >= 10:
            return f"p{pct}={statistics.quantiles(values, n=100)[pct - 1]:.4f}"
    return "no tail (fewer than 10 samples beyond p90)"


def run_untraced(session: Session, cli: Cli, seconds: float) -> dict:
    workload, seed = session.workload, session.seed
    setups = [session.ingest(cli) for _ in range(SETUP_REPEATS)]
    for kind in rounds(workload, seconds):
        session.command(cli, kind)

    sims = cli.of("simulate")
    calls = {
        "setup_s": setups,
        "simulate_s": sims,
        "stats_s": cli.of("stats"),
        "list_players_s": cli.of("list-players"),
    }
    metrics = {name: {"value": statistics.median(c.scaled_s for c in group), "unit": "s"}
               for name, group in calls.items()}
    metrics["matches_per_s"] = {
        "value": session.matches_simulated / sum(c.scaled_s for c in sims), "unit": "1/s"}
    metrics["peak_rss_mb"] = {"value": max(c.rss_mb for c in cli.calls), "unit": "MB"}
    metrics = {k: metrics[k] for k in ("setup_s", "simulate_s", "matches_per_s", "stats_s",
                                       "list_players_s", "peak_rss_mb")}
    (session.work / "calls.json").write_text(json.dumps(
        [{"kind": c.kind, "wall_s": c.wall_s, "scaled_s": c.scaled_s, "rss_mb": c.rss_mb}
         for c in cli.calls], indent=1), encoding="utf-8")

    failed = cli.failed
    print(f"workload {workload.name}  seed {seed}  calls {len(cli.calls)}  "
          f"closed loop, 1 client; times scaled to the reference CPU")
    for name, group in calls.items():
        scaled = [c.scaled_s for c in group]
        q1, q2, q3 = quartiles(scaled)
        print(f"  {name:<16} median {q2:.4f} s  q1 {q1:.4f}  q3 {q3:.4f}  n={len(scaled)}  "
              f"{tail(scaled)}  (raw wall median {statistics.median(c.wall_s for c in group):.4f})")
    print(f"  {'matches_per_s':<16} {metrics['matches_per_s']['value']:.1f} 1/s  "
          f"({session.matches_simulated} matches over {len(sims)} simulate calls)")
    print(f"  {'peak_rss_mb':<16} {metrics['peak_rss_mb']['value']:.1f} MB")
    print(f"  {'ops_failed_frac':<16} {len(failed) / len(cli.calls):.4f} "
          f"({len(failed)}/{len(cli.calls)})")
    for c in failed:
        print(f"  FAILED {c.kind}: {'; '.join(c.problems)}", file=sys.stderr)
    return {
        "correct": not failed,
        "attempted": len(cli.calls),
        "failed": len(failed),
        "metrics": metrics,
    }


def update_goldens(seed: int, work: Path) -> None:
    """Pin the outputs of the current code at ``seed`` into golden.json."""
    goldens = {"seed": seed, "ingest": {}, "simulate_payload": {}, "simulate": {}, "stats": {}}
    for workload in (WORKLOADS["h2h_whatif"], WORKLOADS["corpus_stats"]):
        session = Session(workload, seed, work / workload.name)
        session.pin = False
        cli = Cli(session.work)
        report = json.loads(session.ingest(cli).stdout)
        goldens["ingest"][session.dataset] = checks.normalize_ingest(report)
        session.stats(cli)
        goldens["stats"][session.dataset] = checks.stats_digests(session.work / "stats_out")
        for sim in session.sims:
            session.simulate(cli, sim)
            payload = checks.normalize_simulate(
                json.loads((session.work / "sim.json").read_text(encoding="utf-8"))
            )
            key = f"{session.dataset}|{sim.key}"
            if workload.corpus:
                goldens["simulate"][key] = checks.digest(checks.canonical(payload))
            else:
                goldens["simulate_payload"][key] = payload
        bad = [p for c in cli.calls for p in c.problems]
        if bad:
            raise SystemExit(f"not pinning goldens, outputs failed checks: {bad}")
    checks.GOLDEN_PATH.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n",
                                  encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=26.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-goldens", action="store_true",
                        help="pin the current outputs at --seed and exit")
    args = parser.parse_args(argv)
    if not (SRC / "ufesim" / "cli.py").is_file():
        print(f"perfbench: no ufesim sources at {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    if args.update_goldens:
        shutil.rmtree(WORK / "goldens", ignore_errors=True)
        update_goldens(args.seed, WORK / "goldens")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    workload = WORKLOADS[args.workload]
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    session, cli = Session(workload, args.seed, work), Cli(work)
    if args.trace:
        import tracing

        result = tracing.run_traced(session, cli, args.seconds)
    else:
        result = run_untraced(session, cli, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
