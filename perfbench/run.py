"""latq benchmark: certified batches of results, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs whole rounds of the workload's operations (see workloads.py) until S
seconds have passed, checks every result against reference.py outside the
timed region, and prints one JSON object as the last line of stdout.  Logs
go to stderr.  With --trace 0 the metrics are the end-to-end ones; with
--trace 1 the run makes one untraced round, then traced rounds with every
public latq function wrapped (tracer.py), and reports per-layer figures per
round plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

# fresh processes timed for setup_s, half before the rounds and half after,
# so that a short burst of load on the host moves few of them
SETUP_PROBES = 15
DEADLINE_S = 170  # a run that is still busy by then exits non-zero without a result

SELF_TIME = (
    "cli.main",
    "kodaira.search",
    "kodaira.verdict",
    "kodaira.inequality_check",
    "kodaira.orthogonal_root_count",
    "lattices.counts_e7",
    "lattices.counts_sum_zero",
    "lattices.counts_even_sum",
    "lattices.enumerate_norm",
    "lattices.theta_counts",
    "lattices.reflection_orbits",
    "lattices.orthogonal_complement",
    "lattices.is_isometric",
    "siegel.siegel_r",
    "siegel.zagier_L_numeric",
    "siegel.cohen_H",
    "siegel.local_density_oracle",
    "siegel.oracle_alpha",
    "qseries.theta_A",
    "qseries.theta_D",
    "qseries.QSeries.__mul__",
    "qseries.load_theta_cache",
    "qseries.save_theta_cache",
    "polarisation.orbit_count_oracle",
    "polarisation.stable_index_oracle",
    "weyl.orbit_summary",
    "weyl.four_a1_sublattices",
)
CALLS = (
    "kodaira.search",
    "lattices.enumerate_norm",
    "lattices.rep_count",
    "siegel.siegel_r",
    "siegel.local_density_oracle",
    "qseries.QSeries.__mul__",
)
COUNTS = (
    ("kodaira.search.shell_vectors", "count"),
    ("lattices.counts_e7.cells", "count"),
    ("lattices.counts_sum_zero.cells", "count"),
    ("lattices.counts_even_sum.cells", "count"),
    ("lattices.enumerate_norm.vectors", "count"),
    ("lattices.reflection_orbits.images", "count"),
    ("siegel.zagier_L_numeric.terms", "count"),
    ("siegel.local_density_oracle.residues", "count"),
    ("qseries.theta_cache.bytes", "B"),
)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class DeadlineExceeded(BaseException):
    """Raised by SIGALRM; a BaseException, so that no operation's handler keeps it."""


def _deadline(signum, frame):
    raise DeadlineExceeded(f"run exceeded {DEADLINE_S} s")


def run_round(wl):
    """One round: every operation once, timed; results are checked later."""
    wl.before_round()
    latencies, results = [], []
    start = time.perf_counter()
    for op in wl.ops:
        t0 = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # a raising operation is a failed one; keep going
            out = exc
        latencies.append(time.perf_counter() - t0)
        results.append(out)
    wall = time.perf_counter() - start
    wl.after_round()
    return wall, latencies, results


def run_rounds(wl, seconds):
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(run_round(wl))
        log(f"round {len(rounds)}: {len(wl.ops)} operations in {rounds[-1][0]:.3f} s")
    return rounds


def verify(wl, rounds):
    """(correct, attempted, failed): an operation fails when it raises or its
    result disagrees with the reference; only the known fault may fail."""
    attempted = failed = 0
    correct = True
    reported = set()
    for _, _, results in rounds:
        for op, out in zip(wl.ops, results):
            attempted += 1
            problems = [f"raised {out!r}"] if isinstance(out, Exception) else op.check(out)
            if not problems:
                continue
            failed += 1
            if not op.known_fault:
                correct = False
            if op.label not in reported:
                reported.add(op.label)
                kind = "known fault" if op.known_fault else "WRONG"
                log(f"{kind}: {op.label}: {'; '.join(problems)[:500]}")
    return correct, attempted, failed


def probe_setup(workload, seed):
    """Time, in this fresh process, importing latq and building the inputs."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import latq  # noqa: F401

    workloads.build(workload, seed)
    return time.perf_counter() - t0


def measure_setup(workload, seed, probes):
    """setup_s of `probes` fresh processes, started one after another."""
    values = []
    for _ in range(probes):
        cmd = [sys.executable, str(HERE / "run.py"), "--probe-setup", "--workload", workload, "--seed", str(seed)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=60, check=True)
        values.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return values


def end_to_end(wl, rounds, setup):
    latencies = [x for _, lat, _ in rounds for x in lat]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "run_s": (statistics.median(wall for wall, _, _ in rounds), "s"),
        "op_p50_ms": (1000 * statistics.median(latencies), "ms"),
        "op_p90_ms": (1000 * statistics.quantiles(latencies, n=10, method="inclusive")[8], "ms"),
        "peak_rss_mb": (wl.peak_rss_mb(), "MB"),
    }


def per_layer(workload, wl, seconds, import_s):
    """One untraced round, then traced rounds; figures are per traced round."""
    untraced = run_round(wl)
    log(f"untraced round: {untraced[0]:.3f} s")
    wl.start_trace()
    try:
        traced = run_rounds(wl, seconds)
    finally:
        snap, child_import_s = wl.stop_trace()
    n = len(traced)
    calls, self_s, counts = snap["calls"], snap["self_s"], snap["counts"]
    metrics = {f"{name}.self_s": (self_s.get(name, 0.0) / n, "s") for name in SELF_TIME}
    metrics.update({f"{name}.calls": (calls.get(name, 0) / n, "count") for name in CALLS})
    metrics.update({name: (counts.get(name, 0) / n, unit) for name, unit in COUNTS})
    hits, misses = counts.get("kodaira.search.cache_hits", 0), counts.get("kodaira.search.cache_misses", 0)
    metrics["kodaira.search.cache_hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
    lookups = wl.cache_lookups * n
    cache_hits = lookups - calls.get("qseries.save_theta_cache", 0)
    metrics["qseries.theta_cache.hit_ratio"] = (cache_hits / lookups if lookups else 0.0, "ratio")
    metrics["cli.import_s"] = (import_s if child_import_s is None else child_import_s, "s")
    metrics["trace.overhead_s"] = (statistics.median(wall for wall, _, _ in traced) - untraced[0], "s")
    (workloads.OUT / f"trace-{workload}.json").write_text(json.dumps(snap, indent=1, sort_keys=True))
    return [untraced] + traced, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="a few operations per round, for the self-test")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "latq" / "__init__.py").is_file():
        log(f"latq sources not found under {ROOT / 'src'}; run from a latq checkout")
        return 2
    if args.probe_setup:
        print(json.dumps({"setup_s": probe_setup(args.workload, args.seed)}))
        return 0
    signal.signal(signal.SIGALRM, _deadline)
    signal.alarm(DEADLINE_S)
    workloads.OUT.mkdir(exist_ok=True)

    if not args.trace:
        probes = 1 if args.tiny else SETUP_PROBES
        setup = measure_setup(args.workload, args.seed, probes - probes // 2)
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import latq  # noqa: F401

    import_s = time.perf_counter() - t0
    wl = workloads.build(args.workload, args.seed, args.tiny)
    log(f"{args.workload} seed {args.seed}: {len(wl.ops)} operations per round")
    if args.trace:
        rounds, metrics = per_layer(args.workload, wl, args.seconds, import_s)
    else:
        rounds = run_rounds(wl, args.seconds)
        setup += measure_setup(args.workload, args.seed, probes // 2)
        metrics = end_to_end(wl, rounds, setup)
    correct, attempted, failed = verify(wl, rounds)
    signal.alarm(0)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
