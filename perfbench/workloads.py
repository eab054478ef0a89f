"""The benchmark's workloads: seeded inputs, the operations of one round and
the check of every operation's result against reference.py.

A round is a fixed list of operations.  Every run repeats whole rounds, so
the share of failed operations is the same in every run.  An operation's
``run`` looks latq functions up through their module at call time, so the
traced run sees every call.
"""

from __future__ import annotations

import json
import os
import random
import resource
import subprocess
import sys
from dataclasses import dataclass
from math import gcd
from pathlib import Path
from typing import Callable

import reference as R
import tracer as tr

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], list]  # -> problems; empty when the result is right
    known_fault: bool = False


class InProcess:
    """Operations that call latq in this process."""

    def __init__(self, ops):
        self.ops = ops
        self.cache_lookups = 0
        self.tracer = None

    def before_round(self):
        tr.reset_latq_caches()

    def after_round(self):
        if self.tracer is not None:
            self.tracer.add_search_cache()

    def start_trace(self):
        self.tracer = tr.Tracer()
        self.tracer.install()

    def stop_trace(self):
        self.tracer.uninstall()
        return self.tracer.snapshot(), None

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str


class ColdCli:
    """One cold ``python -m latq.cli`` child per operation, one at a time."""

    def __init__(self):
        self.ops = []
        self.cache_file = OUT / "theta.cache"
        self.cache_lookups = 0
        self.max_rss_kb = 0
        self.traces = None  # child span snapshots while tracing
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def add(self, label, argv, command, params, check_result, known_fault=False):
        self.cache_lookups += "--cache" in argv
        self.ops.append(
            Op(label, lambda: self.invoke(argv), lambda res: _check_envelope(res, command, params, check_result), known_fault)
        )

    def before_round(self):
        self.cache_file.unlink(missing_ok=True)

    def after_round(self):
        pass

    def start_trace(self):
        self.traces = []

    def stop_trace(self):
        traces, self.traces = self.traces, None
        snap = tr.merge(t["trace"] for t in traces)
        return snap, sum(t["import_s"] for t in traces) / len(traces)

    def invoke(self, argv):
        if self.traces is None:
            cmd = [sys.executable, "-m", "latq.cli", *argv]
        else:
            trace_file = OUT / "cli_child.trace.json"
            trace_file.unlink(missing_ok=True)
            cmd = [sys.executable, str(HERE / "cli_child.py"), str(trace_file), "--", *argv]
        code, out, err, rss_kb = run_child(cmd, self.env)
        if self.traces is not None:
            self.traces.append(json.loads(trace_file.read_text()))
        else:
            self.max_rss_kb = max(self.max_rss_kb, rss_kb)
        return CliResult(code, out, err)

    def peak_rss_mb(self):
        return self.max_rss_kb / 1024


def run_child(cmd, env):
    """Run a child to completion; returns (exit code, stdout, stderr, peak RSS in KiB)."""
    with open(OUT / "child.stdout", "w+b") as so, open(OUT / "child.stderr", "w+b") as se:
        proc = subprocess.Popen(cmd, stdout=so, stderr=se, stdin=subprocess.DEVNULL, env=env, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        so.seek(0)
        se.seek(0)
        return proc.returncode, so.read().decode(), se.read().decode(), usage.ru_maxrss


def _check_envelope(res, command, params, check_result):
    if res.code != 0:
        return [f"exit code {res.code}: {res.stderr.strip()[-300:]}"]
    try:
        env = json.loads(res.stdout)
    except ValueError:
        return ["stdout is not a single JSON envelope"]
    if not isinstance(env, dict) or set(env) != {"command", "version", "params", "result"}:
        return [f"malformed envelope: {res.stdout[:200]}"]
    if env["command"] != command or env["params"] != params or not isinstance(env["version"], str):
        return [f"envelope does not echo the request: {env['command']} {env['params']}"]
    return check_result(env["result"])


def _expect(got, want, what):
    return [] if got == want else [f"{what}: got {got!r}, expected {want!r}"]


# ---------------------------------------------------------------------------
# verdict_sweep: the paper's theorem, degree by degree


def verdict_sweep(rng, tiny):
    from latq import kodaira as ko

    degrees = list(range(1, 13 if tiny else 101))
    rng.shuffle(degrees)

    def op(d):
        def check(v):
            return R.verdict_problems(d, v.classification, v.n_orthogonal, v.weight, v.witness)

        return Op(f"verdict d={d}", lambda: ko.verdict(d), check)

    return InProcess([op(d) for d in degrees])


# ---------------------------------------------------------------------------
# density_certify: Siegel representation numbers and local-density oracles


# p-adic levels: oracle_alpha compares levels a and a + 1; a + 1 = 6 at p = 5
# and 5 at p = 7 are the first levels whose counts overflow int64 products,
# so the certification takes latq's exact big-integer convolution.
REGULAR_LEVEL = {5: 5, 7: 4}
SIEGEL_T_MAX = 40
# enough uniform 55 ms oracle calls that op_p90_ms falls among them
N_MATRIX_ORACLE = 16


def density_certify(rng, tiny):
    from latq import siegel as sg

    # every t up to SIEGEL_T_MAX, so that each round has the same mix of
    # cheap and dear discriminants; the seed sets the order and the oracles
    t_max, n_oracle = (1, 1) if tiny else (SIEGEL_T_MAX, 6)
    ops = []
    for form in ("S5", "A1D4", "A5"):
        for t in range(1, t_max + 1):
            ops.append(Op(f"siegel_r {form} t={t}", lambda f=form, t=t: sg.siegel_r(f, t), lambda rep, f=form, t=t: _expect(rep.r, R.siegel_count(f, t), f"r_{f}({t})")))
    closed = {("S5", 2): "alpha2_S5", ("A1D4", 2): "alpha2_A1D4", ("A5", 2): "alpha2_A5", ("A5", 3): "alpha3_A5"}
    for (form, p), name in closed.items():
        for t in rng.sample(range(1, 65), n_oracle):
            ops.append(
                Op(
                    f"oracle_alpha {form} p={p} t={t}",
                    lambda f=form, p=p, t=t: sg.oracle_alpha(f, p, t),
                    lambda val, name=name, t=t: _expect(val, getattr(sg, name)(t), f"{name}({t})"),
                )
            )
    for p, level in REGULAR_LEVEL.items():
        form = rng.choice(("S5", "A1D4", "A5"))
        t = rng.choice([t for t in range(1, 31) if t % p])
        a = 2 if tiny else level

        def check(val, form=form, p=p, t=t):
            det_a = sg.FORMS[form].det_a
            return _expect(val, sg.alpha_regular(p, t, 5, det_a), f"alpha_{p}({form}, {t})")

        ops.append(Op(f"oracle_alpha {form} p={p} t={t} a={a}", lambda f=form, p=p, t=t, a=a: sg.oracle_alpha(f, p, t, a=a), check))
    # the counting oracle on an explicit S-matrix, which latq does not cache:
    # a full level-8 count at p = 3 on every call
    for _ in range(1 if tiny else N_MATRIX_ORACLE):
        form, t = rng.choice(("S5", "A1D4", "A5")), rng.randrange(1, 61)

        def check(val, form=form, t=t):
            closed = sg.alpha3_A5(t) if form == "A5" else sg.alpha_regular(3, t, 5, sg.FORMS[form].det_a)
            return _expect(val, closed, f"level-8 3-adic density of {form} at {t}")

        ops.append(Op(f"local_density_oracle {form} matrix p=3 t={t}", lambda f=form, t=t: sg.local_density_oracle(3, 8, sg.FORMS[f].s_matrix, t), check))
    rng.shuffle(ops)
    return InProcess(ops)


# ---------------------------------------------------------------------------
# lattice_geometry: generic Fincke-Pohst theta, complements, Weyl orbits

THETA_PREC = 4
E8_THETA_PREC = 4
# (ambient, span of, complement, configurations per round): the complement of
# a root or an A2 pair; the counts put op_p50_ms and op_p90_ms inside dense
# clusters of operation latencies, so that they hold still from seed to seed
COMPLEMENTS = (("E7", "root", "D6", 24), ("E7", "A2", "A5", 16), ("E8", "root", "E7", 16), ("D6", "root", "A1D4", 20))
# is_isometric takes about 9 s on the complement of this E8 root line and at
# most 0.3 s on every other one; it runs once per round, so that no seed
# draws it by chance
SLOW_ISOMETRY = ("E8", (0, 1, 0, 0, 0, 0, 0, 0))
# Weyl orbits of sublattices: the Weyl group is transitive on A1+A1 and on
# A2 in E7 and E8, and 4A1 splits into two classes in both
ORBITS = {("E7", "A1+A1"): 1, ("E7", "A2"): 1, ("E7", "4A1"): 2, ("E8", "A1+A1"): 1, ("E8", "A2"): 1, ("E8", "4A1"): 2}


def _root_system(gram):
    """All roots in simple-root coordinates: the orbit of the simple roots
    under the simple reflections s_j(v) = v - (v, a_j) a_j."""
    n = len(gram)
    todo = [tuple(int(k == i) for k in range(n)) for i in range(n)]
    seen = set(todo)
    while todo:
        v = todo.pop()
        for j in range(n):
            w = list(v)
            w[j] -= sum(gram[j][i] * v[i] for i in range(n))
            w = tuple(w)
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return sorted(seen)


def _seeded_configuration(gram, kind, rng, roots):
    """A uniformly chosen root, or a root pair spanning an A2 (inner product -1)."""
    a = rng.choice(roots)
    if kind == "root":
        return [a]
    n = len(gram)
    b = rng.choice([s for s in roots if sum(a[i] * gram[i][j] * s[j] for i in range(n) for j in range(n)) == -1])
    return [a, b]


def _complement_ops(lt, L, T, comp, vecs, label):
    return [
        Op(
            f"theta of perp {label}",
            lambda: lt.theta_counts(lt.orthogonal_complement(L, vecs), THETA_PREC, method="fincke-pohst"),
            lambda got: _expect(got, list(R.counts_named(comp, THETA_PREC)), f"theta of {comp}"),
        ),
        Op(
            f"isometry of perp {label}",
            lambda: lt.is_isometric(lt.orthogonal_complement(L, vecs), T),
            lambda got: _expect(got, True, f"complement isometric to {comp}"),
        ),
    ]


def lattice_geometry(rng, tiny):
    from latq import lattices as lt
    from latq import weyl

    ambient = {"E7": lt.E7(), "E8": lt.E8(), "D6": lt.D(6)}
    target = {"D6": lt.D(6), "A5": lt.A(5), "E7": lt.E7(), "A1D4": lt.standard_lattice("A1+D4")}
    slow_amb, slow_root = SLOW_ISOMETRY
    ops = []
    for amb, kind, comp, count in COMPLEMENTS:
        L, T = ambient[amb], target[comp]
        roots = [r for r in _root_system(L.gram) if amb != slow_amb or r not in (slow_root, tuple(-x for x in slow_root))]
        for _ in range(1 if tiny else count):
            vecs = _seeded_configuration(L.gram, kind, rng, roots)
            ops += _complement_ops(lt, L, T, comp, vecs, f"{kind} {vecs} in {amb}")
    if not tiny:
        ops.append(_complement_ops(lt, ambient[slow_amb], target["E7"], "E7", [slow_root], f"root {slow_root} in E8")[1])
    prec = 2 if tiny else E8_THETA_PREC
    ops.append(
        Op("theta of E8", lambda: lt.theta_counts(ambient["E8"], prec, method="fincke-pohst"), lambda got: _expect(got, list(R.counts_E8(prec)), "theta of E8"))
    )
    model_roots = {"E7": R.e7_roots_doubled, "E8": R.e8_roots_doubled}
    for (amb, kind), n_orbits in ORBITS.items():
        if tiny and kind == "4A1":
            continue

        def check(got, amb=amb, kind=kind, n_orbits=n_orbits):
            objects, count, sizes = got
            want = R.sublattice_counts(model_roots[amb]())[kind]
            return (
                _expect(objects, want, f"{kind} sublattices of {amb}")
                + _expect(sum(sizes), objects, f"orbit sizes of {kind} in {amb}")
                + _expect((count, len(sizes)), (n_orbits, n_orbits), f"orbits of {kind} in {amb}")
            )

        ops.append(Op(f"orbit_summary {kind} in {amb}", lambda L=ambient[amb], k=kind: weyl.orbit_summary(L, k), check))
    rng.shuffle(ops)
    return InProcess(ops)


# ---------------------------------------------------------------------------
# cli_cold: a seeded mix of all nine subcommands, each in a cold process

THETA_CACHE_KEYS = (("A5", 16), ("D6", 16), ("A1D4", 16), ("E7", 16), ("D4", 24), ("A2", 24), ("A1", 32))
THETA_CLOSED = ("A1", "A2", "A5", "D4", "D6", "A1D4")
REPCOUNT_LATTICES = tuple(f"A{n}" for n in range(2, 9)) + tuple(f"D{n}" for n in range(4, 11)) + ("E7",)


def _strata(rng, lo, hi, k):
    """k seeded values in [lo, hi), one from each of k equal strata, so that
    every seed gets a similar spread of sizes."""
    return [rng.randrange(lo + i * (hi - lo) // k, lo + (i + 1) * (hi - lo) // k) for i in range(k)]


def _divisors(n):
    return [f for f in range(1, n + 1) if n % f == 0]


def _theta_check(lattice, prec):
    return lambda res: _expect(res, {"grid": 1, "coefficients": list(R.counts_named(lattice, prec))}, f"theta {lattice}")


def _repcount_check(lattice, norm):
    def check(res):
        want = R.counts_named(lattice, norm // 2 + 1)[norm // 2] if norm % 2 == 0 else 0
        return _expect(res, {"count": want}, f"repcount {lattice} norm {norm}")

    return check


def _siegel_check(form, t, report):
    def check(res):
        bad = _expect(res["r"], R.siegel_count(form, t), f"siegel {form} t={t}")
        return bad + (_expect(res.get("routes_agree"), True, "routes_agree") if report else [])

    return check


def _orbits_check(t, d, f):
    def check(res):
        want = R.orbit_count(t, d, f)
        return _expect((res["count"], res["exists"]), (want, want > 0), f"orbits t={t} d={d} f={f}")

    return check


def _sweep_check(t_max, d_max):
    def check(rows):
        bad = []
        keys = [(t, d, f) for t in range(1, t_max + 1) for d in range(1, d_max + 1) for f in _divisors(gcd(2 * t, 2 * d))]
        bad += _expect([tuple(r[:3]) for r in rows], keys, "sweep rows")
        for t, d, f, _case, exists, count, oracle, match in rows:
            want = R.orbit_count(t, d, f)
            bad += _expect((count, oracle, exists, match), (want, want, want > 0, True), f"sweep t={t} d={d} f={f}")
        return bad

    return check


def _e7_search_check(d, with_all):
    def check(res):
        n, lam = res["min_orthogonal"], res["witness"]
        bad = _expect(res["shell_size"], R.counts_E7(d + 1)[d], f"E7 shell size at norm {2 * d}")
        if with_all:
            bad += _expect(n in res["achievable"] if n is not None else not res["achievable"], True, "minimum among achievable counts")
        if n is not None:
            bad += _expect(res["weight"], 12 + n // 2, "weight")
            bad += _expect(R.e7_norm(lam), 2 * d, "witness norm")
            bad += _expect(R.e7_orthogonal_roots(lam), n, "roots orthogonal to the witness")
        if d >= 12:
            bad += _expect(n is not None and res["success"] and 2 <= n <= 14, True, f"d={d} has a vector with 2 <= N <= 14")
        elif n is not None and 2 <= n <= 14:
            bad.append(f"d={d}: no vector with 2 <= N <= 14 exists for d <= 11")
        return bad

    return check


def _inequality_check(coeff, m_max):
    def check(rows):
        d6, a1d4, a5 = (R.counts_named(x, m_max + 1) for x in ("D6", "A1D4", "A5"))
        want = []
        for m in range(1, m_max + 1):
            slack = coeff * d6[m] - 30 * a1d4[m] - 16 * a5[m]
            want.append([m, slack, slack > 0])
        return _expect(rows, want, f"inequality coeff={coeff}")

    return check


def _verdict_check(d):
    def check(res):
        return R.verdict_problems(d, res["classification"], res["n_orthogonal"], res["weight"], res["witness"])

    return check


def _table1_check(rows):
    want = []
    for d, p, lam in R.WITNESS_TABLE:
        vec = " ".join(map(str, lam))
        want.append({"d": d, "pairs": p, "vector": vec, "norm": R.e7_norm(lam), "orthogonal_roots": R.e7_orthogonal_roots(lam), "match": True})
    bad = _expect(rows, want, "table1")
    for d, p, lam in R.WITNESS_TABLE:
        bad += _expect((R.e7_norm(lam), R.e7_orthogonal_roots(lam)), (2 * d, 2 * p), f"published witness for d={d}")
    return bad


def cli_cold(rng, tiny):
    cli = ColdCli()
    cache = str(cli.cache_file)
    # (subcommand, how many in a round)
    mix = {"theta-cache": 14, "theta-closed": 6, "repcount": 11, "siegel": 10, "orbits": 8, "orbits-sweep": 2, "index": 10, "e7-search": 10, "inequality": 8, "verdict": 10, "table1": 10}
    if tiny:
        mix = {k: 1 for k in mix}
        mix["theta-cache"] = 2
    keys = rng.sample(THETA_CACHE_KEYS, 1 if tiny else 4)
    for _ in range(mix["theta-cache"]):
        lat, prec = rng.choice(keys)
        argv = ["--cache", cache, "theta", "--lattice", lat, "--prec", str(prec), "--method", "enum"]
        cli.add("theta --cache", argv, "theta", {"lattice": lat, "prec": prec, "method": "enum"}, _theta_check(lat, prec))
    for i in range(mix["theta-closed"]):
        lat, prec, method = rng.choice(THETA_CLOSED), rng.choice((16, 24, 32)), ("both", "both", "closed")[i % 3]
        argv = ["theta", "--lattice", lat, "--prec", str(prec), "--method", method]
        cli.add("theta", argv, "theta", {"lattice": lat, "prec": prec, "method": method}, _theta_check(lat, prec))
    for _ in range(mix["repcount"]):
        lat, norm = rng.choice(REPCOUNT_LATTICES), rng.randrange(2, 17, 2)
        cli.add("repcount", ["repcount", "--lattice", lat, "--norm", str(norm)], "repcount", {"lattice": lat, "norm": norm}, _repcount_check(lat, norm))
    # int64 overflow in latq's D_n counting model: fails every time (see CHANGES.md)
    cli.add("repcount D24", ["repcount", "--lattice", "D24", "--norm", "76"], "repcount", {"lattice": "D24", "norm": 76}, _repcount_check("D24", 76), known_fault=True)
    for i, t in enumerate(_strata(rng, 1, 61, mix["siegel"])):
        form, report = rng.choice(("S5", "A1D4", "A5")), i % 2 == 0
        argv = ["siegel", "--form", form, "--t", str(t)] + (["--report"] if report else [])
        cli.add("siegel", argv, "siegel", {"form": form, "t": t}, _siegel_check(form, t, report))
    for _ in range(mix["orbits"]):
        t, d = rng.randrange(1, 31), rng.randrange(1, 31)
        f = rng.choice(_divisors(gcd(2 * t, 2 * d)))
        cli.add("orbits", ["orbits", "--t", str(t), "--d", str(d), "--f", str(f)], "orbits", {"t": t, "d": d, "f": f}, _orbits_check(t, d, f))
    for _ in range(mix["orbits-sweep"]):
        t, d = rng.randrange(3, 9), rng.randrange(3, 9)
        cli.add("orbits --sweep", ["orbits", "--t", str(t), "--d", str(d), "--sweep"], "orbits-sweep", {"t_max": t, "d_max": d}, _sweep_check(t, d))
    for _ in range(mix["index"]):
        t, d = rng.randrange(1, 51), rng.randrange(1, 51)
        f = rng.choice([f for f in _divisors(gcd(2 * t, 2 * d)) if R.stable_index_w(t, d, f) == 1])
        argv = ["index", "--t", str(t), "--d", str(d), "--f", str(f)]
        cli.add("index", argv, "index", {"t": t, "d": d, "f": f}, lambda res, t=t, f=f: _expect(res, {"index": R.stable_index(t, f)}, "stable index"))
    for i, d in enumerate(_strata(rng, 1, 31, mix["e7-search"])):
        with_all = i % 2 == 0
        argv = ["e7-search", "--d", str(d)] + (["--all"] if with_all else [])
        cli.add("e7-search", argv, "e7-search", {"d": d, "max_roots": 14}, _e7_search_check(d, with_all))
    for i, m_max in enumerate(_strata(rng, 10, 61, mix["inequality"])):
        coeff = (5, 6)[i % 2]
        argv = ["inequality", "--coeff", str(coeff), "--m-max", str(m_max)]
        cli.add("inequality", argv, "inequality", {"coeff": coeff, "m_max": m_max}, _inequality_check(coeff, m_max))
    for d in _strata(rng, 1, 41, mix["verdict"]):
        cli.add("verdict", ["verdict", "--d", str(d)], "verdict", {"d": d}, _verdict_check(d))
    for _ in range(mix["table1"]):
        cli.add("table1", ["table1"], "table1", {}, _table1_check)
    rng.shuffle(cli.ops)
    return cli


WORKLOADS = {
    "verdict_sweep": verdict_sweep,
    "density_certify": density_certify,
    "lattice_geometry": lattice_geometry,
    "cli_cold": cli_cold,
}


def build(name, seed, tiny=False):
    return WORKLOADS[name](random.Random(f"{name}:{seed}"), tiny)
