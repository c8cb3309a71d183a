#!/usr/bin/env python3
"""perfbench: the layered benchmark of the gdp workspace.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

It builds the `gdp` CLI and the traced layer harness (`perfbench/harness`)
from source into $CARGO_TARGET_DIR (default `.bench_build`), generates the
workload's inputs from --seed, runs the workload, checks every output, and
prints one JSON result object as the last line of stdout:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics (the CLI as a user
runs it, no tracing); with --trace 1 they are the per-layer metrics of a
traced run.  Every run also writes `.bench_out/<workload>-s<seed>-t<trace>.json`
(all metrics, host provenance, work counters) and, when traced, the spans
to `.bench_out/<workload>-s<seed>-spans.json`.  See perfbench/README.md for
the workloads, the metric → layer → workload map and the baselines.
"""

import argparse
import collections
import hashlib
import json
import os
import random
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# Seed-independent expectations of the exhaustive checks (FNV-1a 64 of the
# whole `gdp check` stdout, plus the model sizes it reports).
CHECKS = {
    "check-fair": dict(size=5, adversary="fair", exit=0, verdict="certified",
                       digest="b97b7543117fe185", states=4012473, transitions=12025250),
    "check-crash": dict(size=4, adversary="crash:1", exit=1, verdict="violated",
                        digest="d000905cc1e38d20", states=1151840, transitions=3211648),
}
PROBE_CHECK = dict(size=4, adversary="fair", digest="4d1de366003755fb",
                   states=62914, transitions=164442)

SWEEP_FAMILIES = "ring,torus,complete,star,barbell,random-regular:3"
SWEEP_GRID = ["--families", SWEEP_FAMILIES, "--sizes", "6,12", "--algorithms", "lr1,gdp1,gdp2",
              "--trials", "40", "--steps", "100000"]
SWEEP_CELLS, SWEEP_STEPS = 36, 36 * 40 * 100000
PROBE_SWEEP = ["--families", "ring", "--sizes", "5", "--algorithms", "gdp1,lr1",
               "--trials", "4", "--steps", "20000"]

PREWARM_FAMILIES = ["ring", "shared-ring:2", "shared-ring:3", "star", "theta:2", "theta:3",
                    "grid", "torus"]
PREWARM_SIZES = list(range(4, 54))
PREWARM_ALGORITHMS = ["lr1", "lr2", "gdp1", "gdp2", "ordered-forks"]
PREWARM_SEEDS, PREWARM_TRIALS, PREWARM_STEPS = 5, 2, 300
PREWARM_RECORDS = PREWARM_SEEDS * len(PREWARM_FAMILIES) * len(PREWARM_SIZES) * len(PREWARM_ALGORITHMS)
HIT_POOL = 64
MISS_FAMILIES, MISS_SIZES = ["ring", "star", "theta:3", "shared-ring:2"], [5, 6, 7, 8]
MISS_ALGORITHMS, MISS_TRIALS, MISS_STEPS = ["gdp1", "gdp2", "lr1", "lr2"], 20, 40000
CLIENTS, REQUESTS_PER_CLIENT, RECONNECTS_PER_CLIENT = 2, 175, 18

STRESS_MEALS, STRESS_SEATS = 50000, 2
PROBE_STRESS_MEALS = 2000

# Seconds one iteration of the fixed work nominally takes on a 2-core host:
# a run makes round(--seconds / nominal) iterations, so the work (and every
# work counter) of a run is a function of its arguments alone.
NOMINAL_S = {"check-fair": 9.0, "check-crash": 4.6, "sweep-cold": 3.4,
             "serve-mixed": 2.5, "serve-hits": 1.0, "stress-ring5": 0.65}
# Set-ups per run; setup_s is their median.  Every set-up takes tens of
# milliseconds, so more of them steady the median cheaply.
SETUP_REPEATS = 11
TIMEOUT_S = 150
# Deterministic work counters: they must repeat exactly across runs.
WORK_COUNTERS = ("mcheck.states", "sim.steps", "store.records", "runtime.meals",
                 "serve.cells_computed")


def fnv1a64(data):
    h = 0xCBF29CE484222325
    for byte in data:
        h = ((h ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def median(values):
    return statistics.median(values) if values else 0.0


def tail(values, ladder=(99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)):
    """The highest percentile of `ladder` with at least ten samples beyond
    it, as (percentile, nearest-rank value)."""
    ordered = sorted(values)
    for p in ladder:
        if len(ordered) * (100.0 - p) / 100.0 >= 10:
            rank = max(1, -(-len(ordered) * p // 100))
            return p, ordered[int(rank) - 1]
    return 0.0, (ordered[-1] if ordered else 0.0)


# One repetition of a workload's fixed work; `failed_ops` defaults to one
# failed operation when `failures` is not empty.
Rep = collections.namedtuple("Rep", "wall rss failures counters ops failed_ops",
                             defaults=({}, 1, None))
# A traced pass: the layer spans, the thread count its path ran trials at,
# the layers left to probes, the spans of the blocking path (default: the
# layer spans) and metrics measured outside the harness.
Traced = collections.namedtuple("Traced", "doc path_threads probes path_doc extra",
                                defaults=(None, {}))


class OpError(str):
    """A failed operation (an error or a rejection answered instead of a
    result), as opposed to a wrong output: it counts in `failed` but does
    not make the run incorrect."""


class Gates:
    """Collects the failed correctness gates and operation errors of one
    operation."""

    def __init__(self):
        self.failures = []

    def check(self, ok, message):
        if not ok:
            self.failures.append(message)

    def error(self, message):
        self.failures.append(OpError(message))


class Proc:
    """A child process with its wall time and polled peak RSS (VmHWM)."""

    def __init__(self, argv, cwd, stdout_path, stderr_path):
        self.stdout_path, self.stderr_path = Path(stdout_path), Path(stderr_path)
        with open(self.stdout_path, "wb") as out, open(self.stderr_path, "wb") as err:
            self.started = time.perf_counter()
            self.popen = subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=err)
        self.peak_kb = 0
        self._stop = threading.Event()
        self._poller = threading.Thread(target=self._poll, daemon=True)
        self._poller.start()

    def _poll(self):
        path = f"/proc/{self.popen.pid}/status"
        while not self._stop.is_set():
            self.peak_kb = max(self.peak_kb, read_hwm_kb(path))
            self._stop.wait(0.02)

    def wait(self, timeout=TIMEOUT_S):
        # A blocking wait, not Popen.wait(timeout=...), which polls with
        # sleeps of up to 50 ms and would quantize every wall time.
        timer = threading.Timer(timeout, self.popen.kill)
        timer.start()
        _, status, self.rusage = os.wait4(self.popen.pid, 0)
        self.wall = time.perf_counter() - self.started
        timer.cancel()
        self.popen.returncode = os.waitstatus_to_exitcode(status)
        self._stop.set()
        self._poller.join()
        self.rc = self.popen.returncode
        self.out = self.stdout_path.read_bytes()
        self.err = self.stderr_path.read_bytes()
        return self


def read_hwm_kb(path):
    try:
        with open(path) as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except (OSError, ValueError):
        pass
    return 0


def cargo_target():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target if target.is_absolute() else ROOT / target


def build():
    """Builds the CLI and the harness; exits 2 without a result when the
    sources are not there."""
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        print("perfbench: no gdp sources beside perfbench/; nothing to build", file=sys.stderr)
        sys.exit(2)
    env = dict(os.environ, CARGO_TARGET_DIR=str(cargo_target()))
    for argv in (["cargo", "build", "--release", "--offline", "--quiet", "--bin", "gdp"],
                 ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path",
                  str(BENCH / "harness" / "Cargo.toml")]):
        done = subprocess.run(argv, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            print(f"perfbench: build failed: {' '.join(argv)}", file=sys.stderr)
            sys.exit(2)
    release = cargo_target() / "release"
    return release / "gdp", release / "perfbench-harness"


def provenance():
    def run(argv):
        try:
            done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=30)
            return done.stdout.strip() if done.returncode == 0 else None
        except OSError:
            return None

    digest = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "src", "crates", "vendor", "perfbench"):
        base = ROOT / top
        files = [base] if base.is_file() else sorted(p for p in base.rglob("*") if p.is_file())
        for path in files:
            if "target" in path.relative_to(ROOT).parts or path.suffix == ".pyc":
                continue
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    cpu = next((line.split(":", 1)[1].strip() for line in open("/proc/cpuinfo")
                if line.startswith("model name")), "unknown")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "rustc": run(["rustc", "-V"]) or "unknown",
        "profile": "release",
        "commit": run(["git", "rev-parse", "HEAD"]) or "unknown (not a git checkout)",
        "source_sha256": digest.hexdigest()[:16],
    }


# ---------------------------------------------------------------------------
# Spans → per-layer metrics


class Spans:
    """One harness document: spans [name, parent, start_ns, end_ns] and
    counters."""

    def __init__(self, doc):
        self.spans = doc["spans"]
        self.counters = doc["counters"]

    def durations(self, name):
        return [(end - start) / 1e9 for n, _, start, end in self.spans if n == name]

    def total(self, name):
        return sum(self.durations(name))

    def root(self):
        return next(i for i, span in enumerate(self.spans) if span[1] == -1)

    def self_times(self):
        """Self time of every span name under the first root, and the root's
        own self time."""
        root = self.root()
        children = {}
        for i, (_, parent, start, end) in enumerate(self.spans):
            children.setdefault(parent, []).append(i)
        selves = {}

        def visit(i):
            name, _, start, end = self.spans[i]
            covered = sum(self.spans[c][3] - self.spans[c][2] for c in children.get(i, []))
            selves[name] = selves.get(name, 0.0) + (end - start - covered) / 1e9
            for c in children.get(i, []):
                visit(c)

        visit(root)
        return selves


def layer_metrics(doc, path_threads):
    """Per-layer metrics one harness document supports."""
    m = {}
    c = doc.counters
    if doc.durations("mcheck.build"):
        build_s = doc.total("mcheck.build")
        m["mcheck.build_s"] = build_s
        m["mcheck.states"] = c["mcheck.states"]
        m["mcheck.transitions"] = c["mcheck.transitions"]
        m["mcheck.build_states_per_s"] = c["mcheck.states"] / build_s
        m["mcheck.build_speedup"] = doc.total("baseline.mcheck.build_1t") / build_s
        m["mcheck.bytes_per_state"] = c["mcheck.rss_growth_bytes"] / c["mcheck.states"]
        m["mcheck.solve_s"] = doc.total("mcheck.solve")
        m["mcheck.cert_us"] = doc.total("mcheck.cert") * 1e6
    cells = doc.durations("scenarios.cell")
    if cells:
        m["scenarios.cell_ms_p50"] = median(cells) * 1e3
        m["scenarios.cell_ms_max"] = max(cells) * 1e3
        live = doc.total("analysis.liveness")
        steps = c["sim.steps"]
        if path_threads == 1:
            one, many = live, doc.total("baseline.liveness_nproc")
        else:
            one, many = doc.total("baseline.liveness_1t"), live
        m["analysis.liveness_s"] = live
        m["analysis.trial_speedup"] = one / many
        m["sim.steps"] = steps
        m["sim.steps_per_s_1t"] = steps / one
        m["sim.steps_per_s_nproc"] = steps / many
        m["report.cell_json_us"] = median(doc.durations("report.cell_json")) * 1e6
    if doc.durations("store.lookup"):
        m["store.open_us"] = median(doc.durations("store.open")) * 1e6
        m["store.lookup_us"] = median(doc.durations("store.lookup")) * 1e6
        m["store.records"] = c["store.records"]
        m["store.record_bytes"] = c["store.record_bytes"]
        m["store.hit_ratio"] = c["store.hits"] / c["store.lookups"]
    if doc.durations("store.save"):
        m["store.save_us"] = median(doc.durations("store.save")) * 1e6
    if "runtime.meals" in c:
        buckets = sorted((int(k.rsplit(".", 1)[1]), v) for k, v in c.items()
                         if k.startswith("runtime.wait_bucket."))
        m["runtime.meals"] = c["runtime.meals"]
        m["runtime.wait_p50_ns"] = histogram_quantile(buckets, 0.50)
        m["runtime.wait_p99_ns"] = histogram_quantile(buckets, 0.99)
        m["runtime.wait_share"] = c["runtime.wait_s"] / (c["runtime.elapsed_s"] * c["runtime.seats"])
    if doc.durations("topology.build"):
        m["topology.build_us"] = median(doc.durations("topology.build")) * 1e6
    return m


def histogram_quantile(buckets, q):
    """Quantile of a log2 histogram (bucket i holds [2^i, 2^(i+1)) ns),
    interpolated linearly inside the bucket."""
    total = sum(count for _, count in buckets)
    rank, seen = q * total, 0.0
    for bucket, count in buckets:
        if seen + count >= rank:
            low = 2.0 ** bucket
            return low + low * (rank - seen) / count
        seen += count
    return 2.0 ** (buckets[-1][0] + 1) if buckets else 0.0


# ---------------------------------------------------------------------------
# The serve client


class ServeClient:
    """A line-protocol client of `gdp serve` that times every request."""

    def __init__(self, addr):
        self.addr = addr
        self.sock = None
        self.connect()

    def connect(self):
        self.close()
        self.sock = socket.create_connection(self.addr, timeout=60)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")

    def close(self):
        if self.sock is not None:
            self.reader.close()
            self.sock.close()
            self.sock = None

    @staticmethod
    def once(addr, line):
        """One request on a connection of its own."""
        client = ServeClient(addr)
        try:
            return client.request(line)
        finally:
            client.close()

    def request(self, line, reconnect=False):
        """Sends one request; returns (lines, times) where times holds the
        connect start (fresh connections only), the write, the first response
        line, the sweep_start line and the last line."""
        times = {}
        if reconnect:
            times["connect"] = time.perf_counter()
            self.connect()
        times["write"] = time.perf_counter()
        self.sock.sendall(line + b"\n")
        lines = []
        while True:
            got = self.reader.readline()
            now = time.perf_counter()
            if not got:
                break
            lines.append(got)
            times.setdefault("first", now)
            if got.startswith(b'{"type":"sweep_start"'):
                times["start"] = now
            if not got.startswith((b'{"type":"sweep_start"', b'{"type":"cell"')):
                break
        times["end"] = time.perf_counter()
        return lines, times


def sweep_request(name, families, sizes, algorithms, trials, steps, seed):
    return json.dumps({"type": "sweep", "name": name, "families": families, "sizes": sizes,
                       "algorithms": algorithms, "trials": trials, "steps": steps,
                       "seed": seed, "threads": 1}, separators=(",", ":")).encode()


def check_sweep_answer(lines, kind, gates):
    """Gates one sweep response; returns the cell lines."""
    if len(lines) < 3 or not lines[-1].startswith(b'{"type":"summary"'):
        gates.error(f"{kind} request failed: {lines[-1:]!r}")
        return []
    cells = lines[1:-1]
    summary = json.loads(lines[-1])
    gates.check(summary["cells"] == len(cells), f"{kind}: summary counts {summary['cells']} cells")
    gates.check(summary["digest"] == "%016x" % fnv1a64(b"".join(cells)),
                f"{kind}: summary digest does not match the streamed cells")
    if kind == "hit":
        gates.check(summary["reused"] == len(cells) and summary["computed"] == 0,
                    f"hit: expected all cells reused, got {summary}")
    else:
        gates.check(summary["computed"] == len(cells) == 1 and summary["reused"] == 0,
                    f"miss: expected one computed cell, got {summary}")
    return cells


# ---------------------------------------------------------------------------
# Workloads


class Workload:
    def __init__(self, bench):
        self.b = bench

    def prepare(self):
        """Generates the run's input data once, before the timed set-ups;
        returns a list of failed gates."""
        return []

    def setup(self):
        """One set-up; returns a list of failed gates."""
        return []

    def iteration(self, index):
        """One repetition of the fixed work, as a `Rep`."""
        raise NotImplementedError

    def teardown(self):
        """Stops what setup started; returns a list of failed gates."""
        return []


class CheckWorkload(Workload):
    """An exhaustive `gdp check`; seed-independent by construction."""

    def __init__(self, bench):
        super().__init__(bench)
        self.spec = CHECKS[bench.workload]

    def cli(self, size, adversary):
        return ["check", "--family", "ring", "--size", str(size), "--algorithm", "gdp1",
                "--target", "progress", "--adversary", adversary, "--threads", "2"]

    def setup(self):
        proc = self.b.gdp(self.cli(PROBE_CHECK["size"], "fair"), "setup")
        gates = Gates()
        gates.check(proc.rc == 0 and "%016x" % fnv1a64(proc.out) == PROBE_CHECK["digest"],
                    f"setup check answered rc={proc.rc} with other bytes")
        return gates.failures

    def iteration(self, index):
        s = self.spec
        proc = self.b.gdp(self.cli(s["size"], s["adversary"]), f"check{index}")
        gates = Gates()
        text = proc.out.decode(errors="replace")
        gates.check(proc.rc == s["exit"], f"exit code {proc.rc}, expected {s['exit']}")
        gates.check(f"verdict:           {s['verdict']}" in text, f"verdict is not {s['verdict']}")
        gates.check(f"{s['states']} canonical states, {s['transitions']} transitions" in text,
                    "state/transition counts differ from the pinned model size")
        gates.check("%016x" % fnv1a64(proc.out) == s["digest"],
                    "certificate bytes differ from the pinned digest")
        self.last = proc.out
        return Rep(proc.wall, proc.peak_kb / 1024, gates.failures, {"mcheck.states": s["states"]})

    def traced(self, gates):
        s = self.spec
        doc = self.b.harness(["check", "--size", str(s["size"]), "--adversary", s["adversary"],
                              "--threads", "2", "--out", str(self.b.work / "traced.txt")])
        gates.check((self.b.work / "traced.txt").read_bytes() == self.last,
                    "traced decomposition did not reproduce the gdp check bytes")
        gates.check(doc.counters["mcheck.states"] == s["states"], "traced state count differs")
        return Traced(doc, 2, ["sweep", "stress", "serve"])


class SweepWorkload(Workload):
    """A store-backed cold `gdp sweep`, checked against a warm --resume."""

    def grid(self):
        return SWEEP_GRID + ["--seed", str(self.b.seed), "--threads", "2"]

    def setup(self):
        store = self.b.fresh("setup-store")
        proc = self.b.gdp(["sweep"] + PROBE_SWEEP + ["--seed", str(self.b.seed), "--threads", "2",
                                                     "--store", str(store), "--quiet",
                                                     "--json", str(store / "s.json"),
                                                     "--csv", str(store / "s.csv")], "setup")
        gates = Gates()
        gates.check(proc.rc == 0, f"setup sweep exited {proc.rc}")
        return gates.failures

    def run_sweep(self, store, tag, resume=False):
        json_path, csv_path = self.b.work / f"{tag}.json", self.b.work / f"{tag}.csv"
        argv = (["sweep"] + self.grid() + ["--store", str(store), "--quiet",
                                           "--json", str(json_path), "--csv", str(csv_path)]
                + (["--resume"] if resume else []))
        proc = self.b.gdp(argv, tag)
        return proc, json_path.read_bytes() if json_path.exists() else b"", \
            csv_path.read_bytes() if csv_path.exists() else b""

    def iteration(self, index):
        store = self.b.fresh(f"store{index}")
        gates = Gates()
        proc, cold_json, cold_csv = self.run_sweep(store, f"cold{index}")
        gates.check(proc.rc == 0, f"cold sweep exited {proc.rc}: {proc.err[-300:]!r}")
        gates.check(f"0 reused, {SWEEP_CELLS} computed, 0 quarantined".encode() in proc.out,
                    "cold sweep did not compute every cell")
        warm, warm_json, warm_csv = self.run_sweep(store, f"warm{index}", resume=True)
        gates.check(warm.rc == 0 and f"{SWEEP_CELLS} reused, 0 computed".encode() in warm.out,
                    "warm --resume did not reuse every cell")
        gates.check(cold_json == warm_json and cold_csv == warm_csv and cold_json,
                    "cold artifacts differ from the warm --resume artifacts")
        report = json.loads(cold_json or b"{}")
        steps = sum(c["trials"] * c["max_steps"] for c in report.get("cells", []))
        gates.check(steps == SWEEP_STEPS, f"sweep ran {steps} engine steps")
        records = len(list((store / "cells").glob("*.cell")))
        gates.check(records == SWEEP_CELLS, f"store holds {records} records")
        self.last = (store, cold_json, cold_csv)
        return Rep(proc.wall, proc.peak_kb / 1024, gates.failures,
                   {"sim.steps": steps, "store.records": records})

    def traced(self, gates):
        store = self.b.fresh("traced-store")
        argv = (["sweep"] + self.grid() + ["--store", str(store),
                                           "--json", str(self.b.work / "traced.json"),
                                           "--csv", str(self.b.work / "traced.csv")])
        doc = self.b.harness(argv)
        ref_store, ref_json, ref_csv = self.last
        gates.check((self.b.work / "traced.json").read_bytes() == ref_json
                    and (self.b.work / "traced.csv").read_bytes() == ref_csv,
                    "traced decomposition did not reproduce the sweep artifacts")
        gates.check(store_bytes(store) == store_bytes(ref_store),
                    "traced store records differ from the CLI's")
        return Traced(doc, 2, ["check", "stress", "serve"])


def store_bytes(store):
    return {p.name: p.read_bytes() for p in sorted((store / "cells").glob("*.cell"))}


class StressWorkload(Workload):
    """A meal-budget `gdp stress` on real threads."""

    TIMING_KEYS = {"elapsed_secs", "meals_per_sec", "mean_wait_micros", "first_meal_p50",
                   "first_meal_p90", "first_meal_p99", "wait_histogram_ns"}

    def deterministic(self, report):
        """The report without its wall-clock fields."""
        return {k: v for k, v in report.items() if k not in self.TIMING_KEYS}

    def cli(self, meals, tag):
        return ["stress", "--family", "ring", "--n", "5", "--algorithm", "gdp2",
                "--threads", str(STRESS_SEATS), "--meals", str(meals), "--seed", str(self.b.seed),
                "--timing", "--json", str(self.b.work / f"{tag}.json"),
                "--csv", str(self.b.work / f"{tag}.csv")]

    def setup(self):
        proc = self.b.gdp(self.cli(PROBE_STRESS_MEALS, "setup"), "setup")
        gates = Gates()
        gates.check(proc.rc == 0, f"setup stress exited {proc.rc}")
        return gates.failures

    def iteration(self, index):
        proc = self.b.gdp(self.cli(STRESS_MEALS, f"stress{index}"), f"stress{index}")
        gates = Gates()
        gates.check(proc.rc == 0, f"stress exited {proc.rc}")
        path = self.b.work / f"stress{index}.json"
        report = json.loads(path.read_bytes()) if path.exists() else {}
        expected = [STRESS_MEALS] * STRESS_SEATS + [0] * (5 - STRESS_SEATS)
        gates.check(report.get("everyone_ate") is True, "everyone_ate does not hold")
        gates.check(report.get("meals") == expected, f"meal counts {report.get('meals')}")
        gates.check(report.get("total_meals") == STRESS_MEALS * STRESS_SEATS, "meal total differs")
        self.last = self.deterministic(report)
        return Rep(proc.wall, proc.peak_kb / 1024, gates.failures,
                   {"runtime.meals": report.get("total_meals")})

    def traced(self, gates):
        doc = self.b.harness(["stress", "--size", "5", "--threads", str(STRESS_SEATS),
                              "--meals", str(STRESS_MEALS), "--seed", str(self.b.seed),
                              "--json", str(self.b.work / "traced.json"),
                              "--csv", str(self.b.work / "traced.csv")])
        traced = json.loads((self.b.work / "traced.json").read_bytes())
        gates.check(self.deterministic(traced) == self.last,
                    "traced stress report differs from the CLI's")
        return Traced(doc, 2, ["check", "sweep", "serve"])


class ServeWorkload(Workload):
    """A closed loop of two clients against `gdp serve` on a pre-warmed store.

    Setup pre-warms the store with `gdp sweep --store` runs whose seeds come
    from --seed; the hit grids are drawn from those sweeps and the misses are
    one-cell grids with fresh seeds, so every request's kind is known in
    advance and checked."""

    MISSES_PER_CLIENT = 26

    def __init__(self, bench):
        super().__init__(bench)
        self.server = None
        self.seen = {}
        self.lock = threading.Lock()
        self.requests = []  # (kind, reconnect, times, failed) over every repetition
        self.misses = self.failed_misses = self.hit_cells = 0
        rng = random.Random(f"serve-pool-{bench.seed}")
        self.prewarm_seeds = [bench.seed * 100 + k for k in range(PREWARM_SEEDS)]
        self.pool = [(",".join(rng.sample(PREWARM_FAMILIES, 2)),
                      ",".join(map(str, sorted(rng.sample(PREWARM_SIZES, 2)))),
                      ",".join(rng.sample(PREWARM_ALGORITHMS, 2)),
                      PREWARM_TRIALS, PREWARM_STEPS, rng.choice(self.prewarm_seeds))
                     for _ in range(HIT_POOL)]

    def prepare(self):
        # The pre-warm is input data written by `gdp sweep`, not the server's
        # set-up, and its time is mostly filesystem metadata work that varies
        # by 2x between runs here (user time steady at 0.5 s, system time
        # 0.1-1.4 s), so it is not timed into setup_s.
        gates = Gates()
        self.store = store = self.b.fresh("serve-store")
        for seed in self.prewarm_seeds:
            proc = self.b.gdp(["sweep", "--families", ",".join(PREWARM_FAMILIES),
                               "--sizes", ",".join(map(str, PREWARM_SIZES)),
                               "--algorithms", ",".join(PREWARM_ALGORITHMS),
                               "--trials", str(PREWARM_TRIALS), "--steps", str(PREWARM_STEPS),
                               "--seed", str(seed), "--threads", "1", "--store", str(store),
                               "--quiet", "--json", str(self.b.work / "prewarm.json"),
                               "--csv", str(self.b.work / "prewarm.csv")], "prewarm")
            gates.check(proc.rc == 0, f"pre-warm sweep exited {proc.rc}")
        records = len(list((store / "cells").glob("*.cell")))
        gates.check(records == PREWARM_RECORDS, f"pre-warmed store holds {records} records")
        return gates.failures

    def setup(self):
        gates = Gates()
        self.server, self.addr = self.b.start_server(self.store, workers=2)
        lines, _ = ServeClient.once(self.addr, b'{"type":"ping"}')
        gates.check(lines == [b'{"type":"pong"}\n'], "server did not answer ping")
        return gates.failures

    def schedule(self, rep, client):
        """The seeded request plan of one client in one repetition: exact
        miss and reconnect counts at seeded positions."""
        rng = random.Random(f"serve-{self.b.seed}-{rep}-{client}")
        misses = self.MISSES_PER_CLIENT
        kinds = ["miss"] * misses + ["hit"] * (REQUESTS_PER_CLIENT - misses)
        fresh = [True] * RECONNECTS_PER_CLIENT + [False] * (REQUESTS_PER_CLIENT - RECONNECTS_PER_CLIENT)
        rng.shuffle(kinds)
        rng.shuffle(fresh)
        plan = []
        for i, (kind, reconnect) in enumerate(zip(kinds, fresh)):
            if kind == "hit":
                grid = self.pool[rng.randrange(HIT_POOL)]
            else:
                grid = (rng.choice(MISS_FAMILIES), str(rng.choice(MISS_SIZES)),
                        rng.choice(MISS_ALGORITHMS), MISS_TRIALS, MISS_STEPS,
                        self.b.seed * 1_000_000 + rep * 10_000 + client * 5_000 + i)
            plan.append((kind, reconnect, grid))
        return plan

    def client_loop(self, plan, out):
        client = ServeClient(self.addr)
        out["start"] = time.perf_counter()
        try:
            for kind, reconnect, grid in plan:
                gates = Gates()
                line = sweep_request(kind, *grid)
                try:
                    lines, times = client.request(line, reconnect)
                except OSError as e:
                    lines, times = [], {}
                    gates.error(f"{kind}: {e}")
                got = check_sweep_answer(lines, kind, gates) if lines else []
                if kind == "hit" and got:
                    with self.lock:
                        first = self.seen.setdefault(line, got)
                    gates.check(got == first, "repeated hit differs from its first answer")
                out["done"].append((kind, reconnect, grid, times, got, gates.failures))
        finally:
            client.close()
            out["end"] = time.perf_counter()

    def iteration(self, index):
        plans = [self.schedule(index, c) for c in range(CLIENTS)]
        self.outs = [{"done": []} for _ in plans]
        threads = [threading.Thread(target=self.client_loop, args=(p, o))
                   for p, o in zip(plans, self.outs)]
        started = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = time.perf_counter() - started
        failures, failed_ops = [], 0
        for plan, out in zip(plans, self.outs):
            for kind, reconnect, grid, times, got, fails in out["done"]:
                failures.extend(fails)
                failed_ops += bool(fails)
                self.requests.append((kind, reconnect, times, bool(fails)))
                if kind == "hit":
                    self.hit_cells += len(got)
                elif got:
                    self.misses += 1
                else:
                    self.failed_misses += 1
            unanswered = len(plan) - len(out["done"])
            failures.extend([OpError("request never sent")] * unanswered)
            failed_ops += unanswered
        ops = sum(len(p) for p in plans)
        rss = read_hwm_kb(f"/proc/{self.server.pid}/status") / 1024
        return Rep(wall, rss, failures, {}, ops, failed_ops)

    def final_gates(self):
        gates = Gates()
        lines, _ = ServeClient.once(self.addr, b'{"type":"metrics"}')
        counters = json.loads(lines[0])["metrics"]["counters"] if lines else {}
        self.server_counters = counters
        gates.check(counters.get("serve.cells_computed") == self.misses,
                    f"serve.cells_computed {counters.get('serve.cells_computed')} != "
                    f"{self.misses} answered misses")
        gates.check(counters.get("serve.queue_rejections") == 0, "queue rejections")
        gates.check(counters.get("serve.store_hits") == self.hit_cells
                    and self.misses <= counters.get("serve.store_misses", -1)
                    <= self.misses + self.failed_misses,
                    "server store hits/misses differ from the schedule")
        return gates.failures

    def latencies(self):
        """hit_p50_ms, hit_p99_ms, miss_p50_ms, miss_p95_ms as
        (value, samples, percentile); a failed request counts as infinitely
        late."""
        m = {}
        for kind, tail_name in (("hit", "hit_p99_ms"), ("miss", "miss_p95_ms")):
            values = [float("inf") if failed else (t["end"] - t["write"]) * 1e3
                      for k, _, t, failed in self.requests if k == kind]
            if not values:
                continue
            m[f"{kind}_p50_ms"] = (median(values), len(values), 50.0)
            p, v = tail(values)
            m[tail_name] = (v, len(values), p)
        return m

    def traced(self, gates):
        # Repetition 0 was the untraced reference; repetition 1 is traced,
        # with fresh miss seeds so its misses really compute.
        gates.failures.extend(self.iteration(1).failures)
        # Requests answered with a result; failed ones carry no phase times.
        done = [r for out in self.outs for r in out["done"] if not r[5]]
        hits = sorted({grid for k, _, grid, _, _, _ in done if k == "hit"})
        misses = [grid for k, _, grid, _, _, _ in done if k == "miss"]
        served = [got[0] for k, _, _, _, got, _ in done if k == "miss"]
        for name, grids in (("hits", hits), ("misses", misses)):
            (self.b.work / f"{name}.txt").write_text(
                "".join(" ".join(map(str, g)) + "\n" for g in grids))
        doc = self.b.harness(["serve-layers", "--store", str(self.store),
                              "--hits", str(self.b.work / "hits.txt"),
                              "--misses", str(self.b.work / "misses.txt"),
                              "--out", str(self.b.work / "cells.txt")])
        prefix = b'"source":"computed","result":'
        recomputed = (self.b.work / "cells.txt").read_bytes().splitlines(keepends=True)
        gates.check([line[line.index(prefix) + len(prefix):-2] + b"\n" for line in served]
                    == recomputed, "served miss cells differ from the library's compute_cell")
        gates.failures.extend(self.final_gates())
        c = self.server_counters
        extra = {
            "serve.accept_ms": median([(t["first"] - t["connect"]) * 1e3
                                       for _, r, _, t, _, _ in done if r]),
            "serve.lookup_ms": median([(t["start"] - t["write"]) * 1e3
                                       for k, r, _, t, _, _ in done if k == "hit" and not r]),
            "serve.cells_computed": c.get("serve.cells_computed", 0),
            "serve.queue_rejections": c.get("serve.queue_rejections", 0),
            "store.hit_ratio": c.get("serve.store_hits", 0)
            / max(1, c.get("serve.store_hits", 0) + c.get("serve.store_misses", 0)),
        }
        gates.check(self.failed_misses or abs(extra["store.hit_ratio"] - self.hit_cells
                                              / (self.hit_cells + self.misses)) < 1e-12,
                    "store hit ratio differs from the schedule's hit share")
        if misses:
            extra["serve.stream_ms"] = median([(t["end"] - t["start"]) * 1e3
                                               for k, _, _, t, _, _ in done if k == "miss"])
            return Traced(doc, 1, ["check", "stress"], self.client_spans(), extra)
        # Without misses nothing computes or saves on the path: those layers,
        # and the miss stream time, come from probes.
        return Traced(doc, 1, ["check", "stress", "sweep", "serve"], self.client_spans(), extra)

    def client_spans(self):
        """Client-side spans of the traced repetition: the slowest client's
        requests are the blocking path under the `serve.schedule` root."""
        slowest = max(range(CLIENTS), key=lambda c: self.outs[c]["end"] - self.outs[c]["start"])
        origin = min(out["start"] for out in self.outs)
        ns = lambda t: int((t - origin) * 1e9)
        spans = []
        for c in [slowest] + [c for c in range(CLIENTS) if c != slowest]:
            out = self.outs[c]
            root = len(spans)
            spans.append(["serve.schedule" if c == slowest else "serve.client", -1,
                          ns(out["start"]), ns(out["end"])])
            for kind, reconnect, _, t, _, fails in out["done"]:
                if fails:
                    continue
                request = len(spans)
                begin = t.get("connect", t["write"])
                spans.append([f"serve.request.{kind}", root, ns(begin), ns(t["end"])])
                if reconnect:
                    spans.append(["serve.connect", request, ns(begin), ns(t["write"])])
                spans.append(["serve.lookup", request, ns(t["write"]), ns(t["start"])])
                spans.append(["serve.stream", request, ns(t["start"]), ns(t["end"])])
        return Spans({"spans": spans, "counters": {}})

    def teardown(self):
        failures = []
        if self.server is not None:
            failures = self.b.stop_server(self.server, self.addr)
            self.server = None
        return failures


class ServeHitsWorkload(ServeWorkload):
    """`serve-mixed` without its misses: only reads reach the store, so no
    request writes a temp file for a concurrent store open to sweep away
    (see the open defect in perfbench/README.md)."""

    MISSES_PER_CLIENT = 0


WORKLOADS = {
    "check-fair": CheckWorkload,
    "check-crash": CheckWorkload,
    "sweep-cold": SweepWorkload,
    "serve-mixed": ServeWorkload,
    "serve-hits": ServeHitsWorkload,
    "stress-ring5": StressWorkload,
}


# ---------------------------------------------------------------------------
# The bench: processes, probes and the result


class Bench:
    def __init__(self, args):
        self.workload, self.seed, self.seconds = args.workload, args.seed, args.seconds
        self.gdp_bin, self.harness_bin = build()
        self.work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.serial = 0
        self.servers = []

    def fresh(self, name):
        path = self.work / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    def run(self, argv, tag):
        self.serial += 1
        base = self.work / f"{self.serial:04d}-{tag}"
        return Proc(argv, self.work, f"{base}.out", f"{base}.err").wait()

    def gdp(self, argv, tag):
        return self.run([str(self.gdp_bin)] + argv, tag)

    def harness(self, argv):
        proc = self.run([str(self.harness_bin)] + argv, f"harness-{argv[0]}")
        if proc.rc != 0:
            raise BenchError(f"harness {argv[0]} failed: {proc.err.decode(errors='replace')}")
        return Spans(json.loads(proc.out))

    def start_server(self, store, workers):
        err = open(self.work / "server.err", "ab")
        server = subprocess.Popen([str(self.gdp_bin), "serve", "--addr", "127.0.0.1:0",
                                   "--store", str(store), "--workers", str(workers)],
                                  cwd=self.work, stdout=subprocess.PIPE, stderr=err)
        err.close()
        self.servers.append(server)
        timer = threading.Timer(60, server.kill)
        timer.start()
        banner = server.stdout.readline().decode()
        timer.cancel()
        if " listening on " not in banner:
            raise BenchError(f"gdp serve did not start: {banner!r}")
        host, port = banner.split(" listening on ")[1].split()[0].rsplit(":", 1)
        return server, (host, int(port))

    def stop_server(self, server, addr):
        failures = []
        try:
            lines, _ = ServeClient.once(addr, b'{"type":"shutdown"}')
            if lines != [b'{"type":"bye"}\n']:
                failures.append(f"shutdown answered {lines!r}")
            server.wait(timeout=60)
        except (OSError, subprocess.TimeoutExpired) as e:
            failures.append(f"server did not shut down: {e}")
        if server.poll() is None:
            server.kill()
            server.wait()
        elif server.returncode != 0:
            failures.append(f"server exited {server.returncode}")
        server.stdout.close()
        return failures

    def close(self):
        for server in self.servers:
            if server.poll() is None:
                server.kill()
                server.wait()
        shutil.rmtree(self.work, ignore_errors=True)

    # -- probes: the layers a workload does not reach, on fixed tiny inputs

    def probe(self, layer, gates):
        if layer == "check":
            out = self.work / "probe-check.txt"
            doc = self.harness(["check", "--size", str(PROBE_CHECK["size"]), "--adversary",
                                "fair", "--threads", "2", "--out", str(out)])
            gates.check("%016x" % fnv1a64(out.read_bytes()) == PROBE_CHECK["digest"],
                        "probe check bytes differ from the pinned digest")
            return layer_metrics(doc, 2)
        if layer == "sweep":
            store = self.fresh("probe-store")
            doc = self.harness(["sweep"] + PROBE_SWEEP + [
                "--seed", "1", "--threads", "2", "--store", str(store),
                "--json", str(store / "p.json"), "--csv", str(store / "p.csv")])
            return layer_metrics(doc, 2)
        if layer == "stress":
            doc = self.harness(["stress", "--size", "5", "--threads", "2",
                                "--meals", str(PROBE_STRESS_MEALS), "--seed", "1",
                                "--json", str(self.work / "probe-stress.json"),
                                "--csv", str(self.work / "probe-stress.csv")])
            gates.check(doc.counters.get("runtime.everyone_ate") == 1, "probe stress left a seat unfed")
            return layer_metrics(doc, 2)
        if layer == "serve":
            return self.serve_probe(gates)
        raise ValueError(layer)

    def serve_probe(self, gates):
        """One miss, one hit and one fresh-connection hit on an empty store."""
        server, addr = self.start_server(self.fresh("probe-serve"), workers=1)
        try:
            line = sweep_request("probe", "ring", "4", "gdp1", 2, 2000, 7)
            client = ServeClient(addr)
            _, miss = client.request(line)
            lines, hit = client.request(line)
            check_sweep_answer(lines, "hit", gates)
            _, fresh = client.request(line, reconnect=True)
            lines, _ = client.request(b'{"type":"metrics"}')
            client.close()
            counters = json.loads(lines[0])["metrics"]["counters"]
        finally:
            gates.failures.extend(self.stop_server(server, addr))
        gates.check(counters["serve.cells_computed"] == 1, "probe server computed != 1 cell")
        return {
            "serve.accept_ms": (fresh["first"] - fresh["connect"]) * 1e3,
            "serve.lookup_ms": (hit["start"] - hit["write"]) * 1e3,
            "serve.stream_ms": (miss["end"] - miss["start"]) * 1e3,
            "serve.cells_computed": counters["serve.cells_computed"],
            "serve.queue_rejections": counters["serve.queue_rejections"],
        }


class BenchError(Exception):
    pass


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_untraced(bench, wl, result):
    setups, walls, rss, counters = [], [], [], []
    result.op(wl.prepare())
    for i in range(SETUP_REPEATS):
        if i:
            # Undo the previous set-up outside the timed region.
            result.op(wl.teardown())
        started = time.perf_counter()
        fails = wl.setup()
        setups.append(time.perf_counter() - started)
        result.op(fails)
    for i in range(max(1, round(bench.seconds / NOMINAL_S[bench.workload]))):
        rep = wl.iteration(i)
        walls.append(rep.wall)
        rss.append(rep.rss)
        counters.append(rep.counters)
        result.op(rep.failures, rep.ops, rep.failed_ops)
    result.op([] if all(c == counters[0] for c in counters)
              else ["work counters differ between iterations"])
    if isinstance(wl, ServeWorkload):
        result.op(wl.final_gates())
        result.counters = {"serve.cells_computed": wl.misses, "store.records":
                           len(list((wl.store / "cells").glob("*.cell")))}
        for name, (value, samples, p) in wl.latencies().items():
            result.extra[name] = value
            result.note(f"metric {name} {value:.4f} ms (p{p:g} of {samples} samples)")
    else:
        result.counters = counters[0]
    result.op(wl.teardown())
    result.metrics = {"setup_s": median(setups), "wall_s": median(walls),
                      "peak_rss_mb": median(rss)}
    result.note(f"setups {len(setups)}: setup_s " + " ".join(f"{s:.4f}" for s in setups))
    result.note(f"iterations {len(walls)}: wall_s " + " ".join(f"{w:.4f}" for w in walls))


def run_traced(bench, wl, result):
    result.op(wl.prepare())
    result.op(wl.setup())
    rep = wl.iteration(0)
    untraced_wall = rep.wall
    result.op(rep.failures, rep.ops, rep.failed_ops)
    gates = Gates()
    traced = wl.traced(gates)
    doc, path_doc = traced.doc, traced.path_doc or traced.doc
    metrics = {**layer_metrics(doc, traced.path_threads), **traced.extra}
    sources = {name: "path" for name in metrics}
    for layer in traced.probes:
        for name, value in bench.probe(layer, gates).items():
            if name not in metrics:
                metrics[name], sources[name] = value, f"probe:{layer}"
    result.op(gates.failures)
    result.op(wl.teardown())
    root = path_doc.spans[path_doc.root()]
    traced_wall = (root[3] - root[2]) / 1e9
    selves = path_doc.self_times()
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.overhead"] = traced_wall / untraced_wall
    metrics["trace.coverage"] = 1.0 - selves[root[0]] / traced_wall
    for name in ("trace.wall_s", "trace.untraced_wall_s", "trace.overhead", "trace.coverage"):
        sources[name] = "path"
    result.note(f"blocking path of {root[0]}: {traced_wall:.4f} s traced, "
                f"{untraced_wall:.4f} s untraced; self time by span:")
    for name, value in sorted(selves.items(), key=lambda kv: -kv[1]):
        result.note(f"  self {name:<28} {value:12.6f} s  {100 * value / traced_wall:6.2f}%")
    result.metrics = metrics
    result.sources = sources
    result.counters = {k: metrics[k] for k in WORK_COUNTERS if sources.get(k) == "path"}
    bench_out(bench, "spans").write_text(json.dumps(
        {"path": path_doc.spans, "layers": doc.spans, "counters": doc.counters,
         "self_s": selves, "sources": sources}))


def bench_out(bench, suffix):
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    return out / f"{bench.workload}-s{bench.seed}-{suffix}.json"


class Result:
    def __init__(self):
        self.attempted = self.failed = 0
        self.failures, self.errors, self.lines = [], [], []
        self.metrics, self.extra, self.counters, self.sources = {}, {}, {}, {}

    def op(self, failures, ops=1, failed_ops=None):
        failures = list(failures)
        self.attempted += ops
        self.failed += int(bool(failures)) if failed_ops is None else failed_ops
        self.failures.extend(f for f in failures if not isinstance(f, OpError))
        self.errors.extend(f for f in failures if isinstance(f, OpError))

    def note(self, line):
        self.lines.append(line)
        print(line)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = load_spec()
    bench = Bench(args)
    result = Result()
    host = provenance()
    print("provenance " + json.dumps(host, sort_keys=True))
    try:
        wl = WORKLOADS[args.workload](bench)
        (run_traced if args.trace else run_untraced)(bench, wl, result)
    except (BenchError, OSError, ValueError, KeyError) as e:
        result.op([f"{type(e).__name__}: {e}"])
    finally:
        bench.close()
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] not in result.metrics:
            result.op([f"metric {m['name']} was not measured"])
            continue
        metrics[m["name"]] = {"value": result.metrics[m["name"]], "unit": m["unit"]}
        source = result.sources.get(m["name"])
        result.note(f"metric {m['name']} {result.metrics[m['name']]:.10g} {m['unit']}"
                    + (f" ({source})" if source else ""))
    failed_share = result.failed / max(1, result.attempted)
    result.note(f"metric failed_share {failed_share:g} share "
                f"({result.failed} of {result.attempted} operations)")
    result.note("counters " + json.dumps(result.counters, sort_keys=True))
    for failure in result.failures:
        print(f"FAILED GATE: {failure}", file=sys.stderr)
    for error in result.errors:
        print(f"FAILED OPERATION: {error}", file=sys.stderr)
    correct = not result.failures
    bench_out(bench, f"t{args.trace}").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "provenance": host, "correct": correct,
        "attempted": result.attempted, "failed": result.failed, "failed_share": failed_share,
        "metrics": {**result.metrics, **result.extra}, "sources": result.sources,
        "counters": result.counters, "failures": result.failures, "errors": result.errors,
        "notes": result.lines,
    }, indent=1, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": max(1, result.attempted),
                      "failed": result.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
