#!/usr/bin/env python3
"""End-to-end benchmark of the hattc compiler and the hattd daemon.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first run builds hattc,
hattd and the helper `hattbench` from source into .bench_build/perfbench
(perfbench/CMakeLists.txt); later runs reuse that build. Each run
generates its inputs from --seed (`hattbench corpus`), drives the built
binaries for --seconds from this one process, checks every output, and
prints one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (BENCHMARK.json "end_to_end");
--trace 1 runs the traced per-layer replay instead (`hattbench replay`)
and reports the per-layer metrics. Human-readable detail goes to stderr.
See perfbench/README.md for the workloads and what each metric means.
"""

import argparse
import asyncio
import hashlib
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
BUILD = ROOT / ".bench_build" / "perfbench"
NPROC = len(os.sched_getaffinity(0))     # what `nproc` prints

# setup_s is the median of at least SETUP_MIN set-ups per run, repeated
# (up to SETUP_MAX) until SETUP_BUDGET_S is spent, so a cheap set-up is
# sampled often enough for a steady median.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 5, 9, 2.0
CLIENT_TIMEOUT_S = 60.0     # a reply later than this is a client timeout
PING_RATE_HZ = 20.0         # daemon_mixed open-loop ping probe
HIT_SHARE = 0.8             # daemon_mixed requests repeating a served pair
COMPILE_CLIENTS = 3         # daemon_mixed closed-loop compile connections
RSS_MARK = 500              # daemon_mixed reads hattd's VmHWM at this reply

# Per-workload configuration. HATT_THREADS is fixed per workload. Only
# molecule_batch, whose subject is batch parallelism, runs a 4-thread
# pool: on a shared host a pool waits on whichever core is busiest, and
# the run-to-run spread of the other workloads was several times wider
# with one.
WORKLOADS = {
    "hubbard_large": {"threads": 1, "kinds": ["hatt", "jw"]},
    "molecule_batch": {"threads": 4, "kinds": ["hatt", "jw", "btt", "bk"]},
    "daemon_mixed": {"threads": 1, "kinds": ["hatt", "jw", "btt"]},
    "device_routed": {"threads": 1, "kinds": ["hatt", "treespilation"],
                      "device": "manhattan"},
}



def cores_needed(workload):
    """daemon_mixed holds COMPILE_CLIENTS + 1 ping connection open; the
    hattc workloads run HATT_THREADS compiler threads."""
    if workload == "daemon_mixed":
        return COMPILE_CLIENTS + 1
    return WORKLOADS[workload]["threads"]


def metric_list(section):
    """(name, unit) of every metric in BENCHMARK.json's @p section
    ("end_to_end" or "per_layer"), in file order."""
    path = HERE.parent / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError("BENCHMARK.json not found next to perfbench/")
    return [(m["name"], m["unit"])
            for m in json.loads(path.read_text())[section]]


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


class BenchError(Exception):
    """The benchmark itself cannot run (no result is printed)."""


# ------------------------------------------------------------------ build

def build():
    """Configure once, then bring hattc/hattd/hattbench up to date."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError("run from the root of a hatt source checkout "
                         "(CMakeLists.txt and src/ not found)")
    if not (BUILD / "CMakeCache.txt").is_file():
        run_checked(["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"])
    run_checked(["cmake", "--build", str(BUILD), "-j", str(NPROC),
                 "--target", "hattc", "hattd", "hattbench"])
    return {"hattc": BUILD / "hatt" / "hattc",
            "hattd": BUILD / "hatt" / "hattd",
            "hattbench": BUILD / "hattbench"}


def run_checked(cmd):
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        raise BenchError("command failed (%d): %s"
                         % (proc.returncode, " ".join(cmd)))


# ---------------------------------------------------------------- helpers

def env_for(workload):
    env = dict(os.environ)
    env["HATT_THREADS"] = str(WORKLOADS[workload]["threads"])
    env.pop("HATT_TRACE", None)
    env.pop("HATT_FAULTS", None)
    return env


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def quantile(values, q):
    """Inclusive linear-interpolation quantile of a non-empty list."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def file_digest(path):
    h = hashlib.sha1()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def artifact_bytes(out_dir, stem):
    """Deterministic artifacts of one compile (metrics.json is volatile
    by contract and left out)."""
    total = 0
    for suffix in (".mapping.json", ".tree.json", ".qubit.json"):
        p = Path(out_dir) / (stem + suffix)
        if p.exists():
            total += p.stat().st_size
    return total


class Failures:
    """Failure accounting: every category feeds error_rate."""

    KINDS = ("nonzero_exit", "status_frame", "disconnect", "timeout",
             "wrong_output")

    def __init__(self):
        self.counts = {k: 0 for k in self.KINDS}
        self.notes = []

    def add(self, kind, note):
        self.counts[kind] += 1
        if len(self.notes) < 20:
            self.notes.append("%s: %s" % (kind, note))

    def total(self):
        return sum(self.counts.values())


# ----------------------------------------------------------- expectations

class Expected:
    """Reference values: the Jordan-Wigner Hubbard closed form, and
    perfbench/expected.json for every other (input, kind)."""

    def __init__(self):
        with open(HERE / "expected.json") as f:
            self.table = json.load(f)["expected"]

    @staticmethod
    def jw_hubbard(side):
        """Open side x side lattice, interleaved spin (mode = 2*site +
        spin): each hop a'_a a_b + h.c. maps to XZ..ZX + YZ..ZY, two
        strings of weight |a-b|+1; each U n_up n_dn gives Z, Z, ZZ
        (weight 4, three terms)."""
        weight = terms = 0
        for r in range(side):
            for c in range(side):
                site = r * side + c
                for nb in ((r, c + 1), (r + 1, c)):
                    if nb[0] < side and nb[1] < side:
                        d = 2 * (nb[0] * side + nb[1] - site)
                        weight += 2 * 2 * (d + 1)   # two spins, two strings
                        terms += 2 * 2
        sites = side * side
        return {"pauli_weight": weight + 4 * sites,
                "qubit_terms": terms + 3 * sites}

    def lookup(self, ref, kind, device=""):
        if kind == "jw" and ref.startswith("hubbard"):
            return self.jw_hubbard(int(ref[len("hubbard"):].split("x")[0]))
        key = "%s/%s" % (ref, kind) + ("@" + device if device else "")
        if key not in self.table:
            raise BenchError("no expected values for " + key)
        return self.table[key]

    def check(self, ref, kind, got, failures, device=""):
        """Compare every expected field present in @p got (which must at
        least carry pauli_weight)."""
        want = self.lookup(ref, kind, device)
        if "pauli_weight" not in got:
            failures.add("wrong_output", "%s/%s: no pauli_weight in output"
                         % (ref, kind))
            return False
        ok = True
        for field, value in want.items():
            if field in got and got[field] != value:
                failures.add("wrong_output", "%s/%s %s=%s, expected %s"
                             % (ref, kind, field, got[field], value))
                ok = False
        return ok


def check_mappings(tools, paths, failures):
    """Independent anticommutation check (hattbench check)."""
    paths = [str(p) for p in paths]
    if not paths:
        return
    proc = subprocess.run([str(tools["hattbench"]), "check"] + paths,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise BenchError("hattbench check failed: " + proc.stderr.strip())
    for rec in json.loads(proc.stdout):
        if not rec["ok"]:
            failures.add("wrong_output", "mapping check %s: %s"
                         % (rec["path"], rec.get("error",
                                                 "%d commuting pairs"
                                                 % rec.get("bad_pairs", 0))))


# ------------------------------------------------------------------ setup

def make_corpus(tools, workload, seed, dir_):
    if dir_.exists():
        shutil.rmtree(dir_)
    proc = subprocess.run([str(tools["hattbench"]), "corpus", workload,
                           str(seed), str(dir_)],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise BenchError("corpus generation failed: " + proc.stderr.strip())
    return json.loads(proc.stdout)


def log_corpus(corpus):
    hot = [i for i in corpus["inputs"] if i["role"] == "hot"]
    fresh = len(corpus["inputs"]) - len(hot)
    log("corpus %s seed %d: %d inputs%s" % (
        corpus["workload"], corpus["seed"], len(hot),
        " + %d fresh" % fresh if fresh else ""))
    for i in hot:
        log("  %-14s %-8s %4d modes  content_hash %s"
            % (i["file"], i["format"], i["modes"], i["content_hash"]))


class Daemon:
    """One hattd process on loopback (memory tier only)."""

    def __init__(self, tools, workload, out_root):
        out_root.mkdir(parents=True, exist_ok=True)
        self.proc = subprocess.Popen(
            [str(tools["hattd"]), "--port", "0", "--out-root",
             str(out_root)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            env=env_for(workload))
        line = self.proc.stdout.readline()
        if "listening on" not in line:
            self.kill()
            raise BenchError("hattd did not start: %r" % line)
        self.port = int(line.rsplit(":", 1)[1])

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("VmHWM not found")

    def stop(self):
        """Graceful shutdown verb; kill if it does not exit in time."""
        if self.proc.poll() is None:
            try:
                asyncio.run(control(self.port, {"op": "shutdown"}))
                self.proc.wait(timeout=30)
            except Exception:
                self.kill()
        self.proc.stdout.close()

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


async def control(port, frame):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write((json.dumps(frame) + "\n").encode())
    await writer.drain()
    reply = json.loads(await reader.readline())
    writer.close()
    await writer.wait_closed()
    return reply


def setup(tools, workload, seed, run_dir):
    """Corpus generation (+ daemon start + warm-up for daemon_mixed),
    repeated; the last set-up is the one measured. Returns (state,
    median set-up seconds)."""
    times = []
    state = None
    while len(times) < SETUP_MIN or (sum(times) < SETUP_BUDGET_S and
                                     len(times) < SETUP_MAX):
        i = len(times)
        if state:
            if state.get("daemon"):
                state["daemon"].stop()
            shutil.rmtree(state["dir"])
        t0 = time.perf_counter()
        corpus_dir = run_dir / ("corpus%d" % i)
        corpus = make_corpus(tools, workload, seed, corpus_dir)
        state = {"corpus": corpus, "dir": corpus_dir}
        if workload == "daemon_mixed":
            state["daemon"] = Daemon(tools, workload, run_dir / "dout")
            state["warmup_failures"] = Failures()
            try:
                asyncio.run(daemon_warmup(state, Expected(),
                                          state["warmup_failures"]))
            except BaseException:
                state["daemon"].kill()
                raise
        else:
            # Warm the binary's pages so the first timed compile does
            # not pay for them.
            subprocess.run([str(tools["hattc"]), "--version"],
                           stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    log_corpus(state["corpus"])
    log("setup: %s s" % " ".join("%.3f" % t for t in times))
    return state, statistics.median(times)


def hot_inputs(state):
    return [i for i in state["corpus"]["inputs"] if i["role"] == "hot"]


# ------------------------------------------------------ hattc closed loop

class Alarm(Exception):
    pass


def _on_alarm(signum, frame):
    raise Alarm()


def run_hattc(tools, workload, args, run_dir):
    """One hattc process, reaped with wait4 for its own peak RSS.
    Returns (seconds | None on client timeout, rc, stdout, rss MB)."""
    out_path = run_dir / "hattc.stdout"
    with open(out_path, "wb") as out, open(os.devnull, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([str(tools["hattc"])] + args, stdout=out,
                                stderr=err, env=env_for(workload))
        signal.setitimer(signal.ITIMER_REAL, CLIENT_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except Alarm:
            proc.kill()
            os.wait4(proc.pid, 0)
            return None, None, "", 0.0
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    return (seconds, proc.returncode, out_path.read_text(),
            usage.ru_maxrss / 1024.0)


def parse_compile_stdout(text):
    """The fields `hattc compile` prints that the checker compares."""
    got = {}
    for line in text.splitlines():
        words = line.replace(",", "").split()
        if line.startswith("qubit H:"):
            got["qubit_terms"] = int(words[2])
            got["pauli_weight"] = int(words[words.index("weight") + 1])
        elif line.startswith("device:"):
            got["routed_cnots"] = int(words[3])
            got["routed_depth"] = int(words[words.index("depth") + 1])
            got["routed_swaps"] = int(words[words.index("SWAPs") - 1])
    return got


def compile_loop(tools, workload, seed, seconds, state, run_dir):
    """hubbard_large / device_routed: one client, closed loop over the
    workload's (input, kind) pairs in whole cycles, each cycle in a
    seeded order; the window closes at the first cycle end past
    --seconds so every pair is sampled equally often."""
    device = WORKLOADS[workload].get("device", "")
    pairs = [(i, k) for i in hot_inputs(state)
             for k in WORKLOADS[workload]["kinds"]]
    expected = Expected()
    failures = Failures()
    rng = random.Random(seed)
    latencies, rss = [], []
    digests, per_pair, weights = {}, {}, {}
    out_root = run_dir / "out"
    attempted = 0
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        order = pairs[:]
        rng.shuffle(order)
        for inp, kind in order:
            out_dir = out_root / ("%s.%s" % (inp["name"], kind))
            args = ["compile", str(state["dir"] / inp["file"]), "--mapping",
                    kind, "-o", str(out_dir)]
            if device:
                args += ["--device", device]
            attempted += 1
            sec, rc, out, peak = run_hattc(tools, workload, args, run_dir)
            if sec is None:
                failures.add("timeout", "%s/%s" % (inp["name"], kind))
                continue
            if rc != 0:
                failures.add("nonzero_exit", "%s/%s exit %d"
                             % (inp["name"], kind, rc))
                continue
            latencies.append(sec)
            per_pair.setdefault((inp["name"], kind), []).append(sec)
            rss.append(peak)
            # Checks run outside the timed region.
            got = parse_compile_stdout(out)
            if "pauli_weight" in got:
                weights[(inp["name"], kind)] = got["pauli_weight"]
            if not expected.check(inp["ref"], kind, got, failures, device):
                continue
            mapping = out_dir / (inp["name"] + ".mapping.json")
            digest = file_digest(mapping)
            if digests.setdefault((inp["name"], kind), digest) != digest:
                failures.add("wrong_output", "%s/%s mapping.json differs "
                             "between runs" % (inp["name"], kind))
    elapsed = time.perf_counter() - t0
    for (name, kind), secs in sorted(per_pair.items()):
        log("  %-12s %-14s %3d runs  median %8.1f ms  p90 %8.1f  max %8.1f"
            % (name, kind, len(secs), 1e3 * statistics.median(secs),
               1e3 * quantile(secs, 0.9), 1e3 * max(secs)))
    check_mappings(tools, [out_root / ("%s.%s" % (i["name"], k)) /
                           (i["name"] + ".mapping.json")
                           for i, k in pairs], failures)
    art = sum(artifact_bytes(out_root / ("%s.%s" % (i["name"], k)),
                             i["name"]) for i, k in pairs)
    # Latency per (input, kind) row, combined over rows with the
    # geometric mean: every pair weighs the same, and a pooled median
    # would fall on the boundary between two pairs' latencies.
    per_pair = per_pair.values()
    return {"attempted": attempted, "failures": failures,
            "latencies": latencies, "elapsed": elapsed,
            "busy": sum(latencies),
            "p50": geomean([statistics.median(v) for v in per_pair])
            if per_pair else 0.0,
            "p90": geomean([quantile(v, 0.9) for v in per_pair])
            if per_pair else 0.0,
            "completed": len(latencies), "peak_rss_mb": max(rss or [0.0]),
            "artifact_bytes": art, "pauli_weight": sum(weights.values())}


def write_manifest(state, inputs, kinds, path):
    """A `hattc batch` manifest: one input per line, all @p kinds."""
    path.write_text("".join("%s %s\n" % (state["dir"] / i["file"],
                                          ",".join(kinds))
                            for i in inputs))
    return path


def batch_loop(tools, workload, seed, seconds, state, run_dir):
    """molecule_batch: one client, closed loop of `hattc batch` over the
    whole corpus x 4 kinds, each with a fresh --cache directory so every
    item misses and writes through to disk."""
    kinds = WORKLOADS[workload]["kinds"]
    inputs = hot_inputs(state)
    order = inputs[:]
    random.Random(seed).shuffle(order)
    manifest = write_manifest(state, order, kinds, run_dir / "corpus.txt")
    expected = Expected()
    failures = Failures()
    latencies, rss = [], []
    weights = {}
    attempted = completed = 0
    iteration = 0
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        out_dir = run_dir / ("batch%d" % iteration)
        cache_dir = run_dir / ("cache%d" % iteration)
        attempted += len(inputs) * len(kinds)
        sec, rc, _, peak = run_hattc(
            tools, workload, ["batch", str(manifest), "--cache",
                              str(cache_dir), "-o", str(out_dir)], run_dir)
        if sec is None:
            failures.add("timeout", "batch %d" % iteration)
        elif rc != 0:
            failures.add("nonzero_exit", "batch %d exit %d" % (iteration, rc))
        else:
            latencies.append(sec)
            rss.append(peak)
            report = json.loads((out_dir / "batch_report.json").read_text())
            by_name = {i["file"]: i for i in inputs}
            seen = 0
            for row in report["inputs"]:
                inp = by_name.get(row["name"])
                if row["status"] != "ok" or inp is None:
                    failures.add("wrong_output", "%s: %s"
                                 % (row["key"], row.get("error",
                                                        row["status"])))
                    continue
                seen += 1
                if "pauli_weight" in row:
                    weights[(row["name"], row["mapping"])] = \
                        row["pauli_weight"]
                if expected.check(inp["ref"], row["mapping"], row, failures):
                    completed += 1
            if seen != len(inputs) * len(kinds):
                failures.add("wrong_output", "batch %d reported %d of %d "
                             "items" % (iteration, seen,
                                        len(inputs) * len(kinds)))
        # Keep the last batch's artifacts for the checks below.
        if iteration > 0:
            shutil.rmtree(run_dir / ("batch%d" % (iteration - 1)),
                          ignore_errors=True)
        shutil.rmtree(cache_dir, ignore_errors=True)
        iteration += 1
    elapsed = time.perf_counter() - t0
    last = run_dir / ("batch%d" % (iteration - 1))
    item_dirs = [(last / ("%s:%s" % (i["file"], k)), i, k)
                 for i in inputs for k in kinds]
    check_mappings(tools, [d / (i["name"] + ".mapping.json")
                           for d, i, _ in item_dirs if d.exists()], failures)
    art = sum(artifact_bytes(d, i["name"]) for d, i, _ in item_dirs)
    return {"attempted": attempted, "failures": failures,
            "latencies": latencies, "elapsed": elapsed,
            "busy": sum(latencies),
            "completed": completed, "peak_rss_mb": max(rss or [0.0]),
            "artifact_bytes": art, "pauli_weight": sum(weights.values())}


# ------------------------------------------------------------ hattd loop

def compile_frame(path, kind, out_dir):
    return {"format": "hatt-compile-request", "version": 1,
            "input": str(path), "input_format": "auto", "mapping": kind,
            "out_dir": out_dir, "emit_qubit": True, "max_terms": 0,
            "max_modes": 0, "timeout_seconds": 0.0, "fallback": False,
            "jobs": 0}


def hot_pairs(state):
    return [(i, k) for i in hot_inputs(state)
            for k in WORKLOADS["daemon_mixed"]["kinds"]]


def hot_out_dir(inp, kind):
    return "hot/%s.%s" % (inp["name"], kind)


def daemon_schedule(state, seed):
    """Seeded, stratified request schedule. Every block of 5 requests
    holds 4 repeats of a hot pair (served at warm-up, so memory-tier
    hits) and 1 never-seen fresh input at a seeded position, so misses
    keep arriving. Hot pairs are dealt from a deck reshuffled each time
    it runs out; fresh inputs cycle their 5 lattice sizes and then the
    3 kinds. The seed sets the order, never the mix, so the work per
    request is the same for every seed."""
    rng = random.Random(seed)
    hot = hot_pairs(state)
    fresh = [i for i in state["corpus"]["inputs"] if i["role"] == "fresh"]
    kinds = WORKLOADS["daemon_mixed"]["kinds"]
    deck, schedule, next_fresh = [], [], 0
    block = round(1 / (1 - HIT_SHARE))
    while next_fresh < len(fresh):
        fresh_at = rng.randrange(block)
        for pos in range(block):
            if pos == fresh_at:
                schedule.append((fresh[next_fresh],
                                 kinds[(next_fresh // 5) % len(kinds)],
                                 False))
                next_fresh += 1
                continue
            if not deck:
                deck = hot[:]
                rng.shuffle(deck)
            schedule.append(deck.pop() + (True,))
    return schedule


async def request(reader, writer, frame):
    """One framed request; returns (reply dict | None, failure kind)."""
    try:
        writer.write((json.dumps(frame) + "\n").encode())
        await writer.drain()
        line = await asyncio.wait_for(reader.readline(), CLIENT_TIMEOUT_S)
    except asyncio.TimeoutError:
        return None, "timeout"
    except (ConnectionError, OSError):
        return None, "disconnect"
    if not line:
        return None, "disconnect"
    return json.loads(line), None


def check_reply(reply, inp, kind, expect_hit, expected, failures,
                weights=None):
    """True when the reply is a correct compile response. The weight a
    compile response carries is recorded in @p weights, if given."""
    label = "%s/%s" % (inp["name"], kind)
    if reply.get("format") != "hatt-compile-response":
        failures.add("status_frame", "%s: %s %s" % (
            label, reply.get("code"), reply.get("message", "")[:120]))
        return False
    if weights is not None and "pauli_weight" in reply:
        weights[(inp["name"], kind)] = reply["pauli_weight"]
    if "content_hash" in inp and reply["content_hash"] != inp["content_hash"]:
        failures.add("wrong_output", label + ": content hash differs")
        return False
    if expect_hit is not None and reply["cache_hit"] != expect_hit:
        failures.add("wrong_output", "%s: cache_hit %s, expected %s"
                     % (label, reply["cache_hit"], expect_hit))
        return False
    return expected.check(inp["ref"], kind, reply, failures)


async def daemon_warmup(state, expected, failures):
    """Serve every hot pair once (all misses), filling the memory tier.
    The weights served are kept in state["weights"]."""
    state["weights"] = {}
    reader, writer = await asyncio.open_connection(
        "127.0.0.1", state["daemon"].port)
    for inp, kind in hot_pairs(state):
        reply, fail = await request(
            reader, writer, compile_frame(state["dir"] / inp["file"], kind,
                                          hot_out_dir(inp, kind)))
        if fail:
            failures.add(fail, "warm-up %s/%s" % (inp["name"], kind))
        else:
            check_reply(reply, inp, kind, False, expected, failures,
                        state["weights"])
    writer.close()
    await writer.wait_closed()


async def ping_probe(port, stop_at, rate):
    """Open loop: ping i is due at t0 + i/rate and is sent then even if
    earlier pings are unanswered; latency is measured from the due time,
    so a stalled daemon charges its stall to every ping behind it."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    due = asyncio.Queue()
    latencies, lateness = [], []
    failures = Failures()

    async def receive():
        while True:
            t_due = await due.get()
            if t_due is None:
                return
            try:
                line = await asyncio.wait_for(reader.readline(),
                                              CLIENT_TIMEOUT_S)
            except asyncio.TimeoutError:
                failures.add("timeout", "ping")
                return
            if not line:
                failures.add("disconnect", "ping")
                return
            reply = json.loads(line)
            if reply.get("ok") is not True or reply.get("message") != "pong":
                failures.add("status_frame", "ping: %r" % reply)
            latencies.append(time.perf_counter() - t_due)

    receiver = asyncio.ensure_future(receive())
    t0 = time.perf_counter()
    i = 0
    while True:
        t_due = t0 + i / rate
        if t_due >= stop_at:
            break
        delay = t_due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        lateness.append(time.perf_counter() - t_due)
        writer.write(b'{"op":"ping"}\n')
        await writer.drain()
        await due.put(t_due)
        i += 1
    await due.put(None)
    await receiver
    writer.close()
    await writer.wait_closed()
    return {"latencies": latencies, "sent": i, "failures": failures,
            "max_late": max(lateness or [0.0])}


async def compile_clients(state, seed, seconds, clients, expected,
                          failures):
    """Closed loop: each client sends its next scheduled request only
    after the previous reply; all clients draw from one schedule."""
    schedule = daemon_schedule(state, seed)
    port = state["daemon"].port
    cursor = [0]
    stats = {"latencies": [], "attempted": 0, "hits": 0, "replies": 0,
             "fresh_hashes": []}
    stop_at = time.perf_counter() + seconds

    async def client(idx):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        # The schedule never repeats a fresh input: when it runs out the
        # window closes early (logged), rather than turning misses into
        # hits.
        while time.perf_counter() < stop_at and cursor[0] < len(schedule):
            inp, kind, hot = schedule[cursor[0]]
            cursor[0] += 1
            out_dir = hot_out_dir(inp, kind) if hot else "fresh/c%d" % idx
            stats["attempted"] += 1
            t0 = time.perf_counter()
            reply, fail = await request(
                reader, writer,
                compile_frame(state["dir"] / inp["file"], kind, out_dir))
            if fail:
                failures.add(fail, "%s/%s" % (inp["name"], kind))
                if fail == "disconnect":
                    return
                continue
            latency = time.perf_counter() - t0
            if check_reply(reply, inp, kind, hot, expected, failures,
                           state["weights"] if hot else None):
                stats["latencies"].append(latency)
                stats["replies"] += 1
                if stats["replies"] == RSS_MARK:
                    stats["rss_mb"] = state["daemon"].peak_rss_mb()
                stats["hits"] += reply["cache_hit"]
                if not hot:
                    stats["fresh_hashes"].append(reply["content_hash"])
        writer.close()
        await writer.wait_closed()

    t0 = time.perf_counter()
    await asyncio.gather(*(client(i) for i in range(clients)))
    stats["elapsed"] = time.perf_counter() - t0
    stats["scheduled"] = cursor[0]
    return stats


async def daemon_load(state, seed, seconds, expected, failures):
    """COMPILE_CLIENTS compile connections + 1 ping connection."""
    stop_at = time.perf_counter() + seconds
    comp, ping = await asyncio.gather(
        compile_clients(state, seed, seconds, COMPILE_CLIENTS, expected,
                        failures),
        ping_probe(state["daemon"].port, stop_at, PING_RATE_HZ))
    for kind, n in ping["failures"].counts.items():
        failures.counts[kind] += n
    return comp, ping


def daemon_loop(tools, workload, seed, seconds, state, run_dir):
    expected = Expected()
    failures = state["warmup_failures"]
    comp, ping = asyncio.run(daemon_load(state, seed, seconds, expected,
                                         failures))
    if len(set(comp["fresh_hashes"])) != len(comp["fresh_hashes"]):
        failures.add("wrong_output", "fresh inputs share a content hash")
    # The memory tier keeps every fresh entry, so the high-water mark
    # grows with the requests served; read at a fixed reply count, it
    # measures memory per unit of work rather than throughput.
    peak = comp.get("rss_mb")
    if peak is None:
        log("daemon_mixed: fewer than %d replies; peak RSS read at the "
            "end of the run" % RSS_MARK)
        peak = state["daemon"].peak_rss_mb()
    pairs = hot_pairs(state)
    out_root = run_dir / "dout"
    check_mappings(tools, [out_root / hot_out_dir(i, k) /
                           (i["name"] + ".mapping.json")
                           for i, k in pairs], failures)
    if comp["scheduled"] >= len(daemon_schedule(state, seed)):
        log("daemon_mixed: request schedule exhausted before --seconds")
    log("daemon_mixed: %d requests (%d scheduled), hit share %.3f, "
        "%d pings sent, ping generator at most %.1f ms late"
        % (comp["attempted"], comp["scheduled"],
           comp["hits"] / max(1, comp["replies"]), ping["sent"],
           1e3 * ping["max_late"]))
    return {"attempted": comp["attempted"] + ping["sent"],
            "failures": failures, "latencies": comp["latencies"],
            "elapsed": comp["elapsed"], "busy": comp["elapsed"],
            "completed": comp["replies"],
            "peak_rss_mb": peak, "ping": ping["latencies"],
            "artifact_bytes": sum(artifact_bytes(out_root / hot_out_dir(i, k),
                                                 i["name"])
                                  for i, k in pairs),
            "pauli_weight": sum(state["weights"].values())}


LOOPS = {"hubbard_large": compile_loop, "device_routed": compile_loop,
         "molecule_batch": batch_loop, "daemon_mixed": daemon_loop}


# ----------------------------------------------------------- traced run

def replay_calls(workload, seed, state):
    """The calls the in-process replay makes: the workload's distinct
    (input, kind) set in its run order, plus the daemon's first
    scheduled requests."""
    kinds = WORKLOADS[workload]["kinds"]
    if workload == "daemon_mixed":
        pairs = hot_pairs(state) + [(i, k) for i, k, _ in
                                    daemon_schedule(state, seed)[:60]]
    else:
        pairs = [(i, k) for i in hot_inputs(state) for k in kinds]
        random.Random(seed).shuffle(pairs)
    return pairs


def server_layer(state, seed, seconds, failures):
    """io.server: ping on the idle daemon, then under the workload's
    compile load (head-of-line wait = loaded p50 - idle p50), and the
    daemon's own frame counter from the stats verb."""

    async def idle_pings(n):
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", state["daemon"].port)
        out = []
        for _ in range(n):
            t0 = time.perf_counter()
            reply, fail = await request(reader, writer, {"op": "ping"})
            if fail or reply.get("message") != "pong":
                failures.add(fail or "status_frame", "idle ping")
                continue
            out.append(time.perf_counter() - t0)
        writer.close()
        await writer.wait_closed()
        return out

    idle = asyncio.run(idle_pings(40))
    comp, ping = asyncio.run(daemon_load(state, seed, seconds, Expected(),
                                         failures))
    stats = asyncio.run(control(state["daemon"].port, {"op": "stats"}))
    frames = stats["metrics"]["deterministic"].get("server.frames", 0)
    idle_ms = 1e3 * statistics.median(idle) if idle else 0.0
    p50 = 1e3 * statistics.median(ping["latencies"]) if ping["latencies"] \
        else 0.0
    p90 = 1e3 * quantile(ping["latencies"], 0.9) if ping["latencies"] \
        else 0.0
    attempted = 40 + comp["attempted"] + ping["sent"]
    return attempted, {
        "io.server.ping_idle_ms": idle_ms,
        "io.server.ping_p50_ms": p50,
        "io.server.ping_p90_ms": p90,
        "io.server.hol_wait_ms": p50 - idle_ms,
        "io.server.frames": frames}


def batch_layer(tools, workload, state, run_dir, failures):
    """io.batch: parses per input, from one `hattc batch`'s counters."""
    kinds = WORKLOADS[workload]["kinds"]
    inputs = hot_inputs(state)
    manifest = write_manifest(state, inputs, kinds,
                              run_dir / "trace_corpus.txt")
    out_dir = run_dir / "trace_batch"
    sec, rc, _, _ = run_hattc(tools, workload,
                              ["batch", str(manifest), "--cache",
                               str(run_dir / "trace_cache"), "-o",
                               str(out_dir)], run_dir)
    if sec is None or rc != 0:
        failures.add("timeout" if sec is None else "nonzero_exit",
                     "trace batch")
        return 1, {"io.batch.parses_per_input": 0.0}
    stats = json.loads((out_dir / "batch_stats.json").read_text())
    parses = stats["metrics"]["deterministic"].get("parse.files", 0)
    return 1, {"io.batch.parses_per_input": parses / len(inputs)}


def traced_run(tools, workload, seed, seconds, state, run_dir):
    device = WORKLOADS[workload].get("device", "")
    pairs = replay_calls(workload, seed, state)
    plan = {"store": {"molecule_batch": "disk",
                      "daemon_mixed": "memory"}.get(workload, "none"),
            "cache_dir": str(run_dir / "replay_cache"),
            "out_dir": str(run_dir / "replay_out"),
            "device": device,
            "calls": [{"input": str(state["dir"] / i["file"]),
                       "format": i["format"], "kind": k} for i, k in pairs]}
    plan_path = run_dir / "plan.json"
    plan_path.write_text(json.dumps(plan))
    trace_dir = ROOT / ".bench_build" / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    trace_path = trace_dir / ("%s-seed%d.json" % (workload, seed))
    proc = subprocess.run([str(tools["hattbench"]), "replay", str(plan_path),
                           str(trace_path)], capture_output=True, text=True,
                          env=env_for(workload))
    if proc.returncode != 0:
        raise BenchError("hattbench replay failed: " + proc.stderr.strip())
    doc = json.loads(proc.stdout)
    metrics = doc["metrics"]

    expected = Expected()
    failures = Failures()
    for (inp, kind), rec in zip(pairs, doc["calls"]):
        if not rec["ok"]:
            failures.add("wrong_output", rec["error"])
            continue
        expected.check(inp["ref"], kind, rec, failures, device)
    check_mappings(tools, sorted({rec["mapping_path"] for rec in doc["calls"]
                                  if rec["ok"]}), failures)
    attempted = len(pairs)

    batch = {"io.batch.parses_per_input": 0.0}
    server = {"io.server.ping_idle_ms": 0.0, "io.server.ping_p50_ms": 0.0,
              "io.server.ping_p90_ms": 0.0, "io.server.hol_wait_ms": 0.0,
              "io.server.frames": 0}
    layer_failures = Failures()
    if workload == "molecule_batch":
        n, batch = batch_layer(tools, workload, state, run_dir,
                               layer_failures)
        attempted += n
    if workload == "daemon_mixed":
        n, server = server_layer(state, seed, min(seconds, 10.0),
                                 layer_failures)
        attempted += n
    metrics.update(batch)
    metrics["io.batch.failed"] = layer_failures.total() \
        if workload == "molecule_batch" else 0
    metrics.update(server)
    metrics["io.server.failed"] = layer_failures.total() \
        if workload == "daemon_mixed" else 0
    for kind, n in layer_failures.counts.items():
        failures.counts[kind] += n
    failures.notes += layer_failures.notes

    wall = metrics["trace.wall_s"]
    log("traced replay of %d calls (%s), trace written to %s"
        % (len(pairs), workload, trace_path))
    log("  %-20s %10s %7s" % ("layer", "self s", "share"))
    for layer, sec in doc["self_seconds"].items():
        log("  %-20s %10.4f %6.1f%%" % (layer, sec, 100 * sec / wall))
    log("  traced wall %.4f s, untraced wall %.4f s, tracing overhead "
        "%.4f s; layers cover %.1f%%"
        % (wall, metrics["trace.untraced_wall_s"],
           metrics["trace.overhead_s"], 100 * metrics["trace.coverage"]))
    return attempted, failures, metrics


# ------------------------------------------------------------------- main

def end_to_end(res, setup_s):
    lat = res["latencies"]
    p50 = res.get("p50", statistics.median(lat) if lat else 0.0)
    p90 = res.get("p90", quantile(lat, 0.9) if lat else 0.0)
    return {
        "setup_s": setup_s,
        "throughput_per_s": res["completed"] / res["busy"]
        if res["busy"] else 0.0,
        "latency_p50_ms": 1e3 * p50,
        "latency_p90_ms": 1e3 * p90,
        "peak_rss_mb": res["peak_rss_mb"],
        "artifact_bytes": res["artifact_bytes"],
        "pauli_weight": res["pauli_weight"],
    }


def result_metrics(section, values):
    """Every metric BENCHMARK.json lists in @p section, with its unit;
    a listed metric the run did not produce is an error."""
    metrics = {}
    for name, unit in metric_list(section):
        if name not in values:
            raise BenchError("the run did not report metric " + name)
        metrics[name] = {"value": values[name], "unit": unit}
    return metrics


def report_failures(attempted, failures):
    log("attempted %d, failed %d, error_rate %.4f (%s)"
        % (attempted, failures.total(),
           failures.total() / max(1, attempted),
           ", ".join("%s %d" % kv for kv in failures.counts.items())))
    for note in failures.notes:
        log("  " + note)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    signal.signal(signal.SIGALRM, _on_alarm)
    if NPROC < cores_needed(args.workload):
        raise BenchError("%s needs %d cores, this host has %d"
                         % (args.workload, cores_needed(args.workload),
                            NPROC))

    tools = build()
    run_dir = ROOT / ".bench_build" / "runs" / (
        "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir(parents=True)
    state = None
    try:
        state, setup_s = setup(tools, args.workload, args.seed, run_dir)
        log("workload %s, seed %d, HATT_THREADS=%d, %g s"
            % (args.workload, args.seed,
               WORKLOADS[args.workload]["threads"], args.seconds))
        if args.trace:
            attempted, failures, values = traced_run(
                tools, args.workload, args.seed, args.seconds, state,
                run_dir)
            metrics = result_metrics("per_layer", values)
        else:
            res = LOOPS[args.workload](tools, args.workload, args.seed,
                                       args.seconds, state, run_dir)
            attempted, failures = res["attempted"], res["failures"]
            lat = res["latencies"]
            log("%d compiles in %.2f s; %d latency samples, %d beyond p90"
                % (res["completed"], res["elapsed"], len(lat),
                   sum(1 for x in lat if x > quantile(lat, 0.9))
                   if lat else 0))
            if "ping" in res and res["ping"]:
                log("ping under load: p50 %.2f ms, p90 %.2f ms (%d samples)"
                    % (1e3 * statistics.median(res["ping"]),
                       1e3 * quantile(res["ping"], 0.9), len(res["ping"])))
            metrics = result_metrics("end_to_end", end_to_end(res, setup_s))
        report_failures(attempted, failures)
    finally:
        if state and state.get("daemon"):
            state["daemon"].stop()
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps({"correct": failures.total() == 0,
                      "attempted": attempted,
                      "failed": failures.total(),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        log("perfbench: " + str(e))
        sys.exit(2)
