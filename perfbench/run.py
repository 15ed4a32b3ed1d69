#!/usr/bin/env python3
"""End-to-end benchmark of dlw.

Builds dlwtool and the per-layer probe from the checkout's sources,
generates seeded inputs, runs one workload for a fixed time and
prints one JSON object as the last stdout line:

    python3 perfbench/run.py --workload fleet-mixed --seed 1 \
        --seconds 20 --trace 0

--trace 0 runs dlwtool untraced and reports the end-to-end metrics;
--trace 1 runs the per-layer ledger instead (see README.md).
`--workload all` runs every workload, prints one table row per
workload and exits 1 if any correctness check failed.  `--short`
shrinks every input for a quick smoke run.

Run from the root of a dlw checkout.  Everything the benchmark
writes lands under the build directory ($CARGO_TARGET_DIR, default
.bench_build).
"""

import argparse
import collections
import gc
import json
import os
import selectors
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("fleet-mixed", "analyze-csv", "dlwd-stream")

# End-to-end metrics and their units, in table order.
E2E_UNITS = collections.OrderedDict([
    ("setup_s", "s"),
    ("requests_per_s", "req/s"),
    ("requests_per_cpu_s", "req/CPU-s"),
    ("peak_rss_mb", "MiB"),
    ("ok_frac", "fraction"),
])

# Per-layer metrics (--trace 1) and their units.
LAYER_UNITS = collections.OrderedDict(
    [("synth.generate_ns_per_req", "ns/req"),
     ("trace.csv_decode_ns_per_req", "ns/req"),
     ("trace.bin_decode_ns_per_req", "ns/req"),
     ("trace.decode_passes", "count")]
    + [("disk.service_ns_per_req." + k, "ns/req")
       for k in ("oltp", "fileserver", "streaming", "backup", "analyze")]
    + [("disk.mean_in_system." + k, "requests")
       for k in ("oltp", "fileserver", "streaming", "backup", "analyze")]
    + [("disk.cache_hit_frac.fleet", "fraction"),
       ("disk.cache_hit_frac.analyze", "fraction"),
       ("disk.busy_intervals_per_req", "count/req"),
       ("disk.destages_per_req", "count/req"),
       ("core.characterize_ns_per_req", "ns/req"),
       ("core.shard_fold_ns_per_req", "ns/req"),
       ("core.live_observe_ns_per_req", "ns/req"),
       ("core.live_finish_us", "us"),
       ("fleet.shard_s_p50", "s"),
       ("fleet.shard_s_max", "s"),
       ("fleet.parallel_efficiency", "fraction"),
       ("fleet.merge_us", "us"),
       ("fleet.render_us", "us"),
       ("fleet.saturated_frac", "fraction"),
       ("net.stream_decode_ns_per_req.csv", "ns/req"),
       ("net.stream_decode_ns_per_req.bin", "ns/req"),
       ("net.wire_bytes_per_req.csv", "B/req"),
       ("net.wire_bytes_per_req.bin", "B/req"),
       ("daemon.ack_ms_p50", "ms")]
    + [("daemon.stage.%s_us_%s" % (st, q), "us")
       for st in ("read", "decode", "admit", "fold", "merge")
       for q in ("p50", "p99")]
    + [("session_ms_%s.%s" % (q, r), "ms")
       for r in ("lo", "hi") for q in ("p50", "p99")]
    + [("daemon.server_session_ms_p50", "ms"),
       ("daemon.pool_queue_depth_max", "tasks")]
    + [("obs.trace_overhead_frac." + w, "fraction") for w in WORKLOADS]
    + [("obs.attributed_frac." + w, "fraction") for w in WORKLOADS]
    + [("bench.generator_lag_ms_p99", "ms")])

# Workload sizes.  SHORT is the smoke-test shape of the same runs.
FULL = {
    "fleet": {"drives": 64, "threads": 4, "rate": 120, "minutes": 10},
    "analyze": {"class": "oltp", "rate": 100, "minutes": 120},
    # Session pool: distinct seeded one-minute traces, each streamed
    # as csv and as bin.  The open-loop rates of the traced run are
    # frozen at about a third and two thirds of the closed-loop
    # session rate the untraced run measures (README.md).
    "stream": {"pool": 6, "rate": 60, "minutes": 1, "tenants": 4,
               "daemon_threads": 2, "lo": 140.0, "hi": 280.0,
               "phase_sessions": 1000},
}
SHORT = {
    "fleet": {"drives": 4, "threads": 2, "rate": 30, "minutes": 0.5},
    "analyze": {"class": "oltp", "rate": 50, "minutes": 2},
    "stream": {"pool": 2, "rate": 30, "minutes": 0.5, "tenants": 2,
               "daemon_threads": 2, "lo": 50.0, "hi": 100.0,
               "phase_sessions": 40},
}
SETUP_REPEATS = 3
MAX_IN_FLIGHT = 4          # connections/processes of our own, = nproc
SESSION_TIMEOUT_S = 10.0
CMD_TIMEOUT_S = 120.0


class BenchError(Exception):
    """The benchmark could not run (build or set-up failure)."""


def log(*args):
    print("perfbench:", *args, file=sys.stderr, flush=True)


def median(xs):
    return statistics.median(xs) if xs else 0.0


def quantile(xs, q):
    """Nearest-rank quantile of xs (q in [0, 1])."""
    if not xs:
        return 0.0
    s = sorted(xs)
    k = min(len(s) - 1, max(0, int(round(q * len(s) + 0.5)) - 1))
    return s[k]


# ---- build ----------------------------------------------------------

def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                          ".bench_build"))


# Paths of the built binaries, filled in by build().
TOOLS = {}


def build():
    """Configure and build dlwtool, dlw_probe and dlw_spawn."""
    out = os.path.join(build_dir(), "cmake")
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", out] + gen,
        ["cmake", "--build", out, "-j", str(MAX_IN_FLIGHT),
         "--target", "dlwtool", "dlw_probe", "dlw_spawn"],
    ]
    for argv in steps:
        r = subprocess.run(argv, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            raise BenchError("build step failed: " + " ".join(argv))
    TOOLS["spawn"] = os.path.join(out, "dlw_spawn")
    return (os.path.join(out, "dlw_tools", "dlwtool"),
            os.path.join(out, "dlw_probe"))


# ---- running one program invocation ---------------------------------

class Run:
    """One finished child process: wall, CPU, peak RSS, stdout."""

    def __init__(self, rc, wall, cpu, rss_mb, out):
        self.rc, self.wall, self.cpu = rc, wall, cpu
        self.rss_mb, self.out = rss_mb, out


def run_cmd(argv, out_path):
    """Run argv through dlw_spawn with stdout to out_path."""
    res_path = out_path + ".rusage"
    with open(out_path, "wb") as out, open(os.devnull, "wb") as null:
        r = subprocess.run([TOOLS["spawn"], str(int(CMD_TIMEOUT_S)),
                            res_path] + argv,
                           stdout=out, stderr=null)
    if r.returncode != 0:
        raise BenchError("cannot spawn " + argv[0])
    with open(res_path) as f:
        rc, wall, cpu, rss_kb = f.read().split()
    with open(out_path, "rb") as f:
        data = f.read()
    return Run(int(rc), float(wall), float(cpu), int(rss_kb) / 1024.0,
               data)


# ---- inputs -----------------------------------------------------------

def gen_trace(tool, d, name, klass, rate, minutes, seed):
    """Generate <name>.bin and its .csv twin in d; returns both paths
    and the request count generate reports."""
    b = os.path.join(d, name + ".bin")
    c = os.path.join(d, name + ".csv")
    outs = []
    for argv in ([tool, "generate", "--class", klass, "--rate", str(rate),
                  "--minutes", str(minutes), "--seed", str(seed),
                  "--out", b],
                 [tool, "convert", "--in", b, "--out", c]):
        r = run_cmd(argv, os.path.join(d, "gen.out"))
        if r.rc != 0:
            raise BenchError("input generation failed: " + " ".join(argv))
        outs.append(r.out)
    # "wrote <n> requests to <file>"
    return b, c, int(outs[0].split()[1])


def fleet_argv(tool, cfg, seed, threads):
    return [tool, "fleet", "--drives", str(cfg["drives"]),
            "--threads", str(threads), "--preset", "mixed",
            "--rate", str(cfg["rate"]), "--minutes", str(cfg["minutes"]),
            "--seed", str(seed)]


def setup_analyze(tool, cfg, seed, d):
    """The OLTP trace in both formats and the .bin twin's report."""
    os.makedirs(d, exist_ok=True)
    b, c, n = gen_trace(tool, d, "oltp", cfg["class"], cfg["rate"],
                        cfg["minutes"], seed)
    r = run_cmd([tool, "analyze", "--in", b], os.path.join(d, "ref.txt"))
    if r.rc != 0:
        raise BenchError("reference analyze failed")
    return {"csv": c, "bin": b, "ref": r.out, "requests": n}


def setup_pool(tool, cfg, seed, d):
    """Session payload pool: each trace as csv and bin, with the
    `dlwtool characterize` report each session must reproduce."""
    os.makedirs(d, exist_ok=True)
    pool = []
    for k in range(cfg["pool"]):
        klass = ("oltp", "fileserver")[k % 2]
        b, c, n = gen_trace(tool, d, "s%d" % k, klass, cfg["rate"],
                            cfg["minutes"], seed * 1000 + k)
        for path in (c, b):
            r = run_cmd([tool, "characterize", "--in", path],
                        path + ".ref")
            if r.rc != 0:
                raise BenchError("reference characterize failed")
            with open(path, "rb") as f:
                pool.append({"path": path, "bin": path.endswith(".bin"),
                             "data": f.read(), "ref": r.out,
                             "records": n})
    return pool


# ---- the daemon and its open-loop client ------------------------------

class Daemon:
    """`dlwtool serve` in its own process."""

    def __init__(self, tool, threads, d):
        port_file = os.path.join(d, "port.txt")
        if os.path.exists(port_file):
            os.remove(port_file)
        self.err = open(os.path.join(d, "serve.err"), "wb")
        self.proc = subprocess.Popen(
            [tool, "serve", "--port", "0", "--port-file", port_file,
             "--threads", str(threads)],
            stdout=self.err, stderr=self.err)
        deadline = time.monotonic() + 10
        self.port = None
        while time.monotonic() < deadline and self.proc.poll() is None:
            try:
                with open(port_file) as f:
                    self.port = int(f.read().strip())
                break
            except (OSError, ValueError):
                time.sleep(0.005)
        if self.port is None:
            self.stop()
            raise BenchError("dlwd did not come up")
        while http_get(self.port, "/healthz") is None:
            if time.monotonic() > deadline:
                self.stop()
                raise BenchError("dlwd /healthz never answered")
            time.sleep(0.005)

    def cpu_s(self):
        with open("/proc/%d/stat" % self.proc.pid) as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf(
            "SC_CLK_TCK")

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.err.close()
        return self.proc.returncode


def http_get(port, path):
    """Blocking GET against dlwd; body bytes or None."""
    try:
        with socket.create_connection(("127.0.0.1", port),
                                      timeout=5) as s:
            s.sendall(("GET %s HTTP/1.1\r\nHost: x\r\n"
                       "Connection: close\r\n\r\n" % path).encode())
            chunks = []
            while True:
                b = s.recv(65536)
                if not b:
                    break
                chunks.append(b)
    except OSError:
        return None
    raw = b"".join(chunks)
    head, _, body = raw.partition(b"\r\n\r\n")
    if not head.startswith(b"HTTP/1.1 200"):
        return None
    return body


def payload_bytes(entry):
    """The payload after the hello line, as `dlwtool stream` sends it:
    csv as is, bin in 64 KiB frames and an end frame."""
    data = entry["data"]
    if not entry["bin"]:
        return data
    out = bytearray()
    chunk = 64 * 1024
    for off in range(0, len(data), chunk):
        piece = data[off:off + chunk]
        out += len(piece).to_bytes(4, "little") + piece
    out += (0).to_bytes(4, "little")
    return bytes(out)


def hello_line(fmt, tenant, trace_id=None):
    """The session's hello; a trace id makes dlwd record its spans."""
    if trace_id is None:
        return ("DLWS1 %s %s\n" % (fmt, tenant)).encode()
    return ("DLWS1 %s %s interactive %s\n" % (fmt, tenant,
                                               trace_id)).encode()


class Conn:
    """One in-flight session (or a /v1/stats poll).  A traced one
    also records when its ack came and its last byte went."""

    def __init__(self, i, due, started, bufs, ref, trace_id=None):
        self.i, self.due, self.started = i, due, started
        self.out = [memoryview(b) for b in bufs]
        self.ref = ref
        self.trace_id = trace_id
        self.inbuf = bytearray()
        self.ack_at = self.sent_at = None
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.sock.setblocking(False)

    def send(self):
        """Send what the socket takes; True once everything is out."""
        n = self.sock.sendmsg(self.out)
        while n:
            k = min(n, len(self.out[0]))
            self.out[0] = self.out[0][k:]
            n -= k
            if not len(self.out[0]):
                self.out.pop(0)
        return not self.out


def drive_sessions(port, plan, rate=None, seconds=None,
                   stats_every=None, trace_block=None):
    """Run dlwd sessions from one thread, at most MAX_IN_FLIGHT open.

    plan is a list of (format, tenant, payload, reference report,
    records).  With a rate, the loop is open: session i is due at
    t0 + i / rate, a due session waits for a free slot, and its
    latency counts from when it was due.  Without one, the loop is
    closed: each finished session starts the next, for `seconds`
    (cycling the plan) or until the plan is done.  With stats_every,
    a /v1/stats poll takes a slot that often and the pool queue depth
    it reports is kept.  With trace_block, blocks of that many
    sessions alternate between untraced and traced ones, which send a
    trace id and record their client spans; the two kinds' latencies
    are kept apart.  A block the size of the pool runs every payload
    both ways.
    """
    # A collector pause would stall the schedule; the loop allocates
    # no cycles, so the collector is off for its duration.
    gc.disable()
    sel = selectors.DefaultSelector()
    limit = len(plan) if seconds is None else float("inf")
    next_i = 0
    inflight = {}
    res = {"lat_ms": [], "traced_lat_ms": [], "lag_ms": [], "spans": [],
           "ok": 0, "failed": 0, "records": 0, "queue_depth_max": 0}
    t0 = time.perf_counter() + 0.005
    deadline = t0 + seconds if seconds is not None else None
    next_poll = t0 if stats_every else None
    poll_req = (b"GET /v1/stats HTTP/1.1\r\nHost: x\r\n"
                b"Connection: close\r\n\r\n")

    def due_at(i):
        return t0 if rate is None else t0 + i / rate

    def start(conn):
        conn.sock.connect_ex(("127.0.0.1", port))
        sel.register(conn.sock,
                     selectors.EVENT_READ | selectors.EVENT_WRITE, conn)
        inflight[conn.sock.fileno()] = conn

    def finish(conn, ok):
        sel.unregister(conn.sock)
        del inflight[conn.sock.fileno()]
        conn.sock.close()
        now = time.perf_counter()
        if conn.i is None:
            body = bytes(conn.inbuf).partition(b"\r\n\r\n")[2]
            try:
                depth = json.loads(body)["pool"]["queue_depth"]
                res["queue_depth_max"] = max(res["queue_depth_max"],
                                             depth)
            except (ValueError, KeyError):
                pass
            return
        if not ok:
            res["failed"] += 1
            return
        res["ok"] += 1
        res["records"] += plan[conn.i % len(plan)][4]
        res["lag_ms"].append((conn.started - conn.due) * 1e3)
        if conn.trace_id is None:
            res["lat_ms"].append((now - conn.due) * 1e3)
            return
        res["traced_lat_ms"].append((now - conn.due) * 1e3)
        res["spans"].append((conn.trace_id, conn.started, conn.ack_at,
                             conn.sent_at, now))

    def parse(conn):
        """True/False once the session's outcome is known."""
        buf = conn.inbuf
        nl = buf.find(b"\n")
        if nl < 0:
            return None
        ack = bytes(buf[:nl]).split(b" ")
        if ack[0] != b"DLWS1" or ack[1] != b"ok":
            return False
        if conn.trace_id is not None and conn.ack_at is None:
            conn.ack_at = time.perf_counter()
        nl2 = buf.find(b"\n", nl + 1)
        if nl2 < 0:
            return None
        head = bytes(buf[nl + 1:nl2]).split(b" ")
        if head[:2] != [b"DLWR1", b"ok"]:
            return False
        n = int(head[2])
        if len(buf) - nl2 - 1 < n:
            return None
        return bytes(buf[nl2 + 1:nl2 + 1 + n]) == conn.ref

    while next_i < limit or inflight:
        now = time.perf_counter()
        if deadline is not None and now >= deadline:
            limit = next_i
        polling = any(c.i is None for c in inflight.values())
        if next_poll is not None and now >= next_poll and \
                not polling and len(inflight) < MAX_IN_FLIGHT:
            c = Conn(None, now, now, [poll_req], None)
            start(c)
            next_poll = now + stats_every
        while next_i < limit and len(inflight) < MAX_IN_FLIGHT and \
                due_at(next_i) <= now:
            fmt, tenant, payload, ref, _ = plan[next_i % len(plan)]
            traced = trace_block and (next_i // trace_block) % 2
            trace_id = "pb%d" % next_i if traced else None
            # Closed loop: a session is due when a slot frees up.
            due = now if rate is None else due_at(next_i)
            start(Conn(next_i, due, now,
                       [hello_line(fmt, tenant, trace_id), payload], ref,
                       trace_id))
            next_i += 1
        if next_i >= limit:
            next_poll = None
        timeout = 0.05
        if next_i < limit and len(inflight) < MAX_IN_FLIGHT:
            timeout = max(0.0, min(timeout, due_at(next_i) - now))
        for key, mask in sel.select(timeout):
            conn = key.data
            if mask & selectors.EVENT_WRITE and conn.out:
                try:
                    done = conn.send()
                except BlockingIOError:
                    done = False
                except OSError:
                    finish(conn, False)
                    continue
                if done:
                    if conn.trace_id is not None:
                        conn.sent_at = time.perf_counter()
                    if conn.i is not None:
                        conn.sock.shutdown(socket.SHUT_WR)
                    sel.modify(conn.sock, selectors.EVENT_READ, conn)
            if mask & selectors.EVENT_READ:
                try:
                    b = conn.sock.recv(65536)
                except BlockingIOError:
                    continue
                except OSError:
                    b = b""
                conn.inbuf += b
                if conn.i is None:
                    if not b:
                        finish(conn, True)
                    continue
                verdict = parse(conn)
                if verdict is None and not b:
                    verdict = False
                if verdict is not None:
                    finish(conn, verdict)
        now = time.perf_counter()
        for conn in list(inflight.values()):
            if now - conn.started > SESSION_TIMEOUT_S:
                finish(conn, False)
    res["wall_s"] = time.perf_counter() - t0
    sel.close()
    gc.enable()
    return res


def session_plan(pool, n, tenants):
    """n sessions cycling the pool (csv and bin alternate), across
    `tenants` tenants."""
    payloads = [payload_bytes(e) for e in pool]
    plan = []
    for i in range(n):
        e = pool[i % len(pool)]
        plan.append(("bin" if e["bin"] else "csv", "t%d" % (i % tenants),
                     payloads[i % len(pool)], e["ref"], e["records"]))
    return plan


# ---- workloads, untraced ----------------------------------------------

def work_dir(name, seed):
    d = os.path.join(build_dir(), "work", "%s-%d" % (name, seed))
    shutil.rmtree(d, ignore_errors=True)
    os.makedirs(d)
    return d


def timed_setup(fn, repeats=SETUP_REPEATS):
    """Run set-up `repeats` times; median time, every result."""
    times, results = [], []
    for rep in range(repeats):
        t0 = time.perf_counter()
        results.append(fn(rep))
        times.append(time.perf_counter() - t0)
    return median(times), results


def batch_loop(argv, out_path, ref, requests, seconds):
    """Run argv back to back for `seconds`; every stdout must equal
    ref.  Returns the metrics of one batch workload."""
    rps, cpus, rss = [], [], []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while attempted < 3 or time.perf_counter() < deadline:
        r = run_cmd(argv, out_path)
        attempted += 1
        if r.rc != 0 or r.out != ref:
            failed += 1
            continue
        rps.append(requests / r.wall)
        cpus.append(requests / max(r.cpu, 1e-9))
        rss.append(r.rss_mb)
    m = {"requests_per_s": median(rps),
         "requests_per_cpu_s": median(cpus),
         "peak_rss_mb": median(rss),
         "ok_frac": (attempted - failed) / attempted}
    return m, attempted, failed


def report_requests(report, first_word):
    """The request count a dlwtool report states."""
    for line in report.decode().splitlines():
        parts = line.split()
        if parts and parts[0] == first_word:
            return int(float(parts[-1]))
    raise BenchError("no '%s' line in the report" % first_word)


def run_fleet(tool, sizes, seed, seconds, corrupt=False):
    cfg = sizes["fleet"]
    d = work_dir("fleet-mixed", seed)

    def setup(rep):
        r = run_cmd(fleet_argv(tool, cfg, seed, 1),
                    os.path.join(d, "ref%d.txt" % rep))
        if r.rc != 0:
            raise BenchError("reference fleet run failed")
        return r.out

    # The --threads 1 reference costs several seconds, so the fleet
    # sets up once.
    setup_s, refs = timed_setup(setup, repeats=1)
    ref = corrupt_report(refs[0]) if corrupt else refs[0]
    requests = report_requests(refs[0], "requests")
    m, attempted, failed = batch_loop(
        fleet_argv(tool, cfg, seed, cfg["threads"]),
        os.path.join(d, "out.txt"), ref, requests, seconds)
    m["setup_s"] = setup_s
    shutil.rmtree(d, ignore_errors=True)
    return m, attempted, failed


def run_analyze(tool, sizes, seed, seconds, corrupt=False):
    cfg = sizes["analyze"]
    d = work_dir("analyze-csv", seed)

    def setup(rep):
        return setup_analyze(tool, cfg, seed, os.path.join(d, str(rep)))

    setup_s, ins = timed_setup(setup)
    if len({x["ref"] for x in ins}) != 1:
        raise BenchError("set-up repeats produced different inputs")
    ref = ins[-1]["ref"]
    ref = corrupt_report(ref) if corrupt else ref
    requests = ins[-1]["requests"]
    m, attempted, failed = batch_loop(
        [tool, "analyze", "--in", ins[-1]["csv"]],
        os.path.join(d, "out.txt"), ref, requests, seconds)
    m["setup_s"] = setup_s
    shutil.rmtree(d, ignore_errors=True)
    return m, attempted, failed


def run_stream(tool, sizes, seed, seconds, corrupt=False):
    cfg = sizes["stream"]
    d = work_dir("dlwd-stream", seed)

    def setup(rep):
        sub = os.path.join(d, str(rep))
        pool = setup_pool(tool, cfg, seed, sub)
        daemon = Daemon(tool, cfg["daemon_threads"], sub)
        if rep + 1 < SETUP_REPEATS:
            daemon.stop()
            daemon = None
        return pool, daemon

    setup_s, outs = timed_setup(setup)
    pool, daemon = outs[-1]
    try:
        if len({tuple(e["ref"] for e in p) for p, _ in outs}) != 1:
            raise BenchError("set-up repeats produced different payloads")
        if corrupt:
            pool[0]["ref"] = corrupt_report(pool[0]["ref"])
        plan = session_plan(pool, len(pool) * cfg["tenants"],
                            cfg["tenants"])
        # Warm the daemon's pool and allocator before timing.
        drive_sessions(daemon.port, plan)
        cpu0 = daemon.cpu_s()
        res = drive_sessions(daemon.port, plan, seconds=seconds)
        cpu = daemon.cpu_s() - cpu0
        rss = daemon.peak_rss_mb()
    finally:
        rc = daemon.stop()
    attempted = res["ok"] + res["failed"]
    failed = res["failed"] + (1 if rc != 0 else 0)
    log("dlwd-stream: %.1f sessions/s closed loop (the capacity the "
        "open-loop rates are fractions of)" % (res["ok"] / res["wall_s"]))
    m = {"setup_s": setup_s,
         "requests_per_s": res["records"] / res["wall_s"],
         "requests_per_cpu_s": res["records"] / max(cpu, 1e-9),
         "peak_rss_mb": rss,
         "ok_frac": max(0.0, (attempted - failed) / attempted)}
    shutil.rmtree(d, ignore_errors=True)
    return m, attempted, failed


def corrupt_report(ref):
    """A reference with one byte changed (the negative self-test)."""
    b = bytearray(ref)
    b[len(b) // 2] ^= 0x01
    return bytes(b)


RUNNERS = {"fleet-mixed": run_fleet, "analyze-csv": run_analyze,
           "dlwd-stream": run_stream}


# ---- the traced run: the per-layer ledger -----------------------------

def probe(probe_bin, mode, args, d, ref=None):
    """Run one dlw_probe mode: its metrics, or None when it failed or
    its traced report differs from the program's reference."""
    report = os.path.join(d, mode + "_report.txt")
    # Spans outlive the run's scratch directory: open them in Perfetto.
    spans = os.path.join(build_dir(), "spans")
    os.makedirs(spans, exist_ok=True)
    argv = [probe_bin, mode] + args + [
        "--spans-out", os.path.join(spans, mode + ".json")]
    if ref is not None:
        argv += ["--report-out", report]
    r = run_cmd(argv, os.path.join(d, mode + ".json"))
    lines = r.out.decode().strip().splitlines()
    if r.rc != 0 or not lines:
        return None
    if ref is not None:
        with open(report, "rb") as f:
            if f.read() != ref:
                return None
    return json.loads(lines[-1])


def run_ledger(tool, probe_bin, sizes, seed):
    """Every per-layer metric, whatever the workload (README.md)."""
    d = work_dir("ledger", seed)
    m = {}
    attempted = failed = 0

    def take(res):
        nonlocal attempted, failed
        attempted += 1
        if res is None:
            failed += 1
            return {}
        return res

    fc = sizes["fleet"]
    fleet_ref = run_cmd(fleet_argv(tool, fc, seed, fc["threads"]),
                        os.path.join(d, "fleet_ref.txt"))
    if fleet_ref.rc != 0:
        raise BenchError("fleet run failed")
    m["fleet.saturated_frac"] = saturated_frac(fleet_ref.out)
    m.update(take(probe(probe_bin, "fleet", [
        "--drives", str(fc["drives"]), "--threads", str(fc["threads"]),
        "--rate", str(fc["rate"]), "--minutes", str(fc["minutes"]),
        "--seed", str(seed)], d, fleet_ref.out)))

    an = setup_analyze(tool, sizes["analyze"], seed,
                       os.path.join(d, "analyze"))
    m.update(take(probe(probe_bin, "analyze", [
        "--csv", an["csv"], "--bin", an["bin"]], d, an["ref"])))
    mpath = os.path.join(d, "metrics.json")
    r = run_cmd([tool, "analyze", "--in", an["csv"], "--metrics", "json",
                 "--metrics-out", mpath], os.path.join(d, "an.txt"))
    if r.rc != 0 or r.out != an["ref"]:
        raise BenchError("analyze --metrics json failed")
    attempted += 1
    with open(mpath) as f:
        m["trace.decode_passes"] = json.load(f)["metrics"][
            "ingest.passes"]["value"]

    sc = sizes["stream"]
    pool = setup_pool(tool, sc, seed, os.path.join(d, "pool"))
    m.update(take(probe(probe_bin, "live", [
        "--payloads", ",".join(e["path"] for e in pool)], d)))

    m_d, a_d, f_d = daemon_ledger(tool, sc, pool, d)
    m.update(m_d)
    attempted += a_d
    failed += f_d
    shutil.rmtree(d, ignore_errors=True)
    return m, attempted, failed


def saturated_frac(report):
    """Share of drives in the fleet report's saturated tier."""
    drives = saturated = None
    for line in report.decode().splitlines():
        parts = line.split()
        if line.startswith("fleet characterization:"):
            drives = int(parts[2])
        elif parts and parts[0] == "saturated" and len(parts) == 3:
            saturated = int(parts[1])
    if not drives or saturated is None:
        raise BenchError("fleet report has no behavioural tiers")
    return saturated / drives


def stage_seconds(port):
    """Summed time of dlwd's session stages so far, from the
    daemon.stage.*_seconds histograms on /metrics."""
    body = http_get(port, "/metrics")
    if body is None:
        raise BenchError("dlwd /metrics did not answer")
    total = 0.0
    for line in body.decode().splitlines():
        name, _, value = line.partition(" ")
        if name.startswith("dlw_daemon_stage_") and \
                name.endswith("_seconds_sum"):
            total += float(value)
    return total


def write_client_spans(spans):
    """The traced sessions' client spans, as Chrome trace_event JSON
    beside the probe's (names as `dlwtool stream --trace-out` gives
    them)."""
    d = os.path.join(build_dir(), "spans")
    os.makedirs(d, exist_ok=True)
    events = []
    for trace_id, t0, ack, sent, done in spans:
        for name, a, b in (("connect", t0, ack), ("stream", ack, sent),
                           ("report", sent, done)):
            events.append({"name": "trace/%s/client.%s" % (trace_id, name),
                           "ph": "X", "pid": 1, "tid": 1, "ts": a * 1e6,
                           "dur": max(0.0, b - a) * 1e6})
    with open(os.path.join(d, "dlwd-client.json"), "w") as f:
        json.dump({"traceEvents": events}, f)


def daemon_ledger(tool, sc, pool, d):
    """dlwd's layers and open-loop latency.  The lo phase alternates
    untraced sessions and traced ones (a trace id in the hello, spans
    recorded by the client and the daemon), so tracing overhead is
    the two kinds' p50s side by side.  Then a hi phase, and a second
    hi phase that polls /v1/stats for the pool queue depth."""
    daemon = Daemon(tool, sc["daemon_threads"], d)
    n = sc["phase_sessions"]
    m = {}
    phases = {}
    try:
        plan = session_plan(pool, 2 * n, sc["tenants"])
        drive_sessions(daemon.port, plan[:2 * len(pool)])
        stage0 = stage_seconds(daemon.port)
        phases["lo"] = drive_sessions(daemon.port, plan, sc["lo"],
                                      trace_block=len(pool))
        stage_s = stage_seconds(daemon.port) - stage0
        for name, stats_every in (("hi", None), ("polled", 0.05)):
            phases[name] = drive_sessions(daemon.port, plan[:n], sc["hi"],
                                          stats_every=stats_every)
        stats = json.loads(http_get(daemon.port, "/v1/stats") or b"{}")
        sessions = json.loads(http_get(daemon.port, "/v1/sessions")
                              or b"[]")
    finally:
        rc = daemon.stop()
    lo = phases["lo"]
    for r in ("lo", "hi"):
        for q, name in ((0.50, "p50"), (0.99, "p99")):
            m["session_ms_%s.%s" % (name, r)] = quantile(
                phases[r]["lat_ms"], q)
    for st in ("read", "decode", "admit", "fold", "merge"):
        s = stats.get("stages", {}).get(st, {})
        m["daemon.stage.%s_us_p50" % st] = s.get("p50_us", 0.0)
        m["daemon.stage.%s_us_p99" % st] = s.get("p99_us", 0.0)
    server_ms = [s["duration_ms"] for s in sessions
                 if s.get("state") == "done"]
    m["daemon.server_session_ms_p50"] = median(server_ms)
    m["daemon.ack_ms_p50"] = median([(ack - t0) * 1e3
                                     for _, t0, ack, _, _ in lo["spans"]])
    m["daemon.pool_queue_depth_max"] = phases["polled"]["queue_depth_max"]
    m["bench.generator_lag_ms_p99"] = quantile(phases["hi"]["lag_ms"], 0.99)
    m["obs.trace_overhead_frac.dlwd-stream"] = (
        median(lo["traced_lat_ms"]) / max(m["session_ms_p50.lo"], 1e-9)
        - 1.0)
    # The daemon's stage time over the client's session time, summed
    # over every lo session.
    m["obs.attributed_frac.dlwd-stream"] = stage_s * 1e3 / max(
        sum(lo["lat_ms"]) + sum(lo["traced_lat_ms"]), 1e-9)
    write_client_spans(lo["spans"])
    attempted = sum(p["ok"] + p["failed"] for p in phases.values())
    failed = sum(p["failed"] for p in phases.values()) + (rc != 0)
    return m, attempted, failed


# ---- main -------------------------------------------------------------

def print_table(rows):
    names = list(E2E_UNITS)
    head = ["workload"] + ["%s [%s]" % (k, E2E_UNITS[k]) for k in names]
    print("  ".join(head))
    for w, m in rows:
        print("  ".join([w] + ["%.6g" % m[k] for k in names]))


def result(correct, attempted, failed, metrics, units):
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": u}
                        for k, u in units.items()}}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--short", action="store_true",
                    help="shrink every input (smoke test)")
    args = ap.parse_args(argv)
    sizes = SHORT if args.short else FULL
    try:
        tool, probe_bin = build()
        if args.trace:
            m, attempted, failed = run_ledger(tool, probe_bin, sizes,
                                              args.seed)
            missing = [k for k in LAYER_UNITS if k not in m]
            if missing:
                raise BenchError("ledger lacks " + ", ".join(missing))
            print(json.dumps(result(failed == 0, attempted, failed, m,
                                    LAYER_UNITS)))
            return 0 if failed == 0 else 1
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        rows, total_a, total_f = [], 0, 0
        for w in names:
            m, a, f = RUNNERS[w](tool, sizes, args.seed, args.seconds)
            rows.append((w, m))
            total_a += a
            total_f += f
    except BenchError as e:
        log("error:", e)
        return 1
    if args.workload == "all":
        print_table(rows)
        units = collections.OrderedDict(
            ("%s/%s" % (w, k), u) for w, _ in rows
            for k, u in E2E_UNITS.items())
        merged = {"%s/%s" % (w, k): v for w, m in rows
                  for k, v in m.items()}
    else:
        units, merged = E2E_UNITS, rows[0][1]
    print(json.dumps(result(total_f == 0, total_a, total_f, merged,
                            units)))
    return 0 if total_f == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
