#!/usr/bin/env python3
"""The repository benchmark: one command, four workloads (two of them
gated), host time end to end and layer by layer. See perfbench/README.md
for the metrics, the workloads and what each metric should move.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It builds the `experiments` binary and
the layer tracer (`perfbench/src/main.rs`) from source into
$CARGO_TARGET_DIR (default `target`), keeps its scratch files under
`.perfbench_work/`, and prints one JSON result object as the last line of
stdout. `--trace 0` measures the end-to-end metrics in a closed loop (one
client, one campaign at a time) for `--seconds`; `--trace 1` makes one
traced pass and prints the per-layer metrics instead.
"""

import argparse
import http.client
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".perfbench_work"

# The gated workloads come first; `paper-quick` and `service-small` run
# on request but are too unsteady to gate (see README.md).
WORKLOADS = ("paper-short", "unique-long", "paper-quick", "service-small")
# The metric names and units each mode must print.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PAPER_QUICK = ["all", "--quick"]
# The same 196-run plan at an eighth of the instructions per run, so a
# run of `--seconds` holds a dozen passes instead of one or two.
PAPER_SHORT = PAPER_QUICK + ["--insts", "25000", "--warmup", "5000"]
UNIQUE_LONG = [f"perfbench/sweeps/unique-long-{kind}.json"
               for kind in ("single", "cache", "replicated", "onelevel")]
SERVICE_SMALL = ["perfbench/sweeps/service-small.json"]

# Load comes from one process with no more threads or workers than the
# 2 CPUs of the reference machine; `--jobs 2` is how the paper campaign
# is reproduced there.
JOBS = 2
SERVICE_WORKERS = 2
# Launches timed for `setup_s` before each rep, so that the median covers
# the whole run.
SETUP_LAUNCHES = 10
# `service-small` resubmits each cold pass this often, served warm from
# the result cache.
WARM_PASSES = 3
# Reps per run even when they outlast `--seconds` (a `paper-quick` pass
# takes about 23 s), so every median has three samples or more.
MIN_REPS = 3
# Every run must end within 180 s; no child may outlive this budget.
RUN_BUDGET_S = 170.0


def fnv1a_64(data):
    """FNV-1a, as `rfcache_sim::fnv1a_64` computes it."""
    h = 0xCBF29CE484222325
    for byte in data:
        h = ((h ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


class Deadline:
    def __init__(self, seconds):
        self.end = time.monotonic() + seconds

    def left(self):
        return max(0.1, self.end - time.monotonic())


class PeakRss:
    """Samples the resident-set high-water mark (`VmHWM`) of live child
    processes every `INTERVAL` seconds, so a peak reached in the last
    interval before exit is missed. `ru_maxrss` from `wait4` cannot be
    used: Linux carries the parent's high-water mark across fork and
    exec, so every child would report at least this interpreter's size.
    """

    INTERVAL = 0.025

    def __init__(self):
        self.peaks = {}
        self.lock = threading.Lock()
        threading.Thread(target=self.sample, daemon=True).start()

    def watch(self, pid):
        with self.lock:
            self.peaks[pid] = 0

    def take(self, pid):
        """The peak seen for `pid`, in MiB (call once it has been reaped)."""
        with self.lock:
            return self.peaks.pop(pid, 0) / 1024.0

    def sample(self):
        while True:
            with self.lock:
                for pid in self.peaks:
                    try:
                        with open(f"/proc/{pid}/status", "rb") as status:
                            text = status.read()
                        kib = int(text[text.index(b"VmHWM:") + 6:].split(None, 1)[0])
                        self.peaks[pid] = max(self.peaks[pid], kib)
                    except (OSError, ValueError):
                        pass
            time.sleep(self.INTERVAL)


PEAK_RSS = PeakRss()
# Every child started, so none outlives the run whatever goes wrong.
CHILDREN = []
# The pid of the `setup_s` launch in flight, if any.
LAUNCHING = []


class Exit:
    """How a child process ended, with its resource usage."""

    def __init__(self, code, cpu_s, rss_mb, timed_out):
        self.code, self.cpu_s, self.rss_mb, self.timed_out = code, cpu_s, rss_mb, timed_out

    @property
    def ok(self):
        return self.code == 0 and not self.timed_out


def spawn(cmd, stdout=None, stderr=None):
    proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL,
                            stdout=stdout if stdout is not None else subprocess.DEVNULL,
                            stderr=stderr if stderr is not None else subprocess.DEVNULL,
                            env=child_env())
    PEAK_RSS.watch(proc.pid)
    CHILDREN.append(proc)
    return proc


def reap_children():
    for proc in CHILDREN:
        if proc.returncode is None:
            stop(proc, 0.0)
    for pid in LAUNCHING:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    LAUNCHING.clear()


def child_env():
    env = dict(os.environ)
    # `--workers` shards write their scratch files under the temp dir.
    env["TMPDIR"] = str(WORK / "tmp")
    return env


def wait_exit(proc, timeout):
    """Blocks until `proc` ends (killing it after `timeout` seconds) and
    returns its status and rusage."""
    timed_out = threading.Event()

    def expire():
        timed_out.set()
        try:
            os.kill(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    timer = threading.Timer(timeout, expire)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Exit(proc.returncode, usage.ru_utime + usage.ru_stime, PEAK_RSS.take(proc.pid),
                timed_out.is_set())


def stop(proc, grace):
    """Waits up to `grace` seconds for `proc`, then kills it; either way
    it is reaped before this returns."""
    end = time.monotonic() + grace
    while time.monotonic() < end:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return Exit(proc.returncode, usage.ru_utime + usage.ru_stime,
                        PEAK_RSS.take(proc.pid), False)
        time.sleep(0.005)
    exit_ = wait_exit(proc, 0.0)
    exit_.timed_out = True
    return exit_


def run_cmd(cmd, timeout, stdout_path=None):
    """Runs one command to completion: (Exit, wall seconds)."""
    out = open(stdout_path, "wb") if stdout_path else subprocess.DEVNULL
    try:
        start = time.monotonic()
        proc = spawn(cmd, stdout=out)
        exit_ = wait_exit(proc, timeout)
        return exit_, time.monotonic() - start
    finally:
        if stdout_path:
            out.close()


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def read_outputs(out_dir):
    """Every report byte of one pass: stdout plus the CSV/JSON exports."""
    files = {}
    for path in sorted(out_dir.rglob("*")):
        if path.is_file():
            files[str(path.relative_to(out_dir))] = path.read_bytes()
    return files


# ---------------------------------------------------------------- build


def target_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", "target"))
    return target if target.is_absolute() else ROOT / target


def build():
    """Builds both binaries (a no-op when up to date)."""
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates" / "sim").is_dir():
        print("run.py: no repository sources next to perfbench/; run from a full checkout",
              file=sys.stderr)
        sys.exit(1)
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    for cmd in (["cargo", "build", "--release", "--offline", "-p", "rfcache-bench",
                 "--bin", "experiments"],
                ["cargo", "build", "--release", "--offline",
                 "--manifest-path", "perfbench/Cargo.toml"]):
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout.decode(errors="replace")[-4000:])
            print(f"run.py: build failed: {' '.join(cmd)}", file=sys.stderr)
            sys.exit(1)
    release = target_dir() / "release"
    return str(release / "experiments"), str(release / "layers")


# ------------------------------------------------------------ campaigns


class Campaign:
    """One workload's campaign, as `experiments` arguments."""

    def __init__(self, workload, seed):
        self.workload = workload
        if workload in ("paper-quick", "paper-short"):
            # The paper campaign as users run it, at its default seed,
            # whatever `--seed` says: at 4 of the seeds 0-12 a port-limited
            # register file cache deadlocks (an open model defect, see
            # README.md), and a workload must be one on which no run fails.
            self.args = PAPER_QUICK if workload == "paper-quick" else PAPER_SHORT
            self.sweeps = []
        else:
            self.sweeps = UNIQUE_LONG if workload == "unique-long" else SERVICE_SMALL
            self.args = [a for f in self.sweeps for a in ("--sweep", f)] + ["--seed", str(seed)]
        self.seed = seed
        self.runs = None  # planned runs, from the layer tracer

    def plan(self, layers, deadline):
        proc = subprocess.run([layers, "plan"] + self.args, cwd=ROOT, stdin=subprocess.DEVNULL,
                              capture_output=True, timeout=deadline.left())
        if proc.returncode != 0:
            raise RuntimeError(f"cannot plan {self.workload}: {proc.stderr.decode().strip()}")
        self.runs = json.loads(proc.stdout)["runs"]

    def request_json(self):
        """The `POST /campaigns` body `experiments submit` would send."""
        sweeps = [json.loads((ROOT / f).read_text()) for f in self.sweeps]
        return json.dumps({"scenarios": [s["name"] for s in sweeps], "sweeps": sweeps,
                           "seed": self.seed})


class Tally:
    """Runs attempted and failed; a failed pass fails every run in it."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def add(self, runs, ok, note):
        """Counts a pass of `runs` runs, failed unless `ok`."""
        self.attempted += runs
        if not ok:
            self.fail(runs, note)
        return ok

    def fail(self, runs, note):
        """Fails `runs` runs already counted as attempted."""
        self.failed = min(self.attempted, self.failed + runs)
        self.notes.append(note)


def cli_pass(exp, campaign, out_dir, deadline, extra=()):
    """One in-process (or `--workers`/`--dist-workers`) campaign with
    exports: (Exit, wall seconds, outputs)."""
    fresh_dir(out_dir)
    cmd = [exp] + campaign.args + ["--csv", str(out_dir / "csv"), "--json",
                                   str(out_dir / "json")] + list(extra)
    exit_, wall = run_cmd(cmd, deadline.left(), out_dir / "stdout.txt")
    return exit_, wall, read_outputs(out_dir)


DEV_NULL = [(os.POSIX_SPAWN_OPEN, fd, os.devnull, os.O_RDWR, 0) for fd in (0, 1, 2)]


def cli_setup_trial(exp, campaign):
    """Launch to ready for the CLI: process start, registry, sweep files.
    `posix_spawn` + `waitpid` keep the interpreter's own cost out of a
    millisecond-long launch: `subprocess` makes its spread several times
    larger. Returns (ok, wall seconds)."""
    cmd = [exp, "--list"] + [a for f in campaign.sweeps for a in ("--sweep", str(ROOT / f))]
    start = time.perf_counter()
    LAUNCHING.append(os.posix_spawn(exp, cmd, child_env(), file_actions=DEV_NULL))
    _, status = os.waitpid(LAUNCHING[0], 0)
    wall = time.perf_counter() - start
    LAUNCHING.clear()
    return os.waitstatus_to_exitcode(status) == 0, wall


def cli_rep(exp, campaign, tally, work, deadline, reference):
    """One in-process pass, checked byte for byte against the run's
    warm-up pass. Returns the rep's samples."""
    exit_, wall, outputs = cli_pass(exp, campaign, work / "pass", deadline,
                                    ("--jobs", str(JOBS)))
    if reference.get("outputs") is None and exit_.ok:
        reference["outputs"] = outputs
    tally.add(campaign.runs, exit_.ok and outputs == reference.get("outputs"),
              f"{campaign.workload} pass: exit {exit_.code}, timed out {exit_.timed_out}, "
              f"outputs match {outputs == reference.get('outputs')}")
    return {"cold": wall, "warm": [], "cpu_s": exit_.cpu_s, "rss_mb": exit_.rss_mb}


# -------------------------------------------------------------- service


def http_request(addr, method, path, body=None, timeout=5.0):
    host, port = addr.rsplit(":", 1)
    conn = http.client.HTTPConnection(host, int(port), timeout=timeout)
    try:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


class Service:
    """`experiments serve` with a journal and cache directory, plus
    `work --jobs 1` processes."""

    ADDRS = re.compile(r"workers on (\S+), submissions on http://([^/\s]+)/campaigns")

    def __init__(self, exp, work, campaigns, deadline):
        self.work = fresh_dir(work)
        self.procs = []
        self.workers = []
        start = time.monotonic()
        log_path = self.work / "serve.log"
        with open(log_path, "wb") as log:
            self.serve = spawn([exp, "serve", "--bind", "127.0.0.1:0", "--http", "127.0.0.1:0",
                                "--journal", str(self.work / "journal"),
                                "--cache", str(self.work / "cache"),
                                "--max-campaigns", str(campaigns)], stderr=log)
        self.procs.append(self.serve)
        self.addr = self.http = None
        while self.http is None:
            match = self.ADDRS.search(log_path.read_text(errors="replace"))
            if match:
                self.addr, self.http = match.group(1), match.group(2)
            elif self.serve.poll() is not None or deadline.left() <= 0.1:
                raise RuntimeError("the service did not start")
            else:
                time.sleep(0.001)
        while True:
            try:
                if http_request(self.http, "GET", "/healthz", timeout=deadline.left())[0] == 200:
                    break
            except OSError:
                pass
            if deadline.left() <= 0.1:
                raise RuntimeError("the service never became healthy")
            time.sleep(0.001)
        for _ in range(SERVICE_WORKERS):
            worker = spawn([exp, "work", "--connect", self.addr, "--jobs", "1",
                            "--connect-timeout", "60"])
            self.workers.append(worker)
            self.procs.append(worker)
        self.setup_s = time.monotonic() - start

    def finish(self, grace):
        """Reaps every process, killing stragglers after `grace` seconds:
        one Exit each, the coordinator's first."""
        return [stop(proc, grace) for proc in self.procs]

    def kill(self):
        for proc in self.procs:
            if proc.returncode is None:
                proc.kill()
        return self.finish(5.0)


def kill_first_worker_mid_campaign(service, campaign_id, deadline, seen):
    """Fault injection for the self-test: SIGKILL one worker once the
    campaign has completed some runs, noting how many in `seen`."""
    while deadline.left() > 0.2:
        try:
            _, body = http_request(service.http, "GET", f"/campaigns/{campaign_id}")
            completed = json.loads(body).get("completed", 0)
            if completed > 0:
                seen.append(completed)
                break
        except (OSError, ValueError):
            pass
        time.sleep(0.005)
    service.workers[0].kill()


def service_pass(exp, campaign, http_addr, out, deadline, on_submitted=None):
    """Submits the campaign with `experiments submit` and waits for its
    results with `experiments fetch`, as a user would: (exits, wall
    seconds, outputs). A pass with fewer than two exits failed to
    submit."""
    fresh_dir(out)
    start = time.monotonic()
    submit, _ = run_cmd([exp, "submit", "--connect", http_addr] + campaign.args,
                        min(10.0, deadline.left()), out / "id.txt")
    campaign_id = (out / "id.txt").read_text().strip()
    (out / "id.txt").unlink()
    exits = [submit]
    if submit.ok:
        if on_submitted:
            on_submitted(campaign_id)
        fetch, _ = run_cmd([exp, "fetch", "--connect", http_addr, "--id", campaign_id,
                            "--timeout", str(max(1, int(deadline.left()) - 5)),
                            "--csv", str(out / "csv"), "--json", str(out / "json")],
                           deadline.left(), out / "stdout.txt")
        exits.append(fetch)
    return exits, time.monotonic() - start, read_outputs(out)


def service_rep(exp, campaign, tally, work, deadline, reference, kill_worker=False):
    """Starts the service, submits the campaign cold, resubmits it warm,
    and reaps everything. Returns the rep's samples. `kill_worker` is
    the self-test's fault injection: one worker is killed mid-campaign."""
    rep = {"warm": [], "cpu_s": 0.0, "rss_mb": 0.0}
    try:
        service = Service(exp, work / "service", 1 + WARM_PASSES, deadline)
    except (RuntimeError, OSError) as e:
        tally.add(campaign.runs, False, f"service setup: {e}")
        return None
    rep["setup_s"] = service.setup_s
    killers = []

    def kill_one(campaign_id):
        if kill_worker and not killers:
            rep["killed_after"] = []
            killers.append(threading.Thread(target=kill_first_worker_mid_campaign,
                                            args=(service, campaign_id, deadline,
                                                  rep["killed_after"])))
            killers[0].start()

    ok = True
    for k in range(1 + WARM_PASSES):
        exits, wall, outputs = service_pass(exp, campaign, service.http, work / f"pass{k}",
                                            deadline, kill_one)
        for killer in killers:
            killer.join()
        for exit_ in exits:
            rep["cpu_s"] += exit_.cpu_s
            rep["rss_mb"] = max(rep["rss_mb"], exit_.rss_mb)
        ok = tally.add(campaign.runs, len(exits) == 2 and all(e.ok for e in exits)
                       and outputs == reference.get("outputs"),
                       f"service pass {k}: exits {[e.code for e in exits]}, "
                       f"outputs match {outputs == reference.get('outputs')}")
        if k == 0:
            rep["cold"] = wall
        else:
            rep["warm"].append(wall)
        if not ok:
            break
    exits = service.finish(10.0) if ok else service.kill()
    rep["cpu_s"] += sum(e.cpu_s for e in exits)
    rep["rss_mb"] = max([rep["rss_mb"]] + [e.rss_mb for e in exits])
    if kill_worker:
        # The killed worker's SIGKILL is the injected fault, not a failure.
        exits = exits[:1] + exits[2:]
    if ok and not all(e.ok for e in exits):
        # A service or worker that crashed or hung fails the campaign
        # even when the results arrived.
        tally.fail(campaign.runs, "service: a service or worker process did not exit cleanly")
    return rep


def service_setup_trial(exp, work, deadline):
    """Launch to ready for the service: healthy coordinator, workers
    started."""
    try:
        service = Service(exp, work / "setup", 1, deadline)
    except (RuntimeError, OSError):
        return False, 0.0
    service.kill()
    return True, service.setup_s


# ------------------------------------------------------------ end to end



def end_to_end(exp, campaign, seconds, deadline):
    tally = Tally()
    work = WORK / "e2e"
    setup = []
    reference = {}
    service = campaign.workload == "service-small"
    # The warm-up pass, untimed: it loads the binary and sets the bytes
    # every later pass must reproduce. On `service-small` it is the
    # in-process run of the same plan.
    exit_, _, outputs = cli_pass(exp, campaign, work / "reference", deadline,
                                 ("--jobs", str(JOBS)))
    if tally.add(campaign.runs, exit_.ok, f"warm-up pass: exit {exit_.code}"):
        reference["outputs"] = outputs

    reps = []
    start = time.monotonic()
    while tally.failed == 0:
        # Set-up samples before every rep, so that their median spans the
        # whole run as the reps' does.
        for _ in range(1 if service else SETUP_LAUNCHES):
            if service:
                ok, wall = service_setup_trial(exp, work, deadline)
            else:
                ok, wall = cli_setup_trial(exp, campaign)
            if ok:
                setup.append(wall)
            else:
                tally.notes.append("a setup trial failed")
        if service:
            rep = service_rep(exp, campaign, tally, work, deadline, reference)
        else:
            rep = cli_rep(exp, campaign, tally, work, deadline, reference)
        if rep is None or "cold" not in rep:
            break
        reps.append(rep)
        if rep.get("setup_s"):
            setup.append(rep["setup_s"])
        if time.monotonic() - start >= seconds and len(reps) >= MIN_REPS:
            break

    def median(values):
        return statistics.median(values) if values else 0.0

    metrics = {
        "setup_s": median(setup),
        "campaign_s": median([r["cold"] for r in reps]),
        "cpu_s": median([r["cpu_s"] for r in reps]),
        "peak_rss_mb": median([r["rss_mb"] for r in reps]),
    }
    # The warm resubmissions of `service-small` are checked and counted in
    # `cpu_s`; their time goes to stderr only (see README.md).
    colds = " ".join(f"{r['cold']:.2f}" for r in reps)
    warm = ""
    if service:
        warm = f", warm median {median([w for r in reps for w in r['warm']]):.4f} s"
    print(f"[{campaign.workload}: {len(reps)} rep(s), cold passes {colds} s{warm}, "
          f"{len(setup)} setup sample(s), {tally.attempted} runs attempted, "
          f"{tally.failed} failed]", file=sys.stderr)
    return tally, with_units(tally, metrics, "end_to_end")


# --------------------------------------------------------------- traced


# The band the layer self times must cover of the traced pass's wall
# time: what falls outside it is bookkeeping no layer owns.
ACCOUNTED_BAND = (0.95, 1.0 + 1e-9)


def service_http_pass(exp, campaign, tally, work, deadline, reference):
    """The service-small plan through `POST /campaigns`, polled every
    2 ms so the lifecycle splits into submit, first lease and drain."""
    metrics = {}
    try:
        service = Service(exp, work / "service", 1, deadline)
    except (RuntimeError, OSError) as e:
        tally.add(campaign.runs, False, f"service setup: {e}")
        return metrics
    ok = False
    state = {"state": "not polled"}
    try:
        body = campaign.request_json()
        start = time.monotonic()
        status, answer = http_request(service.http, "POST", "/campaigns", body)
        metrics["service.submit_ms"] = (time.monotonic() - start) * 1e3
        if status != 201:
            raise RuntimeError(f"POST /campaigns answered {status}")
        campaign_id = json.loads(answer)["id"]
        first_lease = None
        while deadline.left() > 1.0:
            _, doc = http_request(service.http, "GET", f"/campaigns/{campaign_id}")
            state = json.loads(doc)
            now = time.monotonic()
            if first_lease is None and (state["leased"] > 0 or state["completed"] > 0):
                first_lease = now
            if state["state"] in ("complete", "failed"):
                break
            time.sleep(0.002)
        if first_lease is None or state["state"] != "complete":
            raise RuntimeError(f"campaign ended {state['state']}")
        metrics["service.first_lease_s"] = first_lease - start
        metrics["service.drain_s"] = now - first_lease
        fetch_start = time.monotonic()
        status, doc = http_request(service.http, "GET", f"/campaigns/{campaign_id}/results")
        done = time.monotonic()
        metrics["service.fetch_ms"] = (done - fetch_start) * 1e3
        metrics["service.result_bytes"] = len(doc)
        metrics["executor.service_s"] = done - start
        outputs = {"stdout.txt": b""}
        for entry in json.loads(doc)["scenarios"]:
            outputs["stdout.txt"] += (entry["report"] + "\n").encode()
            outputs[f"csv/{entry['name']}.csv"] = entry["csv"].encode()
            outputs[f"json/{entry['name']}.json"] = entry["json"].encode()
        ok = status == 200 and outputs == reference
    except (RuntimeError, OSError, ValueError, KeyError) as e:
        tally.notes.append(f"service pass: {e}")
    exits = service.finish(10.0) if ok else service.kill()
    tally.add(campaign.runs, ok and all(e.ok for e in exits),
              "service pass: results differ or a process failed")
    return metrics


def traced(exp, layers, campaign, deadline):
    tally = Tally()
    work = WORK / "trace"
    metrics = {}

    # The in-process campaign: reference bytes and the wall time the
    # executor's idle fraction is taken against.
    exit_, reference_wall, reference = cli_pass(exp, campaign, work / "inproc", deadline,
                                                ("--jobs", str(JOBS)))
    tally.add(campaign.runs, exit_.ok, f"in-process campaign: exit {exit_.code}")
    metrics["sim.report_fnv"] = fnv1a_64(reference.get("stdout.txt", b"")) >> 12

    # The layer tracer over the same plan.
    layer_work = fresh_dir(work / "layers")
    try:
        proc = subprocess.run([layers, "trace", "--work", str(layer_work)] + campaign.args,
                              cwd=ROOT, stdin=subprocess.DEVNULL, capture_output=True,
                              timeout=deadline.left())
        sys.stderr.write(proc.stderr.decode(errors="replace"))
        lines = proc.stdout.decode().strip().splitlines()
        code, layer = proc.returncode, json.loads(lines[-1] if lines else "{}")
    except subprocess.TimeoutExpired:
        code, layer = "timeout", {}
    if code != 0:
        panicked = layer.get("failed_runs", 0)
        tally.attempted += campaign.runs
        tally.fail(panicked or campaign.runs,
                   f"layer tracer ended with {code}; {panicked} run(s) panicked")
        layer = {}
    else:
        tally.add(campaign.runs, read_outputs(layer_work / "report") == reference,
                  "layer tracer: reports differ from the in-process campaign")
        low, high = ACCOUNTED_BAND
        if not low <= layer["trace.accounted_frac"] <= high:
            tally.fail(campaign.runs, f"layer self times cover {layer['trace.accounted_frac']:.3f}"
                                      f" of the traced wall time, outside {ACCOUNTED_BAND}")
    serial = layer.pop("executor.serial_run_s", 0.0)
    metrics["executor.idle_frac"] = 1.0 - serial / (JOBS * reference_wall) if serial else 0.0
    metrics.update(layer)

    # Every execution mode on the service-small plan.
    small = Campaign("service-small", campaign.seed)
    try:
        small.plan(layers, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        tally.add(1, False, str(e))
        return tally, with_units(tally, metrics, "per_layer")
    if campaign.workload == "service-small":
        small_ref, inproc_wall = reference, reference_wall
    else:
        exit_, inproc_wall, small_ref = cli_pass(exp, small, work / "small-inproc", deadline,
                                                 ("--jobs", str(JOBS)))
        tally.add(small.runs, exit_.ok, f"service-small in-process: exit {exit_.code}")
    metrics["executor.inproc_s"] = inproc_wall
    for name, extra in (("workers", ("--workers", str(SERVICE_WORKERS), "--jobs", str(JOBS))),
                        ("dist", ("--dist-workers", str(SERVICE_WORKERS), "--jobs", str(JOBS)))):
        exit_, wall, outputs = cli_pass(exp, small, work / f"small-{name}", deadline, extra)
        tally.add(small.runs, exit_.ok and outputs == small_ref,
                  f"service-small --{name}: exit {exit_.code}, "
                  f"outputs match {outputs == small_ref}")
        metrics[f"executor.{name}_s"] = wall
    metrics.update(service_http_pass(exp, small, tally, work, deadline, small_ref))
    return tally, with_units(tally, metrics, "per_layer")


def with_units(tally, values, section):
    """Every metric `BENCHMARK.json` lists in `section`, with its unit;
    one not produced reads 0 and fails a run."""
    result = {}
    for metric in SPEC[section]:
        name = metric["name"]
        result[name] = (values.get(name, 0.0), metric["unit"])
        if name not in values:
            tally.fail(1, f"metric {name} was not produced")
    for note in tally.notes:
        print(f"run.py: {note}", file=sys.stderr)
    return result


# ----------------------------------------------------------------- main


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be a whole number")

    exp, layers = build()
    deadline = Deadline(RUN_BUDGET_S)
    fresh_dir(WORK)
    (WORK / "tmp").mkdir()
    campaign = Campaign(args.workload, args.seed)
    try:
        campaign.plan(layers, deadline)
        if args.trace:
            tally, metrics = traced(exp, layers, campaign, deadline)
        else:
            tally, metrics = end_to_end(exp, campaign, args.seconds, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        print(f"run.py: {e}", file=sys.stderr)
        tally = Tally()
        tally.add(campaign.runs or 1, False, str(e))
        metrics = with_units(tally, {}, "per_layer" if args.trace else "end_to_end")
    finally:
        reap_children()
    shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps({
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
