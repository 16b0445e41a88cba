#!/usr/bin/env python3
"""limbo-tools benchmark: one command per workload, every output checked.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fit_dblp --seed 1 --seconds 30 --trace 0

builds limbo-tool, limbo-serve and perfbench_harness from the checkout's
sources (Release, into $CARGO_TARGET_DIR or .bench_build), generates the
workload's inputs from --seed, measures for --seconds and prints one JSON
object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, measured on the shipped binaries
with LIMBO_OBS=0. --trace 1 reports the per-layer metrics of the traced run
(perfbench_harness trace), printing a self-time table before the result
and writing every span to .perfbench_out/spans-<workload>-<seed>.json.

--smoke runs every workload at toy size in both modes, checks that every
metric is printed with its unit, and checks that injected faults (one
flipped bundle byte, one altered response byte) are counted as failures.
Workload sizes and the reasons for them are in workloads.json; the metric
definitions are in README.md.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
WORK = os.path.join(ROOT, ".perfbench_work")
OUT = os.path.join(ROOT, ".perfbench_out")
# Keyed on the checkout: two checkouts that share an absolute
# $CARGO_TARGET_DIR (compare.py runs a parent and a change) must not share a
# CMake build tree.
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                     "perfbench-" + hashlib.sha1(ROOT.encode()).hexdigest()[:12])
TOOL = os.path.join(BUILD, "limbo_tools", "limbo-tool")
SERVE = os.path.join(BUILD, "limbo_tools", "limbo-serve")
HARNESS = os.path.join(BUILD, "perfbench_harness")

with open(os.path.join(BENCH_DIR, "workloads.json")) as f:
    SPEC = json.load(f)
with open(os.path.join(BENCH_DIR, "..", "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)
END_TO_END = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}

# Settings that are the same at every size (workloads.json holds the sizes).
# --threads and LIMBO_THREADS of the batch jobs. The fit runs on 1 lane: on
# a shared host a fit at 4 lanes waits for its slowest lane, and its run-to-
# run spread was several times that of the same fit on one lane.
LANES = {"fit_dblp": 1, "schemes_dblp": 2}
EPSILON = 0.05        # schemes_dblp: J-measure admission threshold
WORKERS = 1           # serve_mixed: limbo-serve --workers
BATCH_MAX = 16        # serve_mixed: limbo-serve --batch-max
LOW_STEP, HIGH_STEP = 0, 1  # serve_mixed: ladder steps of the low and high rates
# serve_mixed: one CPU each for the server, the load generator and the
# refit, so that together with the generator's 2 connections they stay
# within 4 CPUs and do not steal from each other.
SERVER_CPUS, GENERATOR_CPUS, REFIT_CPUS = "1", "2", "3"


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def program_env(lanes):
    env = dict(os.environ)
    env["LIMBO_OBS"] = "0"
    env["LIMBO_THREADS"] = str(lanes)
    return env


def build():
    """Configures and builds the benchmark package; exits 1 on failure."""
    os.makedirs(BUILD, exist_ok=True)
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"] + generator,
        ["cmake", "--build", BUILD, "-j", str(min(4, os.cpu_count() or 1))],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log("perfbench: build failed:", " ".join(cmd))
            sys.exit(1)


def run_measured(cmd, env, stdout_path=None):
    """Runs one program; returns (exit code, wall seconds, peak RSS MB)."""
    out = open(stdout_path, "w") if stdout_path else subprocess.DEVNULL
    try:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if stdout_path:
            out.close()
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def pinned(cpus):
    """argv prefix pinning a process to `cpus` (a taskset list), when the
    host has the CPUs and taskset; otherwise no prefix."""
    if cpus and shutil.which("taskset") and (os.cpu_count() or 1) >= 4:
        return ["taskset", "-c", cpus]
    return []


def harness(args, env, cpus=None):
    done = subprocess.run(pinned(cpus) + [HARNESS] + args, stdout=subprocess.PIPE, env=env,
                          text=True)
    if done.returncode != 0:
        raise RuntimeError("perfbench_harness %s failed" % args[0])
    return json.loads(done.stdout.strip().splitlines()[-1])


def generate(path, tuples, seed):
    code, _, _ = run_measured([TOOL, "generate", "dblp", "--out=" + path,
                               "--tuples=%d" % tuples, "--seed=%d" % seed], program_env(1))
    if code != 0:
        raise RuntimeError("limbo-tool generate failed")


def flip_byte(path):
    with open(path, "r+b") as f:
        f.seek(os.path.getsize(path) // 2)
        byte = f.read(1)
        f.seek(-1, os.SEEK_CUR)
        f.write(bytes([byte[0] ^ 0x40]))


# --- batch workloads -------------------------------------------------------------


def run_batch(name, cfg, seed, seconds, max_jobs, fault):
    """Repeats the workload's job until `seconds` have passed; checks each.

    Set-up is input generation only. It is repeated before every job (it
    rewrites the same file) so that the set-up times, whose median is
    setup_s, sample the whole run rather than one moment of the host."""
    csv = os.path.join(WORK, "input.csv")
    setups = []
    lanes = LANES[name]
    env = program_env(lanes)
    jobs, rss, failed = [], [], 0
    checksums = set()
    bundle = os.path.join(WORK, "model.limbo")
    output = os.path.join(WORK, "job.out")
    start = time.perf_counter()
    while not jobs or (time.perf_counter() - start < seconds and len(jobs) < max_jobs):
        for _ in range(cfg["setup_repeats"] if max_jobs > 1 else 1):
            setup_start = time.perf_counter()
            generate(csv, cfg["tuples"], seed)
            setups.append(time.perf_counter() - setup_start)
        if name == "fit_dblp":
            cmd = [TOOL, "fit", csv, "--model-out=" + bundle, "--threads=%d" % lanes]
        else:
            cmd = [TOOL, "schemes", csv, "--threads=%d" % lanes, "--epsilon=%g" % EPSILON]
        code, wall, peak = run_measured(cmd, env, output)
        jobs.append(wall)
        rss.append(peak)
        ok = code == 0
        if ok and name == "fit_dblp":
            if fault == "bundle":
                flip_byte(bundle)
            check = harness(["check-fit", "--csv=" + csv, "--bundle=" + bundle,
                             "--sample=%d" % cfg["check_rows"], "--seed=%d" % seed], env)
            ok = check["failed"] == 0
            checksums.add(check.get("checksum", "unloadable"))
        elif ok:
            check = harness(["check-schemes", "--csv=" + csv, "--output=" + output,
                             "--epsilon=%g" % EPSILON], env)
            ok = check["failed"] == 0
        failed += 0 if ok else 1
    p50 = statistics.median(jobs)
    metrics = {
        "setup_s": statistics.median(setups),
        "success_rate": 1.0 - failed / len(jobs),
        "peak_rss_mb": max(rss),
        "p50_ms": 1e3 * p50,
        "throughput_per_s": cfg["tuples"] / p50,
    }
    info = {"jobs": len(jobs), "job_s": jobs, "tuples": cfg["tuples"]}
    if checksums:
        info["bundle_checksum"] = sorted(checksums)
    return metrics, len(jobs), failed, info, {"csv": csv, "job_s": p50}


def trace_batch(name, cfg, seed, run_id):
    _, attempted, failed, info, ctx = run_batch(name, cfg, seed, 0, 1, None)
    args = ["trace", "--workload=" + name, "--csv=" + ctx["csv"], "--threads=%d" % LANES[name],
            "--untraced-job-s=%r" % ctx["job_s"], "--run-id=%d" % run_id,
            "--bundle-out=" + os.path.join(WORK, "traced.limbo"),
            "--spans-out=" + os.path.join(OUT, "spans-%s-%d.json" % (name, seed))]
    if name == "schemes_dblp":
        args.append("--epsilon=%g" % EPSILON)
    env = program_env(LANES[name])
    env["LIMBO_OBS"] = "1"
    traced = harness(args, env)
    return traced, attempted, failed, info


# --- serve_mixed -------------------------------------------------------------------


class Server:
    """A limbo-serve process on an ephemeral port."""

    def __init__(self, bundle, cfg):
        self.proc = subprocess.Popen(
            pinned(SERVER_CPUS) + [SERVE, bundle, "--port=0", "--workers=%d" % WORKERS,
                                   "--batch-max=%d" % BATCH_MAX,
                                   "--cache-entries=%d" % cfg["cache_entries"]],
            stdout=subprocess.PIPE, env=program_env(WORKERS), text=True)
        line = self.proc.stdout.readline()
        if "listening on 127.0.0.1:" not in line:
            self.stop()
            raise RuntimeError("limbo-serve did not start")
        self.port = int(line.split("127.0.0.1:")[1].split()[0])

    def stop(self):
        """SIGTERM, wait; returns (exit code, peak RSS MB, CPU seconds)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        return self.proc.returncode, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime


def setup_serve(cfg, seed):
    """Generates the training and unseen relations, fits the served bundle
    with --schemes, writes the rows each refit absorbs, starts limbo-serve
    and waits for its first answer."""
    d = os.path.join(WORK, "serve")
    shutil.rmtree(d, ignore_errors=True)
    os.makedirs(os.path.join(d, "versions"))
    os.makedirs(os.path.join(d, "check"))
    train = os.path.join(d, "train.csv")
    unseen = os.path.join(d, "unseen.csv")
    bundle = os.path.join(d, "model.limbo")
    generate(train, cfg["train_tuples"], seed)
    generate(unseen, cfg["unseen_tuples"], seed + 1000003)
    code, _, _ = run_measured([TOOL, "fit", train, "--schemes", "--model-out=" + bundle,
                               "--threads=%d" % WORKERS], program_env(WORKERS))
    if code != 0:
        raise RuntimeError("limbo-tool fit --schemes failed")
    os.link(bundle, os.path.join(d, "versions", "v1.limbo"))
    with open(train) as f:
        header, *rows = f.read().splitlines()
    picked = random.Random(seed).sample(rows, min(cfg["refit_rows"], len(rows)))
    refit_rows = os.path.join(d, "refit_rows.csv")
    with open(refit_rows, "w") as f:
        f.write("\n".join([header] + picked) + "\n")
    server = Server(bundle, cfg)
    try:
        with socket.create_connection(("127.0.0.1", server.port)) as s:
            s.sendall(b'{"op":"info"}\n')
            if not s.makefile().readline().startswith('{"ok":true'):
                raise RuntimeError("limbo-serve did not answer info")
    except Exception:
        server.stop()
        raise
    return server, {"dir": d, "train": train, "unseen": unseen, "bundle": bundle,
                    "refit_rows": refit_rows}


def step_seconds(cfg, seconds):
    """Each ladder step gets an equal share of the measured time."""
    return max(0.25, seconds / len(cfg["ladder_qps"]))


def run_serve(cfg, seed, seconds, trace, fault):
    repeats = 1 if trace else cfg["setup_repeats"]
    times = []
    for i in range(repeats):
        start = time.perf_counter()
        server, files = setup_serve(cfg, seed)
        times.append(time.perf_counter() - start)
        if i + 1 < repeats:
            server.stop()
    ladder = cfg["ladder_qps"]
    args = ["load", "--port=%d" % server.port, "--train=" + files["train"],
            "--unseen=" + files["unseen"], "--seed=%d" % seed,
            "--ladder=" + ",".join(str(r) for r in ladder),
            "--step-seconds=%r" % step_seconds(cfg, seconds),
            "--tool=" + TOOL, "--served=" + files["bundle"],
            "--refit-rows=" + files["refit_rows"],
            "--versions-dir=" + os.path.join(files["dir"], "versions"),
            "--scratch-dir=" + os.path.join(files["dir"], "check"),
            "--p99-limit-us=%r" % cfg["p99_limit_us"],
            "--refit-wrapper=" + ",".join(pinned(REFIT_CPUS))]
    if fault == "response":
        args.append("--corrupt-response=1")
    try:
        load = harness(args, program_env(1), GENERATOR_CPUS)
    finally:
        code, peak, cpu_s = server.stop()
    failed = load["failed"] + (0 if code == 0 else 1)
    steps = load["steps"]
    high = steps[HIGH_STEP]
    low = steps[LOW_STEP]
    metrics = {
        "setup_s": statistics.median(times),
        "success_rate": 1.0 - failed / load["attempted"],
        "peak_rss_mb": peak,
        "p50_ms": high["p50_us"] / 1e3,
        # Requests answered per CPU-second of limbo-serve over its whole
        # life: it moves with what serving a request costs (socket work
        # included) at any load, where an achieved rate stays pinned to the
        # offered one.
        "throughput_per_s": load["answered"] / cpu_s,
    }
    info = {k: load[k] for k in ("mix", "steps", "reload_ms", "refit_ms", "versions", "mismatched",
                                 "answered", "conns", "max_qps")}
    info["server_cpu_s"] = cpu_s
    extra = {"low": low, "high": high, "reload_ms": load["reload_ms"], "max_qps": load["max_qps"],
             "files": files}
    return metrics, load["attempted"], failed, info, extra


def trace_serve(cfg, seed, seconds, run_id):
    _, attempted, failed, info, extra = run_serve(cfg, seed, seconds, True, None)
    files = extra["files"]
    env = program_env(WORKERS)
    env["LIMBO_OBS"] = "1"
    traced = harness(["trace", "--workload=serve_mixed", "--train=" + files["train"],
                      "--unseen=" + files["unseen"], "--seed=%d" % seed,
                      "--bundle=" + files["bundle"],
                      "--refit-rows=" + files["refit_rows"],
                      "--batch-max=%d" % BATCH_MAX,
                      "--cache-entries=%d" % cfg["cache_entries"],
                      "--workers=%d" % WORKERS,
                      "--high-qps=%r" % cfg["ladder_qps"][HIGH_STEP],
                      "--step-seconds=%r" % step_seconds(cfg, seconds),
                      "--requests=%d" % cfg["trace_requests"], "--run-id=%d" % run_id,
                      "--spans-out=" + os.path.join(OUT, "spans-serve_mixed-%d.json" % seed)],
                     env, SERVER_CPUS + "," + GENERATOR_CPUS)
    traced["metrics"]["e2e.p50_us.low"] = extra["low"]["p50_us"]
    traced["metrics"]["e2e.p99_us.low"] = extra["low"]["p99_us"]
    traced["metrics"]["e2e.p90_us.high"] = extra["high"]["p90_us"]
    traced["metrics"]["e2e.p99_us.high"] = extra["high"]["p99_us"]
    traced["metrics"]["e2e.reload_ms"] = extra["reload_ms"]
    traced["metrics"]["e2e.max_qps"] = extra["max_qps"]
    return traced, attempted, failed, info


# The fit's layers, one public call each, that together make up a fit.
FIT_LAYERS = ["relation.read_s", "core.build_objects_s", "core.phase1_s", "core.phase2_s",
              "core.phase3_s", "core.duplicates_s", "core.double_clustering_s",
              "core.value_clustering_s", "core.attribute_grouping_s", "fd.mining_s",
              "core.fd_rank_s", "model.save_s"]
EXPECTED_TOP = ["core.phase2_s", "core.duplicates_s"]


def fit_profile(metrics):
    """Ranks the fit's layers by time and compares the two largest with the
    profile the workload was chosen for; a mismatch is reported."""
    ranked = sorted(FIT_LAYERS, key=lambda n: -metrics[n])
    total = sum(metrics[n] for n in FIT_LAYERS)
    shares = ", ".join("%s %.0f%%" % (n, 100 * metrics[n] / total) for n in ranked[:4])
    verdict = ("matches" if sorted(ranked[:2]) == sorted(EXPECTED_TOP)
               else "MISMATCH: expected %s" % " and ".join(EXPECTED_TOP))
    return "fit profile: %s; two largest %s" % (shares, verdict)


# --- entry points ------------------------------------------------------------------------


def header(workload, cfg, seed):
    """The run header stamped on every result."""
    def command_output(cmd):
        try:
            return subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                  text=True).stdout.strip()
        except OSError:
            return ""
    compiler = ""
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache) as f:
            for line in f:
                if line.startswith("CMAKE_CXX_COMPILER:"):
                    path = line.split("=", 1)[1].strip()
                    compiler = command_output([path, "--version"]).splitlines()[0]
    revision = command_output(["git", "-C", ROOT, "rev-parse", "HEAD"]) or "unknown"
    if workload == "serve_mixed":
        lanes = {"workers": WORKERS, "batch_max": BATCH_MAX, "cache_entries": cfg["cache_entries"]}
    else:
        lanes = {"lanes": LANES[workload]}
    return {"workload": workload, "seed": seed, "nproc": os.cpu_count(), "compiler": compiler,
            "build_type": "Release", "git_revision": revision, **lanes}


def layer_metrics(workload, produced):
    """Every per-layer metric for `workload`. A metric of a layer the
    workload bypasses (its "bypasses" in workloads.json, by layer prefix
    or full name) reads 0; any other metric the traced run did not produce
    is an error, so that a renamed or dropped metric cannot pass as 0."""
    bypassed = set(SPEC["workloads"][workload]["bypasses"])
    metrics, missing = {}, []
    for name, unit in PER_LAYER.items():
        skipped = name in bypassed or name.split(".")[0] in bypassed
        if skipped and name in produced:
            raise RuntimeError("%s: traced run produced %s, which workloads.json lists as "
                               "bypassed" % (workload, name))
        if not skipped and name not in produced:
            missing.append(name)
        metrics[name] = {"value": 0.0 if skipped else produced.get(name), "unit": unit}
    if missing:
        raise RuntimeError("%s: traced run did not produce %s" % (workload, ", ".join(missing)))
    return metrics


def run_workload(workload, seed, seconds, trace, fault, cfg):
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    os.makedirs(OUT, exist_ok=True)
    if trace:
        if workload == "serve_mixed":
            traced, attempted, failed, info = trace_serve(cfg, seed, seconds, seed)
        else:
            traced, attempted, failed, info = trace_batch(workload, cfg, seed, seed)
        print("self time by span (s):")
        for row in traced["self_times"]:
            print("  %-28s %4d calls %10.4f" % (row["span"], row["calls"], row["self_s"]))
        print("  %-28s %10s %10.4f of traced wall %.4f" % ("unaccounted", "", traced["unaccounted_s"],
                                                           traced["wall_s"]))
        metrics = layer_metrics(workload, traced["metrics"])
        if workload == "fit_dblp":
            print(fit_profile({name: m["value"] for name, m in metrics.items()}))
    else:
        if workload == "serve_mixed":
            values, attempted, failed, info, _ = run_serve(cfg, seed, seconds, False, fault)
        else:
            values, attempted, failed, info, _ = run_batch(workload, cfg, seed, seconds,
                                                           10 ** 6, fault)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    print(json.dumps({"header": header(workload, cfg, seed), "details": info}))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def smoke():
    """Toy-size run of every workload in both modes plus the fault checks."""
    problems = []

    def expect(cond, what):
        if not cond:
            problems.append(what)
            log("smoke: FAIL", what)

    for workload in SPEC["workloads"]:
        cfg = SPEC["smoke"][workload]
        for trace, names in ((0, END_TO_END), (1, PER_LAYER)):
            try:
                result = run_workload(workload, 1, 1, trace, None, cfg)
            except RuntimeError as error:
                expect(False, "%s trace=%d: %s" % (workload, trace, error))
                continue
            expect(result["failed"] == 0, "%s trace=%d failed operations" % (workload, trace))
            for name, unit in names.items():
                got = result["metrics"].get(name)
                expect(got is not None and got["unit"] == unit and
                       isinstance(got["value"], (int, float)),
                       "%s trace=%d metric %s with unit %s" % (workload, trace, name, unit))
    for workload, fault in (("fit_dblp", "bundle"), ("serve_mixed", "response")):
        result = run_workload(workload, 1, 1, 0, fault, SPEC["smoke"][workload])
        expect(result["failed"] >= 1 and result["metrics"]["success_rate"]["value"] < 1.0,
               "%s: injected %s fault counted as a failure" % (workload, fault))
    print(json.dumps({"smoke": "ok" if not problems else "failed", "problems": problems}))
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(SPEC["workloads"]))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    build()
    if args.smoke:
        return smoke()
    if not args.workload:
        parser.error("--workload is required")
    cfg = SPEC["workloads"][args.workload]
    result = run_workload(args.workload, args.seed, args.seconds, args.trace, None, cfg)
    shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
