#!/usr/bin/env python3
"""Run one benchmark workload against the popan in this checkout.

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 15 --trace 0

Builds popan and the benchmark's OCaml programs from source (a mirror of
the checkout under .bench_build/ws), runs the workload, checks every
output against an in-process oracle, prints each metric with its unit
and sample count, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 measures the end-to-end metrics of BENCHMARK.json with
tracing off, each timed interval netted of the hypervisor's steal over
it (see perfbench/README.md); --trace 1 runs the traced in-process
replica and reports the per-layer metrics instead. Each run also saves its metrics with a
host record (steal share, nproc, revision, OCaml version, seed, sample
counts) under --record-dir; compare two such directories with
perfbench/compare.py. Exits non-zero when an output check fails.

    python3 perfbench/run.py --self-test

runs the benchmark's own tests (OCaml and Python).
"""

import argparse
import hashlib
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import unittest

sys.dont_write_bytecode = True
import benchstats  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WS = os.path.join(BUILD, "ws")
POPAN = os.path.join(WS, "_build", "default", "bin", "popan.exe")
E2E = os.path.join(WS, "_build", "default", "perfbench_ml", "e2e.exe")
TRACED = os.path.join(WS, "_build", "default", "perfbench_ml", "traced.exe")
TESTS = os.path.join(WS, "_build", "default", "perfbench_ml", "test_perfbench.exe")
# Relative to ROOT, the working directory of every child: a Unix socket
# path must stay under 108 bytes wherever the checkout lives.
SOCKET = os.path.join(".bench_build", "serve.sock")

# Servers per serve run, each answering its share of the run's seconds;
# set-up is reported as the median of their start-ups.
SERVE_SETUPS = 8
# A child that outlives its limit is killed and the run fails: a child
# that measures for the run's seconds gets them plus this much for its
# set-ups and oracle; any other child gets COMMAND_TIMEOUT_S.
SETUP_ALLOWANCE_S = 150
COMMAND_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def clean_env():
    """The environment of every child: no POPAN_* settings, and dune
    kept inside the checkout."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("POPAN_")}
    env["DUNE_CACHE"] = "disabled"
    env["XDG_CACHE_HOME"] = os.path.join(BUILD, "cache")
    return env


# Build


def mirror(src, dst):
    """Make dst a copy of src (files compared by size and mtime), keeping
    dst/_build."""
    os.makedirs(dst, exist_ok=True)
    names = set(os.listdir(src))
    for name in os.listdir(dst):
        if name not in names and name != "_build":
            path = os.path.join(dst, name)
            if os.path.isdir(path) and not os.path.islink(path):
                shutil.rmtree(path)
            else:
                os.remove(path)
    for name in names:
        s, d = os.path.join(src, name), os.path.join(dst, name)
        if os.path.isdir(s):
            if os.path.exists(d) and not os.path.isdir(d):
                os.remove(d)
            mirror(s, d)
        else:
            if os.path.isdir(d):
                shutil.rmtree(d)
            st = os.stat(s)
            if not os.path.exists(d) or (
                (os.stat(d).st_size, int(os.stat(d).st_mtime)) != (st.st_size, int(st.st_mtime))
            ):
                shutil.copy2(s, d)


def build(targets):
    """Build the given dune targets in the workspace mirror: the
    checkout's sources (dot and underscore names excepted, as dune
    itself skips them) plus perfbench/_ml as perfbench_ml."""
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        raise BenchError("no dune-project next to perfbench/: nothing to build")
    os.makedirs(WS, exist_ok=True)
    keep = {n for n in os.listdir(ROOT) if not n.startswith((".", "_")) and n != "perfbench"}
    for name in os.listdir(WS):
        if name not in keep and name not in ("_build", "perfbench_ml"):
            path = os.path.join(WS, name)
            shutil.rmtree(path) if os.path.isdir(path) else os.remove(path)
    for name in keep:
        s, d = os.path.join(ROOT, name), os.path.join(WS, name)
        if os.path.isdir(s):
            mirror(s, d)
        else:
            shutil.copy2(s, d)
    mirror(os.path.join(HERE, "_ml"), os.path.join(WS, "perfbench_ml"))
    rel = [os.path.relpath(t, os.path.join(WS, "_build", "default")) for t in targets]
    proc = subprocess.run(
        ["dune", "build", "--root", WS, "--cache=disabled", "--display=quiet"]
        + ["./" + r for r in rel],
        stdout=sys.stderr, stderr=sys.stderr, env=clean_env(), cwd=ROOT,
    )
    if proc.returncode != 0:
        raise BenchError("dune build failed")


# Children


def run_child(argv, timeout=COMMAND_TIMEOUT_S):
    """Run argv in its own process group, return its stdout; kill the
    whole group if it overruns or this process is interrupted."""
    p = subprocess.Popen(argv, stdout=subprocess.PIPE, env=clean_env(), cwd=ROOT,
                         start_new_session=True)
    try:
        out, _ = p.communicate(timeout=timeout)
    except BaseException:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        raise
    if p.returncode != 0:
        raise BenchError("%s exited with code %d" % (os.path.basename(argv[0]), p.returncode))
    return out.decode()


def last_json(out):
    return json.loads(out.strip().splitlines()[-1])


def timed_out(*_):
    raise BenchError("child timed out")


def timed_command(argv, timeout=COMMAND_TIMEOUT_S):
    """Run argv from spawn to exit; return (wall s, peak RSS MB, stdout)."""
    t0 = time.monotonic()
    p = subprocess.Popen(argv, stdout=subprocess.PIPE, env=clean_env(), cwd=ROOT,
                         start_new_session=True)
    signal.signal(signal.SIGALRM, timed_out)
    signal.alarm(timeout)
    try:
        out = p.stdout.read()
        _, status, usage = os.wait4(p.pid, 0)
    except BaseException:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        raise
    finally:
        signal.alarm(0)
    wall = time.monotonic() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    p.stdout.close()
    if p.returncode != 0:
        raise BenchError("%s failed (code %d, %.1f s)" % (argv[1], p.returncode, wall))
    return wall, usage.ru_maxrss / 1024.0, out.decode()


# Host record


def cpu_times():
    """(busy, steal) CPU ticks of the whole machine so far, as
    Serve_client.cpu_ticks reads them from /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    user, nice, system, idle, iowait, irq, softirq, steal = fields[:8]
    return user + nice + system + irq + softirq, steal


def source_digest():
    """sha256 of the program's sources: the checkout is not always a git
    repository, so this names the code measured."""
    h = hashlib.sha256()
    for top in ("dune-project", "bin", "lib"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            h.update(os.path.relpath(name, ROOT).encode() + b"\0")
            with open(name, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def git_rev():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    p = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True)
    return p.stdout.strip() or None


# Workloads


def serve_run(workload, seed, seconds):
    data = last_json(run_child([
        E2E, "serve", workload, "--popan", POPAN, "--socket", SOCKET,
        "--seed", str(seed), "--seconds", str(seconds), "--setups", str(SERVE_SETUPS)],
        timeout=seconds + SETUP_ALLOWANCE_S))
    servers = data["servers"]
    # Each server's timed phase and its set-up are netted of the steal
    # over that interval; the wall-clock figures stay as diagnostics.
    shares = [benchstats.steal_share(s["phase_ticks"]) for s in servers]
    rtt = [x * (1.0 - share) for s, share in zip(servers, shares) for x in s["rtt_ms"]]
    phase = sum(s["phase_s"] * (1.0 - share) for s, share in zip(servers, shares))
    setups = [s["setup_s"] * (1.0 - benchstats.steal_share(s["setup_ticks"])) for s in servers]
    batches = len(rtt)
    metrics = {
        "setup_s": (statistics.median(setups), len(setups)),
        "batch_p50_ms": (benchstats.percentile(rtt, 50), batches),
        "batch_p90_ms": (benchstats.percentile(rtt, 90), batches),
        "qps": (batches * data["batch_size"] / phase, batches),
        "points_per_s": (sum(s["answer_points"] for s in servers) / phase, batches),
        "peak_rss_mb": (statistics.median(s["peak_rss_mb"] for s in servers), len(servers)),
    }
    wall = [x for s in servers for x in s["rtt_ms"]]
    wall_phase = sum(s["phase_s"] for s in servers)
    p99, tail = benchstats.percentile(rtt, 99), benchstats.tail_percentile(rtt)
    print("batch_p99_ms %.4f over %d batches (%d beyond it; not gated); highest percentile "
          "with 10 beyond: %s" % (p99, batches, benchstats.beyond(batches, 99),
                                  "p%g = %.4f ms" % tail if tail else "none"))
    print("wall clock, steal included: p50 %.4f ms, p90 %.4f ms, qps %.1f; steal per server: %s"
          % (benchstats.percentile(wall, 50), benchstats.percentile(wall, 90),
             batches * data["batch_size"] / wall_phase,
             " ".join("%.1f%%" % (100 * x) for x in shares)))
    diagnostics = {
        "batch_p99_ms": p99,
        "batch_p99_beyond": benchstats.beyond(batches, 99),
        "tail_percentile": tail and {"level": tail[0], "ms": tail[1]},
        "phase_s": phase,
        "setup_samples_s": setups,
        "server_p50_ms": [statistics.median(s["rtt_ms"]) * (1.0 - share)
                          for s, share in zip(servers, shares)],
        "server_steal_share": shares,
        "wall_batch_p50_ms": benchstats.percentile(wall, 50),
        "wall_batch_p90_ms": benchstats.percentile(wall, 90),
        "wall_phase_s": wall_phase,
        "wall_setup_samples_s": [s["setup_s"] for s in servers],
    }
    return metrics, data["attempted"], data["failures"], diagnostics, data["ocaml"]


def sweep_rows(out):
    """The (n, leaves, occupancy, stddev) rows of `popan sweep` output,
    as printed tokens."""
    rows = []
    for line in out.splitlines():
        tokens = line.split()
        if len(tokens) == 4 and tokens[0].isdigit():
            rows.append(tokens)
    return rows


def rows_agree(printed, oracle):
    """Each printed number equals the oracle's value printed with the
    same number of decimals."""
    if len(printed) != len(oracle):
        return False
    for tokens, row in zip(printed, oracle):
        if int(tokens[0]) != row[0]:
            return False
        for token, value in zip(tokens[1:], row[1:]):
            decimals = len(token.split(".")[1]) if "." in token else 0
            if "%.*f" % (decimals, value) != token:
                return False
    return True


def sweep_run(seed, seconds):
    oracle = last_json(run_child([E2E, "sweep-oracle", "--seed", str(seed)]))
    sizes, trials = oracle["sizes"], oracle["trials"]
    argv = [POPAN, "sweep", "--no-cache", "-j", str(oracle["jobs"]), "--model", "uniform",
            "-m", str(oracle["capacity"]), "--seed", str(seed), "-t", str(trials),
            "--sizes", ",".join(str(n) for n in sizes)]
    walls, shares, rss, failures = [], [], [], []
    start = time.monotonic()
    while not walls or time.monotonic() - start < seconds:
        ticks0 = cpu_times()
        wall, peak, out = timed_command(argv)
        shares.append(benchstats.steal_share(ticks0 + cpu_times()))
        walls.append(wall)
        rss.append(peak)
        if not rows_agree(sweep_rows(out), oracle["rows"]):
            failures.append("sweep %d: rows differ from the oracle" % len(walls))
    runs = len(walls)
    builds = len(sizes) * trials
    # Each command's time is netted of the steal over it, as on the
    # serve workloads.
    net = [w * (1.0 - share) for w, share in zip(walls, shares)]
    ms = [w * 1000.0 for w in net]
    metrics = {
        "setup_s": (statistics.median(net), runs),
        "batch_p50_ms": (benchstats.percentile(ms, 50), runs),
        "batch_p90_ms": (benchstats.percentile(ms, 90), runs),
        "qps": (runs * builds / sum(net), runs),
        "points_per_s": (runs * trials * sum(sizes) / sum(net), runs),
        "peak_rss_mb": (statistics.median(rss), runs),
    }
    print("wall clock, steal included: command p50 %.4f ms, points_per_s %.1f; steal %.1f%%..%.1f%%"
          % (1000 * benchstats.percentile(walls, 50), runs * trials * sum(sizes) / sum(walls),
             100 * min(shares), 100 * max(shares)))
    diagnostics = {"command_s": net, "wall_command_s": walls, "command_steal_share": shares,
                   "peak_rss_samples_mb": rss}
    return metrics, runs, failures, diagnostics, oracle["ocaml"]


def traced_run(workload, seed, seconds, trace_file):
    data = last_json(run_child([
        TRACED, workload, "--popan", POPAN, "--socket", SOCKET, "--seed", str(seed),
        "--seconds", str(seconds), "--trace-out", trace_file],
        timeout=seconds + SETUP_ALLOWANCE_S))
    failures = list(data["failures"])
    check = subprocess.run([POPAN, "obs", "validate", trace_file], capture_output=True,
                           text=True, env=clean_env(), cwd=ROOT)
    print(check.stdout.strip() or check.stderr.strip())
    if check.returncode != 0:
        failures.append("trace does not validate: " + check.stderr.strip())
    print("%-28s %12s %12s %6s" % ("span", "self ms", "total ms", "spans"))
    for name, t in sorted(data["self_time_ms"].items(), key=lambda kv: -kv[1]["self_ms"]):
        print("%-28s %12.2f %12.2f %6d" % (name, t["self_ms"], t["total_ms"], t["spans"]))
    for note in data["notes"]:
        print("note: " + note)
    metrics = {name: (value, data["samples"].get(name, 1))
               for name, value in data["metrics"].items()}
    diagnostics = {"self_time_ms": data["self_time_ms"], "trace_file": trace_file,
                   "notes": data["notes"]}
    return metrics, data["attempted"] + 1, failures, diagnostics, data["ocaml"]


def self_test():
    build([TESTS])
    ok = subprocess.run([TESTS], env=clean_env(), cwd=ROOT).returncode == 0
    suite = unittest.defaultTestLoader.discover(HERE, pattern="test_*.py")
    ok = unittest.TextTestRunner().run(suite).wasSuccessful() and ok
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-dir", default=os.path.join(BUILD, "runs"))
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    # A terminated run still reaps its children (run_child kills their
    # process group on the way out).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.self_test:
        return self_test()
    if args.workload is None or args.seed is None or args.seconds is None:
        ap.error("--workload, --seed and --seconds are required")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        raise BenchError("unknown workload %r" % args.workload)
    declared = spec["per_layer" if args.trace else "end_to_end"]

    build([POPAN, TRACED if args.trace else E2E])
    os.makedirs(args.record_dir, exist_ok=True)
    stamp = "%s-s%d-t%d-%d" % (args.workload, args.seed, args.trace, time.time_ns())
    ticks0 = cpu_times()
    if args.trace:
        trace_file = os.path.join(args.record_dir, stamp + ".trace.json")
        result = traced_run(args.workload, args.seed, args.seconds, trace_file)
    elif args.workload == "sweep-phasing":
        result = sweep_run(args.seed, args.seconds)
    else:
        result = serve_run(args.workload, args.seed, args.seconds)
    metrics, attempted, failures, diagnostics, ocaml = result
    ticks1 = cpu_times()

    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise BenchError("metrics not measured: " + ", ".join(missing))
    print("%-32s %16s  %-10s %s" % ("metric", "value", "unit", "samples"))
    for m in declared:
        value, samples = metrics[m["name"]]
        print("%-32s %16.6g  %-10s %d" % (m["name"], value, m["unit"], samples))
    for failure in failures[:20]:
        print("FAILED " + failure)
    print("attempted %d, failed %d" % (attempted, len(failures)))

    host = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds,
        "steal_share": benchstats.steal_share(ticks0 + ticks1),
        "nproc": os.cpu_count(), "git_rev": git_rev(), "source_sha256": source_digest(),
        "ocaml": ocaml, "finished_unix": time.time(),
    }
    print("host: steal %.1f%% of busy time, nproc %d, ocaml %s" % (
        100 * host["steal_share"], host["nproc"], ocaml))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
                    for m in declared},
    }
    record = dict(result, host=host, failures=failures, diagnostics=diagnostics,
                  samples={m["name"]: metrics[m["name"]][1] for m in declared})
    with open(os.path.join(args.record_dir, stamp + ".json"), "w") as f:
        json.dump(record, f, indent=1)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, ValueError, KeyError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        sys.exit(2)
