#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first run in a checkout builds the repository and the harness from source
with sbt (offline) and keeps the classpath under the build directory
($CARGO_TARGET_DIR, default .bench_build). Every run then starts one fresh JVM
for the workload. Lines before the last are run facts and sample counts; the
last line is the result object. The exit code is 0 only if every answer
passed its correctness check.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN_LIMIT_S = 170
BUILD_LIMIT_S = 840
HEAP = "3g"
# Twice the default number of JIT compiler threads on 4 cores. With the
# default, the compile queue backs up behind Spark's planner code and query
# times keep falling for about 40 s after set-up (4.9 s to 3.0 s per prsim-wv
# query); with more threads they start within 20% of where they settle.
JIT_THREADS = 6
JVM_OPENS = [
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
    "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "sun.nio.ch",
    "sun.nio.cs", "sun.security.action", "sun.util.calendar",
]


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def sources():
    """Every file the build reads, in a stable order."""
    files = [ROOT / "build.sbt", ROOT / "project" / "build.properties",
             BENCH / "build.sbt", BENCH / "project" / "build.properties"]
    for d in (ROOT / "src" / "main", ROOT / "jobs", BENCH / "src"):
        if d.is_dir():
            files += sorted(p for p in d.rglob("*") if p.is_file())
    return files


def fingerprint():
    h = hashlib.sha256()
    for f in sources():
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(f.read_bytes() if f.is_file() else b"<missing>")
    return h.hexdigest()[:16]


def sbt_env():
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    if "SBT_OPTS" not in env:
        opts = ["-Dsbt.offline=true", "-Xmx2g"]
        repos = Path.home() / ".sbt" / "repositories"
        if repos.is_file():
            opts += ["-Dsbt.override.build.repos=true", f"-Dsbt.repository.config={repos}"]
        env["SBT_OPTS"] = " ".join(opts)
    return env


def build(out, log):
    """Compiles the repository and the harness; returns the runtime classpath."""
    cp_file = out / f"classpath-{fingerprint()}.txt"
    if cp_file.is_file():
        return cp_file.read_text().strip(), False
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
           "export perfbench/Runtime/fullClasspath"]
    with open(log, "w") as lf:
        code, _ = run_group(cmd, BENCH, sbt_env(), BUILD_LIMIT_S, stdout=lf, stderr=subprocess.STDOUT)
    lines = [l for l in Path(log).read_text(errors="replace").splitlines() if l.strip()]
    if code != 0 or not lines or "classes" not in lines[-1]:
        tail(log)
        fail(f"build failed (exit {code}); log: {log}", 3)
    cp_file.write_text(lines[-1].strip())
    return lines[-1].strip(), True


def run_group(cmd, cwd, env, limit, **kw):
    """Runs cmd in its own process group and waits for it. The group is killed
    at the time limit, or if this script is told to stop."""
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, text=True, start_new_session=True, **kw)

    def stop(signum, _frame):
        kill(proc)
        sys.exit(128 + signum)

    old = {s: signal.signal(s, stop) for s in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP)}
    try:
        out, _ = proc.communicate(timeout=limit)
    except subprocess.TimeoutExpired:
        kill(proc)
        fail(f"{cmd[0]} exceeded {limit:.0f} s", 4)
    finally:
        kill(proc)
        for s, h in old.items():
            signal.signal(s, h)
    return proc.returncode, out or ""


def kill(proc):
    """Kills proc's whole process group, unless it has ended, and waits for it."""
    if proc.poll() is None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.communicate()


def tail(log, n=40):
    try:
        lines = Path(log).read_text(errors="replace").splitlines()
        print("\n".join(l[:300] for l in lines[-n:]), file=sys.stderr)
    except OSError:
        pass


def revision():
    if not (ROOT / ".git").exists():
        return None
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    started = time.monotonic()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if a.seed < 0:
        fail("seed must be non-negative")
    if not (ROOT / "build.sbt").is_file() or not (ROOT / "src" / "main" / "scala").is_dir():
        fail(f"{ROOT} holds no repository sources to build")

    out = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    out = out if out.is_absolute() else ROOT / out
    (out / "logs").mkdir(parents=True, exist_ok=True)
    (out / "tmp").mkdir(exist_ok=True)
    classpath, built = build(out, out / "logs" / "build.log")

    cores = len(os.sched_getaffinity(0))
    java = Path(os.environ["JAVA_HOME"]) / "bin" / "java" if "JAVA_HOME" in os.environ else "java"
    cmd = [str(java), f"-Xms{HEAP}", f"-Xmx{HEAP}", f"-XX:CICompilerCount={JIT_THREADS}",
           f"-Djava.io.tmpdir={out / 'tmp'}"]
    cmd += [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in JVM_OPENS]
    cmd += ["-cp", classpath, "repro.perfbench.Bench",
            "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
            "--trace", str(a.trace), "--cache", str(out / "cache"), "--cores", str(cores)]
    log = out / "logs" / f"{a.workload}-{a.seed}-{a.trace}.log"
    limit = (BUILD_LIMIT_S + RUN_LIMIT_S if built else RUN_LIMIT_S) - (time.monotonic() - started)
    with open(log, "w") as lf:
        code, stdout = run_group(cmd, ROOT, dict(os.environ), limit, stdout=subprocess.PIPE, stderr=lf)

    lines = [l for l in stdout.splitlines() if l.strip()]
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        tail(log)
        fail(f"no result from the workload run (exit {code}); log: {log}", 5)
    want = [m["name"] for m in spec["per_layer" if a.trace else "end_to_end"]]
    if sorted(result["metrics"]) != sorted(want):
        fail(f"metrics {sorted(result['metrics'])} do not match BENCHMARK.json {sorted(want)}", 6)

    meta = {"revision": revision(), "sources": fingerprint(), "nproc": cores, "heap": HEAP,
            "jit_threads": JIT_THREADS, "jvm_exit": code}
    print(json.dumps({"meta": meta}))
    for l in lines[:-1]:
        print(l)
    print(json.dumps(result))
    if code != 0 or not result["correct"]:
        tail(log)
        sys.exit(1)


if __name__ == "__main__":
    main()
