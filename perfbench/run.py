#!/usr/bin/env python3
"""Layered Sharon benchmark: builds the benchmark with sbt, then runs it.

Run from the repository root:

    python3 perfbench/run.py --workload q20-len10 --seed 1 --seconds 10 --trace 0

The build compiles the repository's main sources together with the
benchmark's own (perfbench/build.sbt) and is reused while no source
changes. The JVM's last line of standard output is the result record.
Outputs (result records, span files, Spark's temporary files) go under
perfbench/out; build products under perfbench/target.
"""
import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
TARGET = os.path.join(HERE, "target")
PROGRAM_SOURCES = os.path.join(ROOT, "src", "main", "scala")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
HEAP = "3g"
# The engine allocates heavily; the parallel collector runs no concurrent
# threads beside it, which keeps set-up and runs steadier on a small host.
GC = "-XX:+UseParallelGC"

# Spark on Java 17 needs these, as its own launcher passes them.
JVM_MODULE_OPTS = [
    "-XX:+IgnoreUnrecognizedVMOptions",
    "--add-opens=java.base/java.lang=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.invoke=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.reflect=ALL-UNNAMED",
    "--add-opens=java.base/java.io=ALL-UNNAMED",
    "--add-opens=java.base/java.net=ALL-UNNAMED",
    "--add-opens=java.base/java.nio=ALL-UNNAMED",
    "--add-opens=java.base/java.util=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent.atomic=ALL-UNNAMED",
    "--add-opens=java.base/jdk.internal.ref=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.ch=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.cs=ALL-UNNAMED",
    "--add-opens=java.base/sun.security.action=ALL-UNNAMED",
    "--add-opens=java.base/sun.util.calendar=ALL-UNNAMED",
    "-Djdk.reflect.useDirectMethodHandle=false",
    "-Dio.netty.tryReflectionSetAccessible=true",
]


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_files():
    roots = [os.path.join(HERE, "src"), PROGRAM_SOURCES]
    files = [os.path.join(HERE, "build.sbt"),
             os.path.join(HERE, "project", "build.properties")]
    for r in roots:
        for d, _, names in os.walk(r):
            files += [os.path.join(d, n) for n in names]
    return sorted(files)


def build_id():
    h = hashlib.sha256()
    for f in source_files():
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()[:16]


def run_group(cmd, timeout, **kw):
    """Runs cmd in its own process group; kills the group on timeout or exit."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
        return proc.returncode, out
    except subprocess.TimeoutExpired:
        fail(f"{cmd[0]} exceeded {timeout} s", 124)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()


def sbt_env():
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    opts = env.get("SBT_OPTS", "")
    if "sbt.offline" not in opts:
        opts += " -Dsbt.offline=true"
        repos = os.path.expanduser("~/.sbt/repositories")
        if os.path.exists(repos):
            opts += f" -Dsbt.override.build.repos=true -Dsbt.repository.config={repos}"
    env["SBT_OPTS"] = opts.strip()
    return env


def classpath(bid):
    """Classpath of the built benchmark, building it first when stale."""
    stamp = os.path.join(TARGET, f"classpath-{bid}.txt")
    if os.path.exists(stamp):
        with open(stamp) as fh:
            return fh.read().strip()
    if shutil.which("sbt") is None:
        fail("sbt not found on PATH")
    # Classes of all builds share one directory: forget earlier builds.
    if os.path.isdir(TARGET):
        for n in os.listdir(TARGET):
            path = os.path.join(TARGET, n)
            if n.startswith("classpath-"):
                os.remove(path)
            elif n.startswith("fingerprints-"):
                shutil.rmtree(path)
    code, out = run_group(
        ["sbt", "--batch", "-Dsbt.log.noformat=true", "compile",
         "export Runtime/fullClasspath"],
        BUILD_TIMEOUT_S, cwd=HERE, env=sbt_env(),
        stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True)
    lines = [l for l in out.splitlines() if l.strip()]
    sys.stderr.write("\n".join(lines[:-1]) + "\n")
    if code != 0 or not lines or lines[-1].startswith("["):
        fail(f"build failed (sbt exit {code})", 3)
    os.makedirs(TARGET, exist_ok=True)
    with open(stamp, "w") as fh:
        fh.write(lines[-1] + "\n")
    return lines[-1]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    a = ap.parse_args()
    # On SIGTERM, unwind so that run_group kills the build or the JVM too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isdir(os.path.join(PROGRAM_SOURCES, "repro")):
        fail(f"program sources not found under {os.path.relpath(PROGRAM_SOURCES)}; "
             "run from a checkout of the repository")
    if shutil.which("java") is None:
        fail("java not found on PATH")
    bid = build_id()
    cp = classpath(bid)
    # Spark's temporary files, private to this run.
    tmp = os.path.join(OUT, f"tmp-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    cmd = (["java", f"-Xms{HEAP}", f"-Xmx{HEAP}", GC, f"-Djava.io.tmpdir={tmp}"] + JVM_MODULE_OPTS +
           ["-cp", cp, "perfbench.Main",
            "--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", a.trace,
            "--out", OUT, "--state", os.path.join(TARGET, f"fingerprints-{bid}")])
    try:
        code, _ = run_group(cmd, RUN_TIMEOUT_S, stdin=subprocess.DEVNULL)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
