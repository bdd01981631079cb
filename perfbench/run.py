#!/usr/bin/env python3
"""Runs one workload of the CaJaDE explain benchmark.

    python3 perfbench/run.py --workload nba-wins-e1 --seed 11 --seconds 1 --trace 0

Run from the root of the repository. The first run builds the program and
the benchmark from source with sbt (offline) into the checkout and caches the
class path in .bench_build/; later runs reuse it until a source file changes.
The JVM prints a few human-readable lines and, as the last line of standard
output, the JSON result. With --trace 1 the spans of the traced calls are
written to .bench_build/trace/<workload>-seed<seed>.jsonl.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")
CLASSPATH = os.path.join(OUT, "classpath.txt")
MAIN = "perfbench.ExplainBench"
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 850


def die(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def source_stamp():
    """Digest of every file the build reads, so a changed source rebuilds."""
    h = hashlib.sha256()
    inputs = [os.path.join(ROOT, p) for p in ("build.sbt", "project", "src", "jobs")] + [HERE]
    for top in inputs:
        if os.path.isfile(top):
            files = [top]
        else:
            files = []
            for d, subdirs, names in os.walk(top):
                subdirs[:] = sorted(s for s in subdirs if s != "target")
                files += [os.path.join(d, n) for n in sorted(names)]
        for f in files:
            if f.endswith((".scala", ".sbt", ".properties")):
                h.update(os.path.relpath(f, ROOT).encode())
                with open(f, "rb") as fh:
                    h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def sbt_env():
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    if "SBT_OPTS" not in env:
        opts = ["-Dsbt.offline=true", "-Xmx2g"]
        repos = os.path.join(os.path.expanduser("~"), ".sbt", "repositories")
        if os.path.isfile(repos):
            opts += ["-Dsbt.override.build.repos=true", f"-Dsbt.repository.config={repos}"]
        env["SBT_OPTS"] = " ".join(opts)
    return env


def build():
    """Compiles the program and the benchmark; returns the runtime class path."""
    stamp = source_stamp()
    if os.path.isfile(CLASSPATH):
        with open(CLASSPATH) as fh:
            cached_stamp, cp = fh.read().split("\n")[:2]
        if cached_stamp == stamp:
            return cp
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "export perfbench/Runtime/fullClasspath"]
    try:
        proc = subprocess.run(cmd, cwd=HERE, env=sbt_env(), stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("build timed out", 1)
    sys.stderr.write(proc.stdout)
    lines = [l for l in proc.stdout.splitlines()
             if not l.startswith("[") and os.pathsep in l and "perfbench" in l]
    if proc.returncode != 0 or not lines:
        die("build failed", 1)
    cp = lines[-1].strip()
    os.makedirs(OUT, exist_ok=True)
    with open(CLASSPATH, "w") as fh:
        fh.write(stamp + "\n" + cp + "\n")
    return cp


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    a = ap.parse_args()
    # A terminated run.py raises SystemExit, so the handlers below stop the
    # build or the JVM it started and wait for it before exiting.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    for needed in ("build.sbt", os.path.join("src", "main", "scala", "repro", "core", "Cajade.scala")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            die(f"{needed} not found next to {os.path.basename(HERE)}/: run from a full checkout "
                "of the repository")

    cp = build()
    tmp = os.path.join(OUT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if "JAVA_HOME" in os.environ else "java"
    # -XX:-UsePerfData: the JVM would otherwise write its perf counters to the
    # system temporary directory, outside the checkout.
    # -XX:+UseParallelGC: G1's concurrent threads compete with Spark's four
    # task threads for the four cores. In interleaved runs of nba-wins-e1 on
    # a 4-core VM, warm calls were about 6% faster with the parallel collector
    # and its runs agreed more closely.
    cmd = [java, "-Xms2g", "-Xmx2g", "-XX:+UseParallelGC", "-XX:-UsePerfData", f"-Djava.io.tmpdir={tmp}",
           f"-Dlog4j2.configurationFile={os.path.join(HERE, 'log4j2.properties')}",
           "-Dfile.encoding=UTF-8", "-cp", cp, MAIN,
           "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds), "--trace", a.trace]
    if a.trace == "1":
        cmd += ["--spans", os.path.join(OUT, "trace", f"{a.workload}-seed{a.seed}.jsonl")]
    proc = subprocess.Popen(cmd, cwd=OUT)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except BaseException:
        proc.kill()
        proc.wait()
        die("benchmark run did not finish in time or was stopped", 1)
    sys.exit(code)


if __name__ == "__main__":
    main()
