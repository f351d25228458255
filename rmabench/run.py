#!/usr/bin/env python3
"""Build and run the RMA query benchmark.

Run from the root of a checkout of the repository:

    python3 rmabench/run.py --workload qqr_tall --seed 1 --seconds 10 --trace 0
    python3 rmabench/run.py --self-test --workload qqr_tall --seed 1

The first run builds the repository's root project and the benchmark from
source with sbt (rmabench/build.sbt) and caches the runtime classpath under
.bench_build/. That first run also records, when its JVM exits, a
class-data-sharing archive of the classes it loaded; later runs start from
it until a source or build file changes. The archive only cuts JVM and
Spark start-up, which no metric includes. Each run starts two JVMs in turn:
a short probe of the race in LAPACK's first use (rmabench.LapackRace), and
the benchmark itself (rmabench.Main), which prints the result as the last
line of standard output. See rmabench/README.md.
"""

import hashlib
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 150
PROBE_TIMEOUT_S = 20
HEAP = "3g"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
OUT = os.path.join(ROOT, ".bench_build")
CLASSPATH = os.path.join(OUT, "classpath.txt")
STAMP = os.path.join(OUT, "classpath.stamp")
ARCHIVE = os.path.join(OUT, "classes.jsa")


def fail(msg, code=2):
    print(f"rmabench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_files():
    """Every file the build reads: both build definitions and all sources."""
    roots = [os.path.join(ROOT, p) for p in ("build.sbt", "project", "src/main")]
    roots += [os.path.join(HERE, p) for p in ("build.sbt", "project", "src")]
    for r in roots:
        if os.path.isfile(r):
            yield r
            continue
        for d, dirs, files in os.walk(r):
            dirs[:] = sorted(x for x in dirs if x != "target")
            for f in sorted(files):
                yield os.path.join(d, f)


def stamp():
    h = hashlib.sha256()
    for f in source_files():
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def classpath():
    """The runtime classpath, rebuilt with sbt when the sources changed."""
    want = stamp()
    if os.path.exists(STAMP) and os.path.exists(CLASSPATH):
        with open(STAMP) as fh:
            if fh.read().strip() == want:
                with open(CLASSPATH) as cp:
                    return cp.read().strip()
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    # Resolve from the toolchain's local repositories, never the network.
    repos = os.path.expanduser("~/.sbt/repositories")
    if "SBT_OPTS" not in env and os.path.exists(repos):
        env["SBT_OPTS"] = ("-Dsbt.override.build.repos=true -Dsbt.offline=true "
                           f"-Dsbt.repository.config={repos}")
    print("rmabench: building with sbt", file=sys.stderr)
    try:
        proc = subprocess.run(
            ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.forcestart=false",
             "export rmabench/Runtime/fullClasspathAsJars"],
            cwd=HERE, env=env, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
            timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("sbt build timed out", 1)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines or "rmabench" not in lines[-1]:
        sys.stderr.write(proc.stdout[-4000:])
        fail(f"sbt build failed (exit {proc.returncode})", 1)
    cp = lines[-1]
    os.makedirs(OUT, exist_ok=True)
    with open(CLASSPATH, "w") as fh:
        fh.write(cp)
    if os.path.exists(ARCHIVE):
        os.remove(ARCHIVE)
    with open(STAMP, "w") as fh:
        fh.write(want)
    return cp


def java(cp, jvm_flags, main, args, timeout, stdout=None):
    """Run `main` in its own JVM; returns the finished process."""
    tmp = os.path.join(OUT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = ["java", f"-Xms{HEAP}", f"-Xmx{HEAP}", *jvm_flags,
           "-Xlog:disable", "-Xlog:all=error:stderr",
           f"-Djava.io.tmpdir={tmp}",
           f"-Dlog4j2.configurationFile={os.path.join(HERE, 'log4j2.properties')}",
           "-cp", cp, main, *args]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=stdout, text=True)
    try:
        proc.out, _ = proc.communicate(timeout=timeout)
        return proc
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"{main} did not finish within {timeout} s", 1)


def seed_of(args):
    return args[args.index("--seed") + 1] if "--seed" in args[:-1] else "0"


def main():
    # The benchmark measures this repository's program; without its sources
    # and build file there is nothing to build.
    for need in ("build.sbt", "src/main/scala/repro/core/RmaSql.scala"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(f"run from the repository root: {need} not found")
    args = sys.argv[1:]
    if not args:
        fail("usage: run.py [--self-test] --workload <name> --seed <n> [--seconds <s> --trace <0|1>]")
    cp = classpath()
    # Class-data sharing needs jars, not class directories, on the classpath,
    # hence fullClasspathAsJars.
    have_archive = os.path.exists(ARCHIVE)
    # The race in LAPACK's first use, probed in a JVM of its own: the
    # measured JVM initialises LAPACK on one thread, so it would not show
    # there. The probe reports a hang instead of hanging, and fails only if
    # the program cannot be run at all.
    probe = java(cp, [f"-XX:SharedArchiveFile={ARCHIVE}"] if have_archive else [],
                 "rmabench.LapackRace", ["--seed", seed_of(args)], PROBE_TIMEOUT_S,
                 stdout=subprocess.PIPE)
    if probe.returncode != 0:
        fail(f"LAPACK race probe failed (exit {probe.returncode})", 1)
    print(f"# lapack_race_probe {probe.out.strip()}", flush=True)
    if have_archive:
        share = f"-XX:SharedArchiveFile={ARCHIVE}"
    else:
        share = f"-XX:ArchiveClassesAtExit={ARCHIVE}"
    sys.exit(java(cp, [share], "rmabench.Main", [*args, "--out", OUT], RUN_TIMEOUT_S).returncode)


if __name__ == "__main__":
    main()
