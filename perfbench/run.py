#!/usr/bin/env python3
"""Walk-engine benchmark: one workload, one JVM, one JSON result line.

    python3 perfbench/run.py --workload rwnv-powerlaw --seed 1 --seconds 10 --trace 0

Builds the program from source (see build.py), then runs `perfbench.Main`
with an explicit heap and Spark in local mode. The JVM prints the result as
its last stdout line; this script passes it through, and exits non-zero when
the build fails, the JVM fails or overruns, or the replay check fails.
See README.md for the metrics and the workloads.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

sys.dont_write_bytecode = True  # leave nothing behind in the checkout
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import build  # noqa: E402

WORKLOADS = ("rwnv-powerlaw", "prnv-powerlaw", "deepwalk-web")
HEAP = "2g"
# A run must end within 180 s once the program is built.
JVM_TIMEOUT_S = 165
# Spark's Java 17 module options (spark-submit adds these itself).
OPENS = ["java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
         "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
         "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
         "sun.util.calendar"]


def jvm_options(scratch: str) -> list:
    return ([f"-Xms{HEAP}", f"-Xmx{HEAP}", "-XX:+UseG1GC",
             f"-Djava.io.tmpdir={scratch}",
             f"-Dspark.local.dir={scratch}",
             f"-Dspark.sql.warehouse.dir={os.path.join(scratch, 'warehouse')}",
             "-Dspark.driver.host=127.0.0.1",
             "-Dspark.driver.bindAddress=127.0.0.1",
             "-Djdk.reflect.useDirectMethodHandle=false",
             f"-Dlog4j2.configurationFile={os.path.join(build.HERE, 'log4j2.properties')}"]
            + [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in OPENS])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--tiny", action="store_true",
                    help="small graphs and walk sets, for the smoke tests")
    ap.add_argument("--corrupt-visits", action="store_true",
                    help="corrupt one engine visit count; the check must then fail")
    a = ap.parse_args()

    try:
        classpath = build.ensure_built()
        java = build.java()
    except build.BuildError as e:
        print(f"perfbench: build: {e}", file=sys.stderr)
        return 2

    scratch = os.path.join(build.OUT, "tmp", f"{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    cmd = ([java] + jvm_options(scratch) + ["-cp", classpath, "perfbench.Main",
           "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", a.trace]
           + (["--tiny"] if a.tiny else []) + (["--corrupt-visits"] if a.corrupt_visits else []))
    proc = subprocess.Popen(cmd, cwd=build.ROOT, stdout=subprocess.PIPE, text=True)

    def stop(signum, _frame):
        proc.kill()
        proc.wait()
        shutil.rmtree(scratch, ignore_errors=True)
        sys.exit(128 + signum)
    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        out, _ = proc.communicate(timeout=JVM_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: {a.workload} seed {a.seed} overran its deadline", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    lines = out.rstrip("\n").splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        if lines:
            print(lines[-1])
        print(f"perfbench: {a.workload} seed {a.seed}: no result line "
              f"(JVM exit code {proc.returncode})", file=sys.stderr)
        return proc.returncode or 4
    print(lines[-1])
    if proc.returncode != 0 or not result["correct"]:
        return proc.returncode or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
