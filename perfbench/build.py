"""Build file of the benchmark: compiles the program and the benchmark.

The program's sources (`src/main/scala`) and the benchmark's own
(`perfbench/src`) are compiled together with the Scala compiler that ships
in Spark's `jars/` directory, which is also the runtime classpath. Output
goes to `.bench_build/perfbench/` and is reused while no source changes.

Run directly to build: `python3 perfbench/build.py`.
"""

import glob
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build", "perfbench")
COMPILE_TIMEOUT_S = 600


class BuildError(Exception):
    pass


def java() -> str:
    home = os.environ.get("JAVA_HOME")
    exe = os.path.join(home, "bin", "java") if home else shutil.which("java")
    if not exe or not os.path.exists(exe):
        raise BuildError("no java found (set JAVA_HOME or put java on PATH)")
    return exe


def spark_jars() -> str:
    """Spark's jar directory, from SPARK_HOME or from spark-submit on PATH."""
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = os.path.dirname(os.path.dirname(os.path.realpath(submit)))
    jars = os.path.join(home, "jars") if home else ""
    if not glob.glob(os.path.join(jars, "scala-compiler-*.jar")):
        raise BuildError("no Spark distribution with a Scala compiler found (set SPARK_HOME)")
    return jars


def sources() -> list:
    program = os.path.join(ROOT, "src", "main", "scala")
    found = sorted(glob.glob(os.path.join(program, "**", "*.scala"), recursive=True))
    if not found:
        raise BuildError(f"no program sources under {os.path.relpath(program)}")
    return found + sorted(glob.glob(os.path.join(HERE, "src", "*.scala")))


def ensure_built() -> str:
    """Compile if any source changed; return the runtime classpath."""
    jars = spark_jars()
    srcs = sources()
    digest = hashlib.sha256()
    for path in srcs:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    stamp = digest.hexdigest()
    classes = os.path.join(OUT, "classes")
    stamp_file = os.path.join(OUT, "stamp")
    classpath = os.pathsep.join([classes, os.path.join(jars, "*")])
    if os.path.exists(stamp_file) and open(stamp_file).read() == stamp:
        return classpath

    tmp = classes + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    cmd = [java(), "-Xmx1g", "-Xss8m", "-cp", os.path.join(jars, "*"),
           "scala.tools.nsc.Main", "-usejavacp", "-nowarn", "-d", tmp] + srcs
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=COMPILE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BuildError(f"compilation took longer than {COMPILE_TIMEOUT_S} s")
    if done.returncode != 0:
        raise BuildError(f"compilation failed with exit code {done.returncode}")
    shutil.rmtree(classes, ignore_errors=True)
    os.rename(tmp, classes)
    with open(stamp_file, "w") as f:
        f.write(stamp)
    return classpath


if __name__ == "__main__":
    try:
        print(ensure_built())
    except BuildError as e:
        print(f"build: {e}", file=sys.stderr)
        sys.exit(2)
