#!/usr/bin/env python3
"""Build file of the SkySR benchmark.

Compiles the program's sources (src/main/scala) together with the
benchmark's (skybench/src) with the Scala compiler that ships in the Spark
distribution, into <build dir>/skybench/classes. The build dir is
$CARGO_TARGET_DIR when set, else .bench_build, under the checkout root. A
build is reused while a hash of every source file is unchanged.

    python3 skybench/build.py      # build, then print the classes directory
"""

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PROGRAM_SRC = ROOT / "src" / "main" / "scala"
BENCH_SRC = BENCH / "src"
COMPILE_TIMEOUT_S = 800


class BuildError(Exception):
    pass


def build_dir() -> Path:
    d = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return (d if d.is_absolute() else ROOT / d) / "skybench"


def spark_jars() -> Path:
    """The jars directory of the Spark distribution: $SPARK_HOME, else the
    installation that `spark-submit` on the PATH belongs to."""
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = str(Path(submit).resolve().parent.parent)
    if not home or not (Path(home) / "jars").is_dir():
        raise BuildError("no Spark distribution found (set SPARK_HOME)")
    jars = Path(home) / "jars"
    if not list(jars.glob("scala-compiler-*.jar")):
        raise BuildError(f"no Scala compiler among the jars of {home}")
    return jars


def sources() -> list:
    if not PROGRAM_SRC.is_dir():
        raise BuildError(f"program sources missing: {PROGRAM_SRC.relative_to(ROOT)}")
    files = sorted(PROGRAM_SRC.rglob("*.scala")) + sorted(BENCH_SRC.rglob("*.scala"))
    if not any(PROGRAM_SRC.rglob("*.scala")):
        raise BuildError("no program sources to build")
    return files


def source_hash(files: list, jars: Path) -> str:
    h = hashlib.sha256(str(jars).encode())
    for f in files:
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def build() -> Path:
    """Compiles if needed; returns the classes directory."""
    jars = spark_jars()
    files = sources()
    out = build_dir()
    classes = out / "classes"
    stamp = out / "classes.sha256"
    digest = source_hash(files, jars)
    if classes.is_dir() and stamp.is_file() and stamp.read_text() == digest:
        return classes
    out.mkdir(parents=True, exist_ok=True)
    tmp = out / "classes.tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir()
    argfile = out / "sources.txt"
    argfile.write_text("\n".join(str(f) for f in files) + "\n")
    cp = str(jars / "*")
    cmd = ["java", "-Xss8m", "-Xmx1g", "-cp", cp, "scala.tools.nsc.Main",
           "-nowarn", "-d", str(tmp), "-classpath", cp, "@" + str(argfile)]
    print(f"skybench: compiling {len(files)} sources", file=sys.stderr)
    try:
        r = subprocess.run(cmd, stdout=sys.stderr, timeout=COMPILE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BuildError("compilation timed out")
    if r.returncode != 0:
        raise BuildError(f"compilation failed ({r.returncode})")
    shutil.rmtree(classes, ignore_errors=True)
    tmp.rename(classes)
    stamp.write_text(digest)
    return classes


if __name__ == "__main__":
    try:
        print(build())
    except BuildError as e:
        print(f"skybench: {e}", file=sys.stderr)
        sys.exit(2)
