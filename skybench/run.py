#!/usr/bin/env python3
"""Runs one workload of the SkySR benchmark.

    python3 skybench/run.py --workload <long|batch> \
        --seed <n> --seconds <s> --trace <0|1>
    python3 skybench/run.py --self-test

Run from the root of a checkout. The first run builds the program and the
benchmark from source (see build.py); later runs reuse the build. The last
line of standard output is the JSON result; lines before it that start with
`# ` are notes. Exits non-zero, without a result, if the build or the run
fails.
"""

import os
import subprocess
import sys

import build

RUN_TIMEOUT_S = 175

JAVA_OPTS = [
    "-Xms1g", "-Xmx2g",
    "-XX:+IgnoreUnrecognizedVMOptions",
    # module access Spark needs on JDK 17
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


def main(argv):
    self_test = argv == ["--self-test"]
    try:
        classes = build.build()
        jars = build.spark_jars()
    except build.BuildError as e:
        print(f"skybench: {e}", file=sys.stderr)
        return 2
    work = build.build_dir() / "work"
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    main_class = "skybench.SelfTest" if self_test else "skybench.Main"
    cmd = (["java"] + JAVA_OPTS + [
        f"-Djava.io.tmpdir={tmp}",
        f"-Dlog4j2.configurationFile={build.BENCH / 'log4j2.properties'}",
        f"-Dskybench.work={work}",
        "-cp", os.pathsep.join([str(classes), str(jars / "*")]),
        main_class] + ([] if self_test else argv))
    try:
        return subprocess.run(cmd, cwd=build.ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"skybench: run exceeded {RUN_TIMEOUT_S} s and was stopped", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
