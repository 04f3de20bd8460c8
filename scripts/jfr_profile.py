#!/usr/bin/env python3
"""CPU profile of one untraced skybench run, as the top self and inclusive frames.

    python3 scripts/jfr_profile.py --workload W [--seed 1] [--seconds T] \
        [--keep FILE.jfr]

Runs skybench's `Main` exactly as `skybench/run.py` does (its JVM options are
imported from it, and the program is built the same way), with two options
added: `-XX:StartFlightRecording` (the JDK's `profile` settings) and
`-XX:+DebugNonSafepoints`, so samples are attributed to the line being run
rather than to the nearest safepoint. T defaults to the `run_seconds` of
BENCHMARK.json. The run's own output (its JSON result line) is printed as
usual. Then the `jdk.ExecutionSample` events of the recording are read with
the JDK's `jfr` tool, and three tables of the top 20 frames are printed,
each frame with its share of all samples:

  - self, by method: the frame on top of the stack;
  - self, by line: the same, split by source line;
  - inclusive, by method: anywhere on the stack, once per sample.

Stacks deeper than 64 frames are cut by the JVM, so inclusive shares of the
outermost frames (`main`, thread entry points) read low. Line-level shares
show where time goes, not what a change would save: size a change with A/B
pairs (scripts/ab_pairs.py). Nothing under skybench/ is changed.
"""

import argparse
import collections
import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "skybench"))
import run as skybench_run  # noqa: E402  (skybench/run.py)

STACK_DEPTH = 64
TOP = 20  # rows per table
# A frame line of `jfr print`: "repro.graph.MinHeap.pop()   line: 50   bci: 12"
FRAME = re.compile(r"^\s*(?P<method>[^\s(]+)\(.*?\)\s+line:\s*(?P<line>-?\d+)")


def samples(jfr_file):
    """Yields each execution sample's stack as (method, line) pairs, top first."""
    cmd = ["jfr", "print", "--events", "jdk.ExecutionSample",
           "--stack-depth", str(STACK_DEPTH), str(jfr_file)]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as p:
        stack = None
        for ln in p.stdout:
            s = ln.strip()
            if s.startswith("stackTrace = ["):
                stack = []
            elif stack is not None:
                if s == "]":
                    yield stack
                    stack = None
                else:
                    m = FRAME.match(ln)
                    if m:
                        stack.append((m["method"], int(m["line"])))
    if p.returncode != 0:
        raise SystemExit(f"jfr print exited {p.returncode}")


def table(title, counts, total):
    print(f"\n{title} ({total} samples)")
    for frame, n in counts.most_common(TOP):
        print(f"  {100.0 * n / total:5.1f}%  {n:6d}  {frame}")


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, help="skybench workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="run length (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--keep", help="also keep the recording at this path")
    a = ap.parse_args(argv)
    seconds = a.seconds or json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    tmp = Path(tempfile.mkdtemp(prefix="jfr_profile_"))
    try:
        rec = tmp / "run.jfr"
        skybench_run.JAVA_OPTS = skybench_run.JAVA_OPTS + [
            f"-XX:StartFlightRecording=filename={rec},settings=profile,dumponexit=true",
            "-XX:+UnlockDiagnosticVMOptions", "-XX:+DebugNonSafepoints",
        ]
        code = skybench_run.main(["--workload", a.workload, "--seed", str(a.seed),
                                  "--seconds", str(seconds), "--trace", "0"])
        if code != 0 or not rec.is_file():
            print(f"jfr_profile: the run failed (exit {code})", file=sys.stderr)
            return code or 1
        if a.keep:
            shutil.copyfile(rec, a.keep)
        self_m, self_l, incl = (collections.Counter() for _ in range(3))
        total = 0
        for stack in samples(rec):
            if not stack:
                continue
            total += 1
            top_method, top_line = stack[0]
            self_m[top_method] += 1
            self_l[f"{top_method}:{top_line}"] += 1
            incl.update({m for m, _ in stack})
        if total == 0:
            print("jfr_profile: the recording holds no execution samples", file=sys.stderr)
            return 1
        print(f"\n# {a.workload}, seed {a.seed}, {seconds} s, untraced")
        table("self, by method", self_m, total)
        table("self, by line", self_l, total)
        table("inclusive, by method", incl, total)
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
