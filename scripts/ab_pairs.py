#!/usr/bin/env python3
"""A/B pairs of skybench runs: a parent revision against this checkout.

    python3 scripts/ab_pairs.py --parent <rev> --workload long \
        [--workload batch] [--pairs 10] [--seed0 701] \
        [--claim batch:heap_mb] --out BENCH_<n>.json

The parent side is `git archive <rev>` unpacked into a temporary directory;
the change side is this checkout as it is on disk (uncommitted edits
included). Each side builds into its own `.bench_build` (`CARGO_TARGET_DIR`
is cleared for the child runs). Pair i runs both sides on seed
`seed0 + i` (`--seed0`, default 701; a claim is rechecked on fresh seeds by
moving it), parent first on even i and change first on odd i, each as

    python3 skybench/run.py --workload W --seed S --seconds T --trace 0

with T the `run_seconds` of BENCHMARK.json, the same on both sides,
and keeps the run's final JSON line. The output file holds, per workload,
the per-pair values, the medians, the parent's interquartile spread and, for
every end-to-end metric of BENCHMARK.json, a verdict against its bound:

  - "unresolved": the parent's spread (interquartile range over median) is
    wider than the bound, so a shift within the bound cannot be told apart,
    unless every change run reads better than every parent run;
  - "worse": the change's median is worse than the parent's by more than
    the bound;
  - "within bound": otherwise.

Each workload also gets two traced pairs, both sides on seed 1 with
`--trace 1`: one parent first, kept under `traced`, and one change first,
kept under `traced_swapped`. Each holds the per-layer metrics of each side
plus its `answers.digest` and `counters` notes, so the digests and search
counters of the two sides can be compared. The summary prints whether the
notes of all four traced runs match, and every traced per-layer metric
whose value differs between the sides in either pair, with both pairs'
values (parent -> change) and whether the two pairs moved it the `same
direction` or are `mixed`: a shift that one pair shows and the swapped pair
does not is run-to-run spread, not the change.

The output file also holds, under `lines`, each side's line count of the
program sources under `src/main/scala` and `jobs` and of the tests under
`src/test/scala` (newlines in their `.scala` files), and the summary prints
them (parent -> change), so code moved from `src/main` into the tests shows.

Each `--claim WORKLOAD:METRIC` (repeatable) adds a gain verdict for that
end-to-end metric, in the direction BENCHMARK.json gives it:

  - "gain": the change is better in at least 9 of every 10 pairs run (ties
    and errored pairs count for neither side), and its median is better than
    the parent's by more than the parent's interquartile range;
  - "not met": otherwise.

BENCHMARK.json is only read.
"""

import argparse
import datetime
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True).stdout


def unpack(rev, dest):
    with tarfile.open(fileobj=io.BytesIO(git("archive", rev))) as tar:
        tar.extractall(dest, filter="data")


def child_env():
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)
    return env


TRACED_SEED = 1
# The traced pairs of each workload: output key -> the order its sides run in.
TRACED_PAIRS = {"traced": ("parent", "change"), "traced_swapped": ("change", "parent")}
TRACED_NOTES = ("# answers.digest", "# counters")
LINE_DIRS = ("src/main/scala", "jobs", "src/test/scala")


def line_counts(side_root):
    """Lines of the `.scala` files under each of LINE_DIRS, as `wc -l` counts."""
    return {d: sum(f.read_bytes().count(b"\n") for f in (side_root / d).rglob("*.scala"))
            for d in LINE_DIRS}


def run_once(side_root, workload, seed, seconds, trace=0):
    """One skybench run: its final JSON line, plus the digest and counter
    notes when traced; or an error record."""
    cmd = [sys.executable, "skybench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=side_root, env=child_env(),
                       capture_output=True, text=True)
    lines = [ln for ln in p.stdout.splitlines() if ln.strip()]
    if p.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
        else:
            if trace:
                result["notes"] = [ln[2:] for ln in lines if ln.startswith(TRACED_NOTES)]
            return result
    return {"error": f"exit {p.returncode}", "stderr_tail": p.stderr[-2000:]}


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def direction(moves):
    """`same direction` if every (old, new) pair moved its metric the same
    way (up, down or not at all), else `mixed`."""
    def sign(old, new):
        if not all(isinstance(x, (int, float)) for x in (old, new)):
            return None
        return (new > old) - (new < old)
    signs = {sign(old, new) for old, new in moves}
    return "same direction" if len(signs) == 1 and None not in signs else "mixed"


def summarize(pairs, end_to_end):
    out = {}
    ok = [p for p in pairs if "metrics" in p["parent"] and "metrics" in p["change"]]
    for m in end_to_end:
        name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
        par = [p["parent"]["metrics"][name]["value"] for p in ok]
        chg = [p["change"]["metrics"][name]["value"] for p in ok]
        if not par:
            out[name] = {"verdict": "no data"}
            continue
        pm, cm = statistics.median(par), statistics.median(chg)
        q1, q3 = quartiles(par)
        spread = (q3 - q1) / pm if pm else float("inf")
        worse = ((cm - pm) if lower else (pm - cm)) / pm if pm else 0.0
        better_pairs = sum((c < p) if lower else (c > p) for p, c in zip(par, chg))
        all_better = (max(chg) < min(par)) if lower else (min(chg) > max(par))
        if spread > bound and not all_better:
            verdict = "unresolved"
        elif worse > bound:
            verdict = "worse"
        else:
            verdict = "within bound"
        out[name] = {
            "unit": m["unit"], "better": m["better"], "bound": bound,
            "parent": par, "change": chg,
            "parent_median": pm, "change_median": cm,
            "parent_q1": q1, "parent_q3": q3, "parent_iqr": q3 - q1,
            "parent_spread": spread, "worse_frac": worse,
            "change_better_pairs": better_pairs, "verdict": verdict,
        }
    failed = {side: sum(p[side].get("failed", 0) for p in pairs) for side in ("parent", "change")}
    attempted = {side: sum(p[side].get("attempted", 0) for p in pairs) for side in ("parent", "change")}
    out["failed_frac"] = {
        side: (failed[side] / attempted[side] if attempted[side] else None)
        for side in ("parent", "change")}
    out["errored_runs"] = len(pairs) - len(ok)
    return out


def claim(s, pairs_run):
    """The gain verdict for one metric's summary over all pairs run."""
    out = {"better": s.get("better"), "pairs": pairs_run,
           "wins": s.get("change_better_pairs", 0)}
    if "parent_median" not in s:
        return {**out, "verdict": "not met"}
    pm, cm = s["parent_median"], s["change_median"]
    gain = (pm - cm) if s["better"] == "lower" else (cm - pm)
    met = 10 * out["wins"] >= 9 * pairs_run and gain > s["parent_iqr"]
    return {**out, "parent_median": pm, "change_median": cm, "median_gain": gain,
            "parent_iqr": s["parent_iqr"], "verdict": "gain" if met else "not met"}


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git revision to compare against")
    ap.add_argument("--workload", action="append", required=True,
                    help="skybench workload; repeat for several")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=701, help="seed of pair 0")
    ap.add_argument("--claim", action="append", default=[], metavar="WORKLOAD:METRIC",
                    help="metric claimed to improve on a workload; repeat for several")
    ap.add_argument("--out", required=True, help="output JSON file")
    a = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    claims = [c.partition(":")[::2] for c in a.claim]
    for w, m in claims:
        if w not in a.workload or m not in {e["name"] for e in bench["end_to_end"]}:
            ap.error(f"--claim {w}:{m}: want WORKLOAD:METRIC with a --workload and "
                     "an end-to-end metric of BENCHMARK.json")
    parent_sha = git("rev-parse", a.parent).decode().strip()
    head_sha = git("rev-parse", "HEAD").decode().strip()
    dirty = bool(git("status", "--porcelain", "--untracked-files=no").strip())
    result = {
        "command": ["python3", "scripts/ab_pairs.py"] + argv,
        "parent": parent_sha,
        "change": head_sha + (" + uncommitted edits" if dirty else ""),
        "host": {"cpus": os.cpu_count(), "platform": platform.platform(),
                 "python": platform.python_version()},
        "started": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "run": f"skybench/run.py --seconds {seconds} --trace 0",
        "traced_run": f"skybench/run.py --seed {TRACED_SEED} --seconds {seconds} --trace 1",
        "workloads": {},
    }
    tmp = Path(tempfile.mkdtemp(prefix="ab_pairs_"))
    try:
        unpack(parent_sha, tmp)
        sides = {"parent": tmp, "change": ROOT}
        result["lines"] = {side: line_counts(root) for side, root in sides.items()}
        for side, root in sides.items():  # build outside the measured runs
            subprocess.run([sys.executable, "skybench/build.py"], cwd=root,
                           env=child_env(), check=True, capture_output=True)
        for w in a.workload:
            pairs = []
            for i in range(a.pairs):
                seed = a.seed0 + i
                order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
                pair = {"seed": seed, "order": order}
                for side in order:
                    pair[side] = run_once(sides[side], w, seed, seconds)
                    print(f"ab_pairs: {w} seed {seed} {side}: "
                          f"{json.dumps(pair[side].get('metrics', pair[side]))}",
                          file=sys.stderr, flush=True)
                pairs.append(pair)
            summary = summarize(pairs, bench["end_to_end"])
            result["workloads"][w] = {"pairs": pairs, "summary": summary}
            for key, order in TRACED_PAIRS.items():
                traced = {"seed": TRACED_SEED, "order": list(order)}
                for side in order:
                    traced[side] = run_once(sides[side], w, TRACED_SEED, seconds, trace=1)
                    print(f"ab_pairs: {w} {key} {side}: "
                          f"{json.dumps(traced[side].get('notes', traced[side]))}",
                          file=sys.stderr, flush=True)
                result["workloads"][w][key] = traced
            for cw, m in claims:
                if cw == w:
                    result["workloads"][w].setdefault("claims", {})[m] = \
                        claim(summary[m], len(pairs))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    result["finished"] = datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")
    Path(a.out).write_text(json.dumps(result, indent=1) + "\n")
    for d in LINE_DIRS:
        print(f"lines {d}: {result['lines']['parent'][d]} -> {result['lines']['change'][d]}")
    for w, r in result["workloads"].items():
        for name, s in r["summary"].items():
            if isinstance(s, dict) and "verdict" in s:
                print(f"{w} {name}: {s.get('parent_median')} -> {s.get('change_median')} "
                      f"({s['verdict']})")
        runs = [r[key][side] for key in TRACED_PAIRS for side in ("parent", "change")]
        notes = [run.get("notes") for run in runs]
        print(f"{w} traced seed {TRACED_SEED}: digest and counter notes of all "
              f"{len(runs)} runs {'match' if all(n == notes[0] for n in notes) else 'differ'}")
        layers = {key: {side: {k: v.get("value") for k, v in r[key][side].get("metrics", {}).items()}
                        for side in ("parent", "change")}
                  for key in TRACED_PAIRS}
        names = set().union(*(ls.keys() for pair in layers.values() for ls in pair.values()))
        for name in sorted(names):
            moves = [(layers[key]["parent"].get(name), layers[key]["change"].get(name))
                     for key in TRACED_PAIRS]
            if any(old != new for old, new in moves):
                print(f"{w} traced {name}: "
                      + "; ".join(f"{old} -> {new}" for old, new in moves)
                      + f" ({direction(moves)})")
        for name, c in r.get("claims", {}).items():
            print(f"{w} {name} claim: better in {c['wins']}/{c['pairs']} pairs, "
                  f"median gain {c.get('median_gain')} vs parent IQR "
                  f"{c.get('parent_iqr')} ({c['verdict']})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
