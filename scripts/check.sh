#!/usr/bin/env bash
# The four gates a change must pass, run in order; the first failure stops
# the script with its exit status:
#
#   1. the program and its tests compile (`Test/compile`);
#   2. the bench suites compile (`bench/Test/compile`);
#   3. the tier-1 suite passes (`testOnly *`), with sbt offline and Spark
#      local on every core, its driver heap half the machine's memory
#      (clamped to 2..8 GB);
#   4. the benchmark's self-test passes (`python3 skybench/run.py --self-test`).
#
# Usage, from anywhere in the checkout:
#
#     scripts/check.sh
set -euo pipefail

if [ "$#" -ne 0 ]; then
  echo "usage: scripts/check.sh (takes no arguments)" >&2
  exit 2
fi
cd "$(dirname "$0")/.."

export COURSIER_MODE=offline
export SBT_OPTS="${SBT_OPTS:--Dsbt.override.build.repos=true -Dsbt.repository.config=$HOME/.sbt/repositories -Dsbt.offline=true -Xmx4g}"
sbt_batch() { timeout -k 10 2670 sbt --batch -Dsbt.log.noformat=true "$@"; }

echo "== 1/4 Test/compile"
sbt_batch Test/compile

echo "== 2/4 bench/Test/compile"
sbt_batch bench/Test/compile

echo "== 3/4 tier-1 tests"
SPARK_GRAFT_CPUS="$(env -u OMP_NUM_THREADS nproc)"
SPARK_DRIVER_MEM="$(awk '/^MemTotal:/ {g = int($2 / 2097152)} END {print (g < 2 ? 2 : g > 8 ? 8 : g) "g"}' 2>/dev/null </proc/meminfo || echo 2g)"
export SPARK_GRAFT_CPUS SPARK_DRIVER_MEM SPARK_LOCAL_DIRS=/tmp/spark-local
sbt_batch "testOnly *"

echo "== 4/4 skybench self-test"
python3 skybench/run.py --self-test

echo "== all four gates passed"
