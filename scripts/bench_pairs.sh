#!/usr/bin/env bash
# Paired benchmark runs: a parent commit against the working tree.
#
# Builds perfbench from `git archive <parent-ref>` in a temporary directory
# and from the working tree, then runs the BENCHMARK.json command on
# <workload> for each side, once per seed 1..<pairs>, for the file's
# `run_seconds` (20 s) with `--trace 0`. The side that runs first alternates
# from pair to pair. Per end-to-end metric it prints each side's median and
# quartiles, the change of the median, whether that change exceeds the
# parent's quartile spread, and in how many pairs the change was better.
# It flags every seed whose macro_f1 or bias_total differ between the two
# sides, and every run that failed an output check or an operation.
#
# Nothing in the repository is edited: the parent is built in the
# temporary directory (removed on exit), the working tree in perfbench/'s
# usual target directory.
#
# Usage: scripts/bench_pairs.sh <parent-ref> <workload> <pairs>
#   e.g. scripts/bench_pairs.sh HEAD~1 zipf 10
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -ne 3 ]; then
  echo "usage: $0 <parent-ref> <workload> <pairs>" >&2
  exit 2
fi
ref=$1
workload=$2
pairs=$3
case $pairs in
  '' | *[!0-9]* | 0)
    echo "<pairs> must be a positive integer" >&2
    exit 2
    ;;
esac

tree=$(pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/parent" "$tmp/runs"
git archive "$ref" | tar -x -C "$tmp/parent"

# The benchmark's command, one argument per line, and its run length.
mapfile -t command < <(python3 -c '
import json, sys
bench = json.load(open(sys.argv[1]))
print(*bench["command"], sep="\n")
' BENCHMARK.json)
seconds=$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' BENCHMARK.json)

for side in parent change; do
  root=$tree
  [ "$side" = parent ] && root=$tmp/parent
  echo "==> building $side"
  (cd "$root" && cargo build --release --quiet --offline --manifest-path perfbench/Cargo.toml)
done

run() { # side seed
  local root=$tree
  [ "$1" = parent ] && root=$tmp/parent
  echo "==> $1 seed $2"
  # A run that fails a check still prints its result line; keep going.
  (cd "$root" && "${command[@]}" --workload "$workload" --seed "$2" \
    --seconds "$seconds" --trace 0) >"$tmp/runs/$1.$2.txt" || true
}

for seed in $(seq 1 "$pairs"); do
  if [ $((seed % 2)) -eq 1 ]; then
    run parent "$seed"
    run change "$seed"
  else
    run change "$seed"
    run parent "$seed"
  fi
done

python3 - "$tmp/runs" "$pairs" "$workload" <<'EOF'
import json, os, statistics, sys

runs, pairs, workload = sys.argv[1], int(sys.argv[2]), sys.argv[3]
bench = json.load(open("BENCHMARK.json"))

def result(side, seed):
    """The run's last line (its JSON result), or None when it printed none."""
    path = os.path.join(runs, f"{side}.{seed}.txt")
    lines = open(path).read().strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return None

seeds = range(1, pairs + 1)
res = {side: {s: result(side, s) for s in seeds} for side in ("parent", "change")}
for side in res:
    for seed, r in res[side].items():
        if r is None:
            print(f"FLAG {side} seed {seed}: no result line")
        elif not r["correct"] or r["failed"]:
            print(f"FLAG {side} seed {seed}: correct={r['correct']} failed={r['failed']}")

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3

print(f"workload {workload}, {pairs} pairs, side order alternating")
print(f"{'metric':<24} {'parent median [q1, q3]':>36} {'change median [q1, q3]':>36} "
      f"{'change':>8} {'>spread':>7} {'won':>6}")
for metric in bench["end_to_end"]:
    name, lower = metric["name"], metric["better"] == "lower"
    both = [(s, res["parent"][s], res["change"][s]) for s in seeds]
    both = [(s, p["metrics"][name]["value"], c["metrics"][name]["value"])
            for s, p, c in both if p and c and name in p["metrics"] and name in c["metrics"]]
    if not both:
        print(f"{name:<24} (no paired values)")
        continue
    p = [x for _, x, _ in both]
    c = [x for _, _, x in both]
    pq1, pmed, pq3 = quartiles(p)
    cq1, cmed, cq3 = quartiles(c)
    won = sum((y < x) if lower else (y > x) for _, x, y in both)
    delta = (cmed - pmed) / abs(pmed) * 100 if pmed else float("nan")
    beyond = "yes" if abs(cmed - pmed) > (pq3 - pq1) else "no"
    sides = [f"{med:.4f} [{q1:.4f}, {q3:.4f}]" for q1, med, q3 in ((pq1, pmed, pq3), (cq1, cmed, cq3))]
    print(f"{name:<24} {sides[0]:>36} {sides[1]:>36} {delta:>+7.1f}% {beyond:>7} "
          f"{won:>3}/{len(both)}")

for name in ("macro_f1", "bias_total"):
    for s in seeds:
        p, c = res["parent"][s], res["change"][s]
        if p and c and p["metrics"].get(name) != c["metrics"].get(name):
            print(f"FLAG seed {s}: {name} differs: parent "
                  f"{p['metrics'].get(name)} change {c['metrics'].get(name)}")
EOF
