#!/usr/bin/env bash
# A/B-compares the benchmark at REF (side a) against HEAD (side b) on this
# machine:
#
#   bench/ab.sh REF [PAIRS]
#
# Both sides are exported with `git archive` into a temporary directory and
# built there; REF's sources get HEAD's bench/ so the benchmark code and
# settings are identical. Each workload then runs PAIRS (default 10) pairs
# of untraced runs, alternating which side runs first, pair i at seed i, for
# BENCHMARK.json's run_seconds each. For every (workload, metric) the
# script prints each side's median and quartiles, the fraction of pairs b
# wins, and a verdict:
#
#   gain         b wins at least 9/10 of pairs and the medians differ by more
#                than a's own quartile spread
#   regression   b's median is worse than a's by more than the metric's bound
#   unresolved   a's quartile spread is wider than the bound, so "within
#                bound" cannot be told from noise
#   within bound otherwise
#
# HEAD means the last commit: commit a change before comparing it. Every
# run's result line is kept in .bench_build/ab-runs.jsonl.
set -euo pipefail
ref=${1:?usage: bench/ab.sh REF [PAIRS]}
pairs=${2:-10}
if ! ((pairs >= 2)); then
	echo "ab: PAIRS must be at least 2 to give quartiles" >&2
	exit 2
fi
root=$(git rev-parse --show-toplevel)
cd "$root"
refsha=$(git rev-parse --verify "$ref^{commit}")
headsha=$(git rev-parse HEAD)

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
for side in a b; do mkdir -p "$tmp/$side"; done
git archive "$refsha" | tar -x -C "$tmp/a"
git archive "$headsha" | tar -x -C "$tmp/b"
rm -rf "$tmp/a/bench"
cp -R "$tmp/b/bench" "$tmp/a/bench"
for side in a b; do
	(cd "$tmp/$side/bench" && go build -o "$tmp/wnperf-$side" ./wnperf)
done

seconds=$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' BENCHMARK.json)
workloads=$("$tmp/wnperf-b" -workload list | awk '{print $1}')
mkdir -p .bench_build
runs="$root/.bench_build/ab-runs.jsonl"
: >"$runs"
for wl in $workloads; do
	for ((i = 1; i <= pairs; i++)); do
		order="a b"
		if ((i % 2 == 0)); then order="b a"; fi
		for side in $order; do
			# A failed output check still prints a result (correct: false).
			line=$("$tmp/wnperf-$side" -workload "$wl" -seed "$i" -seconds "$seconds" -trace 0 | tail -n 1) || true
			if [[ $line != "{"* ]]; then
				echo "ab: side $side, $wl pair $i printed no result" >&2
				exit 1
			fi
			printf '{"side":"%s","workload":"%s","pair":%d,"result":%s}\n' "$side" "$wl" "$i" "$line" >>"$runs"
		done
		echo "ab: $wl pair $i/$pairs done" >&2
	done
done

echo "a = $ref ($refsha), b = HEAD ($headsha), $pairs pairs of ${seconds}s runs"
python3 - "$runs" BENCHMARK.json <<'EOF'
import json, statistics, sys

runs = [json.loads(l) for l in open(sys.argv[1])]
bench = json.load(open(sys.argv[2]))
print(f"{'workload':20} {'metric':20} {'a median':>12} {'a q1..q3':>25} {'b median':>12} {'b q1..q3':>25} {'b wins':>7}  verdict")
for wl in dict.fromkeys(r["workload"] for r in runs):
    side = {s: {r["pair"]: r["result"] for r in runs if r["workload"] == wl and r["side"] == s} for s in "ab"}
    for s in "ab":
        bad = [p for p, r in side[s].items() if not r["correct"]]
        if bad:
            print(f"{wl}: side {s} failed its output check in pairs {bad}")
    for m in bench["end_to_end"]:
        name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
        a = [side["a"][p]["metrics"][name]["value"] for p in sorted(side["a"])]
        b = [side["b"][p]["metrics"][name]["value"] for p in sorted(side["b"])]
        qa, qb = statistics.quantiles(a, n=4), statistics.quantiles(b, n=4)
        ma, mb = statistics.median(a), statistics.median(b)
        better = (lambda x, y: x < y) if lower else (lambda x, y: x > y)
        wins = sum(better(y, x) for x, y in zip(a, b)) / len(a)
        worse = (mb - ma) / ma if lower else (ma - mb) / ma
        if wins >= 0.9 and better(mb, ma) and abs(mb - ma) > qa[2] - qa[0]:
            verdict = "gain"
        elif worse > bound:
            verdict = "regression"
        elif (qa[2] - qa[0]) / ma > bound and not all(better(y, x) for x in a for y in b):
            verdict = "unresolved"
        else:
            verdict = "within bound"
        print(f"{wl:20} {name:20} {ma:12.6g} {qa[0]:12.6g}..{qa[2]:<12.6g} {mb:12.6g} {qb[0]:12.6g}..{qb[2]:<12.6g} {wins:7.0%}  {verdict}")
EOF
