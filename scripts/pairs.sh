#!/usr/bin/env bash
# Alternating parent/change pairs of benchmark runs, judged by the rule in
# benchmark/README.md ("The rule for a change that claims a gain").
#
#   scripts/pairs.sh --parent <rev> [--claim W:metric] [--still W2,W3]
#                    [--pairs N] [--work DIR]
#
# The change is this checkout's working tree; the parent is <rev>,
# exported with `git archive` into DIR/parent (no worktree is registered,
# so an interrupted run leaves nothing behind in the repository). Each
# side's benchmark is built once, into DIR/target-parent and
# DIR/target-change. Then, per workload of BENCHMARK.json, it alternates
# `benchmark/run.sh --workload W --seconds 15 --trace 0` runs of the two
# sides, swapping which goes first every pair: N pairs (default 10) on
# the claimed and --still workloads, three on the rest. Each run's last
# line of standard output is its JSON result. Run I of SIDE on W keeps
# its standard output, standard error and exit status in
# DIR/W.SIDE.I.{out,err,code}. A run that exits non-zero or prints no
# metrics has failed: it leaves a hole, and its pair counts for no
# metric (pairs are matched by run index, never shifted).
#
# Output: one line per run (its exit status, failed requests and
# end-to-end metrics), then one row per workload x end-to-end metric of
# BENCHMARK.json: parent median and interquartile distance, change
# median, relative delta, the pairs the change won out of the complete
# pairs, and a verdict:
#   gain        ten or more pairs, the change wins nine tenths of them
#               and its median is better by more than the parent's IQR
#   WORSE       the change's median is worse than the parent's by more
#               than the metric's bound
#   unresolved  the parent's own spread (IQR / median) exceeds the bound
#   ok          none of the above
# A workload whose change runs fail a larger share of requests than the
# parent's is marked FAILED, as is a row with no complete pair. Every
# failed run is listed with its exit status and the last line of its
# standard error. The exit status is 1 when any row is WORSE or FAILED,
# or when a --claim is made and its row is not a gain.
#
# It only runs the benchmark; nothing under benchmark/ is edited. DIR
# defaults to a fresh directory under ${TMPDIR:-/tmp}.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
repo=$PWD

parent="" claim="" still="" pairs=10 work=""
while [ $# -gt 0 ]; do
    case "$1" in
        --parent) parent=$2; shift 2 ;;
        --claim) claim=$2; shift 2 ;;
        --still) still=$2; shift 2 ;;
        --pairs) pairs=$2; shift 2 ;;
        --work) work=$2; shift 2 ;;
        *) sed -n '5,6p' "$0" >&2; exit 2 ;;
    esac
done
[ -n "$parent" ] || { echo "--parent <rev> is required" >&2; exit 2; }
[ -n "$work" ] || work=$(mktemp -d "${TMPDIR:-/tmp}/pairs.XXXXXX")
mkdir -p "$work"
work=$(cd "$work" && pwd)

# Workloads and end-to-end metrics (name better bound) from the manifest.
manifest=$(tr -d '\n' < BENCHMARK.json)
workloads=$(grep -o '"workloads": *\[[^]]*\]' <<<"$manifest" | grep -o '"name": *"[^"]*"' | cut -d'"' -f4)
metrics=$(grep -o '"end_to_end": *\[[^]]*\]' <<<"$manifest" | grep -o '{[^}]*}' |
    sed -E 's/.*"name": *"([^"]*)".*"better": *"([^"]*)".*"bound": *([0-9.]+).*/\1 \2 \3/')
claim_w=${claim%%:*}

echo "# pairs: parent $(git rev-parse --short "$parent") vs the working tree of $(git rev-parse --short HEAD), 15 s runs, work dir $work" >&2
rm -rf "$work/parent" && mkdir -p "$work/parent"
git archive "$parent" | tar -x -C "$work/parent"
for side in parent change; do
    src=$repo; [ "$side" = parent ] && src=$work/parent
    echo "# building $side" >&2
    CARGO_TARGET_DIR="$work/target-$side" \
        cargo build --release --offline --quiet --manifest-path "$src/benchmark/Cargo.toml" 1>&2
done

# run SIDE W I: run I of SIDE on W. Keeps its output, error and exit
# status under work/W.SIDE.I.*, and appends its JSON line (or, when it
# printed none, one that counts every request failed) to work/W.SIDE.
run() {
    local side=$1 w=$2 i=$3 src=$repo code=0 line
    local base=$work/$w.$side.$i
    [ "$side" = parent ] && src=$work/parent
    CARGO_TARGET_DIR="$work/target-$side" \
        bash "$src/benchmark/run.sh" --workload "$w" --seconds 15 --trace 0 \
        >"$base.out" 2>"$base.err" || code=$?
    echo "$code" >"$base.code"
    line=$(tail -n 1 "$base.out")
    grep -q '"failed": [0-9]' <<<"$line" || line='{"correct": false, "attempted": 1, "failed": 1, "metrics": {}}'
    echo "$line" >>"$work/$w.$side"
    printf '%s %s %d exit=%s %s' "$w" "$side" "$i" "$code" "$(grep -o '"failed": [0-9]*' <<<"$line" | tr -d '"')"
    while read -r m _; do printf ' %s=%s' "$m" "$(value "$base" "$m")"; done <<<"$metrics"
    echo
}

# ok BASE: whether the run kept at BASE.* exited 0 and printed metrics.
ok() {
    [ "$(cat "$1.code")" = 0 ] && tail -n 1 "$1.out" | grep -q '"value"'
}

# value BASE NAME: the metric's value in the run kept at BASE.*, or
# nothing when that run failed.
value() {
    ok "$1" || return 0
    tail -n 1 "$1.out" | grep -o "\"$2\": {\"value\": [^,}]*" | sed 's/.*: //' || true
}

# values W SIDE NAME N: one line per run 0..N-1 of SIDE on W, holding the
# metric's value or nothing (a hole).
values() {
    local i
    for ((i = 0; i < $4; i++)); do echo "$(value "$work/$1.$2.$i" "$3")"; done
}

# failed FILE: the share of attempted requests that failed, over FILE.
failed() {
    grep -o '"attempted": [0-9]*, "failed": [0-9]*' "$1" |
        awk '{a += $2; f += $4} END {printf "%.6f", a ? f / a : 1}'
}

bad=0
report=""
for w in $workloads; do
    n=3
    if [ "$w" = "$claim_w" ] || grep -qx "$w" <<<"$(tr ',' '\n' <<<"$still")"; then n=$pairs; fi
    rm -f "$work/$w".*
    for ((i = 0; i < n; i++)); do
        if ((i % 2 == 0)); then run parent "$w" $i; run change "$w" $i; else run change "$w" $i; run parent "$w" $i; fi
    done
    for side in parent change; do
        for ((i = 0; i < n; i++)); do
            base=$work/$w.$side.$i
            ok "$base" && continue
            report+="$w $side run $i failed: exit $(cat "$base.code"): $(tail -n 1 "$base.err")"$'\n'
        done
    done
    fp=$(failed "$work/$w.parent") fc=$(failed "$work/$w.change")
    if awk -v p="$fp" -v c="$fc" 'BEGIN {exit !(c > p)}'; then
        bad=1
        report+="$w failed_share $fp -> $fc FAILED"$'\n'
    fi
    while read -r m better bound; do
        row=$(paste -d, <(values "$w" parent "$m" $n) <(values "$w" change "$m" $n) |
            awk -F, -v w="$w" -v m="$m" -v better="$better" -v bound="$bound" \
                -v claimed="$([ "$w:$m" = "$claim" ] && echo 1 || echo 0)" '
            function sort(a, n,   i, j, t) {
                for (i = 2; i <= n; i++)
                    for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
            }
            # benchmark/src/stats.rs: percentile by rank, quartiles
            # exclusive (Python statistics.quantiles, n=4).
            function median(a, n) { return a[int((n + 1) / 2)] }
            function quart(a, n, q,   j, d) {
                j = int(q * (n + 1) / 4); if (j < 1) j = 1; if (j > n - 1) j = n - 1
                d = q * (n + 1) / 4 - j
                return a[j] + (a[j + 1] - a[j]) * d
            }
            # A hole on either side drops the pair.
            $1 == "" || $2 == "" { next }
            { n++; p[n] = $1; c[n] = $2; if (better == "lower" ? $2 < $1 : $2 > $1) wins++ }
            END {
                if (!n) {
                    printf "%s %s - - - - 0/0 FAILED (no complete pair)\n", w, m
                    exit 1
                }
                sort(p, n); sort(c, n)
                pm = median(p, n); cm = median(c, n)
                iqr = n >= 2 ? quart(p, n, 3) - quart(p, n, 1) : 0
                delta = pm ? (cm - pm) / pm : 0
                worse = better == "lower" ? delta : -delta
                gain = n >= 10 && wins >= 0.9 * n && -worse * pm > iqr
                if (gain) v = "gain"
                else if (worse > bound) v = "WORSE"
                else if (m != "setup_s" && pm && iqr / pm > bound) v = "unresolved"
                else v = "ok"
                if (v == "WORSE" || (claimed && !gain)) status = 1
                printf "%s %s %.4f %.4f %.4f %+.4f %d/%d %s%s\n", w, m, pm, iqr, cm, delta, wins, n, v,
                    claimed ? " (claimed)" : ""
                exit status
            }') || bad=1
        report+="$row"$'\n'
    done <<<"$metrics"
done

echo "# workload metric parent_median parent_iqr change_median delta wins verdict"
printf '%s' "$report"
exit $bad
