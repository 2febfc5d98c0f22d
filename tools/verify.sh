#!/usr/bin/env bash
# The end-to-end gates, as one script that contributors and CI both run:
#
#   tools/verify.sh observe|resume|fleet|fairness|bench|fuzz|mutants|docs
#
# Each gate builds the release binaries through `cargo run` and writes its
# artifacts under target/verify/<gate>/ (wiped at the start of the gate;
# `bench` writes to benchmark/out/ instead).
set -euo pipefail
cd "$(dirname "$0")/.."

gate="${1:-}"
out="target/verify/$gate"

repro() { cargo run --release -p mobile-bbr-bench --bin repro -- "$@"; }
simcheck() { cargo run --release -p mobile-bbr-bench --bin simcheck -- "$@"; }
# The mutant build: its own target dir, so the release `repro` and
# `simcheck` that the other gates run never carry the mutant sites.
mutant_build=(--release --target-dir target/mutants --features simcheck-mutants)
mutant_simcheck() { cargo run "${mutant_build[@]}" -p mobile-bbr-bench --bin simcheck -- "$@"; }

# cross_jobs_identical NAME FLAG ARGS…: run `repro ARGS… --no-cache` at
# --jobs 1 and --jobs 4, each writing the artifact FLAG names (--json FILE,
# --observe DIR) to $out/NAME-j{1,4}; the two must be byte-identical — the
# sweep determinism contract, end to end.
cross_jobs_identical() {
    local name=$1 flag=$2 jobs
    shift 2
    for jobs in 1 4; do
        repro "$@" --no-cache --jobs "$jobs" "$flag" "$out/$name-j$jobs"
    done
    diff -r "$out/$name-j1" "$out/$name-j4"
}

# A sweep cancelled by --cancel-after must exit like Ctrl-C.
expect_interrupted() {
    local code=0
    "$@" || code=$?
    test "$code" -eq 130 || {
        echo "expected exit 130, got $code" >&2
        exit 1
    }
}

# The one observe mode: it writes exactly three artifacts — the Chrome
# trace, the flight data and the self-contained report — each
# byte-identical across worker counts (through chart rendering); the HTML
# is well-formed and self-contained (valid inline SVG, no scripts, no
# external fetches); and trace.json is one JSON document carrying CPU
# spans and the windowed cycle counters, and only the CPU and stack
# domains (no timer-wheel track, no cascade instants).
observe() {
    cross_jobs_identical observe --observe --quick
    python3 - "$out/observe-j1" <<'PY'
import json
import os
import re
import sys
import xml.etree.ElementTree as ET
files = sorted(os.listdir(sys.argv[1]))
assert files == ['flight.jsonl', 'report.html', 'trace.json'], files
html = open(sys.argv[1] + '/report.html').read()
assert html.startswith('<!DOCTYPE html>'), 'missing doctype'
assert html.rstrip().endswith('</html>'), 'unterminated document'
assert '<script' not in html, 'report must not contain JavaScript'
assert 'https://' not in html, 'report must not fetch anything'
svgs = re.findall(r'<svg.*?</svg>', html, re.S)
assert len(svgs) >= 8, f'expected >= 8 charts, got {len(svgs)}'
for svg in svgs:
    ET.fromstring(svg)  # raises on malformed XML
header = open(sys.argv[1] + '/flight.jsonl').readline()
assert '"schema":"sim-telemetry/v1"' in header, header
events = json.load(open(sys.argv[1] + '/trace.json'))['traceEvents']
spans = sum(e['ph'] == 'X' and e.get('cat') == 'cpu' for e in events)
series = {e['name'] for e in events if e['ph'] == 'C' and e['name'].startswith('cycles.')}
assert spans > 0, 'trace.json has no cpu spans'
assert series, 'trace.json has no cycles.* counter series'
tracks = {e['args']['name'] for e in events if e['ph'] == 'M'}
assert 'timer wheel' not in tracks, 'trace.json has a timer wheel track'
cascades = [e for e in events if e['ph'] == 'i' and e['name'].startswith('cascade')]
assert not cascades, f'trace.json has {len(cascades)} cascade instants'
print(f'{len(svgs)} inline SVG charts OK, flight data OK, '
      f'trace OK ({spans} cpu spans, {len(series)} cycle series)')
PY
}

# Interrupt a sweep deterministically mid-grid (--cancel-after makes the
# engine act as if Ctrl-C arrived after N released cells) with a run
# cache, require exit 130, rerun the same command against the same cache,
# and require the result bytes of a clean --no-cache run: the scorecard
# JSON for repro (a WiFi experiment, whose every seed is its own cell, and
# an Ethernet one, whose seeds share one cell each), stdout for a simcheck
# fuzz campaign, cut once among its random draws and once inside the
# corpus entries that open its sweep. A cache filled at 2 seeds must
# answer the Ethernet experiment at 3 with no miss and the same bytes. Then one
# 1000-connection cell through the flow arena with every oracle armed.
resume() {
    local sweep=(--exp bbr2 --smoke --seeds 2 --jobs 4)
    repro "${sweep[@]}" --no-cache --json "$out/clean.json"
    expect_interrupted repro "${sweep[@]}" --cache-dir "$out/cache" \
        --max-inflight 2 --cancel-after 2 --json "$out/interrupted.json"
    test ! -f "$out/interrupted.json"
    repro "${sweep[@]}" --cache-dir "$out/cache" --json "$out/resumed.json"
    cmp "$out/clean.json" "$out/resumed.json"

    local eth=(--exp fig5 --smoke --jobs 4)
    repro "${eth[@]}" --seeds 3 --no-cache --json "$out/eth-clean.json"
    expect_interrupted repro "${eth[@]}" --seeds 3 --cache-dir "$out/eth-cache" \
        --max-inflight 2 --cancel-after 2 --json "$out/eth-interrupted.json"
    test ! -f "$out/eth-interrupted.json"
    repro "${eth[@]}" --seeds 3 --cache-dir "$out/eth-cache" --json "$out/eth-resumed.json"
    cmp "$out/eth-clean.json" "$out/eth-resumed.json"
    repro "${eth[@]}" --seeds 2 --cache-dir "$out/eth-filled" >/dev/null
    repro "${eth[@]}" --seeds 3 --cache-dir "$out/eth-filled" --progress \
        --json "$out/eth-cached.json" 2>"$out/eth-cached.err"
    cmp "$out/eth-clean.json" "$out/eth-cached.json"
    grep -E '^sweep totals: .* cache [0-9]+ hits / 0 misses / 0 corrupt' "$out/eth-cached.err"

    local fuzz=(--budget 80 --seed 1 --jobs 4 --no-corpus-append)
    simcheck "${fuzz[@]}" --no-cache >"$out/fuzz-clean.txt"
    expect_interrupted simcheck "${fuzz[@]}" --cache-dir "$out/cache" \
        --max-inflight 4 --cancel-after 20
    simcheck "${fuzz[@]}" --cache-dir "$out/cache" >"$out/fuzz-resumed.txt"
    cmp "$out/fuzz-clean.txt" "$out/fuzz-resumed.txt"
    local corpus=(--corpus tests/simcheck_corpus.txt)
    simcheck "${fuzz[@]}" "${corpus[@]}" --no-cache >"$out/corpus-clean.txt"
    expect_interrupted simcheck "${fuzz[@]}" "${corpus[@]}" --cache-dir "$out/corpus-cache" \
        --max-inflight 4 --cancel-after 5
    simcheck "${fuzz[@]}" "${corpus[@]}" --cache-dir "$out/corpus-cache" >"$out/corpus-resumed.txt"
    cmp "$out/corpus-clean.txt" "$out/corpus-resumed.txt"

    simcheck --scenario 'cc=bbr,cpu=high,media=eth,conns=1000,stride=1,pacing=on,queue=-,loss=0,jitter=0,cross=0,acks=-,dur=500,warmup=150,seed=18'
}

# The FLEET experiment (heterogeneous devices through one shared
# bottleneck) is byte-identical across worker counts; the full-preset
# population (504 devices, above the multiplexing floor) passes every
# scorecard check (repro exits non-zero on any MISS); the fleet corpus
# seeds replay clean under every oracle, fleet-conservation and
# fleet-jain-bounds included; and a 100-device fleet's peak live heap stays
# under the bound in crates/tcp-sim/tests/footprint.rs, so the gate fails
# on a per-packet footprint regression as well as on a byte change.
fleet() {
    cross_jobs_identical fleet --json --exp fleet --quick
    repro --exp fleet --no-cache
    cargo test --release -p tcp-sim --test footprint
    simcheck --scenario 'cc=bbr,cpu=mid,media=wifi,conns=6,stride=1,pacing=on,queue=-,loss=0,jitter=0,cross=0,acks=-,dur=700,warmup=250,seed=21,fleet=6,fmix=1,fshared=100,fqdisc=codel'
    simcheck --scenario 'cc=bbr,cpu=low,media=wifi,conns=5,stride=1,pacing=on,queue=-,loss=0,jitter=0,cross=0,acks=-,dur=600,warmup=200,seed=22,fleet=5,fmix=0,fshared=60,fqdisc=fifo'
}

# The FAIRNESS experiment (pacing-stride rows plus the CC×qdisc duel
# matrix over a shared bottleneck) is byte-identical across worker counts,
# and AQM scenarios replay clean under every oracle, aqm-accounting and
# paced-cc-arms-timers included.
fairness() {
    cross_jobs_identical fair --json --exp fairness --quick
    simcheck --scenario 'cc=cubic,cpu=high,media=eth,conns=8,stride=1,pacing=on,queue=64,loss=0,jitter=0,cross=0,acks=-,dur=800,warmup=250,seed=31,qdisc=codel'
    simcheck --scenario 'cc=bbr3,cpu=mid,media=wifi,conns=6,stride=1,pacing=on,queue=-,loss=0,jitter=0,cross=0,acks=-,dur=700,warmup=250,seed=32,qdisc=fqcodel'
    simcheck --scenario 'cc=bbr2,cpu=low,media=wifi,conns=4,stride=1,pacing=on,queue=-,loss=0,jitter=0,cross=0,acks=-,dur=600,warmup=200,seed=33,fleet=4,fmix=1,fshared=80,fqdisc=fqcodel'
}

# The repo benchmark still builds against the crates' public APIs and
# reproduces its result digests: `benchmark/` is a standalone package (own
# workspace and lock file), frozen between benchmark PRs, so an API change
# that breaks it must fail here, not at the next timed run. `--smoke`
# builds it `--locked` and runs every workload once on shrunk inputs; the
# self-tests cover its stats and span code, also `--locked`, so the gate
# never rewrites the frozen lock file.
bench() {
    benchmark/run.sh --smoke
    cargo test --release --offline --locked --manifest-path benchmark/Cargo.toml
}

# Scenario-fuzzer gate: replay the checked-in corpus, then 200 random
# scenarios across 4 workers (stdout is bit-identical to --jobs 1, so any
# violation is reproducible from the printed one-line spec).
fuzz() {
    simcheck --budget 200 --seed 1 --jobs 4 \
        --corpus tests/simcheck_corpus.txt --no-corpus-append --progress
}

# Oracle-sensitivity gate: every intentional single-line mutation in
# tcp_sim::mutants must be caught by at least one oracle, each with a
# shrunk one-line repro that carries `mutant=<name>` and fails again when
# replayed (`simcheck --mutant-check --budget 120 --seed 1`, run and
# checked by the simcheck_engine test the feature compiles) — and, hop by
# hop, mutant M7 must lose exactly the AQM drops the links recorded, while
# a mutant stays scoped to the thread that activated it. The check runs
# through the fuzz sweep, so its stdout is byte-identical at --jobs 1 and
# 4, and a run cut by --cancel-after exits 130 and resumes from its cache
# to the same bytes.
mutants() {
    cargo test "${mutant_build[@]}" -p mobile-bbr-bench --test simcheck_engine -- --nocapture
    cargo test "${mutant_build[@]}" -p tcp-sim --lib -- sim::path mutants::
    local check=(--mutant-check --budget 120 --seed 1)
    mutant_simcheck "${check[@]}" --jobs 1 >"$out/j1.txt"
    mutant_simcheck "${check[@]}" --jobs 4 >"$out/j4.txt"
    cmp "$out/j1.txt" "$out/j4.txt"
    expect_interrupted mutant_simcheck "${check[@]}" --jobs 2 --cancel-after 1 \
        --cache-dir "$out/mc"
    mutant_simcheck "${check[@]}" --jobs 2 --cache-dir "$out/mc" >"$out/resumed.txt"
    cmp "$out/j1.txt" "$out/resumed.txt"
}

# EXPERIMENTS.md "Reproduction results" is what the code prints: every
# line of the full-preset scorecard's Markdown must occur in the file, in
# order (hand-written commentary may sit between the generated lines).
docs() {
    repro --exp all --no-cache --markdown "$out/results.md"
    python3 - "$out/results.md" EXPERIMENTS.md <<'PY'
import sys
generated, doc = (open(path).read().splitlines() for path in sys.argv[1:])
at = 0
for line in filter(None, generated):
    try:
        at = doc.index(line, at) + 1
    except ValueError:
        sys.exit(f'EXPERIMENTS.md is stale: no line after {at} reads\n  {line}')
print(f'EXPERIMENTS.md carries all {len(generated)} generated lines in order')
PY
}

case "$gate" in
observe | resume | fleet | fairness | bench | fuzz | mutants | docs)
    rm -rf "$out"
    mkdir -p "$out"
    "$gate"
    echo "verify $gate: OK"
    ;;
*)
    echo "usage: tools/verify.sh observe|resume|fleet|fairness|bench|fuzz|mutants|docs" >&2
    exit 2
    ;;
esac
