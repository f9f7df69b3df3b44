#!/usr/bin/env bash
# CI gate: vet plus the full test suite under the race detector.
# The parallel search engine and the memoized compile caches are
# concurrency-heavy; every change must keep this script green.
set -euo pipefail
cd "$(dirname "$0")"

echo "== go vet =="
go vet ./...

echo "== gofmt =="
unformatted="$(gofmt -l $(git ls-files '*.go'))"
if [[ -n "${unformatted}" ]]; then
  echo "${unformatted}"
  echo "files above are not gofmt-clean; run gofmt -w on them"
  exit 1
fi

echo "== builtin-shadowing guard =="
# Shadowing a Go builtin (cap, len, new, ...) compiles fine but silently
# disables the builtin for the rest of the scope; it has caused real
# confusion here (countSpace's space cap). Ban declarations and parameters
# named after the common offenders. min/max are excluded: they are
# conventional local names throughout the repo and predate the builtins.
shadow_pat='(cap|len|new|copy|make|append|delete)'
if grep -rnE "(^|[^.[:alnum:]_])${shadow_pat}[[:space:]]*(:=|= [^=])" --include='*.go' . ||
   grep -rnE "[(,][[:space:]]*${shadow_pat}[[:space:]]+[*[]?[A-Za-z]" --include='*.go' .; then
  echo "identifier shadows a Go builtin (see above); rename it"
  exit 1
fi

echo "== go test -race =="
go test -race ./...

echo "== single-flight release stress smoke =="
# The panic, error and withdraw paths of every flight.Group site, repeated
# under the race detector so waiters meet owners in many interleavings.
go test -race -count=20 -run 'Panic|Wedge|Withdraw|Flight' \
  ./internal/flight ./internal/compile ./internal/analysis/interproc ./internal/link >/dev/null

echo "== inlinelint (examples must be error-clean) =="
# The shipped MinC programs are the reference corpus for "no error
# findings": an error-severity lint regression shows up here before
# anywhere else. Warning/info interproc findings are legitimate on the
# examples (e.g. collatz reads @peak on the zero-trip-loop path), so the
# gate is the -severity error threshold, not emptiness at every severity.
lint_out="$(go run ./cmd/inlinelint -severity error -check examples/minc/*.minc examples/minc/linked/*.minc testdata/matrixsum.minc)"
if [[ -n "${lint_out}" ]]; then
  echo "${lint_out}"
  echo "inlinelint reported error findings on the example corpus"
  exit 1
fi

echo "== interproc lint differential smoke =="
# The interprocedural summary cache and the -no-interproc-cache scratch
# oracle must render byte-identical findings over the examples plus the
# interproc lint fixtures (the cache is shared across files, so this also
# exercises cross-module core reuse).
ip_files=(examples/minc/*.minc testdata/lint/interproc/*.minc)
ip_cached="$(go run ./cmd/inlinelint "${ip_files[@]}")" || true
ip_scratch="$(go run ./cmd/inlinelint -no-interproc-cache "${ip_files[@]}")" || true
if [[ "${ip_cached}" != "${ip_scratch}" ]]; then
  echo "interproc cache / -no-interproc-cache disagree:"
  diff <(echo "${ip_cached}") <(echo "${ip_scratch}") || true
  exit 1
fi

echo "== interproc summary fuzz smoke =="
# A handful of executions of the cached-vs-scratch differential fuzzer
# (full seed corpus runs under `go test -race ./...` above).
go test -run '^$' -fuzz FuzzInterprocSummaries -fuzztime 30x ./internal/analysis/interproc >/dev/null

echo "== delta-engine bench smoke =="
# One iteration each: catches compile errors or assertion failures in the
# delta-vs-full, config-identity, and pruned-vs-exhaustive benchmarks
# without paying bench time.
go test -run '^$' -bench 'DeltaVsFull|ConfigKey|OptimalPrunedVsExhaustive|FnCacheColdVsWarm|CycleRepriceVsReinterp' -benchtime=1x . >/dev/null
go test -run '^$' -bench 'ICacheNaive|ICacheIndexed' -benchtime=1x ./internal/interp >/dev/null

echo "== fn content cache differential smoke =="
# The content-addressed per-function cache and the -no-fncache oracle (every
# closure compiled afresh) must render byte-identical inlinesearch stdout on
# the example corpus, and a warm -cache-dir rerun must reproduce the cold
# run's stdout byte for byte.
fncache_dir="$(mktemp -d)"
trap 'rm -rf "${fncache_dir}"' EXIT
for f in examples/minc/*.minc; do
  cached="$(go run ./cmd/inlinesearch -max-space 65536 "$f" 2>/dev/null)" || continue
  oracle="$(go run ./cmd/inlinesearch -max-space 65536 -no-fncache "$f" 2>/dev/null)"
  if [[ "${cached}" != "${oracle}" ]]; then
    echo "fncache / -no-fncache disagree on ${f}:"
    diff <(echo "${cached}") <(echo "${oracle}") || true
    exit 1
  fi
done
cold_out="$(go run ./cmd/mincc -inline optimal -S -cache-dir "${fncache_dir}" testdata/matrixsum.minc 2>/dev/null)"
warm_out="$(go run ./cmd/mincc -inline optimal -S -cache-dir "${fncache_dir}" testdata/matrixsum.minc 2>/dev/null)"
if [[ "${cold_out}" != "${warm_out}" ]]; then
  echo "warm -cache-dir rerun changed mincc stdout:"
  diff <(echo "${cold_out}") <(echo "${warm_out}") || true
  exit 1
fi

echo "== pruned-search differential smoke =="
# The branch-and-bound search and the -no-prune exhaustive recursion must
# render byte-identical inlinesearch stdout (sizes, site sets, agreement)
# on the example corpus.
for f in examples/minc/*.minc; do
  pruned="$(go run ./cmd/inlinesearch -max-space 65536 "$f" 2>/dev/null)" || continue
  exhaustive="$(go run ./cmd/inlinesearch -max-space 65536 -no-prune "$f" 2>/dev/null)"
  if [[ "${pruned}" != "${exhaustive}" ]]; then
    echo "pruned / -no-prune disagree on ${f}:"
    diff <(echo "${pruned}") <(echo "${exhaustive}") || true
    exit 1
  fi
done

echo "== cycle-delta differential smoke =="
# The incremental cycle pricer and the -no-cycledelta whole-module oracle
# must render byte-identical stdout for cycle-aware tuning on every
# example, and the pareto sweep must print a frontier. The same identity
# must hold for the pareto experiment over a scaled corpus, where the
# repricer sees thousands of probes.
for f in examples/minc/*.minc; do
  cdelta="$(go run ./cmd/inlinetune -objective weighted "$f" 2>/dev/null)"
  coracle="$(go run ./cmd/inlinetune -objective weighted -no-cycledelta "$f" 2>/dev/null)"
  if [[ "${cdelta}" != "${coracle}" ]]; then
    echo "cycle delta / -no-cycledelta disagree on ${f}:"
    diff <(echo "${cdelta}") <(echo "${coracle}") || true
    exit 1
  fi
done
pareto_out="$(go run ./cmd/inlinetune -objective pareto examples/minc/collatz.minc 2>/dev/null)"
if ! grep -q 'lambda' <<<"${pareto_out}"; then
  echo "pareto sweep printed no frontier:"
  echo "${pareto_out}"
  exit 1
fi
pexp_delta="$(go run ./cmd/inlinebench -exp pareto -scale 0.1 2>/dev/null)"
pexp_oracle="$(go run ./cmd/inlinebench -exp pareto -scale 0.1 -no-cycledelta -jobs 2 2>/dev/null)"
if [[ "${pexp_delta}" != "${pexp_oracle}" ]]; then
  echo "pareto experiment: cycle delta / -no-cycledelta disagree:"
  diff <(echo "${pexp_delta}") <(echo "${pexp_oracle}") || true
  exit 1
fi

echo "== linked-module differential smoke =="
# Cross-module (LTO-style) mode: link the whole example corpus into one
# module (every example exports `entry`, so duplicate exports exercise the
# -link-dup rename path) and require the component-sharded optimal search
# and the -no-shard merged-compiler oracle to render byte-identical stdout.
link_files=(examples/minc/*.minc examples/minc/linked/*.minc)
link_sharded="$(go run ./cmd/inlinesearch -link -link-dup rename "${link_files[@]}" 2>/dev/null)"
link_merged="$(go run ./cmd/inlinesearch -link -link-dup rename -no-shard "${link_files[@]}" 2>/dev/null)"
if [[ "${link_sharded}" != "${link_merged}" ]]; then
  echo "linked search: sharded / -no-shard disagree:"
  diff <(echo "${link_sharded}") <(echo "${link_merged}") || true
  exit 1
fi
if ! grep -q '^optimal:' <<<"${link_sharded}"; then
  echo "linked search did not report an optimum:"
  echo "${link_sharded}"
  exit 1
fi
# The same identity for the linked tuner: the lockstep per-component
# sessions and the -no-shard whole-module tuner must print the same rounds,
# sizes and sites.
tune_sharded="$(go run ./cmd/inlinetune -link -link-dup rename "${link_files[@]}" 2>/dev/null)"
tune_merged="$(go run ./cmd/inlinetune -link -link-dup rename -no-shard "${link_files[@]}" 2>/dev/null)"
if [[ "${tune_sharded}" != "${tune_merged}" ]]; then
  echo "linked tune: sharded / -no-shard disagree:"
  diff <(echo "${tune_sharded}") <(echo "${tune_merged}") || true
  exit 1
fi
# Sharded bench smoke: one iteration of the plan-build scaling benchmark
# (all four linked profiles, including the 10x/30x mega-modules) catches
# linker or generator regressions without paying search time.
go test -run '^$' -bench 'LinkedPlanBuildScale' -benchtime=1x ./internal/link >/dev/null

echo "== incremental re-link differential smoke =="
# The warm relink session (unchanged components replayed from the
# content-keyed result cache) and the -no-relink cold oracle (a fresh link
# plus full search per step) must render byte-identical stdout over the
# shipped edit scripts, for all three CLIs.
relink_args=(examples/minc/linked/app.minc examples/minc/linked/mathlib.minc)
relink_warm="$(go run ./cmd/inlinesearch -relink examples/minc/linked/edits.txt -link-dup rename "${relink_args[@]}" 2>/dev/null)"
relink_cold="$(go run ./cmd/inlinesearch -relink examples/minc/linked/edits.txt -no-relink -link-dup rename "${relink_args[@]}" 2>/dev/null)"
if [[ "${relink_warm}" != "${relink_cold}" ]]; then
  echo "inlinesearch: -relink / -no-relink disagree:"
  diff <(echo "${relink_warm}") <(echo "${relink_cold}") || true
  exit 1
fi
relinktune_warm="$(go run ./cmd/inlinetune -relink examples/minc/linked/edits_tune.txt -rounds 3 -link-dup rename "${relink_args[@]}" 2>/dev/null)"
relinktune_cold="$(go run ./cmd/inlinetune -relink examples/minc/linked/edits_tune.txt -rounds 3 -no-relink -link-dup rename "${relink_args[@]}" 2>/dev/null)"
if [[ "${relinktune_warm}" != "${relinktune_cold}" ]]; then
  echo "inlinetune: -relink / -no-relink disagree:"
  diff <(echo "${relinktune_warm}") <(echo "${relinktune_cold}") || true
  exit 1
fi
relinkcc_warm="$(go run ./cmd/mincc -inline optimal -relink examples/minc/linked/edits.txt -link-dup rename "${relink_args[@]}" 2>/dev/null)"
relinkcc_cold="$(go run ./cmd/mincc -inline optimal -relink examples/minc/linked/edits.txt -no-relink -link-dup rename "${relink_args[@]}" 2>/dev/null)"
if [[ "${relinkcc_warm}" != "${relinkcc_cold}" ]]; then
  echo "mincc: -relink / -no-relink disagree:"
  diff <(echo "${relinkcc_warm}") <(echo "${relinkcc_cold}") || true
  exit 1
fi
# A few executions of the random-edit-script relink differential fuzzer
# (the seed corpus runs in full under `go test -race ./...` above), plus
# one iteration of the edit-one-TU bench to catch assertion failures
# without paying bench time.
go test -run '^$' -fuzz FuzzRelinkDifferential -fuzztime 30x ./internal/link >/dev/null
go test -run '^$' -bench 'RelinkEditOneTU' -benchtime=1x ./internal/link >/dev/null

echo "== inlined service smoke =="
# Boot the daemon on an ephemeral port, replay a scaled corpus against it
# with the load harness in verify mode (cross-client byte-identity plus a
# local single-threaded recompute of every search), then SIGTERM and
# require a clean drain. The race-mode service tier itself runs above as
# part of `go test -race ./...` (internal/server + daemon_test.go).
inlined_dir="$(mktemp -d)"
trap 'rm -rf "${fncache_dir}" "${inlined_dir}"' EXIT
go build -o "${inlined_dir}/inlined" ./cmd/inlined
go build -o "${inlined_dir}/inlineload" ./cmd/inlineload
"${inlined_dir}/inlined" -addr 127.0.0.1:0 -cache-dir "${inlined_dir}/store" \
  2>"${inlined_dir}/inlined.log" &
inlined_pid=$!
inlined_addr=""
for _ in $(seq 1 100); do
  inlined_addr="$(sed -n 's#^inlined: listening on http://##p' "${inlined_dir}/inlined.log")"
  [[ -n "${inlined_addr}" ]] && break
  sleep 0.1
done
if [[ -z "${inlined_addr}" ]]; then
  echo "inlined did not report a listen address:"
  cat "${inlined_dir}/inlined.log"
  kill "${inlined_pid}" 2>/dev/null || true
  exit 1
fi
if ! "${inlined_dir}/inlineload" -addr "${inlined_addr}" -smoke; then
  echo "inlineload smoke replay failed against ${inlined_addr}"
  kill "${inlined_pid}" 2>/dev/null || true
  exit 1
fi
# Linked-session replay: two clients drive the same edit-patch-search
# script through their own /link sessions; -verify byte-compares every
# step across clients and against a cold single-threaded link+search.
if ! "${inlined_dir}/inlineload" -addr "${inlined_addr}" -linked linked-tiny -clients 2 -steps 4 -verify; then
  echo "inlineload linked replay failed against ${inlined_addr}"
  kill "${inlined_pid}" 2>/dev/null || true
  exit 1
fi
kill -TERM "${inlined_pid}"
if ! wait "${inlined_pid}"; then
  echo "inlined exited non-zero after SIGTERM:"
  cat "${inlined_dir}/inlined.log"
  exit 1
fi
if ! grep -q "drained" "${inlined_dir}/inlined.log"; then
  echo "inlined log missing drain confirmation:"
  cat "${inlined_dir}/inlined.log"
  exit 1
fi

echo "== checked-mode smoke =="
# Per-step invariant verification across all three CLIs; each run fails
# loudly (with stage/pass attribution) if any pipeline step breaks the IR.
go run ./cmd/mincc -check -inline os -run trace -arg 6 testdata/matrixsum.minc >/dev/null
go run ./cmd/inlinesearch -check testdata/matrixsum.minc >/dev/null
go run ./cmd/inlinebench -check -exp fig3 -scale 0.05 >/dev/null

echo "CI OK"
