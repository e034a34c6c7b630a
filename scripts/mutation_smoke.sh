#!/bin/sh
# mutation_smoke.sh — prove the differential fuzzers' seed corpora catch
# the bugs their checks exist for: FuzzRoundEngine (internal/engine) for
# the round paths, FuzzServer (internal/daemon) for dpsd around them; that
# TestFitExhaustive (internal/core) catches a broken budget fit; and that
# TestWatchBudgetFaultFiresWithinOneRound (internal/daemon) catches a
# restore that keeps the image's budget over the configured one. The
# tree is copied to a temporary directory; there each target's unmutated
# seed corpus must pass, and then, one at a time, each mutation below is
# applied by an exact-match text edit and `go test -run '^TARGET$' PKG`
# (seeds only, no fuzzing) must fail in the target itself — a build
# failure does not count. A mutation whose text no longer occurs fails the
# script: keep the list in step with the code. The working tree is never
# written.
set -eu
root="$(cd "$(dirname "$0")/.." && pwd)"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
tar -C "$root" --exclude=./.git -cf - . | tar -C "$TMP" -xf -
cd "$TMP"

seeds() {
	go test -count=1 -vet=off -run "^$fuzz\$" "$pkg" >"$TMP/log" 2>&1
}

# target FUZZ PKG: the seed corpus the mutants that follow must break. It
# must pass on the unmutated tree.
target() {
	fuzz=$1 pkg=$2
	if ! seeds; then
		cat "$TMP/log"
		echo "mutation-smoke: $fuzz fails on the unmutated tree" >&2
		exit 1
	fi
}

# mutant NAME FILE OLD NEW: replace every occurrence of the exact text OLD
# in FILE by NEW and demand that the target's seeds fail.
mutant() {
	if ! OLD="$3" NEW="$4" awk '
		{ s = s $0 "\n" }
		END {
			old = ENVIRON["OLD"]; n = 0
			while ((i = index(s, old)) > 0) {
				out = out substr(s, 1, i - 1) ENVIRON["NEW"]
				s = substr(s, i + length(old)); n++
			}
			if (n == 0) exit 1
			printf "%s", out s
		}' "$2" >"$TMP/mutant"; then
		echo "mutation-smoke: $1: text not found in $2" >&2
		exit 1
	fi
	cp "$TMP/mutant" "$2"
	if seeds; then
		echo "mutation-smoke: $1: survived" >&2
		exit 1
	fi
	if ! grep -q -- "--- FAIL: $fuzz" "$TMP/log"; then
		cat "$TMP/log"
		echo "mutation-smoke: $1: did not fail in $fuzz" >&2
		exit 1
	fi
	cp "$root/$2" "$2"
	echo "mutation-smoke: $1: caught by $fuzz"
}

target FuzzRoundEngine ./internal/engine/
mutant "the round's movers never recorded" internal/core/dps.go \
	'd.roundMovedW[u>>6] |= uint64(1) << uint(u&63)' ''
mutant "MarkChanged marks nothing" internal/core/dirty.go \
	'm.words[wi] |= changedWord(readings, d.lastVal, wi<<6)' 'm.words[wi] |= 0'
mutant "restore drops the PRNG register" internal/core/state.go \
	'd.statelessM.RestoreRegister(&st.RNGReg, st.RNGDraws)' ''
mutant "round input ships no pushed unit" internal/snapshot/input.go \
	"$(printf 'for _, w := range in.Pushed {\n\t\tb = section.AppendU64(b, w)')" \
	"$(printf 'for range in.Pushed {\n\t\tb = section.AppendU64(b, 0)')"
mutant "a ring that settles this round skips classification" internal/core/sparse.go \
	'| d.settledNowW[wi] |' '|'

target TestFitExhaustive ./internal/core/
mutant "Fit drops the pin" internal/core/fit.go \
	"$(printf 'caps[u] = pinned[u]\n')" ''
mutant "Fit drops the clamp" internal/core/fit.go \
	"$(printf 'k := lo\n\t\tswitch {\n\t\tcase c >= hiW:\n\t\t\tk = hi')" \
	"$(printf 'k := power.FloorDeciwatts(c)\n\t\tswitch {\n\t\tcase c >= hiW:\n\t\t\tk = power.FloorDeciwatts(c)')"
mutant "Fit rounds to nearest" internal/core/fit.go \
	'k = power.FloorDeciwatts(c)' 'k = power.Deciwatts(c)'

target FuzzServer ./internal/daemon/
mutant "a rejected record refreshes the health clock" internal/daemon/ingest.go \
	"$(printf 's.metrics.badReadings.Inc()\n\t\t\tif s.refused != nil {')" \
	"$(printf 's.metrics.badReadings.Inc()\n\t\t\tif s.lastReport != nil {\n\t\t\t\ts.lastReport[u] = now\n\t\t\t}\n\t\t\tif s.refused != nil {')"
mutant "omission refreshes a refused unit's clock" internal/daemon/ingest.go \
	'if s.refused[u>>6]&(1<<(u&63)) == 0 {' 'if true {'
mutant "a heartbeat skips touchUnits" internal/daemon/ingest.go \
	"$(printf 's.touchUnits(sc.hello)\n\t\ts.metrics.ingestHeartbeats.Inc()')" \
	's.metrics.ingestHeartbeats.Inc()'
mutant "a failed push commits as enforced" internal/daemon/decide.go \
	's.eng.Commit(caps, s.pushedW)' 's.eng.Commit(caps, nil)'
mutant "restore drops markChangedLocked" internal/daemon/snapshot.go \
	"$(printf 's.markChangedLocked()\n\treturn st')" 'return st'
mutant "a closed connection leaves its units fresh" internal/daemon/ingest.go \
	"$(printf 'defer s.mu.Unlock()\n\ts.orphanLocked(sc)')" 'defer s.mu.Unlock()'
mutant "a meter's recovery read averages over one interval" internal/rapl/meter.go \
	'elapsed += m.pendingElapsed' ''
mutant "a counter gone backwards reads as restarted from 0" internal/rapl/meter.go \
	'delta = CounterWrap - m.lastUJ + uj' 'delta = uj'
mutant "a cut batch frame keeps its whole records" internal/proto/session.go \
	"$(printf 'body, err := s.next(count * RecordSize)\n')" \
	"$(printf 'body, err := s.next(count * RecordSize)\n\tfor err != nil && count > 1 {\n\t\tcount--\n\t\tbody, err = s.next(count * RecordSize)\n\t}\n')"

target TestWatchBudgetFaultFiresWithinOneRound ./internal/daemon/
mutant "a restore keeps the donor's budget" internal/daemon/snapshot.go \
	'if err := s.dps.SetTotalBudget(s.configuredBudget); err != nil {' \
	'if err := error(nil); err != nil {'
