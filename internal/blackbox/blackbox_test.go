package blackbox

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"dps/internal/core"
	"dps/internal/power"
	"dps/internal/proto"
	"dps/internal/telemetry"
	"dps/internal/trace"
)

// wantRound builds a distinguishable decoded record for round n with u
// units; testRound is the in-memory round that encodes to it.
func wantRound(n uint64, u int) *Round {
	r := &Round{
		Round:         n,
		UnixNano:      int64(1_700_000_000_000_000_000 + n*1_000_000),
		IntervalS:     0.25,
		BudgetW:       3000,
		CapSumW:       2990.5 + float64(n),
		KalmanS:       1e-4,
		StatelessS:    2e-4,
		PriorityS:     3e-4,
		ReadjustS:     4e-4,
		TotalS:        1.1e-3,
		Restored:      n == 1,
		BudgetClamped: n%3 == 0,
		PriorityFlips: int(n % 5),
		StaleUnits:    1,
		DirtyUnits:    u / 2,
		Units:         make([]UnitRound, u),
	}
	for i := range r.Units {
		r.Units[i] = UnitRound{
			ReadingDW: uint16(1000 + i),
			CapDW:     uint16(1500 + i),
			Prio:      i%2 == 0,
			Health:    uint8(i % 3),
			Reason:    trace.Reason(i % 9),
		}
	}
	return r
}

func testRound(n uint64, u int) *telemetry.Round { return record(wantRound(n, u)) }

// record converts a decoded record back to the in-memory round that
// encodes to it (exact for deciwatt powers and nanosecond durations).
func record(r *Round) *telemetry.Round {
	dur := func(s float64) time.Duration { return time.Duration(math.Round(s * 1e9)) }
	n := len(r.Units)
	out := &telemetry.Round{
		Reading: make(power.Vector, n), Cap: make(power.Vector, n), PrevCap: make(power.Vector, n),
		Prio: make([]bool, n), Health: make([]core.UnitHealth, n), Reason: make([]trace.Reason, n),
	}
	out.Round = r.Round
	out.Time = time.Unix(0, r.UnixNano)
	out.Interval = power.Seconds(r.IntervalS)
	out.Elapsed = dur(r.TotalS)
	out.BudgetW, out.CapSumW = r.BudgetW, r.CapSumW
	out.StaleUnits, out.DeadUnits = r.StaleUnits, r.DeadUnits
	out.Stats = core.RoundStats{
		Timings: core.StageTimings{
			Kalman: dur(r.KalmanS), Stateless: dur(r.StatelessS),
			Priority: dur(r.PriorityS), Readjust: dur(r.ReadjustS),
		},
		Restored: r.Restored, BudgetExhausted: r.BudgetExhausted, BudgetClamped: r.BudgetClamped,
		PriorityFlips: r.PriorityFlips, DirtyUnits: r.DirtyUnits, SkippedUnits: r.SkippedUnits,
	}
	for i, u := range r.Units {
		out.Reading[i], out.Cap[i] = proto.FromDeciwatts(u.ReadingDW), proto.FromDeciwatts(u.CapDW)
		out.Prio[i], out.Health[i], out.Reason[i] = u.Prio, core.UnitHealth(u.Health), u.Reason
	}
	return out
}

// segPath returns the path of the writer's only expected segment when
// the directory holds exactly one file.
func onlySegment(t *testing.T, dir string) string {
	t.Helper()
	seqs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 1 {
		t.Fatalf("got %d segments, want 1", len(seqs))
	}
	return filepath.Join(dir, segName(seqs[0]))
}

func TestBlackboxRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, 100)
	if err != nil {
		t.Fatal(err)
	}
	var want []Round
	for n := uint64(1); n <= 5; n++ {
		if _, _, err := w.Append(testRound(n, 4)); err != nil {
			t.Fatal(err)
		}
		want = append(want, *wantRound(n, 4))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := Dump(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("dump mismatch:\n got %+v\nwant %+v", got, want)
	}
	// Appending after Close must fail, not tear the file.
	if _, _, err := w.Append(testRound(6, 4)); err == nil {
		t.Fatal("Append after Close succeeded")
	}
}

func TestBlackboxTailAndEmptyDump(t *testing.T) {
	dir := t.TempDir()
	if rounds, err := Dump(filepath.Join(dir, "fresh")); err == nil || len(rounds) != 0 {
		t.Fatalf("Dump of missing dir: rounds=%d err=%v, want error", len(rounds), err)
	}
	w, err := Open(dir, 100)
	if err != nil {
		t.Fatal(err)
	}
	for n := uint64(1); n <= 9; n++ {
		if _, _, err := w.Append(testRound(n, 2)); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	tail, err := Tail(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(tail) != 3 || tail[0].Round != 7 || tail[2].Round != 9 {
		t.Fatalf("Tail(3) = %+v, want rounds 7..9", tail)
	}
	all, err := Tail(dir, 0)
	if err != nil || len(all) != 9 {
		t.Fatalf("Tail(0) = %d rounds, err=%v, want all 9", len(all), err)
	}
}

func TestBlackboxRingEviction(t *testing.T) {
	dir := t.TempDir()
	// rounds=8 → segRounds=2, maxSegs=5: capacity 8..10 records.
	w, err := Open(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	totalEvicted := 0
	for n := uint64(1); n <= 40; n++ {
		_, evicted, err := w.Append(testRound(n, 1))
		if err != nil {
			t.Fatal(err)
		}
		totalEvicted += evicted
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := Dump(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) < 8 || len(got) > 10 {
		t.Fatalf("ring holds %d rounds, want 8..10", len(got))
	}
	if got[len(got)-1].Round != 40 {
		t.Fatalf("newest retained round = %d, want 40", got[len(got)-1].Round)
	}
	// Everything retained plus everything evicted accounts for every append.
	if totalEvicted+len(got) != 40 {
		t.Fatalf("evicted %d + retained %d != 40 appended", totalEvicted, len(got))
	}
	// Retained rounds are contiguous.
	for i := 1; i < len(got); i++ {
		if got[i].Round != got[i-1].Round+1 {
			t.Fatalf("gap in retained rounds: %d then %d", got[i-1].Round, got[i].Round)
		}
	}
}

func TestBlackboxTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, 100)
	if err != nil {
		t.Fatal(err)
	}
	for n := uint64(1); n <= 3; n++ {
		if _, _, err := w.Append(testRound(n, 2)); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	path := onlySegment(t, dir)
	full := AppendRecord(nil, testRound(4, 2))
	for cut := 1; cut < len(full); cut += 7 {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		torn := append(append([]byte(nil), data...), full[:cut]...)
		rounds, err := DecodeSegment(torn)
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		if len(rounds) != 3 || rounds[2].Round != 3 {
			t.Fatalf("cut=%d: decoded %d rounds, want the 3 intact ones", cut, len(rounds))
		}
	}
}

func TestBlackboxBitFlipTruncates(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, 100)
	if err != nil {
		t.Fatal(err)
	}
	var recLen int
	for n := uint64(1); n <= 4; n++ {
		wrote, _, err := w.Append(testRound(n, 2))
		if err != nil {
			t.Fatal(err)
		}
		recLen = wrote
	}
	w.Close()
	data, err := os.ReadFile(onlySegment(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte inside the third record: records 1–2 survive,
	// 3 fails its CRC, and 4 — though intact on disk — is unreachable
	// because the walk cannot trust framing after a corrupt record.
	off := headerSize + 2*recLen + 20
	data[off] ^= 0xff
	rounds, err := DecodeSegment(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(rounds) != 2 || rounds[1].Round != 2 {
		t.Fatalf("decoded %d rounds after bit flip, want the 2 before the damage", len(rounds))
	}
}

func TestBlackboxCorruptHeader(t *testing.T) {
	if _, err := DecodeSegment([]byte("DPSB")); err == nil {
		t.Fatal("truncated header accepted")
	}
	if _, err := DecodeSegment([]byte("NOPE\x01\x00\x00\x00")); err == nil {
		t.Fatal("bad magic accepted")
	}
	future := appendHeader(nil)
	future[4] = 0xff // version 0x00ff
	if _, err := DecodeSegment(future); err == nil {
		t.Fatal("future version accepted")
	}
	if rounds, err := DecodeSegment(appendHeader(nil)); err != nil || len(rounds) != 0 {
		t.Fatalf("empty segment: rounds=%d err=%v", len(rounds), err)
	}
}

func TestBlackboxRestartContinuation(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, 100)
	if err != nil {
		t.Fatal(err)
	}
	for n := uint64(1); n <= 3; n++ {
		if _, _, err := w.Append(testRound(n, 2)); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	// Second life: a fresh segment, never appending to the first one.
	w2, err := Open(dir, 100)
	if err != nil {
		t.Fatal(err)
	}
	for n := uint64(4); n <= 6; n++ {
		if _, _, err := w2.Append(testRound(n, 2)); err != nil {
			t.Fatal(err)
		}
	}
	w2.Close()
	seqs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) < 2 {
		t.Fatalf("restart reused a segment: %v", seqs)
	}
	rounds, err := Dump(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rounds) != 6 || rounds[0].Round != 1 || rounds[5].Round != 6 {
		t.Fatalf("dump after restart = %d rounds, want 1..6", len(rounds))
	}
}

// TestBlackboxRestartAfterTornTail is the crash-then-restart sequence:
// the first life's segment ends in a torn record, and the second life
// must still open, write, and dump the intact prefix plus its own rounds.
func TestBlackboxRestartAfterTornTail(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, 100)
	if err != nil {
		t.Fatal(err)
	}
	for n := uint64(1); n <= 3; n++ {
		if _, _, err := w.Append(testRound(n, 2)); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	path := onlySegment(t, dir)
	torn := AppendRecord(nil, testRound(4, 2))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(torn[:len(torn)/2])
	f.Close()

	w2, err := Open(dir, 100)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := w2.Append(testRound(5, 2)); err != nil {
		t.Fatal(err)
	}
	w2.Close()
	rounds, err := Dump(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{1, 2, 3, 5}
	if len(rounds) != len(want) {
		t.Fatalf("dump = %d rounds, want %d", len(rounds), len(want))
	}
	for i, n := range want {
		if rounds[i].Round != n {
			t.Fatalf("rounds[%d].Round = %d, want %d", i, rounds[i].Round, n)
		}
	}
}

// TestBlackboxWriterSteadyStateZeroAlloc is the alloc-check gate for the
// warm write path: once the scratch buffer has grown to the record size,
// Append must not allocate.
func TestBlackboxWriterSteadyStateZeroAlloc(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, 1<<20) // segRounds is large: no rotation below
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	r := testRound(1, 64)
	if _, _, err := w.Append(r); err != nil { // warm the scratch buffer
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		r.Round++
		if _, _, err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm Append allocates %.1f allocs/op, want 0", allocs)
	}
}

func TestBlackboxUnitAccessors(t *testing.T) {
	u := UnitRound{ReadingDW: 123, CapDW: 4500, Health: 1}
	if u.ReadingW() != 12.3 || u.CapW() != 450 {
		t.Fatalf("watt accessors: %v %v", u.ReadingW(), u.CapW())
	}
	names := []string{"fresh", "stale", "dead"}
	for h, want := range names {
		if got := (UnitRound{Health: uint8(h)}).HealthString(); got != want {
			t.Fatalf("HealthString(%d) = %q, want %q", h, got, want)
		}
	}
}

// TestParentSegmentBytes is the on-disk compatibility check against a
// segment written by the commit before the shared section codec and the
// round record (a88cf7a): it must decode in full, and re-encoding the
// decoded rounds through AppendRecord must reproduce it byte for byte,
// so that commit decodes what this one writes.
func TestParentSegmentBytes(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "parent", "bb-00000001.dpsbb"))
	if err != nil {
		t.Fatal(err)
	}
	rounds, err := DecodeSegment(want)
	if err != nil || len(rounds) != 12 {
		t.Fatalf("parent segment decoded to %d rounds, err %v; want 12", len(rounds), err)
	}
	got := appendHeader(nil)
	for i := range rounds {
		got = AppendRecord(got, record(&rounds[i]))
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("re-encoded parent segment differs (%d vs %d bytes)", len(got), len(want))
	}
}
