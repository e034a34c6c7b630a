package snapshot

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"dps/internal/power"
	"dps/internal/section"
)

// fillInput builds a round input for `units` units with every field
// populated: a scattered dirty set, three report-age runs, mixed health.
func fillInput(units int) *RoundInput {
	words := (units + 63) / 64
	in := &RoundInput{
		Interval: 1, BudgetTotal: power.Watts(units) * 110, SavedUnixMS: 1_700_000_000_123, Digest: 0xfeedface,
		Dirty: make([]uint64, words), Readings: make(power.Vector, units), Pushed: make([]uint64, words),
		HasHealth: true, Health: make([]uint8, units), ReportAgeMS: make([]uint32, units),
	}
	for u := 0; u < units; u++ {
		if u%3 != 1 {
			in.Dirty[u>>6] |= 1 << (u & 63)
			in.Readings[u] = power.Watts(40 + u)
		}
		if u%5 != 0 {
			in.Pushed[u>>6] |= 1 << (u & 63)
		}
		in.Health[u] = uint8(u % 3)
		in.ReportAgeMS[u] = uint32(u / (units/3 + 1) * 1500)
	}
	return in
}

// payloadOf strips the section framing AppendRoundInput adds.
func payloadOf(t testing.TB, framed []byte) []byte {
	t.Helper()
	w := section.Walk(framed)
	if !w.Next() || w.ID != SecRoundInput || len(w.Rest) != 0 {
		t.Fatalf("AppendRoundInput did not produce one clean SecRoundInput section (%v)", w.Stop)
	}
	return w.Payload
}

func TestRoundInputRoundTrip(t *testing.T) {
	for _, units := range []int{1, 63, 64, 65, 200} {
		in := fillInput(units)
		framed := AppendRoundInput(nil, in)
		var out RoundInput
		if err := DecodeRoundInput(&out, payloadOf(t, framed), units); err != nil {
			t.Fatalf("%d units: %v", units, err)
		}
		// Readings under a clear dirty bit do not travel; the decoder's
		// fresh vector holds zeros there, and so does fillInput's.
		if !reflect.DeepEqual(&out, in) {
			t.Fatalf("%d units: round trip changed the record\n got %+v\nwant %+v", units, out, *in)
		}
		if again := AppendRoundInput(nil, &out); !reflect.DeepEqual(again, framed) {
			t.Fatalf("%d units: re-encoding the decoded record changed bytes", units)
		}
		// Steady traffic ships almost nothing: no dirty unit, one age run.
		clear(in.Dirty)
		clear(in.ReportAgeMS)
		in.HasHealth = false
		if steady := AppendRoundInput(nil, in); len(steady) > 64+2*8*len(in.Dirty) {
			t.Fatalf("%d units: a clean round's frame is %d bytes", units, len(steady))
		}
	}
}

func TestRoundInputRejections(t *testing.T) {
	const units = 70
	good := payloadOf(t, AppendRoundInput(nil, fillInput(units)))
	mutate := func(f func(b []byte) []byte) []byte { return f(append([]byte(nil), good...)) }
	const fixed = 4 + 1 + 4*8 // units, flags, interval, budget, stamp, digest
	for name, bad := range map[string][]byte{
		"empty":               {},
		"other unit count":    mutate(func(b []byte) []byte { b[0]++; return b }),
		"truncated":           good[:len(good)-3],
		"trailing bytes":      append(append([]byte(nil), good...), 0),
		"stray dirty bit":     mutate(func(b []byte) []byte { b[fixed+15] |= 0x80; return b }),
		"readings count":      mutate(func(b []byte) []byte { b[fixed+16]--; return b }),
		"one more dirty bit":  mutate(func(b []byte) []byte { b[fixed] |= 0x02; return b }), // unit 1 was clean
		"health out of range": mutate(func(b []byte) []byte { b[len(b)-4-3*8-units] = 3; return b }),
		"runs overshoot":      mutate(func(b []byte) []byte { b[len(b)-8]++; return b }),
		"runs undershoot":     mutate(func(b []byte) []byte { b[len(b)-8]--; return b }),
		"huge run count":      mutate(func(b []byte) []byte { b[len(b)-3*8-1] = 0xff; return b }),
	} {
		var out RoundInput
		if err := DecodeRoundInput(&out, bad, units); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
	var out RoundInput
	if err := DecodeRoundInput(&out, good, units); err != nil {
		t.Fatalf("the unmutated payload: %v", err)
	}
}

// FuzzRoundInputDecode: on arbitrary bytes the decoder's only failure
// mode is a returned error — no panic, and nothing sized from the
// payload: whatever it is fed, the record it fills never outgrows the
// unit count it was told. What decodes must re-encode to a frame that
// decodes to the same record.
func FuzzRoundInputDecode(f *testing.F) {
	const units = 70
	good := payloadOf(f, AppendRoundInput(nil, fillInput(units)))
	f.Add([]byte{})
	f.Add(good)
	f.Add(good[:len(good)/2])
	flip := append([]byte(nil), good...)
	flip[len(flip)/3] ^= 0x40
	f.Add(flip)
	noHealth := fillInput(units)
	noHealth.HasHealth = false
	f.Add(payloadOf(f, AppendRoundInput(nil, noHealth)))
	f.Fuzz(func(t *testing.T, data []byte) {
		var in RoundInput
		err := DecodeRoundInput(&in, data, units)
		if cap(in.Readings) > units || cap(in.Health) > units || cap(in.ReportAgeMS) > units ||
			cap(in.Dirty) > 2 || cap(in.Pushed) > 2 {
			t.Fatalf("decoder sized a slice past %d units", units)
		}
		if err != nil {
			return
		}
		if len(in.Readings) != units || len(in.Dirty) != 2 || len(in.Pushed) != 2 {
			t.Fatalf("decoded record has %d readings, %d+%d mask words", len(in.Readings), len(in.Dirty), len(in.Pushed))
		}
		// Compared as bytes: fuzzed readings may be NaNs.
		framed := AppendRoundInput(nil, &in)
		var again RoundInput
		if err := DecodeRoundInput(&again, payloadOf(t, framed), units); err != nil {
			t.Fatalf("re-encoded record does not decode: %v", err)
		}
		if !bytes.Equal(AppendRoundInput(nil, &again), framed) {
			t.Fatalf("re-encode changed the record\n got %+v\nwant %+v", again, in)
		}
	})
}
