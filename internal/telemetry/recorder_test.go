package telemetry

import (
	"encoding/json"
	"net/http/httptest"
	"testing"

	"dps/internal/core"
	"dps/internal/power"
)

// commit records one round with the given delivered caps.
func commit(fr *FlightRecorder, round uint64, caps ...power.Watts) {
	rd := fr.Next()
	rd.Reset()
	rd.Round = round
	rd.Fill(Decision{Snap: core.Snapshot{Power: caps}, Decided: caps, Delivered: caps, Prev: caps})
	fr.Commit()
}

func TestFlightRecorderEviction(t *testing.T) {
	fr := NewFlightRecorder(3)
	for round := uint64(1); round <= 5; round++ {
		commit(fr, round)
	}
	if fr.Len() != 3 {
		t.Fatalf("len = %d, want 3", fr.Len())
	}
	if fr.Total() != 5 {
		t.Fatalf("total = %d, want 5", fr.Total())
	}
	recs := fr.Last(0, -1)
	got := make([]uint64, len(recs))
	for i, r := range recs {
		got[i] = r.Round
	}
	// Newest first; rounds 1 and 2 were evicted.
	want := []uint64{5, 4, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rounds = %v, want %v", got, want)
		}
	}
}

func TestFlightRecorderLastN(t *testing.T) {
	fr := NewFlightRecorder(4)
	if recs := fr.Last(2, -1); recs != nil {
		t.Errorf("empty recorder returned %v", recs)
	}
	commit(fr, 1)
	commit(fr, 2)
	recs := fr.Last(1, -1)
	if len(recs) != 1 || recs[0].Round != 2 {
		t.Errorf("Last(1) = %+v", recs)
	}
	if recs := fr.Last(10, -1); len(recs) != 2 {
		t.Errorf("Last(10) returned %d records", len(recs))
	}
}

func TestFlightRecorderHandler(t *testing.T) {
	fr := NewFlightRecorder(8)
	for round := uint64(1); round <= 6; round++ {
		commit(fr, round, 110)
	}

	rec := httptest.NewRecorder()
	fr.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/rounds?n=2", nil))
	if rec.Code != 200 {
		t.Fatalf("code = %d", rec.Code)
	}
	var got []RoundRecord
	if err := json.NewDecoder(rec.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Round != 6 || got[1].Round != 5 {
		t.Errorf("records = %+v", got)
	}
	if len(got[0].Units) != 1 || got[0].Units[0].CapW != 110 {
		t.Errorf("unit record = %+v", got[0].Units)
	}

	rec = httptest.NewRecorder()
	fr.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/rounds?n=bogus", nil))
	if rec.Code != 400 {
		t.Errorf("bad n: code = %d", rec.Code)
	}

	// The last= spelling of the trace endpoint is accepted as an alias.
	rec = httptest.NewRecorder()
	fr.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/rounds?last=2", nil))
	if rec.Code != 200 {
		t.Fatalf("?last=2: code = %d", rec.Code)
	}
	got = nil
	if err := json.NewDecoder(rec.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Round != 6 {
		t.Errorf("?last=2 records = %+v", got)
	}

	// Supplying both spellings is ambiguous, not silently resolved.
	rec = httptest.NewRecorder()
	fr.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/rounds?n=2&last=3", nil))
	if rec.Code != 400 {
		t.Errorf("n+last: code = %d, want 400", rec.Code)
	}

	// Empty recorder serves [] rather than null.
	empty := NewFlightRecorder(2)
	rec = httptest.NewRecorder()
	empty.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/rounds", nil))
	if body := rec.Body.String(); body != "[]\n" {
		t.Errorf("empty body = %q", body)
	}
}
