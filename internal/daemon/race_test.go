package daemon

import (
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"dps/internal/core"
	"dps/internal/power"
)

// TestConcurrentDecideAndScrapes drives the decision loop — through the
// stats-returning DecideStats path — while
// /metrics, /status and /debug/rounds are scraped concurrently. Run with
// -race, this is the proof that a decision round never races an observer:
// exactly the overlap a deployed daemon sees every interval.
func TestConcurrentDecideAndScrapes(t *testing.T) {
	const (
		units  = 64
		rounds = 60
	)
	budget := power.Budget{Total: power.Watts(units) * 80, UnitMax: 165, UnitMin: 10}
	mgr, err := core.NewDPS(core.DefaultConfig(units, budget))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{Manager: mgr, Units: units, Interval: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.StatusHandler()

	done := make(chan struct{})
	var wg sync.WaitGroup
	for _, path := range []string{"/metrics", "/status", "/debug/rounds"} {
		wg.Add(1)
		go func(path string) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
				if rec.Code != 200 {
					t.Errorf("GET %s = %d", path, rec.Code)
					return
				}
			}
		}(path)
	}

	for i := 0; i < rounds; i++ {
		if _, err := srv.DecideOnce(1); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
	}
	close(done)
	wg.Wait()

	if got := srv.Rounds(); got != rounds {
		t.Fatalf("Rounds() = %d, want %d", got, rounds)
	}
}
