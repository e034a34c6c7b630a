package main

import (
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"time"

	"dps/internal/proto"
)

// opsWarmupRounds is how many of the warm-up's last rounds already carry the
// between-rounds operator activity. It costs as much as the round itself and
// needs only a few rounds to reach its steady footprint (the series store
// creates its rings on the first sample), so the rest of the warm-up skips it.
const opsWarmupRounds = 64

// operatorPeriod is the number of rounds between two operator reads.
const operatorPeriod = 10

// opsState is what ops16k runs beside dense16k's exact traffic: a replica
// sink draining the replication stream, the series sampler driven once per
// round, and an operator reading the HTTP surfaces while the loop writes
// them. (Health clocks, tracer, series, watch, black box and the snapshot
// file are switched on by configs/ops16k.json itself.)
type opsState struct {
	mux *http.ServeMux

	replica     net.Conn
	replicaDone chan struct{}
	replBytes   atomic.Uint64
	replFrames  atomic.Uint64

	sampleNS []int64 // SampleOnce wall time, one per timed round
}

func newOpsState(f *fleet) (*opsState, error) {
	o := &opsState{mux: f.srv.StatusHandler(), replicaDone: make(chan struct{})}
	c, err := net.Dial("tcp", f.ln.Addr().String())
	if err != nil {
		return nil, err
	}
	sess, err := proto.Connect(c, proto.Hello{FirstUnit: 0, Units: 1, Replicate: true})
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("replica sink handshake: %w", err)
	}
	o.replica = c
	go func() {
		defer close(o.replicaDone)
		defer sess.Release()
		var buf []byte
		for {
			_, payload, b, err := proto.ReadStateFrame(c, buf)
			if err != nil {
				return
			}
			buf = b
			o.replBytes.Add(uint64(len(payload) + proto.StateFrameHeaderSize))
			o.replFrames.Add(1)
		}
	}()
	return o, nil
}

// get performs one operator read through the server's own mux, without a
// listening socket.
func get(mux *http.ServeMux, url string) error {
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
	if rec.Code != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, rec.Code)
	}
	return nil
}

// afterRound is the between-rounds operator activity: one sampler scrape
// (plus watch-rule evaluation) every round, and every operatorPeriod rounds
// one read of each inspection surface.
func (o *opsState) afterRound(f *fleet) {
	t := time.Now()
	f.srv.SampleOnce()
	o.sampleNS = append(o.sampleNS, int64(time.Since(t)))
	if f.rounds%operatorPeriod != 0 {
		return
	}
	unit := int(f.rounds) % f.spec.units
	for _, url := range []string{"/metrics", "/status", "/debug/rounds?n=1", fmt.Sprintf("/debug/why?unit=%d", unit)} {
		if err := get(o.mux, url); err != nil {
			f.fail("%v", err)
		}
	}
}

func (o *opsState) close() {
	o.replica.Close()
	<-o.replicaDone
}
