package daemon

import (
	"net"
	"sync"
	"testing"
	"time"

	"dps/internal/power"
	"dps/internal/proto"
)

// ingestBenchUnits is the cluster size of the ingest benchmarks: the
// acceptance bar for the batched data plane is stated at 16k units.
const ingestBenchUnits = 16384

// benchIngest measures server-side ingest throughput: `conns` agent
// connections over in-memory pipes, each owning `unitsPerConn` units,
// each writing pre-encoded report frames as fast as the server consumes
// them. One benchmark iteration lands one full reading per unit
// (ingestBenchUnits readings). writeFrames writes one full refresh for a
// connection (its pre-encoded bytes) and is the only per-mode code.
func benchIngest(b *testing.B, conns, unitsPerConn int, handshake func(c net.Conn, first power.UnitID, n int) ([]byte, error)) {
	units := conns * unitsPerConn
	if units != ingestBenchUnits {
		b.Fatalf("conns*unitsPerConn = %d, want %d", units, ingestBenchUnits)
	}
	// The benchmarks never run a decision round; the controller is built
	// here, before the timer starts, and only sizes the server.
	srv, err := NewServer(ServerConfig{Manager: mustDPS(b, units), Units: units, Interval: time.Hour})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()

	type client struct {
		conn  net.Conn
		frame []byte
	}
	clients := make([]client, conns)
	for i := range clients {
		cc, sc := net.Pipe()
		go srv.Handle(sc)
		frame, err := handshake(cc, power.UnitID(i*unitsPerConn), unitsPerConn)
		if err != nil {
			b.Fatal(err)
		}
		clients[i] = client{conn: cc, frame: frame}
	}
	defer func() {
		for _, c := range clients {
			c.conn.Close()
		}
	}()

	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(conn net.Conn, frame []byte) {
			defer wg.Done()
			for i := 0; i < b.N; i++ {
				if _, err := conn.Write(frame); err != nil {
					b.Error(err)
					return
				}
			}
		}(c.conn, c.frame)
	}
	wg.Wait()
	b.StopTimer()
	b.ReportMetric(float64(conns), "conns")
	b.ReportMetric(float64(ingestBenchUnits)*float64(b.N)/b.Elapsed().Seconds(), "readings/s")
}

// batchHandshake negotiates a session and returns one pre-encoded full
// report: a batch frame carrying all n records. The client session is
// released immediately: the benchmark loop writes raw pre-encoded bytes,
// it never reads caps.
func batchHandshake(c net.Conn, first power.UnitID, n int) ([]byte, error) {
	sess, err := proto.Connect(c, proto.Hello{FirstUnit: first, Units: n})
	if err != nil {
		return nil, err
	}
	sess.Release()
	recs := make([]proto.Record, n)
	for i := range recs {
		recs[i] = proto.Record{LocalUnit: uint8(i), Value: proto.ToDeciwatts(100.5)}
	}
	return rawBatchFrame(recs), nil
}

// BenchmarkIngestPerReading is the per-reading baseline the node-sized
// planes are measured against: one connection per unit, so every reading
// — a one-record batch frame — costs its own socket write, frame read,
// and ingest lock.
func BenchmarkIngestPerReading(b *testing.B) {
	benchIngest(b, ingestBenchUnits, 1, batchHandshake)
}

// deltaHandshake negotiates a session and returns one sparse delta
// frame: 8 of the connection's units carried, the rest asserted
// unchanged by omission. One iteration still refreshes every unit (an
// omitted unit is live information), so readings/s stays comparable.
func deltaHandshake(c net.Conn, first power.UnitID, n int) ([]byte, error) {
	sess, err := proto.Connect(c, proto.Hello{FirstUnit: first, Units: n})
	if err != nil {
		return nil, err
	}
	sess.Release()
	recs := make([]proto.Record, 0, 8)
	for i := 0; i < n && len(recs) < cap(recs); i += n / 8 {
		recs = append(recs, proto.Record{LocalUnit: uint8(i), Value: proto.ToDeciwatts(100.5)})
	}
	return rawBatchFrame(recs), nil
}

// BenchmarkIngestBatchNode is the data plane at the deployed shape: one
// connection per 128-unit node, each report one batch frame carrying all
// 128 records.
func BenchmarkIngestBatchNode(b *testing.B) {
	benchIngest(b, ingestBenchUnits/128, 128, batchHandshake)
}

// BenchmarkIngestBatchDelta is the event-driven steady state: one
// connection per 128-unit node, each interval a sparse 8-record delta
// (quiet units suppressed at the agent).
func BenchmarkIngestBatchDelta(b *testing.B) {
	benchIngest(b, ingestBenchUnits/128, 128, deltaHandshake)
}
