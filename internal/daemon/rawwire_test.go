package daemon

import (
	"fmt"
	"io"

	"dps/internal/power"
	"dps/internal/proto"
)

// Raw wire helpers for tests that speak the protocol byte for byte — a
// raw client against a server, or a fake server half against a real
// agent. Production code negotiates through proto.Session; these exist
// so the tests stay pinned to the wire bytes rather than to whatever the
// session layer currently does.

// rawWriteAck sends the handshake acknowledgement: OK and a zero delta
// epsilon.
func rawWriteAck(w io.Writer) error {
	_, err := w.Write([]byte{'O', 'K', 0, 0})
	return err
}

// rawReadAck consumes and validates the handshake acknowledgement: OK and
// the advertised delta epsilon.
func rawReadAck(r io.Reader) error {
	var buf [4]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return fmt.Errorf("reading ack: %w", err)
	}
	if [2]byte(buf[:2]) != [2]byte{'O', 'K'} {
		return fmt.Errorf("bad ack %q", buf[:2])
	}
	return nil
}

// rawBatchFrame encodes one batch frame: the frame type, the record
// count, then the records as given.
func rawBatchFrame(recs []proto.Record) []byte {
	buf := make([]byte, 2+len(recs)*proto.RecordSize)
	buf[0], buf[1] = proto.FrameBatch, byte(len(recs))
	for i, rec := range recs {
		proto.PutRecord(buf[2+i*proto.RecordSize:], rec)
	}
	return buf
}

// rawReadCaps reads one downstream cap batch — the 8-byte round, then
// len(dst) records — into dst by local unit.
func rawReadCaps(r io.Reader, dst []power.Watts) error {
	n := len(dst)
	buf := make([]byte, 8+n*proto.RecordSize)
	if _, err := io.ReadFull(r, buf); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		rec := proto.GetRecord(buf[8+i*proto.RecordSize:])
		if int(rec.LocalUnit) >= n {
			return fmt.Errorf("record for local unit %d in a %d-unit batch", rec.LocalUnit, n)
		}
		dst[rec.LocalUnit] = proto.FromDeciwatts(rec.Value)
	}
	return nil
}
