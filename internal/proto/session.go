package proto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"dps/internal/power"
)

// MaxBatchRecords is the most records one batch frame can carry: one per
// unit of the node.
const MaxBatchRecords = MaxNodeUnits

// ackSize is the handshake acknowledgement: the 2-byte OK followed by the
// server's advertised delta epsilon in big-endian deciwatts.
const ackSize = 4

// capsRoundSize is a cap batch's round prefix.
const capsRoundSize = 8

// maxFrameSize bounds every frame either side of a session ever reads or
// writes: a cap batch's 8-byte round prefix, then a batch frame's header
// byte + count byte + 255 records.
const maxFrameSize = capsRoundSize + 2 + MaxBatchRecords*RecordSize

// FrameKind classifies one upstream frame delivered by Session.ReadFrame.
type FrameKind uint8

const (
	// KindBatch is a report: a strictly-increasing subset of the session's
	// local units, all of them on a full report (FrameBatch).
	KindBatch FrameKind = iota
	// KindHeartbeat is a liveness-only frame: the agent had nothing worth
	// reporting this interval but is alive and its readings stand
	// (FrameHeartbeat).
	KindHeartbeat
	// KindApply is a cap-apply echo carrying the apply duration
	// (FrameApply).
	KindApply
)

// Frame is one upstream message read from a session. Records aliases the
// session's scratch buffer: it is valid until the next ReadFrame call and
// must be copied to retain.
type Frame struct {
	Kind FrameKind
	// Records holds the frame's power records (KindBatch only).
	Records []Record
	// ApplyDur is the cap-apply duration (KindApply only).
	ApplyDur time.Duration
}

// sessionBufs is the pooled per-session scratch: read and write frame
// buffers plus the decoded-record slice. Pooling keeps reconnect churn
// (an agent fleet riding out a controller restart) from allocating a
// fresh ~2 KB per handshake.
type sessionBufs struct {
	read  [maxFrameSize]byte
	write [maxFrameSize]byte
	recs  [MaxBatchRecords]Record
}

var bufPool = sync.Pool{New: func() any { return new(sessionBufs) }}

// Session owns one negotiated connection: the handshake outcome (the
// hello + the server's advertised delta epsilon) and the per-connection
// frame buffers, so framing checks and buffer reuse live in one place
// instead of being re-decided at every call site.
//
// A session supports one concurrent reader and one concurrent writer:
// the read methods (ReadFrame, ReadCapsRound) must come from a single
// goroutine, the write methods from one goroutine at a time (callers
// with multiple writers — e.g. report loop plus apply echo — serialize
// them, as daemon.Agent and daemon.Server do).
type Session struct {
	rw    io.ReadWriter
	hello Hello
	epsDW uint16
	bufs  *sessionBufs
	// bufs.read[rpos:rend] is the read window: bytes already taken off rw
	// and not yet consumed. A read takes whatever the socket has, so the
	// window may hold bytes past the frame last returned.
	rpos, rend int
}

func newSession(rw io.ReadWriter, h Hello) *Session {
	return &Session{rw: rw, hello: h, bufs: bufPool.Get().(*sessionBufs)}
}

// Accept reads an agent's handshake from rw and returns the server half
// of the session. The caller validates the claimed unit range against its
// own state and completes the handshake with Ack (or closes rw).
func Accept(rw io.ReadWriter) (*Session, error) {
	h, err := ReadHello(rw)
	if err != nil {
		return nil, err
	}
	return newSession(rw, h), nil
}

// Connect writes the handshake for h to rw and consumes the server's
// acknowledgement, which carries the advertised delta epsilon
// (DeltaEpsilon), returning the agent half of the session.
func Connect(rw io.ReadWriter, h Hello) (*Session, error) {
	if err := WriteHello(rw, h); err != nil {
		return nil, err
	}
	var ack [ackSize]byte
	if _, err := io.ReadFull(rw, ack[:]); err != nil {
		return nil, fmt.Errorf("proto: reading ack: %w", err)
	}
	if [2]byte(ack[:2]) != ackOK {
		return nil, fmt.Errorf("proto: bad ack %q", ack[:2])
	}
	s := newSession(rw, h)
	s.epsDW = binary.BigEndian.Uint16(ack[2:])
	return s, nil
}

// Ack completes the server side of the handshake, advertising epsilon —
// the delta band agents should suppress within (quantized to deciwatts;
// agents may override locally). A standby ignores it.
func (s *Session) Ack(epsilon power.Watts) error {
	s.epsDW = ToDeciwatts(epsilon)
	buf := s.bufs.write[:ackSize]
	copy(buf, ackOK[:])
	binary.BigEndian.PutUint16(buf[2:], s.epsDW)
	_, err := s.rw.Write(buf)
	return err
}

// Hello returns the negotiated handshake.
func (s *Session) Hello() Hello { return s.hello }

// DeltaEpsilon returns the delta-suppression epsilon carried by the
// handshake ack (zero before Ack).
func (s *Session) DeltaEpsilon() power.Watts { return FromDeciwatts(s.epsDW) }

// Release returns the session's scratch buffers to the pool. Call it
// once, after the connection is torn down, serialized with the session's
// writer; afterwards WriteCapsRound fails and no other session method may
// be called.
func (s *Session) Release() {
	if s.bufs != nil {
		bufPool.Put(s.bufs)
		s.bufs = nil
	}
}

// next consumes and returns the stream's next n bytes (n ≤ maxFrameSize),
// valid until the following call. When the window is short it moves the
// unread bytes to the front and issues one Read into all the free space,
// so a frame that arrived whole costs one system call however many fields
// it is parsed in, and two frames in one segment cost one between them.
// Errors are io.ReadFull's: io.EOF only when none of the n bytes existed,
// io.ErrUnexpectedEOF when the stream ended inside them.
func (s *Session) next(n int) ([]byte, error) {
	for s.rend-s.rpos < n {
		s.rend = copy(s.bufs.read[:], s.bufs.read[s.rpos:s.rend])
		s.rpos = 0
		m, err := s.rw.Read(s.bufs.read[s.rend:])
		s.rend += m
		if err != nil && s.rend < n {
			if err == io.EOF && s.rend > 0 {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	s.rpos += n
	return s.bufs.read[s.rpos-n : s.rpos], nil
}

// ReadFrame reads one upstream frame (server side): a FrameBatch, a
// FrameHeartbeat or a FrameApply. The
// returned Frame's Records alias the session buffer and are valid until
// the next ReadFrame.
func (s *Session) ReadFrame() (Frame, error) {
	b, err := s.next(1)
	if err != nil {
		return Frame{}, fmt.Errorf("proto: reading frame header: %w", err)
	}
	switch hdr := b[0]; hdr {
	case FrameBatch:
		recs, err := s.readBatchBody()
		return Frame{Kind: KindBatch, Records: recs}, err
	case FrameHeartbeat:
		return Frame{Kind: KindHeartbeat}, nil
	case FrameApply:
		body, err := s.next(applyEchoBodySize)
		if err != nil {
			return Frame{}, fmt.Errorf("proto: reading apply echo: %w", err)
		}
		return Frame{Kind: KindApply, ApplyDur: time.Duration(binary.BigEndian.Uint16(body)) * time.Microsecond}, nil
	default:
		return Frame{}, fmt.Errorf("proto: unknown frame type %#02x", hdr)
	}
}

// readBatchBody is the one parser and validator of a batch frame body —
// the count byte and records after a FrameBatch header. It accepts only
// the canonical encoding: a non-empty record list, strictly increasing by
// local unit, every unit inside the session's range.
func (s *Session) readBatchBody() ([]Record, error) {
	units := s.hello.Units
	b, err := s.next(1)
	if err != nil {
		return nil, fmt.Errorf("proto: reading batch frame count: %w", err)
	}
	count := int(b[0])
	if count < 1 {
		return nil, fmt.Errorf("proto: empty batch frame (a quiet interval is a heartbeat)")
	}
	if count > units {
		return nil, fmt.Errorf("proto: batch frame of %d records for %d units", count, units)
	}
	body, err := s.next(count * RecordSize)
	if err != nil {
		return nil, fmt.Errorf("proto: reading batch frame of %d records: %w", count, err)
	}
	recs := s.bufs.recs[:0]
	prev := -1
	for i := 0; i < count; i++ {
		rec := GetRecord(body[i*RecordSize:])
		if int(rec.LocalUnit) <= prev {
			return nil, fmt.Errorf("proto: batch frame records not strictly increasing (unit %d after %d)", rec.LocalUnit, prev)
		}
		if int(rec.LocalUnit) >= units {
			return nil, fmt.Errorf("proto: record for local unit %d in a %d-unit session", rec.LocalUnit, units)
		}
		prev = int(rec.LocalUnit)
		recs = append(recs, rec)
	}
	return recs, nil
}

// WriteDelta sends one batch frame: the given records, which must be
// non-empty, strictly increasing by local unit, and inside the session's
// unit range (the canonical encoding ReadFrame accepts). A full report
// carries every unit; a quiet interval is a heartbeat, not an empty
// delta.
func (s *Session) WriteDelta(recs []Record) error {
	if len(recs) < 1 {
		return fmt.Errorf("proto: empty batch frame (a quiet interval is a heartbeat)")
	}
	if int(recs[len(recs)-1].LocalUnit) >= s.hello.Units {
		return fmt.Errorf("proto: record for local unit %d on a %d-unit session",
			recs[len(recs)-1].LocalUnit, s.hello.Units)
	}
	buf := s.bufs.write[:2+len(recs)*RecordSize]
	buf[0] = FrameBatch
	buf[1] = byte(len(recs))
	prev := -1
	for i, rec := range recs {
		if int(rec.LocalUnit) <= prev {
			return fmt.Errorf("proto: batch frame records not strictly increasing (unit %d after %d)", rec.LocalUnit, prev)
		}
		prev = int(rec.LocalUnit)
		PutRecord(buf[2+i*RecordSize:], rec)
	}
	_, err := s.rw.Write(buf)
	return err
}

// WriteHeartbeat sends a liveness-only frame: "nothing changed beyond
// epsilon, readings stand, don't mark me stale".
func (s *Session) WriteHeartbeat() error {
	s.bufs.write[0] = FrameHeartbeat
	_, err := s.rw.Write(s.bufs.write[:1])
	return err
}

// WriteApplyEcho sends a cap-apply echo (agent side): the FrameApply
// byte and the apply duration in big-endian microseconds, saturating at
// MaxApplyEcho. Negative durations clamp to 0.
func (s *Session) WriteApplyEcho(applyDur time.Duration) error {
	buf := s.bufs.write[:1+applyEchoBodySize]
	buf[0] = FrameApply
	binary.BigEndian.PutUint16(buf[1:], uint16(min(max(applyDur.Microseconds(), 0), 0xFFFF)))
	_, err := s.rw.Write(buf)
	return err
}

// WriteCapsRound sends one cap batch (server side): the controller's
// round counter as 8 big-endian bytes, then one cap assignment per local
// unit, record i for local unit i. The session reuses its write buffer,
// so a warm push allocates nothing.
func (s *Session) WriteCapsRound(round uint64, values []power.Watts) error {
	if s.bufs == nil {
		return errors.New("proto: cap push on a released session")
	}
	if len(values) != s.hello.Units {
		return fmt.Errorf("proto: cap batch of %d values on a %d-unit session", len(values), s.hello.Units)
	}
	buf := s.bufs.write[:capsRoundSize+len(values)*RecordSize]
	binary.BigEndian.PutUint64(buf, round)
	for i, v := range values {
		PutRecord(buf[capsRoundSize+i*RecordSize:], Record{LocalUnit: uint8(i), Value: ToDeciwatts(v)})
	}
	_, err := s.rw.Write(buf)
	return err
}

// ReadCapsRound reads one cap batch into dst, which must have the
// session's unit count (agent side), and returns the controller round
// that produced it. Record i must address local unit i, the one order
// WriteCapsRound writes: a batch that names a unit twice and skips
// another is refused with dst untouched, so the agent never programs a
// cap the controller did not send this round.
func (s *Session) ReadCapsRound(dst []power.Watts) (round uint64, err error) {
	if len(dst) != s.hello.Units {
		return 0, fmt.Errorf("proto: cap buffer of %d values on a %d-unit session", len(dst), s.hello.Units)
	}
	n := len(dst)
	buf, err := s.next(capsRoundSize + n*RecordSize)
	if err != nil {
		return 0, fmt.Errorf("proto: reading batch of %d: %w", n, err)
	}
	round = binary.BigEndian.Uint64(buf)
	recs := buf[capsRoundSize:]
	for i := 0; i < n; i++ {
		if u := recs[i*RecordSize]; int(u) != i {
			return round, fmt.Errorf("proto: cap record %d addresses local unit %d", i, u)
		}
	}
	for i := range dst {
		dst[i] = FromDeciwatts(GetRecord(recs[i*RecordSize:]).Value)
	}
	return round, nil
}
