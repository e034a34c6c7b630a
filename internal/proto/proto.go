// Package proto defines the compact binary wire protocol between the DPS
// controller daemon and its node agents.
//
// The paper's overhead analysis (§6.5) notes that "only 3 bytes are
// exchanged per request with each node", which is what keeps a central
// controller viable at tens of thousands of nodes. This protocol keeps
// that property: after a one-time handshake, every power report and every
// cap assignment is a 3-byte record —
//
//	[ local unit index : uint8 ][ value : uint16 big-endian, deciwatts ]
//
// Deciwatt quantization bounds the wire-induced power error at 0.05 W,
// far below RAPL's own noise, and the uint16 range tops out at 6553.5 W
// per unit — forty times a socket TDP.
//
// Handshake (agent → server, once per connection):
//
//	[ magic "DPS1" : 4 bytes ][ protocol version 3 : uint8 ]
//	[ first global unit id : uint16 ][ unit count : uint8 ][ flags : uint8 ]
//
// Flags 0 is an agent; FlagReplicate, described below, is the only other
// value. Any other version, and any other flag bit, is refused. The
// version is checked on the first 8 bytes, so an agent of an older
// version is refused before any ack and is never sent a cap batch in a
// format it did not ask for. The server validates that the advertised
// unit range is in bounds and not claimed by another live agent, then
// acknowledges with 4 bytes — [ 'O' 'K' ] and its advertised delta
// epsilon in big-endian deciwatts — or closes the connection.
//
// Upstream (agent → server), every message is a one-byte frame type and
// its body. An agent reports in one dialect, the batch frame —
//
//	[ 'B' ][ record count : uint8 ][ count × 3-byte records ]
//
// with records strictly increasing by local unit (the canonical
// encoding; anything else is refused). A full report is a batch frame
// carrying every unit: 2 + 3·n bytes for an n-unit node, so the framing
// costs 2 bytes per node per interval on top of the paper's 3 B per unit.
// An agent doing delta suppression sends only the units whose power moved
// more than the epsilon since their last sent value, and a quiet interval
// is a 1-byte heartbeat [ 'H' ]: it refreshes the server's health clock
// for the session's units without touching readings, so a suppressed
// agent never looks dead. The Session type owns the handshake and the
// per-connection frame buffers. Its read methods take whatever the
// connection has in one Read, so a session may hold bytes past the frame
// it last returned: once Accept or Connect has returned, an agent
// connection is read through its Session only.
//
// Downstream (server → agent), a cap batch is the controller's
// decision-round counter followed by one record per local unit, record i
// for local unit i, with no frame type:
//
//	[ round : uint64 big-endian ][ n × 3-byte records ]
//
// The round lets the agent tag its own trace spans (meter read, report
// decision, cap apply) with the round that caused them, so a fleet-wide
// trace merge can correlate spans across processes.
//
// The agent answers every cap batch it programs with a 3-byte apply
// echo, an upstream frame
//
//	[ 'A' ][ apply duration : uint16 big-endian, µs ]
//
// The duration saturates at ~65.5 ms. The echo carries no round: TCP
// order pairs it with the oldest unanswered push on its connection, and
// its arrival time is what gives the server its true reading→enforced-cap
// latency.
//
// FlagReplicate: the connection is not an agent at all but a warm
// standby controller subscribing to the primary's state stream. After
// the ack the direction of traffic inverts — the server streams state
// frames downstream and the standby only reads:
//
//	[ 'S' ][ length : uint32 big-endian ][ snapshot image ]
//	[ 'D' ][ length : uint32 big-endian ][ round : uint64 BE | raw sections ]
//
// A snapshot frame carries a complete versioned snapshot image
// (internal/snapshot); a delta frame carries the primary's round counter
// followed by the raw framings of just the sections whose bytes changed
// that round. The unit range in a replicate hello is ignored (by
// convention the standby sends FirstUnit 0, Units 1).
package proto

import (
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"dps/internal/power"
)

// Version is the protocol version carried in the handshake. Older
// versions are refused: version 1 sent raw report records and no flags
// byte, and version 2 negotiated the apply echo and the cap batch's round
// prefix per connection.
const Version = 3

// FlagReplicate, the one hello flag: the connection is a warm-standby
// controller; after the ack the server streams snapshot/delta state
// frames downstream. Every other bit is refused.
const FlagReplicate = 1 << 2

// Upstream frame types (agent → server).
const (
	// FrameBatch precedes one report: a count byte and that many records.
	FrameBatch byte = 'B'
	// FrameHeartbeat is a complete 1-byte liveness frame.
	FrameHeartbeat byte = 'H'
	// FrameApply precedes one 2-byte apply echo body.
	FrameApply byte = 'A'
)

// Downstream state-frame types (server → standby) on a replicate
// session.
const (
	// FrameSnapshot carries a complete snapshot image.
	FrameSnapshot byte = 'S'
	// FrameDelta carries the primary's round counter plus one section
	// framing: that round's inputs (snapshot.SecRoundInput).
	FrameDelta byte = 'D'
)

// MaxStateFrame bounds a state frame's payload: large enough for a
// full snapshot of the largest addressable cluster (~0.5 KB of state
// per unit at 64 K units is well under 1 GiB), small enough that a
// corrupt length field cannot demand an absurd allocation.
const MaxStateFrame = 1 << 30

// StateFrameHeaderSize is the fixed framing overhead of a state frame:
// the type byte plus the 4-byte payload length.
const StateFrameHeaderSize = 5

// RecordSize is the size of one power/cap record on the wire: the
// paper's 3 bytes.
const RecordSize = 3

// magic identifies a DPS connection.
var magic = [4]byte{'D', 'P', 'S', '1'}

// HelloSize is the handshake frame size.
const HelloSize = 4 + 1 + 2 + 1 + 1

// ackOK is the server's handshake acknowledgement.
var ackOK = [2]byte{'O', 'K'}

// MaxDeciwatts is the largest representable power value.
const MaxDeciwatts = 0xFFFF

// Hello is the agent's handshake.
type Hello struct {
	// FirstUnit is the agent's first global unit ID; the agent owns
	// [FirstUnit, FirstUnit+Units).
	FirstUnit power.UnitID
	// Units is the number of power-capping units on the node.
	Units int
	// Replicate marks the connection as a warm-standby state subscriber
	// instead of an agent; the unit range is ignored (send FirstUnit 0,
	// Units 1).
	Replicate bool
}

// MaxNodeUnits is the most units one node (one hello, one connection) can
// carry: the handshake's unit count and every frame's record index are a
// single byte. The one definition of the per-node limit — Hello.Validate,
// the agent's config check and the batch-frame bound all use it.
const MaxNodeUnits = 0xFF

// Validate reports whether the handshake is self-consistent.
func (h Hello) Validate() error {
	switch {
	case h.FirstUnit < 0 || h.FirstUnit > 0xFFFF:
		return fmt.Errorf("proto: first unit %d outside uint16 range", h.FirstUnit)
	case h.Units < 1 || h.Units > MaxNodeUnits:
		return fmt.Errorf("proto: unit count %d outside [1,%d]", h.Units, MaxNodeUnits)
	case int(h.FirstUnit)+h.Units > 0x10000:
		return fmt.Errorf("proto: unit range [%d,%d) exceeds addressable space", h.FirstUnit, int(h.FirstUnit)+h.Units)
	}
	return nil
}

// WriteHello sends the handshake.
func WriteHello(w io.Writer, h Hello) error {
	if err := h.Validate(); err != nil {
		return err
	}
	var buf [HelloSize]byte
	copy(buf[:4], magic[:])
	buf[4] = Version
	binary.BigEndian.PutUint16(buf[5:7], uint16(h.FirstUnit))
	buf[7] = byte(h.Units)
	if h.Replicate {
		buf[8] = FlagReplicate
	}
	_, err := w.Write(buf[:])
	return err
}

// ReadHello reads and validates a handshake. The version is checked
// before the flags byte is read, so a version-1 agent, whose hello is a
// byte shorter, is refused at once instead of waiting for an ack. Any
// flag bit but FlagReplicate is refused too, so the parser only accepts
// frames WriteHello produces.
func ReadHello(r io.Reader) (Hello, error) {
	var buf [HelloSize]byte
	if _, err := io.ReadFull(r, buf[:HelloSize-1]); err != nil {
		return Hello{}, fmt.Errorf("proto: reading handshake: %w", err)
	}
	if [4]byte(buf[:4]) != magic {
		return Hello{}, fmt.Errorf("proto: bad magic %q", buf[:4])
	}
	if buf[4] != Version {
		return Hello{}, fmt.Errorf("proto: unsupported version %d (want %d)", buf[4], Version)
	}
	if _, err := io.ReadFull(r, buf[HelloSize-1:]); err != nil {
		return Hello{}, fmt.Errorf("proto: reading handshake flags: %w", err)
	}
	flags := buf[HelloSize-1]
	if flags&^FlagReplicate != 0 {
		return Hello{}, fmt.Errorf("proto: unknown hello flags %#02x", flags&^FlagReplicate)
	}
	h := Hello{
		FirstUnit: power.UnitID(binary.BigEndian.Uint16(buf[5:7])),
		Units:     int(buf[7]),
		Replicate: flags&FlagReplicate != 0,
	}
	if err := h.Validate(); err != nil {
		return Hello{}, err
	}
	return h, nil
}

// ToDeciwatts quantizes a power value for the wire, clamping to the
// representable range.
func ToDeciwatts(w power.Watts) uint16 {
	if w <= 0 {
		return 0
	}
	dw := int64(float64(w)*10 + 0.5)
	if dw > MaxDeciwatts {
		dw = MaxDeciwatts
	}
	return uint16(dw)
}

// FromDeciwatts converts a wire value back to watts.
func FromDeciwatts(dw uint16) power.Watts {
	return power.Watts(float64(dw) / 10)
}

// Record is one 3-byte power report or cap assignment.
type Record struct {
	// LocalUnit indexes into the agent's unit range.
	LocalUnit uint8
	// Value is the power or cap in deciwatts.
	Value uint16
}

// PutRecord encodes a record into a 3-byte slice.
func PutRecord(dst []byte, r Record) {
	_ = dst[RecordSize-1]
	dst[0] = r.LocalUnit
	binary.BigEndian.PutUint16(dst[1:3], r.Value)
}

// GetRecord decodes a record from a 3-byte slice.
func GetRecord(src []byte) Record {
	_ = src[RecordSize-1]
	return Record{LocalUnit: src[0], Value: binary.BigEndian.Uint16(src[1:3])}
}

// applyEchoBodySize is the apply echo payload after the frame byte.
const applyEchoBodySize = 2

// MaxApplyEcho is the largest apply duration the 2-byte echo represents;
// longer applies saturate to it.
const MaxApplyEcho = time.Duration(0xFFFF) * time.Microsecond

// StateFrameHeader builds the 5-byte framing header of a replication
// state frame: the frame type and a big-endian payload length. It
// returns the header by value so zero-allocation senders can park it in
// storage they retain before writing — a stack array sliced into an
// interface Write always escapes, which is exactly the allocation the
// replication hot path must not make.
func StateFrameHeader(frame byte, n int) ([StateFrameHeaderSize]byte, error) {
	var hdr [StateFrameHeaderSize]byte
	if frame != FrameSnapshot && frame != FrameDelta {
		return hdr, fmt.Errorf("proto: unknown state frame type %#02x", frame)
	}
	if n > MaxStateFrame {
		return hdr, fmt.Errorf("proto: state frame of %d bytes exceeds %d", n, MaxStateFrame)
	}
	hdr[0] = frame
	binary.BigEndian.PutUint32(hdr[1:], uint32(n))
	return hdr, nil
}

// ReadStateFrame reads one replication state frame into buf (grown when
// too small, reused otherwise) and returns the frame type and the
// payload slice aliasing buf. Unknown frame types and oversized lengths
// are rejected before any payload is read. The header is staged through
// buf as well, so a warm reader with a grown buf never allocates.
func ReadStateFrame(r io.Reader, buf []byte) (frame byte, payload, bufOut []byte, err error) {
	if cap(buf) < StateFrameHeaderSize {
		buf = make([]byte, StateFrameHeaderSize)
	}
	hdr := buf[:StateFrameHeaderSize]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, nil, buf, fmt.Errorf("proto: reading state frame header: %w", err)
	}
	frame = hdr[0]
	if frame != FrameSnapshot && frame != FrameDelta {
		return 0, nil, buf, fmt.Errorf("proto: unknown state frame type %#02x", frame)
	}
	n := binary.BigEndian.Uint32(hdr[1:])
	if n > MaxStateFrame {
		return 0, nil, buf, fmt.Errorf("proto: state frame of %d bytes exceeds %d", n, MaxStateFrame)
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	payload = buf[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, buf, fmt.Errorf("proto: reading %d-byte state frame: %w", n, err)
	}
	return frame, payload, buf, nil
}

// DeltaRound extracts the primary's round counter from a FrameDelta
// payload (the 8-byte big-endian prefix before the raw sections).
func DeltaRound(payload []byte) (round uint64, sections []byte, err error) {
	if len(payload) < 8 {
		return 0, nil, fmt.Errorf("proto: delta frame of %d bytes lacks the round prefix", len(payload))
	}
	return binary.BigEndian.Uint64(payload[:8]), payload[8:], nil
}

// PutDeltaRound writes the round prefix of a FrameDelta payload into the
// first 8 bytes of dst.
func PutDeltaRound(dst []byte, round uint64) {
	binary.BigEndian.PutUint64(dst[:8], round)
}
