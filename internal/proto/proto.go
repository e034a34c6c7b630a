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
// A node batches one record per local power-capping unit per decision
// interval, so a 2-socket node costs 6 bytes up and 6 bytes down per
// second. Deciwatt quantization bounds the wire-induced power error at
// 0.05 W, far below RAPL's own noise, and the uint16 range tops out at
// 6553.5 W per unit — forty times a socket TDP.
//
// Handshake (agent → server, once per connection):
//
//	[ magic "DPS1" : 4 bytes ][ protocol version : uint8 ]
//	[ first global unit id : uint16 ][ unit count : uint8 ]
//
// The server validates that the advertised unit range is in bounds and
// not claimed by another live agent, then acknowledges with a 2-byte
// status frame [ 'O' 'K' ] (or closes the connection).
//
// Version 2 appends one capability-flags byte to the handshake. It is
// opt-in and strictly additive: an agent advertising no capabilities
// sends the byte-identical version-1 frame, and a version-1 server never
// sees version-2 bytes unless the operator enabled a capability. A
// negotiated upstream capability (FlagApplyEcho or FlagBatch) switches
// the upstream direction to framed messages — a one-byte frame type
// before each body — so the kinds stay distinguishable on a shared
// socket.
//
// FlagApplyEcho: the agent sends a 3-byte apply-echo frame
// [ 'A' ][ apply duration : uint16 big-endian, µs ] after programming
// each received cap batch, and prefixes each full report batch with
// [ 'R' ]. The duration saturates at ~65.5 ms; an echo's arrival time is
// what gives the server its true reading→enforced-cap latency.
//
// FlagBatch: the agent reports by delta instead of by full refresh. Its
// reports travel as batch frames —
//
//	[ 'B' ][ record count : uint8 ][ count × 3-byte records ]
//
// carrying only the units whose power moved more than the delta epsilon
// since their last sent value, in strictly increasing local-unit order
// (the canonical encoding; anything else is rejected). A quiet interval
// is a 1-byte heartbeat [ 'H' ]: it refreshes the server's health clock
// for the session's units without touching readings, so a suppressed
// agent never looks dead. The handshake ack on a batch session is
// extended by two bytes carrying the server's advertised delta epsilon
// in big-endian deciwatts. The Session type owns this negotiation and
// the per-connection frame buffers. Its read methods take whatever the
// connection has in one Read, so a session may hold bytes past the frame
// it last returned: once Accept or Connect has returned, an agent
// connection is read through its Session only.
//
// FlagTraceCtx: each downstream cap batch is prefixed with the
// controller's decision-round counter as 8 big-endian bytes, so the
// agent can tag its own trace spans (meter read, report decision, cap
// apply) with the round that caused them and a fleet-wide trace merge
// can correlate spans across processes. Downstream-only: it does not
// switch the upstream direction to framed messages.
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
// convention the standby sends FirstUnit 0, Units 1), and the flag is
// exclusive — a hello combining it with agent capabilities is rejected.
package proto

import (
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"dps/internal/power"
)

// Version is the base protocol version carried in the handshake.
const Version = 1

// Version2 is the capability-carrying handshake version.
const Version2 = 2

// Capability flags carried by a version-2 hello. A version-2 hello with
// no flags set is rejected: the canonical encoding of "no capabilities"
// is a version-1 frame.
const (
	// FlagApplyEcho: the agent will prefix report batches with FrameReport
	// and send a FrameApply echo after applying each cap batch.
	FlagApplyEcho = 1 << 0
	// FlagBatch: the agent reports by delta — FrameBatch frames carrying
	// only changed units, FrameHeartbeat when nothing changed — and the
	// handshake ack is extended with the server's delta epsilon.
	FlagBatch = 1 << 1
	// FlagReplicate: the connection is a warm-standby controller; after
	// the ack the server streams snapshot/delta state frames downstream.
	// Exclusive with the agent capabilities.
	FlagReplicate = 1 << 2
	// FlagTraceCtx: downstream cap batches carry an 8-byte big-endian
	// round-counter prefix so agent-side trace spans can be correlated
	// with the controller round that produced them.
	FlagTraceCtx = 1 << 3

	knownFlags = FlagApplyEcho | FlagBatch | FlagReplicate | FlagTraceCtx
)

// Upstream frame types (agent → server) once any capability is
// negotiated. Without capabilities the upstream carries raw report
// batches, exactly as version 1.
const (
	// FrameReport precedes one full report batch (apply-echo sessions).
	FrameReport byte = 'R'
	// FrameApply precedes one 2-byte apply-echo body.
	FrameApply byte = 'A'
	// FrameBatch precedes one delta batch: a count byte and that many
	// records (batch sessions).
	FrameBatch byte = 'B'
	// FrameHeartbeat is a complete 1-byte liveness frame (batch sessions).
	FrameHeartbeat byte = 'H'
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

// HelloSize is the version-1 handshake frame size, and the fixed prefix
// of every later version.
const HelloSize = 4 + 1 + 2 + 1

// HelloV2Size is the version-2 handshake frame size (prefix + flags).
const HelloV2Size = HelloSize + 1

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
	// ApplyEcho advertises the apply-echo capability. Advertising any
	// capability makes the hello a version-2 frame; with none set the
	// encoding is the byte-identical version-1 frame of older agents.
	ApplyEcho bool
	// Batch advertises the delta-reporting capability: reports travel as
	// batch frames and heartbeats, and the handshake ack carries the
	// server's delta epsilon.
	Batch bool
	// Replicate marks the connection as a warm-standby state subscriber
	// instead of an agent. Exclusive with the agent capabilities; the
	// unit range is ignored (send FirstUnit 0, Units 1).
	Replicate bool
	// TraceCtx advertises the trace-context capability: downstream cap
	// batches are prefixed with the controller's round counter.
	TraceCtx bool
}

// flags returns the capability byte of a version-2 hello (zero when the
// canonical encoding is version 1).
func (h Hello) flags() byte {
	var f byte
	if h.ApplyEcho {
		f |= FlagApplyEcho
	}
	if h.Batch {
		f |= FlagBatch
	}
	if h.Replicate {
		f |= FlagReplicate
	}
	if h.TraceCtx {
		f |= FlagTraceCtx
	}
	return f
}

// EncodedSize returns the on-wire size of this hello (version-dependent).
func (h Hello) EncodedSize() int {
	if h.flags() != 0 {
		return HelloV2Size
	}
	return HelloSize
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
	case h.Replicate && (h.ApplyEcho || h.Batch || h.TraceCtx):
		return fmt.Errorf("proto: replicate hello cannot also advertise agent capabilities")
	}
	return nil
}

// WriteHello sends the handshake: a version-1 frame, or a version-2
// frame when a capability is advertised.
func WriteHello(w io.Writer, h Hello) error {
	if err := h.Validate(); err != nil {
		return err
	}
	var buf [HelloV2Size]byte
	copy(buf[:4], magic[:])
	buf[4] = Version
	binary.BigEndian.PutUint16(buf[5:7], uint16(h.FirstUnit))
	buf[7] = byte(h.Units)
	if f := h.flags(); f != 0 {
		buf[4] = Version2
		buf[8] = f
	}
	_, err := w.Write(buf[:h.EncodedSize()])
	return err
}

// ReadHello reads and validates a handshake, accepting version 1 and
// version 2. Unknown versions, unknown capability bits, and a version-2
// frame advertising nothing (whose canonical encoding is version 1) are
// all rejected, so the parser only accepts frames WriteHello produces.
func ReadHello(r io.Reader) (Hello, error) {
	var buf [HelloSize]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return Hello{}, fmt.Errorf("proto: reading handshake: %w", err)
	}
	if [4]byte(buf[:4]) != magic {
		return Hello{}, fmt.Errorf("proto: bad magic %q", buf[:4])
	}
	h := Hello{
		FirstUnit: power.UnitID(binary.BigEndian.Uint16(buf[5:7])),
		Units:     int(buf[7]),
	}
	switch buf[4] {
	case Version:
	case Version2:
		var flags [1]byte
		if _, err := io.ReadFull(r, flags[:]); err != nil {
			return Hello{}, fmt.Errorf("proto: reading handshake flags: %w", err)
		}
		if flags[0]&^knownFlags != 0 {
			return Hello{}, fmt.Errorf("proto: unknown capability flags %#02x", flags[0]&^byte(knownFlags))
		}
		if flags[0] == 0 {
			return Hello{}, fmt.Errorf("proto: version 2 hello with no capabilities (use version 1)")
		}
		h.ApplyEcho = flags[0]&FlagApplyEcho != 0
		h.Batch = flags[0]&FlagBatch != 0
		h.Replicate = flags[0]&FlagReplicate != 0
		h.TraceCtx = flags[0]&FlagTraceCtx != 0
	default:
		return Hello{}, fmt.Errorf("proto: unsupported version %d (want %d or %d)", buf[4], Version, Version2)
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

// applyEchoBodySize is the apply-echo payload after the frame byte.
const applyEchoBodySize = 2

// MaxApplyEcho is the largest apply duration the 2-byte echo represents;
// longer applies saturate to it.
const MaxApplyEcho = time.Duration(0xFFFF) * time.Microsecond

// WriteApplyEcho sends a complete apply-echo frame: the FrameApply byte
// followed by the cap-apply duration in big-endian microseconds,
// saturating at MaxApplyEcho (~65.5 ms). Negative durations clamp to 0.
func WriteApplyEcho(w io.Writer, applyDur time.Duration) error {
	var buf [1 + applyEchoBodySize]byte
	putApplyEcho(buf[:], applyDur)
	_, err := w.Write(buf[:])
	return err
}

// putApplyEcho encodes an apply-echo frame into dst's first three bytes.
func putApplyEcho(dst []byte, applyDur time.Duration) {
	us := min(max(applyDur.Microseconds(), 0), 0xFFFF)
	dst[0] = FrameApply
	binary.BigEndian.PutUint16(dst[1:], uint16(us))
}

// ReadApplyEcho reads an apply-echo body — the 2 bytes following a
// FrameApply header the caller already consumed via ReadFrameHeader.
func ReadApplyEcho(r io.Reader) (time.Duration, error) {
	var buf [applyEchoBodySize]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, fmt.Errorf("proto: reading apply echo: %w", err)
	}
	return applyEchoDur(buf[:]), nil
}

// applyEchoDur decodes an apply-echo body.
func applyEchoDur(body []byte) time.Duration {
	return time.Duration(binary.BigEndian.Uint16(body)) * time.Microsecond
}

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

// WriteStateFrame sends one replication state frame: the frame type, a
// 4-byte big-endian payload length, and the payload. Only FrameSnapshot
// and FrameDelta are valid types. Convenience form; it allocates the
// header, so per-round senders use StateFrameHeader with retained
// storage instead.
func WriteStateFrame(w io.Writer, frame byte, payload []byte) error {
	hdr, err := StateFrameHeader(frame, len(payload))
	if err != nil {
		return err
	}
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err = w.Write(payload)
	return err
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
