// Package blackbox is the controller's persistent flight recorder: an
// append-only, segmented on-disk ring of per-round records that survives
// the process that wrote it. The in-memory observability surfaces
// (internal/telemetry's flight recorder, internal/trace's span ring) die
// with the daemon — which is exactly when a forensic record matters
// most. This package keeps the last N decision rounds on disk so
// `dpsctl blackbox dump` can reconstruct the controller's final moments
// from a dead daemon's files.
//
// # On-disk format
//
// A blackbox is a directory of segment files named bb-%08d.dpsbb with
// monotonically increasing sequence numbers. Each segment is a fixed
// header followed by one CRC-framed section (internal/section, the
// framing snapshot images share) per round, id 0x0001:
//
//	header:  magic "DPSB" | version u16 | flags u16 (reserved, zero)
//
// The writer always starts a fresh segment on Open — it never appends
// after a tail it did not write — so a restart (or a standby takeover
// pointed at the same directory) extends the ring with a new segment
// rather than risking a write after a torn record.
//
// # Crash safety
//
// Records are written with one write(2) call each, so a SIGKILL can tear
// at most the record that was in flight. The decoder walks a segment
// record by record and stops at the first structural defect — truncated
// framing, CRC mismatch, malformed payload — keeping the valid prefix.
// A kill -9 therefore loses at most the final in-flight round.
//
// # Ring semantics
//
// The ring retains roughly `rounds` records split across segments of
// rounds/4 each; rotating past the retention limit deletes the oldest
// segment whole. Eviction happens at segment granularity (like any log-
// structured ring), so the directory holds between `rounds` and
// `rounds + rounds/4` records in steady state.
package blackbox

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"dps/internal/proto"
	"dps/internal/section"
	"dps/internal/telemetry"
	"dps/internal/trace"
)

// Version is the current segment format version. Decoders reject
// segments with a newer version.
const Version = 1

// magic identifies a blackbox segment file.
var magic = [4]byte{'D', 'P', 'S', 'B'}

// headerSize is the fixed segment prefix before the first record.
const headerSize = 8

// RecordID is the section id of a round record.
const RecordID uint16 = 0x0001

// DefaultRounds is the ring capacity when the configured round count is
// zero: about 68 minutes of history at a one-second decision loop.
const DefaultRounds = 4096

// maxUnits bounds the decoded per-record unit count, so a corrupted
// length field cannot demand an absurd allocation before the payload
// size check rejects it.
const maxUnits = 1 << 22

// recordFixedSize is the payload size before the per-unit tail.
const recordFixedSize = 8 + 8 + 8*8 + 1 + 5*4 + 4

// unitSize is the per-unit payload contribution.
const unitSize = 5

// Record flag bits.
const (
	flagRestored        = 1 << 0
	flagBudgetExhausted = 1 << 1
	flagBudgetClamped   = 1 << 2
)

// UnitRound is one unit's view of a recorded round. Power values are
// stored in wire deciwatts — the same quantization the protocol uses —
// which keeps a record at 5 bytes per unit.
type UnitRound struct {
	// ReadingDW/CapDW are the unit's reported power and assigned cap in
	// deciwatts.
	ReadingDW uint16 `json:"reading_dw"`
	CapDW     uint16 `json:"cap_dw"`
	// Prio is the DPS high-priority flag (false for non-DPS managers).
	Prio bool `json:"prio,omitempty"`
	// Health is the degraded-mode state: 0 fresh, 1 stale, 2 dead.
	Health uint8 `json:"health,omitempty"`
	// Reason is the cap-provenance reason (trace.Reason).
	Reason trace.Reason `json:"reason,omitempty"`
}

// ReadingW returns the reported power in watts.
func (u UnitRound) ReadingW() float64 { return float64(u.ReadingDW) / 10 }

// CapW returns the assigned cap in watts.
func (u UnitRound) CapW() float64 { return float64(u.CapDW) / 10 }

// HealthString names the unit's health state.
func (u UnitRound) HealthString() string {
	switch u.Health {
	case 0:
		return "fresh"
	case 1:
		return "stale"
	default:
		return "dead"
	}
}

// Round is one decoded black-box record: the round-level aggregates plus
// a 5-byte-per-unit tail. It is the on-disk view of a telemetry.Round,
// which AppendRecord encodes from directly.
type Round struct {
	Round    uint64 `json:"round"`
	UnixNano int64  `json:"unix_nano"`

	IntervalS float64 `json:"interval_s"`
	BudgetW   float64 `json:"budget_w"`
	CapSumW   float64 `json:"cap_sum_w"`

	// Per-stage wall times (zero for managers without stage stats).
	KalmanS    float64 `json:"kalman_s,omitempty"`
	StatelessS float64 `json:"stateless_s,omitempty"`
	PriorityS  float64 `json:"priority_s,omitempty"`
	ReadjustS  float64 `json:"readjust_s,omitempty"`
	TotalS     float64 `json:"total_s"`

	Restored        bool `json:"restored,omitempty"`
	BudgetExhausted bool `json:"budget_exhausted,omitempty"`
	BudgetClamped   bool `json:"budget_clamped,omitempty"`

	PriorityFlips int `json:"priority_flips,omitempty"`
	StaleUnits    int `json:"stale_units,omitempty"`
	DeadUnits     int `json:"dead_units,omitempty"`
	DirtyUnits    int `json:"dirty_units,omitempty"`
	SkippedUnits  int `json:"skipped_units,omitempty"`

	Units []UnitRound `json:"units"`
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

// appendHeader appends the segment header to dst.
func appendHeader(dst []byte) []byte {
	dst = append(dst, magic[:]...)
	dst = section.AppendU16(dst, Version)
	return section.AppendU16(dst, 0)
}

// AppendRecord encodes one round (section framing included) onto dst and
// returns the extended slice. Reusing dst across calls makes a warm
// append allocation-free.
func AppendRecord(dst []byte, r *telemetry.Round) []byte {
	dst, start := section.Begin(dst, RecordID)
	dst = section.AppendU64(dst, r.Round)
	dst = section.AppendU64(dst, uint64(r.Time.UnixNano()))
	dst = section.AppendF64(dst, float64(r.Interval))
	dst = section.AppendF64(dst, r.BudgetW)
	dst = section.AppendF64(dst, r.CapSumW)
	st := &r.Stats
	dst = section.AppendF64(dst, st.Timings.Kalman.Seconds())
	dst = section.AppendF64(dst, st.Timings.Stateless.Seconds())
	dst = section.AppendF64(dst, st.Timings.Priority.Seconds())
	dst = section.AppendF64(dst, st.Timings.Readjust.Seconds())
	dst = section.AppendF64(dst, r.Elapsed.Seconds())
	var flags byte
	if st.Restored {
		flags |= flagRestored
	}
	if st.BudgetExhausted {
		flags |= flagBudgetExhausted
	}
	if st.BudgetClamped {
		flags |= flagBudgetClamped
	}
	dst = append(dst, flags)
	dst = section.AppendU32(dst, uint32(st.PriorityFlips))
	dst = section.AppendU32(dst, uint32(r.StaleUnits))
	dst = section.AppendU32(dst, uint32(r.DeadUnits))
	dst = section.AppendU32(dst, uint32(st.DirtyUnits))
	dst = section.AppendU32(dst, uint32(st.SkippedUnits))
	dst = section.AppendU32(dst, uint32(len(r.Cap)))
	for u := range r.Cap {
		dst = section.AppendU16(dst, proto.ToDeciwatts(r.Reading[u]))
		dst = section.AppendU16(dst, proto.ToDeciwatts(r.Cap[u]))
		meta := byte(r.Reason[u]) << 3
		if len(r.Health) != 0 {
			meta |= (uint8(r.Health[u]) & 0x3) << 1
		}
		if len(r.Prio) != 0 && r.Prio[u] {
			meta |= 1
		}
		dst = append(dst, meta)
	}
	return section.End(dst, start)
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

// segInfo tracks one live segment: its sequence number and how many
// rounds it holds.
type segInfo struct {
	seq    uint64
	rounds int
}

// Writer appends round records to a segmented on-disk ring. It is not
// safe for concurrent use; the daemon serializes Append and Close under
// its replication lock.
type Writer struct {
	dir       string
	segRounds int // rounds per segment before rotation
	maxSegs   int // live segments before the oldest is evicted
	f         *os.File
	buf       []byte // retained encode scratch
	segs      []segInfo
}

// segName returns the file name of segment seq.
func segName(seq uint64) string { return fmt.Sprintf("bb-%08d.dpsbb", seq) }

// parseSegName extracts a segment's sequence number (ok=false for
// non-segment files).
func parseSegName(name string) (seq uint64, ok bool) {
	var n uint64
	if _, err := fmt.Sscanf(name, "bb-%d.dpsbb", &n); err != nil {
		return 0, false
	}
	if segName(n) != name {
		return 0, false
	}
	return n, true
}

// Open creates a writer over dir (created if absent), retaining roughly
// `rounds` round records (DefaultRounds when rounds <= 0). It always
// starts a fresh segment after any existing ones: appending after a tail
// another process wrote — possibly torn by a crash — is never safe, and
// a new segment costs one small file. Existing segments stay in the ring
// and age out normally.
func Open(dir string, rounds int) (*Writer, error) {
	if rounds <= 0 {
		rounds = DefaultRounds
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("blackbox: creating %s: %w", dir, err)
	}
	segRounds := rounds / 4
	if segRounds < 1 {
		segRounds = 1
	}
	w := &Writer{
		dir:       dir,
		segRounds: segRounds,
		maxSegs:   (rounds+segRounds-1)/segRounds + 1,
	}
	seqs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	var maxSeq uint64
	for _, seq := range seqs {
		n, derr := countRounds(filepath.Join(dir, segName(seq)))
		if derr != nil {
			// An unreadable pre-existing segment still occupies a ring slot;
			// treat it as empty for eviction accounting.
			n = 0
		}
		w.segs = append(w.segs, segInfo{seq: seq, rounds: n})
		if seq > maxSeq {
			maxSeq = seq
		}
	}
	if err := w.openSegment(maxSeq + 1); err != nil {
		return nil, err
	}
	return w, nil
}

// openSegment creates segment seq, writes its header, and makes it
// current.
func (w *Writer) openSegment(seq uint64) error {
	f, err := os.OpenFile(filepath.Join(w.dir, segName(seq)), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("blackbox: creating segment: %w", err)
	}
	w.buf = appendHeader(w.buf[:0])
	if _, err := f.Write(w.buf); err != nil {
		f.Close()
		return fmt.Errorf("blackbox: writing segment header: %w", err)
	}
	w.f = f
	w.segs = append(w.segs, segInfo{seq: seq})
	return nil
}

// Append writes one round record and returns the bytes written plus the
// number of previously retained rounds the rotation evicted (zero except
// when a rotation dropped the oldest segment). The warm path — no
// rotation — performs exactly one write(2) and allocates nothing once
// the scratch buffer has grown to the record size.
func (w *Writer) Append(r *telemetry.Round) (wrote, evicted int, err error) {
	if w.f == nil {
		return 0, 0, errors.New("blackbox: writer closed")
	}
	cur := &w.segs[len(w.segs)-1]
	if cur.rounds >= w.segRounds {
		if evicted, err = w.rotate(); err != nil {
			return 0, evicted, err
		}
		cur = &w.segs[len(w.segs)-1]
	}
	w.buf = AppendRecord(w.buf[:0], r)
	n, err := w.f.Write(w.buf)
	if err != nil {
		return n, evicted, fmt.Errorf("blackbox: appending round %d: %w", r.Round, err)
	}
	cur.rounds++
	return n, evicted, nil
}

// rotate closes the current segment, opens the next, and evicts the
// oldest segments beyond the retention limit, returning how many rounds
// the eviction dropped.
func (w *Writer) rotate() (evicted int, err error) {
	seq := w.segs[len(w.segs)-1].seq
	w.f.Close()
	w.f = nil
	if err := w.openSegment(seq + 1); err != nil {
		return 0, err
	}
	for len(w.segs) > w.maxSegs {
		old := w.segs[0]
		if err := os.Remove(filepath.Join(w.dir, segName(old.seq))); err != nil && !errors.Is(err, os.ErrNotExist) {
			return evicted, fmt.Errorf("blackbox: evicting segment %d: %w", old.seq, err)
		}
		evicted += old.rounds
		w.segs = w.segs[1:]
	}
	return evicted, nil
}

// Close flushes and closes the current segment. Further Appends fail.
func (w *Writer) Close() error {
	if w.f == nil {
		return nil
	}
	err := w.f.Sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	return err
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

// ErrCorrupt marks a segment whose header is unusable (bad magic,
// truncated header, unsupported version). Damage after a valid header is
// not an error: the decoder keeps the valid prefix, which is the whole
// point of a black box.
var ErrCorrupt = errors.New("blackbox: corrupt")

// decodeRecord parses one record payload. ok=false on any structural
// defect (the caller stops its walk there).
func decodeRecord(payload []byte) (Round, bool) {
	r := section.NewCursor(payload)
	var out Round
	out.Round = r.U64()
	out.UnixNano = int64(r.U64())
	out.IntervalS = r.F64()
	out.BudgetW = r.F64()
	out.CapSumW = r.F64()
	out.KalmanS = r.F64()
	out.StatelessS = r.F64()
	out.PriorityS = r.F64()
	out.ReadjustS = r.F64()
	out.TotalS = r.F64()
	flags := r.U8()
	out.Restored = flags&flagRestored != 0
	out.BudgetExhausted = flags&flagBudgetExhausted != 0
	out.BudgetClamped = flags&flagBudgetClamped != 0
	out.PriorityFlips = int(r.U32())
	out.StaleUnits = int(r.U32())
	out.DeadUnits = int(r.U32())
	out.DirtyUnits = int(r.U32())
	out.SkippedUnits = int(r.U32())
	units := r.U32()
	if r.Short() || units > maxUnits {
		return Round{}, false
	}
	// The payload size is fully determined by the unit count; anything
	// else is a framing defect, checked before the per-unit allocation.
	if len(payload) != recordFixedSize+int(units)*unitSize {
		return Round{}, false
	}
	out.Units = make([]UnitRound, units)
	for i := range out.Units {
		u := &out.Units[i]
		u.ReadingDW = r.U16()
		u.CapDW = r.U16()
		meta := r.U8()
		u.Prio = meta&1 != 0
		u.Health = (meta >> 1) & 0x3
		u.Reason = trace.Reason(meta >> 3)
	}
	if r.Short() || r.Len() != 0 {
		return Round{}, false
	}
	return out, true
}

// DecodeSegment parses one segment image into round records. It returns
// an error only when the header itself is unusable; any later damage —
// a torn tail from a crash, a flipped bit — truncates the result at the
// last fully valid record instead. It never panics on malformed input.
func DecodeSegment(data []byte) ([]Round, error) {
	return AppendSegmentRounds(nil, data)
}

// AppendSegmentRounds is DecodeSegment appending onto dst.
func AppendSegmentRounds(dst []Round, data []byte) ([]Round, error) {
	if len(data) < headerSize {
		return dst, fmt.Errorf("%w: %d bytes, want at least the %d-byte header", ErrCorrupt, len(data), headerSize)
	}
	if data[0] != magic[0] || data[1] != magic[1] || data[2] != magic[2] || data[3] != magic[3] {
		return dst, fmt.Errorf("%w: bad magic %q", ErrCorrupt, data[:4])
	}
	if v := uint16(data[4]) | uint16(data[5])<<8; v > Version {
		return dst, fmt.Errorf("%w: segment version %d, decoder supports <= %d", ErrCorrupt, v, Version)
	}
	// Keep the valid prefix: the walk ends at a torn tail or a CRC
	// mismatch, and a record that fails to parse ends it too.
	w := section.Walk(data[headerSize:])
	for w.Next() {
		if w.ID != RecordID {
			continue // unknown section with a valid CRC: forward compatibility
		}
		r, ok := decodeRecord(w.Payload)
		if !ok {
			break
		}
		dst = append(dst, r)
	}
	return dst, nil
}

// countRounds decodes a segment file just far enough to count its valid
// records.
func countRounds(path string) (int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	rounds, err := DecodeSegment(data)
	return len(rounds), err
}

// listSegments returns the sequence numbers of dir's segment files in
// ascending order.
func listSegments(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("blackbox: reading %s: %w", dir, err)
	}
	var seqs []uint64
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if seq, ok := parseSegName(e.Name()); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// Dump decodes every segment in dir, oldest first, and returns all valid
// round records. Segments with unusable headers (a crash can tear even
// the 8-byte header write of the newest segment) are skipped; damage
// inside a segment truncates that segment's contribution. Works on a
// live daemon's directory and on a dead one's.
func Dump(dir string) ([]Round, error) {
	seqs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	var out []Round
	for _, seq := range seqs {
		data, err := os.ReadFile(filepath.Join(dir, segName(seq)))
		if err != nil {
			continue
		}
		out, _ = AppendSegmentRounds(out, data)
	}
	return out, nil
}

// Tail returns the newest n records from dir (all of them when n <= 0).
func Tail(dir string, n int) ([]Round, error) {
	all, err := Dump(dir)
	if err != nil {
		return nil, err
	}
	if n > 0 && len(all) > n {
		all = all[len(all)-n:]
	}
	return all, nil
}
