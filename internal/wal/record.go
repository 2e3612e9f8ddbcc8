package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"taupsm/internal/stats"
	"taupsm/internal/storage"
	"taupsm/internal/types"
)

// ErrCorrupt marks a structurally invalid record: bad checksum,
// impossible length, or a payload that doesn't decode. At the tail of a
// log it means a torn write and recovery truncates there; anywhere else
// it means real corruption.
var ErrCorrupt = errors.New("wal: corrupt record")

// Record framing: u32 little-endian payload length, u32 CRC-32 (IEEE)
// of the payload, payload bytes. The first payload byte is a tag.
const (
	recHeader    = 'H' // log header: magic, format version, epoch
	recCommit    = 'C' // one committed statement: a batch of effects
	recSnapHdr   = 'S' // snapshot header: magic, format version, epoch
	recSnapStats = 'T' // snapshot statistics: non-derivable registry state
	recSnapEnd   = 'Z' // snapshot end marker: the snapshot is complete
)

const (
	logMagic  = "taupsmwal1"
	snapMagic = "taupsmsnap1"

	// maxRecord bounds a record payload; anything larger is corruption
	// (and keeps fuzzed inputs from allocating absurd buffers).
	maxRecord = 1 << 28
)

// writeRecord frames and writes one record as a single Write call,
// returning the bytes written.
func writeRecord(w io.Writer, payload []byte) (int, error) {
	buf := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
	copy(buf[8:], payload)
	n, err := w.Write(buf)
	return n, err
}

// readRecord reads one framed record. io.EOF means a clean end;
// io.ErrUnexpectedEOF or ErrCorrupt mean a torn or damaged tail; any
// other error is an I/O failure that must not be mistaken for
// truncation.
func readRecord(r io.Reader) ([]byte, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		// io.EOF here is a clean end; ErrUnexpectedEOF a torn header.
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	if n > maxRecord {
		return nil, ErrCorrupt
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		if errors.Is(err, io.EOF) {
			// The header promised n payload bytes; ending before any of
			// them is as torn as ending in their middle.
			return nil, io.ErrUnexpectedEOF
		}
		return nil, err
	}
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(hdr[4:8]) {
		return nil, ErrCorrupt
	}
	return payload, nil
}

// tornTail reports whether a read error means "the log simply ends
// here" — clean EOF mid-record or a checksum mismatch — as opposed to
// an I/O failure.
func tornTail(err error) bool {
	return errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, ErrCorrupt)
}

// ---------- payload encoding ----------

func putUvarint(b *bytes.Buffer, v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	b.Write(tmp[:binary.PutUvarint(tmp[:], v)])
}

func putVarint(b *bytes.Buffer, v int64) {
	var tmp [binary.MaxVarintLen64]byte
	b.Write(tmp[:binary.PutVarint(tmp[:], v)])
}

func putString(b *bytes.Buffer, s string) {
	putUvarint(b, uint64(len(s)))
	b.WriteString(s)
}

// decoder consumes a payload with bounds checking; fuzzed inputs must
// never panic, only error.
type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = ErrCorrupt
	}
}

func (d *decoder) byte() byte {
	if d.err != nil || d.off >= len(d.buf) {
		d.fail()
		return 0
	}
	b := d.buf[d.off]
	d.off++
	return b
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) string() string {
	n := d.uvarint()
	if d.err != nil || n > uint64(len(d.buf)-d.off) {
		d.fail()
		return ""
	}
	s := string(d.buf[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

func (d *decoder) done() bool { return d.err != nil }

// encodeValue appends one scalar value. Table-valued results never live
// in stored rows; hitting one is a caller bug surfaced as an error at
// encodeEffect level.
func encodeValue(b *bytes.Buffer, v types.Value) error {
	switch v.Kind {
	case types.KindNull, types.KindInt, types.KindBool, types.KindDate:
		b.WriteByte(byte(v.Kind))
		if v.Kind != types.KindNull {
			putVarint(b, v.I)
		}
	case types.KindFloat:
		b.WriteByte(byte(v.Kind))
		var tmp [8]byte
		binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(v.F))
		b.Write(tmp[:])
	case types.KindString:
		b.WriteByte(byte(v.Kind))
		putString(b, v.S)
	default:
		return fmt.Errorf("wal: cannot encode %s value", v.Kind)
	}
	return nil
}

func (d *decoder) value() types.Value {
	switch k := types.Kind(d.byte()); k {
	case types.KindNull:
		return types.Null
	case types.KindInt, types.KindBool, types.KindDate:
		return types.Value{Kind: k, I: d.varint()}
	case types.KindFloat:
		if d.err != nil || len(d.buf)-d.off < 8 {
			d.fail()
			return types.Null
		}
		f := math.Float64frombits(binary.LittleEndian.Uint64(d.buf[d.off:]))
		d.off += 8
		return types.NewFloat(f)
	case types.KindString:
		return types.NewString(d.string())
	default:
		d.fail()
		return types.Null
	}
}

func encodeRow(b *bytes.Buffer, row []types.Value) error {
	putUvarint(b, uint64(len(row)))
	for _, v := range row {
		if err := encodeValue(b, v); err != nil {
			return err
		}
	}
	return nil
}

func (d *decoder) row() []types.Value {
	n := d.uvarint()
	if d.err != nil || n > uint64(len(d.buf)-d.off) {
		// Each value takes at least one byte, so a count larger than the
		// remaining payload is corrupt — reject before allocating.
		d.fail()
		return nil
	}
	row := make([]types.Value, 0, n)
	for i := uint64(0); i < n && !d.done(); i++ {
		row = append(row, d.value())
	}
	return row
}

// encodeEffect appends one effect.
func encodeEffect(b *bytes.Buffer, e storage.Effect) error {
	b.WriteByte(byte(e.Kind))
	putString(b, e.Name)
	switch e.Kind {
	case storage.EffInsert:
		return encodeRow(b, e.Row)
	case storage.EffUpdate:
		putUvarint(b, uint64(e.Index))
		return encodeRow(b, e.Row)
	case storage.EffDelete:
		putUvarint(b, uint64(e.Index))
	case storage.EffPutTable:
		flags := byte(0)
		if e.ValidTime {
			flags |= 1
		}
		if e.TransactionTime {
			flags |= 2
		}
		b.WriteByte(flags)
		putUvarint(b, uint64(len(e.Cols)))
		for _, c := range e.Cols {
			putString(b, c.Name)
			putString(b, c.Base)
			putVarint(b, int64(c.Length))
			putVarint(b, int64(c.Scale))
		}
	case storage.EffPutView, storage.EffPutRoutine:
		putString(b, e.SQL)
	case storage.EffDropTable, storage.EffDropView, storage.EffDropRoutine, storage.EffAnalyze:
	default:
		return fmt.Errorf("wal: cannot encode effect kind %d", e.Kind)
	}
	return nil
}

func (d *decoder) effect() storage.Effect {
	e := storage.Effect{Kind: storage.EffectKind(d.byte())}
	e.Name = d.string()
	switch e.Kind {
	case storage.EffInsert:
		e.Row = d.row()
	case storage.EffUpdate:
		e.Index = uvint(d.uvarint())
		e.Row = d.row()
	case storage.EffDelete:
		e.Index = uvint(d.uvarint())
	case storage.EffPutTable:
		flags := d.byte()
		e.ValidTime = flags&1 != 0
		e.TransactionTime = flags&2 != 0
		n := d.uvarint()
		if d.err != nil || n > uint64(len(d.buf)-d.off) {
			d.fail()
			return e
		}
		for i := uint64(0); i < n && !d.done(); i++ {
			e.Cols = append(e.Cols, storage.EffectColumn{
				Name:   d.string(),
				Base:   d.string(),
				Length: int(d.varint()),
				Scale:  int(d.varint()),
			})
		}
	case storage.EffPutView, storage.EffPutRoutine:
		e.SQL = d.string()
	case storage.EffDropTable, storage.EffDropView, storage.EffDropRoutine, storage.EffAnalyze:
	default:
		d.fail()
	}
	return e
}

// encodeCommit renders one committed statement's effect batch as a
// commit-record payload.
func encodeCommit(effects []storage.Effect) ([]byte, error) {
	var b bytes.Buffer
	b.WriteByte(recCommit)
	putUvarint(&b, uint64(len(effects)))
	for _, e := range effects {
		if err := encodeEffect(&b, e); err != nil {
			return nil, err
		}
	}
	return b.Bytes(), nil
}

// DecodeCommit parses a commit-record payload back into its effects.
// It is the fuzzing surface of the log format: arbitrary inputs must
// yield effects or an error, never a panic.
func DecodeCommit(payload []byte) ([]storage.Effect, error) {
	d := &decoder{buf: payload}
	if d.byte() != recCommit {
		return nil, ErrCorrupt
	}
	n := d.uvarint()
	if d.err != nil || n > uint64(len(d.buf)-d.off) {
		return nil, ErrCorrupt
	}
	out := make([]storage.Effect, 0, n)
	for i := uint64(0); i < n; i++ {
		e := d.effect()
		if d.err != nil {
			return nil, d.err
		}
		out = append(out, e)
	}
	return out, nil
}

// encodeStats renders the statistics registry's table entries: DML
// counters and ANALYZE results, all it keeps per table. Two fields of the
// layout, a constant-period count and an overlap histogram, are no longer
// kept: they are written as 0 and an empty list.
func encodeStats(ps []stats.TablePersist) []byte {
	var b bytes.Buffer
	b.WriteByte(recSnapStats)
	putUvarint(&b, uint64(len(ps)))
	for _, p := range ps {
		putString(&b, p.Name)
		putVarint(&b, p.Inserts)
		putVarint(&b, p.Updates)
		putVarint(&b, p.Deletes)
		flags := byte(0)
		if p.Analyzed {
			flags = 1
		}
		b.WriteByte(flags)
		putVarint(&b, p.AnalyzedRows)
		putVarint(&b, 0)
		putVarint(&b, p.MaxOverlap)
		putUvarint(&b, 0)
	}
	return b.Bytes()
}

// DecodeStats parses a snapshot-statistics payload. Like DecodeCommit
// it must survive arbitrary inputs: a result or an error, never a
// panic.
func DecodeStats(payload []byte) ([]stats.TablePersist, error) {
	d := &decoder{buf: payload}
	if d.byte() != recSnapStats {
		return nil, ErrCorrupt
	}
	n := d.uvarint()
	if d.err != nil || n > uint64(len(d.buf)-d.off) {
		// Each entry takes at least one byte; reject before allocating.
		return nil, ErrCorrupt
	}
	out := make([]stats.TablePersist, 0, n)
	for i := uint64(0); i < n; i++ {
		var p stats.TablePersist
		p.Name = d.string()
		p.Inserts = d.varint()
		p.Updates = d.varint()
		p.Deletes = d.varint()
		p.Analyzed = d.byte() != 0
		p.AnalyzedRows = d.varint()
		d.varint() // constant periods, no longer kept
		p.MaxOverlap = d.varint()
		m := d.uvarint() // an overlap histogram, no longer kept
		if d.err != nil || m > uint64(len(d.buf)-d.off) {
			return nil, ErrCorrupt
		}
		for j := uint64(0); j < m && !d.done(); j++ {
			d.varint()
		}
		if d.err != nil {
			return nil, d.err
		}
		out = append(out, p)
	}
	return out, nil
}

// encodeHeader renders a log or snapshot header payload.
func encodeHeader(tag byte, magic string, epoch uint64) []byte {
	var b bytes.Buffer
	b.WriteByte(tag)
	putString(&b, magic)
	putUvarint(&b, epoch)
	return b.Bytes()
}

// decodeHeader validates a header payload and returns its epoch.
func decodeHeader(payload []byte, tag byte, magic string) (uint64, error) {
	d := &decoder{buf: payload}
	if d.byte() != tag || d.string() != magic {
		return 0, ErrCorrupt
	}
	epoch := d.uvarint()
	if d.err != nil {
		return 0, ErrCorrupt
	}
	return epoch, nil
}

// uvint converts a decoded uvarint to int, saturating rather than
// wrapping on hostile inputs.
func uvint(v uint64) int {
	if v > math.MaxInt32 {
		return math.MaxInt32
	}
	return int(v)
}
