package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
)

// This file is the journal's one on-disk encoding (docs/durability.md,
// "On-disk format"): the segment header, the record frame, and the
// record payload with its one encoder (encoder.record) and one decoder
// (decodeRecord).
//
// The journal record IS the event recovery re-runs, so the codec is
// exact and deterministic: every field round-trips, maps are written in
// sorted key order, and equal records are therefore equal bytes. An
// empty map or slice and a nil one are the same value on disk (a zero
// count) and decode as nil.

// ErrFormat reports a segment that does not begin with this build's
// magic and format version: a directory written by a build from before
// the binary codec, whose segments were [length|crc32|json] with no
// header, or by a later build with another version byte. There is
// deliberately no second decoder: drain the old process's executions
// before upgrading (docs/durability.md).
var ErrFormat = errors.New("journal: unknown segment format")

// ErrCorrupt reports bytes that are not a whole, checksummed, decodable
// record. At the tail of a shard's last segment that is a crash
// artifact and Open repairs it; anywhere else it is damage.
var ErrCorrupt = errors.New("journal: corrupt record")

const (
	// segHeader is what every segment starts with: a magic and, as its
	// last byte, the format version — bumped on any change to the frame
	// or payload layout below.
	segHeader = "SSJRNL\x00\x01"

	// frameHeader is the per-record framing overhead: a little-endian
	// uint32 payload length followed by the payload's CRC-32 (IEEE).
	frameHeader = 8

	// maxRecordBytes bounds a single record payload — a sanity valve so a
	// corrupt length word can't ask for a gigabyte allocation.
	maxRecordBytes = 16 << 20
)

// kinds maps the on-disk kind byte to the record kind; 0 is invalid.
var kinds = [...]string{
	1: KindArrival,
	2: KindInvoke,
	3: KindRound,
	4: KindSnapshot,
	5: KindPassivate,
	6: KindWStart,
	7: KindWArrival,
	8: KindWDone,
}

// decodeFrame decodes the frame at the front of b and returns its record
// and its length. Every way b can fail to start with a whole, checksummed,
// decodable frame is an ErrCorrupt.
func decodeFrame(b []byte) (*Record, int, error) {
	if len(b) < frameHeader {
		return nil, 0, fmt.Errorf("%w: %d trailing bytes, short of a frame header", ErrCorrupt, len(b))
	}
	n := int(binary.LittleEndian.Uint32(b[0:4]))
	if n == 0 || n > maxRecordBytes {
		return nil, 0, fmt.Errorf("%w: bad frame length %d", ErrCorrupt, n)
	}
	if len(b)-frameHeader < n {
		return nil, 0, fmt.Errorf("%w: truncated frame: %d of %d payload bytes", ErrCorrupt, len(b)-frameHeader, n)
	}
	payload := b[frameHeader : frameHeader+n]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(b[4:8]) {
		return nil, 0, fmt.Errorf("%w: crc mismatch", ErrCorrupt)
	}
	r, err := decodeRecord(payload)
	return r, frameHeader + n, err
}

// encoder builds frames in a buffer it keeps between calls: buf is the
// frame under construction, keys the scratch for sorting bag keys. Every
// firing appends from a fresh goroutine's small stack, so the methods
// take a pointer receiver and scalar arguments and keep shallow frames —
// nothing here may cost a stack copy per record.
type encoder struct {
	buf  []byte
	keys []string
}

// frame encodes r as one whole frame — [length|crc32|payload] — into
// e.buf, replacing what was there.
func (e *encoder) frame(r *Record) error {
	e.buf = append(e.buf[:0], 0, 0, 0, 0, 0, 0, 0, 0)
	if err := e.record(r); err != nil {
		return err
	}
	payload := e.buf[frameHeader:]
	if len(payload) > maxRecordBytes {
		return fmt.Errorf("journal: %s record of %s/%s instance %s is %d bytes, over the %d-byte record limit",
			r.Kind, r.Composite, r.State, r.Instance, len(payload), maxRecordBytes)
	}
	binary.LittleEndian.PutUint32(e.buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(e.buf[4:8], crc32.ChecksumIEEE(payload))
	return nil
}

// record appends r's payload: every field, in declaration order,
// whatever the kind (an unused field costs its one zero byte).
func (e *encoder) record(r *Record) error {
	code := slices.Index(kinds[:], r.Kind)
	if code <= 0 {
		return fmt.Errorf("journal: unknown record kind %q", r.Kind)
	}
	e.buf = append(e.buf, byte(code))
	e.str(r.Composite)
	e.str(r.Instance)
	e.str(r.State)
	e.uvarint(r.Version)
	e.buf = binary.LittleEndian.AppendUint64(e.buf, uint64(r.Time))
	e.str(r.Src)
	e.uvarint(r.Seq)
	e.bag(r.Vars)
	e.str(r.Service)
	e.str(r.Key)
	e.bag(r.Outputs)
	e.uvarint(r.FireSeq)
	e.strs(r.Consumed)
	e.strs(r.Cleared)
	e.uvarint(r.SendSeq)
	e.uvarint(uint64(len(r.Msgs)))
	for i := range r.Msgs {
		m := &r.Msgs[i]
		e.str(m.Type)
		e.str(m.To)
		e.uvarint(m.Seq)
		e.bag(m.Vars)
	}
	e.uvarint(uint64(len(r.Sources)))
	for i := range r.Sources {
		s := &r.Sources[i]
		e.str(s.Name)
		e.uvarint(uint64(s.Count))
		e.uvarint(s.Seen)
		e.bag(s.Vars)
	}
	e.str(r.Error)
	return nil
}

// uvarint and str stay out of line: inlined into record some twenty
// times each, their temporaries grow its frame sixfold.
//
//go:noinline
func (e *encoder) uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

//go:noinline
func (e *encoder) str(s string) {
	e.uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

func (e *encoder) strs(ss []string) {
	e.uvarint(uint64(len(ss)))
	for _, s := range ss {
		e.str(s)
	}
}

// bag appends a variable bag as a count and its key/value pairs in
// sorted key order — the determinism rule: map iteration order must
// never reach the disk.
func (e *encoder) bag(bag map[string]string) {
	e.uvarint(uint64(len(bag)))
	if len(bag) == 0 {
		return
	}
	e.keys = e.keys[:0]
	for k := range bag {
		e.keys = append(e.keys, k)
	}
	if len(e.keys) > 1 {
		slices.Sort(e.keys)
	}
	for _, k := range e.keys {
		e.str(k)
		e.str(bag[k])
	}
}

// decodeRecord is encoder.record's inverse. The payload is outside input
// (a file): every length and count is checked against the bytes that
// remain before anything is allocated, and a payload that is short,
// long, or not in canonical form is an ErrCorrupt — never a panic.
func decodeRecord(payload []byte) (*Record, error) {
	// One copy backs every string of the record; the caller's buffer (a
	// whole segment) is not retained.
	d := decoder{b: payload, s: string(payload)}
	r := &Record{}
	if code := d.byte(); int(code) < len(kinds) {
		r.Kind = kinds[code]
	}
	if r.Kind == "" {
		d.fail("unknown record kind")
	}
	r.Composite = d.str()
	r.Instance = d.str()
	r.State = d.str()
	r.Version = d.uvarint()
	r.Time = int64(d.fixed64())
	r.Src = d.str()
	r.Seq = d.uvarint()
	r.Vars = d.bag()
	r.Service = d.str()
	r.Key = d.str()
	r.Outputs = d.bag()
	r.FireSeq = d.uvarint()
	r.Consumed = d.strs()
	r.Cleared = d.strs()
	r.SendSeq = d.uvarint()
	if n := d.count(4); n > 0 { // a message is at least 4 bytes
		r.Msgs = make([]OutMsg, n)
		for i := range r.Msgs {
			m := &r.Msgs[i]
			m.Type = d.str()
			m.To = d.str()
			m.Seq = d.uvarint()
			m.Vars = d.bag()
		}
	}
	if n := d.count(4); n > 0 { // a source state is at least 4 bytes
		r.Sources = make([]SourceState, n)
		for i := range r.Sources {
			s := &r.Sources[i]
			s.Name = d.str()
			count := d.uvarint()
			if count > 1<<32-1 {
				d.fail("source count overflows uint32")
			}
			s.Count = uint32(count)
			s.Seen = d.uvarint()
			s.Vars = d.bag()
		}
	}
	r.Error = d.str()
	if d.err == nil && d.off != len(d.b) {
		d.fail("trailing bytes")
	}
	if d.err != nil {
		return nil, d.err
	}
	return r, nil
}

// decoder reads a payload front to back: numbers from b, strings as
// substrings of s, its one copy. The first failure sticks: every later
// read returns a zero value, so decodeRecord checks err once.
type decoder struct {
	b   []byte
	s   string
	off int
	err error
}

func (d *decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s at payload byte %d of %d", ErrCorrupt, what, d.off, len(d.b))
		d.off = len(d.b)
	}
}

func (d *decoder) byte() byte {
	if d.off >= len(d.b) {
		d.fail("truncated")
		return 0
	}
	d.off++
	return d.b[d.off-1]
}

func (d *decoder) fixed64() uint64 {
	if len(d.b)-d.off < 8 {
		d.fail("truncated")
		return 0
	}
	d.off += 8
	return binary.LittleEndian.Uint64(d.b[d.off-8:])
}

func (d *decoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail("truncated or oversized varint")
		return 0
	}
	d.off += n
	return v
}

// count reads an element count and caps it by the bytes remaining: each
// element takes at least min bytes, so a larger count is a lie and
// nothing is allocated for it.
func (d *decoder) count(min int) int {
	n := d.uvarint()
	if n > uint64((len(d.b)-d.off)/min) {
		d.fail("count exceeds remaining bytes")
		return 0
	}
	return int(n)
}

func (d *decoder) str() string {
	n := d.count(1)
	s := d.s[d.off : d.off+n]
	d.off += n
	return s
}

func (d *decoder) strs() []string {
	n := d.count(1)
	if n == 0 {
		return nil
	}
	ss := make([]string, n)
	for i := range ss {
		ss[i] = d.str()
	}
	return ss
}

// bag reads a variable bag, insisting on the encoder's strictly
// ascending key order: a repeated key would otherwise silently collapse.
func (d *decoder) bag() map[string]string {
	n := d.count(2) // a pair is at least its two length bytes
	if n == 0 {
		return nil
	}
	bag := make(map[string]string, n)
	prev := ""
	for i := 0; i < n; i++ {
		k := d.str()
		if i > 0 && k <= prev && d.err == nil {
			d.fail("bag keys out of order")
		}
		bag[k] = d.str()
		prev = k
	}
	return bag
}
