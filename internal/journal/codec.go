package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"

	"selfserv/internal/record"
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

// encoder builds frames in buffers it keeps between calls: buf holds
// whole frames back to back, pairs is the scratch bags are sorted in.
type encoder struct {
	buf   []byte
	pairs []record.Pair
}

// frame encodes r as one whole frame — [length|crc32|payload] — onto the
// end of e.buf. A record it refuses leaves e.buf holding what it held.
func (e *encoder) frame(r *Record) error {
	code := slices.Index(kinds[:], r.Kind)
	if code <= 0 {
		return fmt.Errorf("journal: unknown record kind %q", r.Kind)
	}
	start := len(e.buf)
	e.buf = e.record(append(e.buf, 0, 0, 0, 0, 0, 0, 0, 0), byte(code), r)
	hdr, payload := e.buf[start:start+frameHeader], e.buf[start+frameHeader:]
	if len(payload) > maxRecordBytes {
		e.buf = e.buf[:start]
		return fmt.Errorf("journal: %s record of %s/%s instance %s is %d bytes, over the %d-byte record limit",
			r.Kind, r.Composite, r.State, r.Instance, len(payload), maxRecordBytes)
	}
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	return nil
}

// record appends r's payload to b: the kind's code, then every field in
// declaration order, whatever the kind (an unused field costs its one
// zero byte). The field primitives are package record's, shared with the
// wire codec.
func (e *encoder) record(b []byte, code byte, r *Record) []byte {
	b = append(b, code)
	b = record.AppendStr(b, r.Composite)
	b = record.AppendStr(b, r.Instance)
	b = record.AppendStr(b, r.State)
	b = binary.AppendUvarint(b, r.Version)
	b = binary.LittleEndian.AppendUint64(b, uint64(r.Time))
	b = record.AppendStr(b, r.Src)
	b = binary.AppendUvarint(b, r.Seq)
	b, e.pairs = record.AppendBag(b, r.Vars, e.pairs)
	b = record.AppendStr(b, r.Service)
	b = record.AppendStr(b, r.Key)
	b, e.pairs = record.AppendBag(b, r.Outputs, e.pairs)
	b = binary.AppendUvarint(b, r.FireSeq)
	b = record.AppendStrs(b, r.Consumed)
	b = record.AppendStrs(b, r.Cleared)
	b = binary.AppendUvarint(b, r.SendSeq)
	b = binary.AppendUvarint(b, uint64(len(r.Msgs)))
	for i := range r.Msgs {
		m := &r.Msgs[i]
		b = record.AppendStr(b, m.Type)
		b = record.AppendStr(b, m.To)
		b = binary.AppendUvarint(b, m.Seq)
		b, e.pairs = record.AppendBag(b, m.Vars, e.pairs)
	}
	b = binary.AppendUvarint(b, uint64(len(r.Sources)))
	for i := range r.Sources {
		s := &r.Sources[i]
		b = record.AppendStr(b, s.Name)
		b = binary.AppendUvarint(b, uint64(s.Count))
		b = binary.AppendUvarint(b, s.Seen)
		b, e.pairs = record.AppendBag(b, s.Vars, e.pairs)
	}
	return record.AppendStr(b, r.Error)
}

// decodeRecord is encoder.record's inverse. The payload is outside input
// (a file): every length and count is checked against the bytes that
// remain before anything is allocated, and a payload that is short,
// long, or not in canonical form is an ErrCorrupt — never a panic.
func decodeRecord(payload []byte) (*Record, error) {
	// One copy backs every string of the record; the caller's buffer (a
	// whole segment) is not retained.
	d := record.NewReader(payload)
	r := &Record{}
	if code := d.Byte(); int(code) < len(kinds) {
		r.Kind = kinds[code]
	}
	if r.Kind == "" {
		d.Fail("unknown record kind")
	}
	r.Composite = d.Str()
	r.Instance = d.Str()
	r.State = d.Str()
	r.Version = d.Uvarint()
	r.Time = int64(d.Fixed64())
	r.Src = d.Str()
	r.Seq = d.Uvarint()
	r.Vars = d.Bag()
	r.Service = d.Str()
	r.Key = d.Str()
	r.Outputs = d.Bag()
	r.FireSeq = d.Uvarint()
	r.Consumed = d.Strs()
	r.Cleared = d.Strs()
	r.SendSeq = d.Uvarint()
	if n := d.Count(4); n > 0 { // a message is at least 4 bytes
		r.Msgs = make([]OutMsg, n)
		for i := range r.Msgs {
			m := &r.Msgs[i]
			m.Type = d.Str()
			m.To = d.Str()
			m.Seq = d.Uvarint()
			m.Vars = d.Bag()
		}
	}
	if n := d.Count(4); n > 0 { // a source state is at least 4 bytes
		r.Sources = make([]SourceState, n)
		for i := range r.Sources {
			s := &r.Sources[i]
			s.Name = d.Str()
			count := d.Uvarint()
			if count > 1<<32-1 {
				d.Fail("source count overflows uint32")
			}
			s.Count = uint32(count)
			s.Seen = d.Uvarint()
			s.Vars = d.Bag()
		}
	}
	r.Error = d.Str()
	d.End()
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	return r, nil
}
