// Package record holds the field primitives of the repo's two binary
// record codecs — the journal's on-disk record (internal/journal/codec.go)
// and the wire record (internal/message) — so a number, a string, a
// string list and a variable bag have one encoding and one hardened
// decoding:
//
//   - a number is a uvarint;
//   - a string is its uvarint length and its raw bytes;
//   - a string list is a uvarint count and that many strings;
//   - a bag (map[string]string) is a uvarint count and that many
//     key/value string pairs in strictly ascending key order, so equal
//     bags are equal bytes whatever the map's iteration order; an empty
//     bag and a nil one are the same zero count and decode as nil.
//
// The Append functions extend a buffer their caller owns, in the style of
// the standard library's; Reader reads outside input front to back and
// never panics on it. Each codec owns its record layout, its framing and
// its error sentinel.
package record

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strings"
	"unsafe"
)

// ErrMalformed is what every Reader failure wraps. The codecs wrap it in
// turn with their own sentinel (journal.ErrCorrupt, message.ErrCorrupt).
var ErrMalformed = errors.New("malformed record")

// AppendStr appends s as its length and its bytes. (A number is
// binary.AppendUvarint itself.)
func AppendStr(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func AppendStrs(b []byte, ss []string) []byte {
	b = binary.AppendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = AppendStr(b, s)
	}
	return b
}

// Pair is one bag entry on its way to being sorted.
type Pair struct{ K, V string }

// AppendBag appends bag in sorted key order — the determinism rule: map
// iteration order must never reach a disk or a wire. scratch is where
// the pairs are sorted; it is returned, possibly grown, for the caller to
// pass again (its contents are dead between calls), so an encoder that
// keeps it appends without allocating.
func AppendBag(b []byte, bag map[string]string, scratch []Pair) ([]byte, []Pair) {
	b = binary.AppendUvarint(b, uint64(len(bag)))
	if len(bag) == 0 {
		return b, scratch
	}
	scratch = scratch[:0]
	for k, v := range bag {
		scratch = append(scratch, Pair{k, v})
	}
	if len(scratch) > 1 {
		slices.SortFunc(scratch, func(x, y Pair) int { return strings.Compare(x.K, y.K) })
	}
	for _, p := range scratch {
		b = AppendStr(AppendStr(b, p.K), p.V)
	}
	return b, scratch
}

// SizeUvarint, SizeStr and SizeBag report how many bytes the Append
// function of the same name appends, for an encoder that sizes its
// buffer before filling it.
func SizeUvarint(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

func SizeStr(s string) int { return SizeUvarint(uint64(len(s))) + len(s) }

func SizeBag(bag map[string]string) int {
	n := SizeUvarint(uint64(len(bag)))
	for k, v := range bag {
		n += SizeStr(k) + SizeStr(v)
	}
	return n
}

// Reader reads one record front to back: numbers from its bytes, strings
// as substrings of its one copy of them, so the caller's buffer (a whole
// segment, a pooled frame) is not retained. Every length and count is
// checked against the bytes that remain before anything is allocated.
// The first failure sticks: every later read returns a zero value, so a
// decoder checks Err once, after its last field.
type Reader struct {
	b     []byte
	s     string
	off   int
	err   error
	check bool // NewChecker's: s aliases b, and Bag builds no map
}

// NewReader copies b — the one allocation that backs every string read.
func NewReader(b []byte) Reader { return Reader{b: b, s: string(b)} }

// NewChecker reads b exactly as NewReader does, failing where it fails,
// but copies and allocates nothing: its strings share b's bytes, so they
// are valid only while b is unchanged and are for looking at, never for
// keeping, and its Bag checks the pairs without building a map. A decoder
// checks a whole input with it before it decodes any of it.
func NewChecker(b []byte) Reader {
	return Reader{b: b, s: unsafe.String(unsafe.SliceData(b), len(b)), check: true}
}

// Err reports the first failure, wrapping ErrMalformed.
func (r *Reader) Err() error { return r.err }

// Fail records a failure found by the caller (an unknown kind byte, a
// field out of range) at the current offset.
func (r *Reader) Fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s at byte %d of %d", ErrMalformed, what, r.off, len(r.b))
		r.off = len(r.b)
	}
}

// End fails on bytes left over after the last field.
func (r *Reader) End() {
	if r.err == nil && r.off != len(r.b) {
		r.Fail("trailing bytes")
	}
}

func (r *Reader) Byte() byte {
	if r.off >= len(r.b) {
		r.Fail("truncated")
		return 0
	}
	r.off++
	return r.b[r.off-1]
}

// Fixed64 reads 8 bytes, little-endian.
func (r *Reader) Fixed64() uint64 {
	if len(r.b)-r.off < 8 {
		r.Fail("truncated")
		return 0
	}
	r.off += 8
	return binary.LittleEndian.Uint64(r.b[r.off-8:])
}

func (r *Reader) Uvarint() uint64 {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.Fail("truncated or oversized varint")
		return 0
	}
	r.off += n
	return v
}

// Count reads an element count and caps it by the bytes remaining: each
// element takes at least min bytes, so a larger count is a lie and
// nothing is allocated for it.
func (r *Reader) Count(min int) int {
	n := r.Uvarint()
	if n > uint64((len(r.b)-r.off)/min) {
		r.Fail("count exceeds remaining bytes")
		return 0
	}
	return int(n)
}

func (r *Reader) Str() string {
	n := r.Count(1)
	s := r.s[r.off : r.off+n]
	r.off += n
	return s
}

func (r *Reader) Strs() []string {
	n := r.Count(1)
	if n == 0 {
		return nil
	}
	ss := make([]string, n)
	for i := range ss {
		ss[i] = r.Str()
	}
	return ss
}

// Bag reads a variable bag into a map of its own (BagInto of nil).
func (r *Reader) Bag() map[string]string { return r.BagInto(nil) }

// BagInto reads a variable bag into bag, insisting on AppendBag's
// strictly ascending key order: a repeated key would otherwise silently
// collapse. It clears bag first and returns it, so a caller that lends a
// map decodes into the same storage every time; a map is made only when
// bag is nil and the record has pairs. A checker's BagInto writes nothing
// and returns nil.
func (r *Reader) BagInto(bag map[string]string) map[string]string {
	n := r.Count(2) // a pair is at least its two length bytes
	if r.check {
		bag = nil
	} else if clear(bag); bag == nil && n > 0 {
		bag = make(map[string]string, n)
	}
	prev := ""
	for i := 0; i < n; i++ {
		k := r.Str()
		if i > 0 && k <= prev && r.err == nil {
			r.Fail("bag keys out of order")
		}
		if v := r.Str(); bag != nil {
			bag[k] = v
		}
		prev = k
	}
	return bag
}
