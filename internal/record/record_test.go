package record

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"strings"
	"testing"
)

// fields is what the tests' one record layout holds: every primitive the
// two codecs build on, once.
type fields struct {
	n   uint64
	s   string
	ss  []string
	bag map[string]string
}

func (f fields) encode() []byte {
	b := binary.AppendUvarint(nil, f.n)
	b = AppendStr(b, f.s)
	b = AppendStrs(b, f.ss)
	b, _ = AppendBag(b, f.bag, nil)
	return b
}

// decode reads the layout back; the error is the Reader's, checked once
// after the last field, as the codecs do.
func decode(b []byte) (fields, error) {
	r := NewReader(b)
	f := fields{n: r.Uvarint(), s: r.Str(), ss: r.Strs(), bag: r.Bag()}
	r.End()
	return f, r.Err()
}

var roundTrips = []struct {
	name string
	f    fields
}{
	{"zero", fields{}},
	{"scalars", fields{n: 1<<63 + 5, s: "x"}},
	{"two-byte length", fields{s: strings.Repeat("a", 200)}},
	{"list", fields{ss: []string{"", "s1", "$wrapper", "ü"}}},
	{"one pair", fields{bag: map[string]string{"x": "1"}}},
	{"empty key and value", fields{bag: map[string]string{"": "", "a": ""}}},
	{"travel bag", fields{n: 7, s: "Travel", ss: []string{"DFB", "ITA"}, bag: map[string]string{
		"customer": "alice", "destination": "sydney", "flightRef": "QF-1", "accommodation": "GrandHotel sydney",
	}}},
}

func TestRoundTrip(t *testing.T) {
	for _, tc := range roundTrips {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.f.encode()
			if want := SizeUvarint(tc.f.n) + SizeStr(tc.f.s) + SizeBag(tc.f.bag) + len(AppendStrs(nil, tc.f.ss)); len(b) != want {
				t.Errorf("Size* add up to %d bytes, Append* wrote %d", want, len(b))
			}
			got, err := decode(b)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if !reflect.DeepEqual(got, tc.f) {
				t.Errorf("decoded %+v, want %+v", got, tc.f)
			}
			// Equal bags are equal bytes, whatever order the map hands its
			// keys out in, and a kept scratch changes nothing.
			scratch := make([]Pair, 0, 8)
			for i := 0; i < 8; i++ {
				var again []byte
				again, scratch = AppendBag(nil, tc.f.bag, scratch)
				if first, _ := AppendBag(nil, tc.f.bag, nil); !bytes.Equal(again, first) {
					t.Fatalf("bag encoded as %x, then as %x", first, again)
				}
			}
		})
	}
	// An empty list or bag is its nil twin on the way back.
	got, err := decode(fields{ss: []string{}, bag: map[string]string{}}.encode())
	if err != nil || got.ss != nil || got.bag != nil {
		t.Errorf("empty list and bag decoded as %+v, %v; want nils", got, err)
	}
}

// pairs encodes a bag as given, unsorted — what AppendBag never writes.
func pairs(kv ...string) []byte {
	b := binary.AppendUvarint(nil, uint64(len(kv)/2))
	for _, s := range kv {
		b = AppendStr(b, s)
	}
	return b
}

var malformed = []struct {
	name string
	b    []byte
	read func(r *Reader)
	want string
}{
	{"byte of nothing", nil, func(r *Reader) { r.Byte() }, "truncated"},
	{"fixed64 of seven bytes", make([]byte, 7), func(r *Reader) { r.Fixed64() }, "truncated"},
	{"varint cut short", []byte{0x80}, func(r *Reader) { r.Uvarint() }, "varint"},
	{"varint of eleven bytes", bytes.Repeat([]byte{0xff}, 11), func(r *Reader) { r.Uvarint() }, "varint"},
	{"string longer than the record", []byte{5, 'a', 'b'}, func(r *Reader) { r.Str() }, "count exceeds"},
	{"list count beyond the bytes", []byte{200, 1, 0, 0}, func(r *Reader) { r.Strs() }, "count exceeds"},
	{"bag count beyond the bytes", []byte{2, 0, 0, 0}, func(r *Reader) { r.Bag() }, "count exceeds"},
	{"huge count", binary.AppendUvarint(nil, 1<<62), func(r *Reader) { r.Count(1) }, "count exceeds"},
	{"bag keys descending", pairs("b", "1", "a", "2"), func(r *Reader) { r.Bag() }, "out of order"},
	{"bag key repeated", pairs("a", "1", "a", "2"), func(r *Reader) { r.Bag() }, "out of order"},
	{"bag cut inside a pair", pairs("a", "1", "b", "2")[:6], func(r *Reader) { r.Bag() }, "count exceeds"},
	{"trailing bytes", []byte{1, 'a', 0}, func(r *Reader) { r.Str(); r.End() }, "trailing bytes"},
	{"caller's failure", []byte{9, 9}, func(r *Reader) { r.Byte(); r.Fail("unknown kind") }, "unknown kind at byte 1 of 2"},
}

func TestReaderRejects(t *testing.T) {
	for _, tc := range malformed {
		t.Run(tc.name, func(t *testing.T) {
			r := NewReader(tc.b)
			tc.read(&r)
			first := r.Err()
			if !errors.Is(first, ErrMalformed) || !strings.Contains(first.Error(), tc.want) {
				t.Fatalf("Err = %v, want ErrMalformed mentioning %q", first, tc.want)
			}
			// The first failure sticks: whatever is read next is a zero value,
			// nothing advances, and Err is still the first one.
			if b, f, v, n := r.Byte(), r.Fixed64(), r.Uvarint(), r.Count(1); b != 0 || f != 0 || v != 0 || n != 0 {
				t.Errorf("numbers read after a failure: %d %d %d %d", b, f, v, n)
			}
			if s, ss, bag := r.Str(), r.Strs(), r.Bag(); s != "" || ss != nil || bag != nil {
				t.Errorf("read after a failure: %q %v %v", s, ss, bag)
			}
			r.Fail("later")
			r.End()
			if r.Err() != first {
				t.Errorf("Err moved from %v to %v", first, r.Err())
			}
		})
	}
}

// TestCountIsCappedByWhatRemains: a count is believed only as far as the
// bytes after it could hold that many elements of the stated minimum
// size, so a decoder never allocates for a lie.
func TestCountIsCappedByWhatRemains(t *testing.T) {
	for _, tc := range []struct {
		count, rest, min int
		ok               bool
	}{
		{0, 0, 1, true}, {3, 3, 1, true}, {4, 3, 1, false},
		{2, 4, 2, true}, {2, 3, 2, false}, {1, 0, 2, false},
	} {
		r := NewReader(append(binary.AppendUvarint(nil, uint64(tc.count)), make([]byte, tc.rest)...))
		if n := r.Count(tc.min); (r.Err() == nil) != tc.ok || (tc.ok && n != tc.count) {
			t.Errorf("Count(%d) of %d with %d bytes left = %d, %v; want ok=%v", tc.min, tc.count, tc.rest, n, r.Err(), tc.ok)
		}
	}
}

// FuzzReader reads arbitrary bytes as the tests' layout: the Reader must
// never panic, never believe a count the remaining bytes could not hold,
// fail only with ErrMalformed, and whatever it does decode must survive
// its own encoding — to the same bytes, when the input spelled its
// lengths the one way the encoder does (a varint padded with 0x80 0x00
// decodes, as encoding/binary allows, and re-encodes shorter).
func FuzzReader(f *testing.F) {
	for _, tc := range roundTrips {
		f.Add(tc.f.encode())
	}
	for _, tc := range malformed {
		f.Add(tc.b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		r := NewReader(b)
		for r.Err() == nil && r.off < len(r.b) {
			n := r.Count(1)
			if left := len(r.b) - r.off; n > left {
				t.Fatalf("Count believed %d elements with %d bytes left", n, left)
			}
		}
		got, err := decode(b)
		if err != nil {
			if !errors.Is(err, ErrMalformed) {
				t.Fatalf("decode failed with %v, not ErrMalformed", err)
			}
			return
		}
		again := got.encode()
		if len(again) > len(b) || (len(again) == len(b) && !bytes.Equal(again, b)) {
			t.Fatalf("%x decoded to %+v, which encodes as %x", b, got, again)
		}
		if back, err := decode(again); err != nil || !reflect.DeepEqual(back, got) {
			t.Fatalf("%+v encoded as %x, which decodes as %+v, %v", got, again, back, err)
		}
	})
}
