package message

// Fuzz targets for the wire decoders. The decode side accepts arbitrary
// bytes off TCP connections, so the contract under fuzzing is: never
// panic, never allocate what the input does not back, fail only with
// ErrCorrupt, and for every payload that DOES decode, re-encoding the
// decoded messages round-trips to the same values (the decoder never
// fabricates state it cannot represent).
//
// Seeds are the committed golden frames (testdata/, see golden_test.go)
// — a Chain hop, a Travel bag, an 8-message batch, a merged frame — plus
// corrupt variants of each.
//
// Run locally with:
//
//	go test ./internal/message -run '^$' -fuzz 'FuzzUnmarshal$' -fuzztime 30s
//	go test ./internal/message -run '^$' -fuzz 'FuzzUnmarshalBatch$' -fuzztime 30s
//	go test ./internal/message -run '^$' -fuzz 'FuzzMergeBatch$' -fuzztime 30s
//
// (make fuzz runs all three; CI gives each 30s per push.)

import (
	"errors"
	"reflect"
	"testing"
)

// decoderSeeds returns the golden frames and what damage makes of them:
// truncations, a lying count, a foreign format byte, a flipped byte.
func decoderSeeds(f *testing.F) [][]byte {
	f.Helper()
	var seeds [][]byte
	for _, frame := range readGolden(f) {
		flipped := append([]byte(nil), frame...)
		flipped[len(flipped)/2] ^= 0xff
		seeds = append(seeds, frame, frame[:len(frame)/2], frame[:len(frame)-1], flipped,
			append([]byte{frameV1, 0x7f}, frame[2:]...),
			append([]byte{0x00}, frame[1:]...))
	}
	return append(seeds,
		[]byte{}, []byte{frameV1},
		[]byte{frameV1, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01},
		[]byte(`<message type="notify"></message>`))
}

// FuzzUnmarshal fuzzes the frame-of-one decoder.
func FuzzUnmarshal(f *testing.F) {
	for _, seed := range decoderSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Unmarshal(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		m2, err := Unmarshal(mustMarshal(t, m))
		if err != nil {
			t.Fatalf("decode of re-marshal failed: %v", err)
		}
		if !reflect.DeepEqual(m, m2) {
			t.Fatalf("round-trip diverged:\n first: %+v\nsecond: %+v", m, m2)
		}
	})
}

// FuzzUnmarshalBatch fuzzes the frame decoder — the single decode entry
// point of both transports' read paths.
func FuzzUnmarshalBatch(f *testing.F) {
	for _, seed := range decoderSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ms, err := UnmarshalBatch(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		if len(ms) == 0 {
			t.Fatal("UnmarshalBatch accepted a payload but returned zero messages")
		}
		ms2, err := UnmarshalBatch(mustMarshalBatch(t, ms))
		if err != nil {
			t.Fatalf("decode of re-marshal failed: %v", err)
		}
		if !reflect.DeepEqual(ms, ms2) {
			t.Fatalf("round-trip diverged:\n first: %+v\nsecond: %+v", ms, ms2)
		}
		if m, err := Unmarshal(data); (err == nil) != (len(ms) == 1) || err == nil && !reflect.DeepEqual(m, ms[0]) {
			t.Fatalf("Unmarshal disagrees with UnmarshalBatch on a frame of %d: %+v, %v", len(ms), m, err)
		}
	})
}

// FuzzMergeBatch fuzzes the frame merge with PAIRS of
// payloads. The contract: two payloads that each decode must merge, and
// the merge decodes to the concatenation of their messages; payloads
// with corrupt framing are rejected with ErrCorrupt, without panic and
// without partial output.
func FuzzMergeBatch(f *testing.F) {
	seeds := decoderSeeds(f)
	for _, a := range seeds {
		for _, b := range seeds {
			f.Add(a, b)
		}
	}
	f.Fuzz(func(t *testing.T, a, b []byte) {
		wantA, errA := UnmarshalBatch(a)
		wantB, errB := UnmarshalBatch(b)
		merged, count, err := MergeBatch([][]byte{a, b})
		if errA != nil || errB != nil {
			// At least one input does not decode. The merge may accept it
			// anyway (framing can be valid around an undecodable record —
			// records are deliberately not parsed here), but it must never
			// panic, and a refusal is ErrCorrupt with no output.
			if err != nil && (!errors.Is(err, ErrCorrupt) || merged != nil) {
				t.Fatalf("merge refusal: %q, %v", merged, err)
			}
			return
		}
		// Both inputs decode -> their framing is valid -> merge MUST work.
		if err != nil {
			t.Fatalf("merge of two decodable payloads failed: %v", err)
		}
		want := append(append([]*Message{}, wantA...), wantB...)
		if count != len(want) {
			t.Fatalf("merge count = %d, want %d", count, len(want))
		}
		got, err := UnmarshalBatch(merged)
		if err != nil {
			t.Fatalf("decode of merged payload failed: %v", err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("merged frame diverged:\n got: %+v\nwant: %+v", got, want)
		}
	})
}
