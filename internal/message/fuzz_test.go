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
//	go test ./internal/message -run '^$' -fuzz 'FuzzDecodeIntoOneMessage$' -fuzztime 30s
//
// (make fuzz runs all four; CI gives each 30s per push.)

import (
	"encoding/binary"
	"errors"
	"maps"
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

// FuzzDecodeIntoOneMessage decodes every input into ONE Message, left
// dirty by a full record decoded into it first — every field set, a
// fault's Error and an invoke's ReplyTo among them — as a receive lane
// reuses its Message and the bag its handler leaves. Each visit must read
// exactly what its record decodes to alone, in a frame of its own, into a
// fresh Message: no field and no variable of an earlier record may show
// through. Odd visits take the bag, as a coordinator's first arrival
// does, and even ones leave it: a left bag is the map the next record
// decodes into, and a taken one still holds its own record's variables
// after every later visit. A frame that does not decode must visit
// nothing, and fail with ErrCorrupt only.
func FuzzDecodeIntoOneMessage(f *testing.F) {
	for _, seed := range decoderSeeds(f) {
		f.Add(seed)
	}
	dirty := mustMarshal(f, &Message{
		Type: TypeInvoke, Composite: "C", Instance: "i", From: "f", To: "t", Seq: 9, Version: 9,
		Vars: map[string]string{"x": "1"}, Error: "boom", ReplyTo: "somewhere",
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		var m Message
		if err := Decode(dirty, &m, func(*Message) {}); err != nil {
			t.Fatal(err)
		}
		left := m.Vars // the dirty record's bag, left for the next record
		count, body, _ := openFrame(data)
		visits := 0
		var taken, takenWant []map[string]string
		err := Decode(data, &m, func(m *Message) {
			var rec []byte
			rec, body, _ = nextRecord(body)
			alone := append(binary.AppendUvarint([]byte{frameV1, 1}, uint64(len(rec))), rec...)
			want, err := Unmarshal(alone)
			if err != nil {
				t.Fatalf("record %d decodes in its frame but not alone: %v", visits, err)
			}
			got := *m
			if !maps.Equal(got.Vars, want.Vars) {
				t.Fatalf("visit %d's bag holds %v, its record alone decodes to %v", visits, got.Vars, want.Vars)
			}
			if left != nil && reflect.ValueOf(got.Vars).Pointer() != reflect.ValueOf(left).Pointer() {
				t.Fatalf("visit %d decoded into a new map while the last one was left", visits)
			}
			got.Vars, want.Vars = nil, nil
			if !reflect.DeepEqual(&got, want) {
				t.Fatalf("visit %d read %+v, its record alone decodes to %+v", visits, got, *want)
			}
			if left = m.Vars; visits%2 == 1 {
				taken, takenWant = append(taken, m.Vars), append(takenWant, maps.Clone(m.Vars))
				m.Vars, left = nil, nil
			}
			visits++
		})
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("untyped decode error: %v", err)
			}
			if visits != 0 {
				t.Fatalf("a frame that does not decode (%v) visited %d messages", err, visits)
			}
			return
		}
		if visits != count {
			t.Fatalf("a frame of %d visited %d messages", count, visits)
		}
		for i := range taken {
			if !maps.Equal(taken[i], takenWant[i]) {
				t.Fatalf("taken bag %d now holds %v, want %v: a later record wrote it", i, taken[i], takenWant[i])
			}
		}
	})
}
