package message

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.frame from goldenFrames")

// goldenFrames names the committed version-1 frames under testdata/ and
// the messages each one holds: the smallest Chain notification, a Travel
// notification near the end of its execution (nine variables and a
// '$'-prefixed engine tag), an 8-message batch, and what MergeBatch
// makes of the three.
func goldenFrames() map[string][]*Message {
	hop := &Message{
		Type: TypeNotify, Composite: "Chain8", Instance: "i12345",
		From: "s3", To: "s4", Version: 1, Vars: map[string]string{"x": "3"},
	}
	bag := &Message{
		Type: TypeNotify, Composite: "TravelPlanner", Instance: "i12345",
		From: "AB", To: "CR", Seq: 9, Version: 2,
		Vars: map[string]string{
			"customer": "cust42", "destination": "melbourne",
			"departDate": "2026-07-01", "returnDate": "2026-07-14",
			"flightRef": "QF-CUS-MEL", "insuranceRef": "INS-CUS",
			"major_attraction": "Great Ocean Road", "attractionDistance": "180",
			"accommodation": "GrandHotel melbourne", "$zone": "t3",
		},
	}
	batch := []*Message{
		{Type: TypeStart, Composite: "Parallel8", Instance: "i7", From: WrapperID, To: "p1", Version: 1, Vars: map[string]string{"x": "0"}},
		{Type: TypeNotify, Composite: "Parallel8", Instance: "i7", From: "p1", To: "join", Seq: 1, Version: 1, Vars: map[string]string{"x": "1", "y1": "<&>\"'"}},
		{Type: TypeNotify, Composite: "Parallel8", Instance: "i7", From: "p2", To: "join", Seq: 2, Version: 1},
		{Type: TypeDone, Composite: "Parallel8", Instance: "i7", From: "join", To: WrapperID, Version: 1, Vars: map[string]string{"x": "8"}},
		{Type: TypeFault, Composite: "Parallel8", Instance: "i8", From: "p3", To: WrapperID, Version: 1, Error: "engine: provider failed\n\x00\xff"},
		{Type: TypeInvoke, Composite: "Parallel8", Instance: "tok/1", To: "Svc/op", ReplyTo: "127.0.0.1:9", Vars: map[string]string{"a": "", "b": "2"}},
		{Type: TypeResult, Composite: "Parallel8", Instance: "tok/1", From: "Svc/op", Vars: map[string]string{"out": "3"}},
		{Type: TypeResult, Composite: "Parallel8", Instance: "tok/2", From: "Svc/op", Error: "limits: tenant over quota"},
	}
	merged := append(append([]*Message{hop}, batch...), bag)
	return map[string][]*Message{
		"chain_hop":  {hop},
		"travel_bag": {bag},
		"batch8":     batch,
		"merged":     merged,
	}
}

func goldenPath(name string) string { return filepath.Join("testdata", name+".frame") }

// goldenNames returns the fixture names in a fixed order.
func goldenNames() []string {
	var names []string
	for name := range goldenFrames() {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// readGolden returns the committed frames, for the fuzz seeds.
func readGolden(t testing.TB) [][]byte {
	t.Helper()
	var frames [][]byte
	for _, name := range goldenNames() {
		data, err := os.ReadFile(goldenPath(name))
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, data)
	}
	return frames
}

// TestUpdateGoldenFrames regenerates testdata/. Run it — `go test
// ./internal/message -run UpdateGolden -update` — only together with a
// bump of the format byte's version nibble.
func TestUpdateGoldenFrames(t *testing.T) {
	if !*update {
		t.Skip("golden frames are regenerated only with -update")
	}
	frames := goldenFrames()
	for _, name := range goldenNames() {
		data := mustMarshalBatch(t, frames[name])
		if name == "merged" {
			var err error
			data, _, err = MergeBatch([][]byte{
				mustMarshal(t, frames["chain_hop"][0]),
				mustMarshalBatch(t, frames["batch8"]),
				mustMarshal(t, frames["travel_bag"][0]),
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(goldenPath(name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestGoldenFrameStillReadable pins format version 1: the committed
// frames decode, message for message, to what goldenFrames says, and
// today's encoder still produces them byte for byte. A layout change
// that forgets to bump frameV1's version fails here — on the decode if
// the reader moved, on the bytes if the writer did.
func TestGoldenFrameStillReadable(t *testing.T) {
	frames := goldenFrames()
	for _, name := range goldenNames() {
		want := frames[name]
		data, err := os.ReadFile(goldenPath(name))
		if err != nil {
			t.Fatal(err)
		}
		if data[0] != frameV1 {
			t.Fatalf("%s: format byte %#02x, build speaks %#02x: regenerate testdata with -update", name, data[0], frameV1)
		}
		got, err := UnmarshalBatch(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d messages, want %d", name, len(got), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(normalize(got[i]), normalize(want[i])) {
				t.Errorf("%s message %d:\n got %+v\nwant %+v", name, i, got[i], want[i])
			}
		}
		if again := mustMarshalBatch(t, want); !bytes.Equal(again, data) {
			t.Errorf("%s: the encoder no longer writes the committed bytes:\n now %q\nthen %q", name, again, data)
		}
		if len(want) == 1 {
			if m, err := Unmarshal(data); err != nil || !reflect.DeepEqual(normalize(m), normalize(want[0])) {
				t.Errorf("%s: Unmarshal = %+v, %v", name, m, err)
			}
		}
	}
	if size := len(mustMarshal(t, frames["chain_hop"][0])); size > 45 {
		t.Errorf("the Chain hop frame is %d bytes; the hop budget allows 45", size)
	}
}
