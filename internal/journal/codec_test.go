package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// encodePayload runs the one encoder on a fresh buffer and returns the
// payload (the frame minus its header).
func encodePayload(t testing.TB, r *Record) []byte {
	t.Helper()
	var e encoder
	if err := e.frame(r); err != nil {
		t.Fatalf("encode %+v: %v", r, err)
	}
	return e.buf[frameHeader:]
}

// jsonRoundTrip is the oracle: the record as the pre-codec journal
// would have stored and reloaded it. encoding/json lives on in the tests
// for exactly this.
func jsonRoundTrip(t testing.TB, r *Record) *Record {
	t.Helper()
	buf, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	out := &Record{}
	if err := json.Unmarshal(buf, out); err != nil {
		t.Fatal(err)
	}
	return out
}

// recordGen draws Records from a seed: every kind, every field, bags
// from nil through empty to a dozen keys, several messages per round and
// several sources per snapshot.
type recordGen struct{ rng *rand.Rand }

func (g recordGen) str() string {
	const alphabet = "abcXYZ09_$/ \x00\"é{}"
	runes := []rune(alphabet)
	n := g.rng.Intn(12)
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteRune(runes[g.rng.Intn(len(runes))])
	}
	return sb.String()
}

func (g recordGen) num() uint64 {
	switch g.rng.Intn(4) {
	case 0:
		return 0
	case 1:
		return uint64(g.rng.Intn(200))
	case 2:
		return g.rng.Uint64()
	}
	return 1<<64 - 1
}

func (g recordGen) bag() map[string]string {
	switch g.rng.Intn(4) {
	case 0:
		return nil
	case 1:
		return map[string]string{}
	}
	bag := map[string]string{}
	for i, n := 0, 1+g.rng.Intn(12); i < n; i++ {
		bag[g.str()] = g.str()
	}
	return bag
}

func (g recordGen) strs() []string {
	switch g.rng.Intn(3) {
	case 0:
		return nil
	case 1:
		return []string{}
	}
	ss := make([]string, 1+g.rng.Intn(4))
	for i := range ss {
		ss[i] = g.str()
	}
	return ss
}

func (g recordGen) record(kind string) *Record {
	r := &Record{
		Kind: kind, Composite: g.str(), Instance: g.str(), State: g.str(), Version: g.num(),
		Time: int64(g.num()), Src: g.str(), Seq: g.num(), Vars: g.bag(),
		Service: g.str(), Key: g.str(), Outputs: g.bag(),
		FireSeq: g.num(), Consumed: g.strs(), Cleared: g.strs(), SendSeq: g.num(),
		Error: g.str(),
	}
	for i, n := 0, g.rng.Intn(4); i < n; i++ {
		r.Msgs = append(r.Msgs, OutMsg{Type: g.str(), To: g.str(), Seq: g.num(), Vars: g.bag()})
	}
	for i, n := 0, g.rng.Intn(4); i < n; i++ {
		r.Sources = append(r.Sources, SourceState{Name: g.str(), Count: uint32(g.num()), Seen: g.num(), Vars: g.bag()})
	}
	return r
}

// TestCodecMatchesJSONOracle is the differential test: whatever the
// journal used to round-trip through encoding/json, the binary codec
// round-trips to the same Record — every kind, every field.
func TestCodecMatchesJSONOracle(t *testing.T) {
	g := recordGen{rand.New(rand.NewSource(15))}
	for i := 0; i < 2000; i++ {
		r := g.record(kinds[1+i%(len(kinds)-1)])
		got, err := decodeRecord(encodePayload(t, r))
		if err != nil {
			t.Fatalf("record %d: decode: %v\n%+v", i, err, r)
		}
		if want := jsonRoundTrip(t, r); !reflect.DeepEqual(got, want) {
			t.Fatalf("record %d: binary round trip differs from the JSON oracle\n got %+v\nwant %+v", i, got, want)
		}
	}
	// With no empty-but-non-nil containers in play the round trip is the
	// identity, field for field.
	whole := &Record{
		Kind: KindPassivate, Composite: "c", Instance: "i", State: "s", Version: 3, Time: -5,
		Src: "w", Seq: 9, Vars: map[string]string{"x": "1", "y": ""}, Service: "svc", Key: "k",
		Outputs: map[string]string{"o": "2"}, FireSeq: 4, Consumed: []string{"a", "b"}, Cleared: []string{"a"},
		SendSeq: 7, Msgs: []OutMsg{{Type: "notify", To: "s2", Seq: 7, Vars: map[string]string{"x": "1"}}, {Type: "fault", To: "$wrapper"}},
		Sources: []SourceState{{Name: "a", Count: 2, Seen: 11, Vars: map[string]string{"p": "q"}}, {Name: "b", Seen: 1}},
		Error:   "boom",
	}
	got, err := decodeRecord(encodePayload(t, whole))
	if err != nil || !reflect.DeepEqual(got, whole) {
		t.Fatalf("round trip is not the identity (err %v)\n got %+v\nwant %+v", err, got, whole)
	}
}

// TestCodecDeterministic pins the sorted-key rule: equal records are
// equal bytes, however their maps were filled.
func TestCodecDeterministic(t *testing.T) {
	keys := []string{"m", "a", "zz", "b", "k", "", "aa", "z", "c", "y", "d", "x", "e", "w"}
	fill := func(order []string) map[string]string {
		m := map[string]string{}
		for _, k := range order {
			m[k] = "v" + k
		}
		return m
	}
	reversed := append([]string(nil), keys...)
	for i, j := 0, len(reversed)-1; i < j; i, j = i+1, j-1 {
		reversed[i], reversed[j] = reversed[j], reversed[i]
	}
	build := func(order []string) *Record {
		return &Record{
			Kind: KindSnapshot, Composite: "c", Instance: "i", State: "s",
			Vars: fill(order), Outputs: fill(order),
			Msgs:    []OutMsg{{Type: "notify", To: "t", Vars: fill(order)}},
			Sources: []SourceState{{Name: "a", Vars: fill(order)}},
		}
	}
	want := encodePayload(t, build(keys))
	for i := 0; i < 20; i++ { // map iteration order is random per range
		if got := encodePayload(t, build(reversed)); !bytes.Equal(got, want) {
			t.Fatalf("same record, different bytes:\n%x\n%x", got, want)
		}
	}
}

// goldenChain8 is a journal directory two real Chain(8) executions left
// behind (golden_test.go regenerates it): the fuzz seeds, and the pin
// that format version 1 stays readable.
const goldenChain8 = "testdata/chain8"

// goldenFrames returns the golden directory's records, one whole frame
// each, in file order.
func goldenFrames(t testing.TB) [][]byte {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(goldenChain8, "shard-*", "seg-*.wal"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no golden segments under %s (err %v)", goldenChain8, err)
	}
	var frames [][]byte
	for _, p := range paths {
		_, err := walkSegment(p, func(_ int64, _ *Record, frame []byte) error {
			frames = append(frames, frame)
			return nil
		})
		if err != nil {
			t.Fatalf("golden segment %s: %v", p, err)
		}
	}
	return frames
}

// decoderSeeds are FuzzDecodeRecord's seed payloads: every record of the
// golden segments, one generated record of each kind, and the shapes
// that must fail — each is also run as a plain unit test by `go test`.
func decoderSeeds(t testing.TB) [][]byte {
	var seeds [][]byte
	for _, frame := range goldenFrames(t) {
		seeds = append(seeds, frame[frameHeader:])
	}
	g := recordGen{rand.New(rand.NewSource(1))}
	for _, kind := range kinds[1:] {
		seeds = append(seeds, encodePayload(t, g.record(kind)))
	}
	return append(seeds,
		nil,
		[]byte{0},                            // kind 0
		[]byte{9},                            // kind past the table
		[]byte{3, 0xff, 0xff, 0xff, 0xff, 1}, // string longer than the payload
		bytes.Repeat([]byte{0x80}, 12),       // varint that never ends
	)
}

// FuzzDecodeRecord: an arbitrary payload decodes to a record or fails
// with ErrCorrupt — no panic, no allocation the input does not back —
// and whatever decodes re-encodes to a payload that decodes to the same
// record.
func FuzzDecodeRecord(f *testing.F) {
	for _, seed := range decoderSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		r, err := decodeRecord(payload)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		again, err := decodeRecord(encodePayload(t, r))
		if err != nil || !reflect.DeepEqual(again, r) {
			t.Fatalf("decoded record does not survive a re-encode (err %v)\n got %+v\nwant %+v", err, again, r)
		}
	})
}

// TestDecodeRejectsLies pins the decoder's refusals on payloads derived
// from a good one: every truncation, a trailing byte, a length the
// remaining bytes cannot back (refused before anything is allocated for
// it), a bag out of canonical order, and numbers that do not fit their
// field — all ErrCorrupt. A 0xff planted at any offset must never
// panic.
func TestDecodeRejectsLies(t *testing.T) {
	rec := &Record{
		Kind: KindSnapshot, Composite: "comp", Instance: "inst", State: "st", Version: 1, Seq: 2,
		Vars: map[string]string{"a": "1", "b": "2"}, Consumed: []string{"p"}, Cleared: []string{"p"},
		Msgs:    []OutMsg{{Type: "notify", To: "s2", Seq: 1, Vars: map[string]string{"x": "1"}}},
		Sources: []SourceState{{Name: "src", Count: 1<<32 - 1, Seen: 3, Vars: map[string]string{"y": "2"}}},
		Error:   "e",
	}
	good := encodePayload(t, rec)
	if got, err := decodeRecord(good); err != nil || !reflect.DeepEqual(got, rec) {
		t.Fatalf("baseline payload: %+v, %v", got, err)
	}
	// patch returns good with the one occurrence of old replaced.
	patch := func(old, new string) []byte {
		if bytes.Count(good, []byte(old)) != 1 {
			t.Fatalf("patch: %q occurs %d times in the baseline", old, bytes.Count(good, []byte(old)))
		}
		return bytes.Replace(good, []byte(old), []byte(new), 1)
	}
	cases := map[string][]byte{
		"empty":               nil,
		"trailing byte":       append(append([]byte(nil), good...), 0),
		"unknown kind":        append([]byte{200}, good[1:]...),
		"kind zero":           append([]byte{0}, good[1:]...),
		"huge string length":  {1, 0xff, 0xff, 0xff, 0xff, 0x0f},
		"varint over 64 bits": append([]byte{1}, bytes.Repeat([]byte{0xff}, 10)...),
		"varint never ends":   append([]byte{1}, bytes.Repeat([]byte{0x80}, 12)...),
		"bag keys descending": patch("\x01a\x011\x01b\x012", "\x01b\x011\x01a\x012"),
		"bag key repeated":    patch("\x01a\x011\x01b\x012", "\x01a\x011\x01a\x012"),
		"source count > 2^32": patch("\xff\xff\xff\xff\x0f", "\xff\xff\xff\xff\x1f"),
	}
	for i := range good {
		cases[fmt.Sprintf("truncated to %d bytes", i)] = good[:i]
	}
	for name, payload := range cases {
		if r, err := decodeRecord(payload); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: decode = %+v, %v; want ErrCorrupt", name, r, err)
		}
	}
	for i := range good {
		bad := append([]byte(nil), good...)
		bad[i] = 0xff
		if _, err := decodeRecord(bad); err != nil && !errors.Is(err, ErrCorrupt) {
			t.Errorf("0xff at offset %d: untyped error %v", i, err)
		}
	}
}

// TestEncodeRejectsWhatItCannotWrite: the two records the encoder
// refuses, both loudly — a kind with no code, and a payload over the
// frame limit (which the decoder would refuse to read back).
func TestEncodeRejectsWhatItCannotWrite(t *testing.T) {
	var e encoder
	if err := e.frame(&Record{Kind: "bogus"}); err == nil {
		t.Error("encoder accepted an unknown kind")
	}
	big := &Record{Kind: KindWStart, Vars: map[string]string{"blob": strings.Repeat("x", maxRecordBytes)}}
	if err := e.frame(big); err == nil {
		t.Error("encoder accepted a record over the frame limit")
	}
	j := openTest(t, Options{Fsync: FsyncOff, Shards: 1})
	if err := j.Append(big); err == nil {
		t.Error("Append accepted a record over the frame limit")
	}
	small := &Record{Kind: KindWStart, Composite: "c", Instance: "i"}
	if err := j.Append(small); err != nil {
		t.Fatalf("Append after a refused record: %v", err)
	}
	if got := collectAll(t, j); len(got) != 1 || got[0].Kind != KindWStart {
		t.Fatalf("journal after a refused record holds %d records", len(got))
	}
	s := j.shards[0]
	s.mu.Lock()
	defer s.mu.Unlock()
	if c := cap(s.enc.buf); c > maxKeptBuf {
		t.Errorf("shard kept a %d-byte buffer after an oversized record", c)
	}
}

// TestGoldenSegmentStillReadable pins format version 1: the committed
// segments decode, record for record, to what their JSON side file says.
// A layout change that forgets to bump segHeader's version fails here.
func TestGoldenSegmentStillReadable(t *testing.T) {
	want, err := os.ReadFile(filepath.Join(goldenChain8, "dump.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	err = Walk(goldenChain8, func(e Entry) error {
		line, err := json.Marshal(e)
		fmt.Fprintf(&got, "%s\n", line)
		return err
	})
	if err != nil {
		t.Fatalf("Walk: %v", err)
	}
	if got.String() != string(want) {
		t.Fatalf("golden segments no longer decode to dump.jsonl:\n got:\n%s\nwant:\n%s", got.String(), want)
	}
}
