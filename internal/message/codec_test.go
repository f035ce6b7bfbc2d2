package message

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"unicode/utf8"
)

// normalize maps empty-but-non-nil Vars to nil so messages compare with
// reflect.DeepEqual whichever codec (or literal) produced them.
func normalize(m *Message) *Message {
	if len(m.Vars) == 0 {
		m.Vars = nil
	}
	return m
}

func mustMarshal(t testing.TB, m *Message) []byte {
	t.Helper()
	data, err := Marshal(m)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	return data
}

func mustMarshalBatch(t testing.TB, ms []*Message) []byte {
	t.Helper()
	data, err := MarshalBatch(ms)
	if err != nil {
		t.Fatalf("MarshalBatch: %v", err)
	}
	return data
}

// seedMessages is a small vocabulary-spanning corpus: all six types,
// bags with and without content, bytes XML would have had to escape.
func seedMessages() []*Message {
	return []*Message{
		{Type: TypeStart, Composite: "C", Instance: "i1", From: WrapperID, To: "s1",
			Vars: map[string]string{"x": "1"}},
		{Type: TypeNotify, Composite: "Travel", Instance: "i2", From: "s1", To: "s2", Seq: 7, Version: 3,
			Vars: map[string]string{"dest": "sydney", "w€ird": "<&>\"'\x09"}},
		{Type: TypeDone, Composite: "C", Instance: "i3", From: "s2", To: WrapperID},
		{Type: TypeFault, Composite: "C", Instance: "i4", From: "s1", To: WrapperID,
			Error: "engine: boom"},
		{Type: TypeInvoke, Composite: "C", Instance: "i5", To: "Svc/op", ReplyTo: "127.0.0.1:9",
			Vars: map[string]string{"a": "", "b": "2"}},
		{Type: TypeResult, Composite: "C", Instance: "i6", From: "Svc/op"},
	}
}

func TestBatchRoundTrip(t *testing.T) {
	ms := seedMessages()
	for width := 1; width <= len(ms); width++ {
		got, err := UnmarshalBatch(mustMarshalBatch(t, ms[:width]))
		if err != nil {
			t.Fatalf("UnmarshalBatch(%d): %v", width, err)
		}
		if len(got) != width {
			t.Fatalf("round trip width %d returned %d messages", width, len(got))
		}
		for i := range got {
			if !reflect.DeepEqual(normalize(got[i]), normalize(ms[i])) {
				t.Fatalf("width %d message %d = %+v, want %+v", width, i, got[i], ms[i])
			}
		}
	}
	if _, err := MarshalBatch(nil); !errors.Is(err, ErrEmptyBatch) {
		t.Fatalf("MarshalBatch(nil) = %v, want ErrEmptyBatch", err)
	}
}

// TestOneFrameLayout: a single message is a batch of one — the same
// bytes from Marshal and MarshalBatch, readable by Unmarshal and
// UnmarshalBatch alike — and Unmarshal refuses a frame of several.
func TestOneFrameLayout(t *testing.T) {
	m := seedMessages()[1]
	single := mustMarshal(t, m)
	if batched := mustMarshalBatch(t, []*Message{m}); !bytes.Equal(single, batched) {
		t.Fatalf("batch of one differs from Marshal:\n%q\n%q", single, batched)
	}
	got, err := UnmarshalBatch(single)
	if err != nil || len(got) != 1 || !reflect.DeepEqual(normalize(got[0]), normalize(m)) {
		t.Fatalf("UnmarshalBatch(Marshal(m)) = %+v, %v", got, err)
	}
	if m, err := Unmarshal(mustMarshalBatch(t, seedMessages()[:2])); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Unmarshal of a frame of two = %+v, %v; want ErrCorrupt", m, err)
	}
}

// xmlCanCarry reports whether the encoding/xml oracle round-trips s
// unchanged: valid UTF-8, only characters XML 1.0 allows, and no
// carriage return (a parser normalizes it to a line feed).
func xmlCanCarry(s string) bool {
	if !utf8.ValidString(s) {
		return false
	}
	for _, r := range s {
		ok := r == '\t' || r == '\n' || r >= 0x20 && r <= 0xD7FF || r >= 0xE000 && r <= 0xFFFD || r >= 0x10000
		if !ok {
			return false
		}
	}
	return true
}

func oracleCanCarry(m *Message) bool {
	for _, s := range []string{string(m.Type), m.Composite, m.Instance, m.From, m.To, m.Error, m.ReplyTo} {
		if !xmlCanCarry(s) {
			return false
		}
	}
	for k, v := range m.Vars {
		if !xmlCanCarry(k) || !xmlCanCarry(v) {
			return false
		}
	}
	return true
}

// randMessage draws a message over an alphabet that includes what XML
// escapes ("<&\"'>") and multi-byte runes, and for every other message
// also what XML cannot carry at all: NUL, a lone 0xff, a carriage return.
func randMessage(r *rand.Rand) *Message {
	alphabet := []string{"a", "b", "z", "0", "9", " ", "<", ">", "&", "\"", "'", "\t", "\n", "é", "漢", "-", "/", ":"}
	if r.Intn(2) == 0 {
		alphabet = append(alphabet, "\x00", "\xff", "\r")
	}
	randStr := func() string {
		var sb []byte
		for n := r.Intn(12); n > 0; n-- {
			sb = append(sb, alphabet[r.Intn(len(alphabet))]...)
		}
		return string(sb)
	}
	types := []Type{TypeStart, TypeNotify, TypeDone, TypeFault, TypeInvoke, TypeResult}
	m := &Message{
		Type:      types[r.Intn(len(types))],
		Composite: randStr(),
		Instance:  randStr(),
		From:      randStr(),
		To:        randStr(),
		Seq:       r.Intn(3) * r.Intn(1<<20),
		Version:   uint64(r.Intn(3)) * uint64(r.Int63()),
		ReplyTo:   randStr(),
	}
	if r.Intn(3) == 0 {
		m.Error = randStr()
	}
	switch n := r.Intn(7); n {
	case 0: // nil bag
	case 1:
		m.Vars = map[string]string{}
	default:
		m.Vars = map[string]string{}
		for i := 0; i < n; i++ {
			m.Vars[fmt.Sprintf("k%d%s", i, randStr())] = randStr()
		}
	}
	return m
}

// TestCodecMatchesXMLOracle: every message survives the record exactly,
// and whenever the paper's XML document can carry the message at all,
// the document's round trip and the record's agree.
func TestCodecMatchesXMLOracle(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	seen := map[Type]int{}
	compared := 0
	for i := 0; i < 2000; i++ {
		m := randMessage(r)
		seen[m.Type]++
		data := mustMarshal(t, m)
		if cap(data) != len(data) {
			t.Fatalf("#%d Marshal sized its frame at %d bytes and filled %d", i, cap(data), len(data))
		}
		got, err := Unmarshal(data)
		if err != nil {
			t.Fatalf("#%d Unmarshal: %v (%+v)", i, err, m)
		}
		in := *m // normalize must not touch the message the oracle reads next
		if !reflect.DeepEqual(normalize(got), normalize(&in)) {
			t.Fatalf("#%d the record changed the message:\nin:  %+v\nout: %+v", i, m, got)
		}
		if !oracleCanCarry(m) {
			continue
		}
		compared++
		doc, err := marshalXML(m)
		if err != nil {
			t.Fatalf("#%d marshalXML: %v", i, err)
		}
		want, err := unmarshalXML(doc)
		if err != nil {
			t.Fatalf("#%d unmarshalXML: %v\n%s", i, err, doc)
		}
		if !reflect.DeepEqual(normalize(got), normalize(want)) {
			t.Fatalf("#%d record and XML oracle disagree:\nrecord: %+v\noracle: %+v\ndoc: %s", i, got, want, doc)
		}
	}
	if len(seen) != 6 {
		t.Errorf("generator covered %d of the 6 message types: %v", len(seen), seen)
	}
	if compared < 500 {
		t.Errorf("only %d of 2000 messages were comparable with the XML oracle", compared)
	}
}

// TestCodecDeterministic: equal messages are equal bytes, however their
// bags were built — insertion order, deletions, map growth — and an
// empty bag is a nil one.
func TestCodecDeterministic(t *testing.T) {
	keys := []string{"delta", "alpha", "", "charlie", "bravo", "alph", "alpha2", "echo", "foxtrot", "golf"}
	build := func(order []int, detour bool) *Message {
		m := &Message{Type: TypeNotify, Composite: "C", Instance: "i", Vars: map[string]string{}}
		if detour {
			for i := 0; i < 64; i++ {
				m.Vars[fmt.Sprint("tmp", i)] = "x"
			}
			for i := 0; i < 64; i++ {
				delete(m.Vars, fmt.Sprint("tmp", i))
			}
		}
		for _, i := range order {
			m.Vars[keys[i]] = "v" + keys[i]
		}
		return m
	}
	r := rand.New(rand.NewSource(7))
	want := mustMarshal(t, build(r.Perm(len(keys)), false))
	for i := 0; i < 50; i++ {
		if got := mustMarshal(t, build(r.Perm(len(keys)), i%2 == 1)); !bytes.Equal(got, want) {
			t.Fatalf("map history reached the wire:\n%q\n%q", got, want)
		}
	}
	empty := mustMarshal(t, &Message{Type: TypeDone, Vars: map[string]string{}})
	if nilBag := mustMarshal(t, &Message{Type: TypeDone}); !bytes.Equal(empty, nilBag) {
		t.Fatalf("empty and nil bags differ on the wire:\n%q\n%q", empty, nilBag)
	}
	if m, err := Unmarshal(empty); err != nil || m.Vars != nil {
		t.Fatalf("empty bag decodes as %+v, %v; want nil Vars", m, err)
	}
}

// TestDecodeRejectsLies pins the decoders' refusals on frames derived
// from a good one: every truncation, trailing bytes inside and after the
// record, a count or length the bytes cannot back (refused before
// anything is allocated for it), a bag out of canonical order, a message
// with no type, another format byte — all ErrCorrupt from Unmarshal and
// UnmarshalBatch, and, where the framing itself lies, from MergeBatch. A
// 0xff planted at any offset must never panic.
func TestDecodeRejectsLies(t *testing.T) {
	m := &Message{Type: TypeNotify, Composite: "comp", Instance: "inst", From: "s1", To: "s2",
		Seq: 5, Version: 2, Vars: map[string]string{"a": "1", "b": "2"}, Error: "e", ReplyTo: "r"}
	good := mustMarshal(t, m)
	if got, err := Unmarshal(good); err != nil || !reflect.DeepEqual(got, m) {
		t.Fatalf("baseline frame: %+v, %v", got, err)
	}
	// patch returns good with the one occurrence of old replaced.
	patch := func(old, new string) []byte {
		if bytes.Count(good, []byte(old)) != 1 {
			t.Fatalf("patch: %q occurs %d times in the baseline", old, bytes.Count(good, []byte(old)))
		}
		return bytes.Replace(good, []byte(old), []byte(new), 1)
	}
	recLen := good[2] // one-byte length of the one record
	type lie struct {
		data    []byte
		framing bool // the (count, len)* skeleton itself is inconsistent: MergeBatch refuses too
	}
	cases := map[string]lie{
		"empty":                 {nil, true},
		"format byte only":      {[]byte{frameV1}, true},
		"xml document":          {[]byte(`<message type="notify"></message>`), true},
		"old batch magic":       {append([]byte{0x00}, good[1:]...), true},
		"next format version":   {append([]byte{frameV1 + 1}, good[1:]...), true},
		"zero count":            {[]byte{frameV1, 0}, true},
		"count of two":          {patch(string([]byte{frameV1, 1}), string([]byte{frameV1, 2})), true},
		"huge count":            {append([]byte{frameV1}, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01), true},
		"count over 64 bits":    {append([]byte{frameV1}, bytes.Repeat([]byte{0xff}, 11)...), true},
		"count never ends":      {append([]byte{frameV1}, bytes.Repeat([]byte{0x80}, 12)...), true},
		"length overruns":       {append([]byte{frameV1, 1, recLen + 1}, good[3:]...), true},
		"length underruns":      {append([]byte{frameV1, 1, recLen - 1}, good[3:]...), true},
		"trailing byte":         {append(append([]byte(nil), good...), 0), true},
		"trailing inside":       {append(append([]byte{frameV1, 1, recLen + 1}, good[3:]...), 0), false},
		"huge string length":    {append([]byte{frameV1, 1, 12}, 0xff, 0xff, 0xff, 0xff, 0x0f, 0, 0, 0, 0, 0, 0, 0), false},
		"bag keys descending":   {patch("\x01a\x011\x01b\x012", "\x01b\x011\x01a\x012"), false},
		"bag key repeated":      {patch("\x01a\x011\x01b\x012", "\x01a\x011\x01a\x012"), false},
		"bag count lies":        {patch("\x02\x01a\x011", "\x7f\x01a\x011"), false},
		"empty type":            {mustMarshal(t, &Message{Composite: "comp"}), false},
		"varint field oversize": {append([]byte{frameV1, 1, 22}, append([]byte("\x01t\x00\x00\x00\x00"), append(bytes.Repeat([]byte{0xff}, 11), 0, 0, 0, 0, 0)...)...), false},
	}
	for i := range good {
		cases[fmt.Sprintf("truncated to %d bytes", i)] = lie{good[:i], true}
	}
	other := mustMarshal(t, seedMessages()[0])
	for name, c := range cases {
		if m, err := Unmarshal(c.data); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Unmarshal = %+v, %v; want ErrCorrupt", name, m, err)
		}
		if ms, err := UnmarshalBatch(c.data); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: UnmarshalBatch = %+v, %v; want ErrCorrupt", name, ms, err)
		}
		if !c.framing {
			continue
		}
		for _, pair := range [][][]byte{{other, c.data}, {c.data, other}, {c.data}} {
			if out, _, err := MergeBatch(pair); !errors.Is(err, ErrCorrupt) || out != nil {
				t.Errorf("%s: MergeBatch = %q, %v; want ErrCorrupt and no output", name, out, err)
			}
		}
	}
	for i := range good {
		bad := append([]byte(nil), good...)
		bad[i] = 0xff
		if _, err := UnmarshalBatch(bad); err != nil && !errors.Is(err, ErrCorrupt) {
			t.Errorf("0xff at offset %d: untyped error %v", i, err)
		}
		if _, _, err := MergeBatch([][]byte{bad, good}); err != nil && !errors.Is(err, ErrCorrupt) {
			t.Errorf("0xff at offset %d: untyped merge error %v", i, err)
		}
	}
	if _, _, err := MergeBatch(nil); !errors.Is(err, ErrEmptyBatch) {
		t.Fatalf("empty merge err = %v, want ErrEmptyBatch", err)
	}
}

// TestMergeIsConcatenation pins the merge identity three ways: merging
// the frames of a message sequence — whatever mix of widths they were
// sent in — is byte for byte the frame MarshalBatch builds from the
// sequence directly; it decodes to the concatenation of the inputs'
// messages; and merging incrementally (as a writer draining a queue
// does) equals merging at once, so batching decisions can never change
// what is delivered.
func TestMergeIsConcatenation(t *testing.T) {
	ms := seedMessages()
	want := mustMarshalBatch(t, ms)
	splits := map[string][][]byte{
		"singles": nil,
		"mixed":   {mustMarshalBatch(t, ms[0:2]), mustMarshal(t, ms[2]), mustMarshalBatch(t, ms[3:6])},
	}
	for _, m := range ms {
		splits["singles"] = append(splits["singles"], mustMarshal(t, m))
	}
	for name, payloads := range splits {
		merged, count, err := MergeBatch(payloads)
		if err != nil || count != len(ms) {
			t.Fatalf("%s: MergeBatch count %d, err %v", name, count, err)
		}
		if !bytes.Equal(merged, want) {
			t.Fatalf("%s: merged frame differs from MarshalBatch:\nmerged: %q\ndirect: %q", name, merged, want)
		}
		got, err := UnmarshalBatch(merged)
		if err != nil || len(got) != len(ms) {
			t.Fatalf("%s: merged frame decodes to %d messages, err %v", name, len(got), err)
		}
		for i := range ms {
			if !reflect.DeepEqual(normalize(got[i]), normalize(ms[i])) {
				t.Fatalf("%s: message %d diverged:\n got: %+v\nwant: %+v", name, i, got[i], ms[i])
			}
		}
	}
	mixed := splits["mixed"]
	ab, _, err := MergeBatch(mixed[:2])
	if err != nil {
		t.Fatal(err)
	}
	if abc, n, err := MergeBatch([][]byte{ab, mixed[2]}); err != nil || n != len(ms) || !bytes.Equal(abc, want) {
		t.Fatalf("incremental merge (count %d, err %v) differs from one-shot merge:\n inc: %q\nshot: %q", n, err, abc, want)
	}
}

// TestMergeBatchSingleIsZeroCopy pins that a merge of one frame is the
// identity: same bytes, same backing array, not even a copy.
func TestMergeBatchSingleIsZeroCopy(t *testing.T) {
	p := mustMarshal(t, seedMessages()[0])
	merged, count, err := MergeBatch([][]byte{p})
	if err != nil || count != 1 {
		t.Fatalf("MergeBatch: count %d, err %v", count, err)
	}
	if &merged[0] != &p[0] || len(merged) != len(p) {
		t.Fatal("single-payload merge copied the payload")
	}
}

// TestDecodedMessagePinsOnlyItsRecord: the strings of a decoded message
// are substrings of a copy of ITS record — not of the caller's buffer
// (which both networks reuse), and not of a copy of the whole frame (a
// merged frame can be 64 KiB and more; one retained variable must not
// keep its neighbours' bytes alive).
func TestDecodedMessagePinsOnlyItsRecord(t *testing.T) {
	const big = 8 << 20
	small := &Message{Type: TypeNotify, Composite: "C", Instance: "i1", Vars: map[string]string{"x": "1"}}
	frame := mustMarshalBatch(t, []*Message{
		small,
		{Type: TypeNotify, Composite: "C", Instance: "i2", Vars: map[string]string{"blob": string(make([]byte, big))}},
	})
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	got, err := UnmarshalBatch(frame)
	if err != nil {
		t.Fatal(err)
	}
	kept := got[0]
	got = nil
	for i := range frame {
		frame[i] = 0xAA // the transport reads the next frame into its buffer
	}
	if !reflect.DeepEqual(kept, small) {
		t.Fatalf("message changed when the frame buffer was reused: %+v", kept)
	}
	if after := heap(); after > before+big/2 {
		t.Fatalf("keeping the small message of a frame keeps %d bytes alive", after-before)
	}
	runtime.KeepAlive(kept)
	runtime.KeepAlive(frame)
}

// TestCodecAllocBudget pins what the issue's hop budget is argued from:
// the smallest Chain notification encodes in exactly one allocation (the
// frame, sized before it is filled) and decodes in at most four (the
// Message, the record copy, the one-pair bag); a ten-variable Travel bag
// still encodes in one.
func TestCodecAllocBudget(t *testing.T) {
	hop := goldenFrames()["chain_hop"][0]
	bag := goldenFrames()["travel_bag"][0]
	data := mustMarshal(t, hop)
	for i := 0; i < 10; i++ {
		mustMarshal(t, bag) // grow the pooled key scratch
	}
	if a := testing.AllocsPerRun(1000, func() { _, _ = Marshal(hop) }); a != 1 {
		t.Errorf("Marshal(chain hop) allocates %v times, want 1", a)
	}
	if a := testing.AllocsPerRun(1000, func() { _, _ = Marshal(bag) }); a != 1 {
		t.Errorf("Marshal(travel bag) allocates %v times, want 1", a)
	}
	if a := testing.AllocsPerRun(1000, func() { _, _ = Unmarshal(data) }); a > 4 {
		t.Errorf("Unmarshal(chain hop) allocates %v times, want <= 4", a)
	}
}

// TestRoomIsLeftInFrontOfTheSameBytes: AppendWithRoom produces the frame
// Marshal and MarshalBatch produce, behind that many zero bytes, in one
// allocation, or none into a buffer that has the room — and UnmarshalFrame
// decodes what UnmarshalBatch decodes, without the slice for a frame of
// one.
func TestRoomIsLeftInFrontOfTheSameBytes(t *testing.T) {
	ms := seedMessages()
	var singles [][]byte
	for _, m := range ms {
		singles = append(singles, mustMarshal(t, m))
	}
	for _, room := range []int{0, 4, 9} {
		for i, m := range ms {
			got, err := AppendWithRoom(nil, room, m)
			if err != nil || !bytes.Equal(got[:room], make([]byte, room)) || !bytes.Equal(got[room:], singles[i]) {
				t.Fatalf("AppendWithRoom(nil, %d, message %d) = %x (%v), want %d zero bytes then %x", room, i, got, err, room, singles[i])
			}
			if first, rest, err := UnmarshalFrame(got[room:]); err != nil || rest != nil || !reflect.DeepEqual(normalize(first), normalize(m)) {
				t.Errorf("UnmarshalFrame of a frame of one = %v, %v (%v), want %v alone", first, rest, err, m)
			}
		}
		got, err := AppendWithRoom(nil, room, ms...)
		if err != nil || !bytes.Equal(got[room:], mustMarshalBatch(t, ms)) {
			t.Fatalf("AppendWithRoom(nil, %d, batch) = %x (%v)", room, got, err)
		}
		want, _ := UnmarshalBatch(got[room:])
		if first, rest, err := UnmarshalFrame(got[room:]); err != nil || !reflect.DeepEqual(append([]*Message{first}, rest...), want) {
			t.Errorf("UnmarshalFrame of a frame of %d = %v, %v (%v)", len(ms), first, rest, err)
		}
	}
	if _, err := AppendWithRoom(nil, 4); !errors.Is(err, ErrEmptyBatch) {
		t.Errorf("AppendWithRoom of nothing: %v", err)
	}
	batch := mustMarshalBatch(t, ms)
	for _, bad := range [][]byte{nil, {frameV1}, {frameV1, 0}, singles[0][:len(singles[0])-1], batch[:len(batch)-1], []byte("<message/>")} {
		if first, rest, err := UnmarshalFrame(bad); first != nil || rest != nil || !errors.Is(err, ErrCorrupt) {
			t.Errorf("UnmarshalFrame(%x) = %v, %v, %v", bad, first, rest, err)
		}
	}
	hop := goldenFrames()["chain_hop"][0]
	if a := testing.AllocsPerRun(1000, func() { _, _ = AppendWithRoom(nil, 4, hop) }); a != 1 {
		t.Errorf("AppendWithRoom(nil, 4, chain hop) allocates %v times, want 1", a)
	}
	// A reused buffer: what it held is overwritten, its room zeroed again.
	reused := bytes.Repeat([]byte{0xff}, 256)
	if a := testing.AllocsPerRun(1000, func() { reused, _ = AppendWithRoom(reused[:0], 4, hop) }); a != 0 {
		t.Errorf("AppendWithRoom(buffer with room, 4, chain hop) allocates %v times, want 0", a)
	}
	if want := append(make([]byte, 4), mustMarshal(t, hop)...); !bytes.Equal(reused, want) {
		t.Errorf("AppendWithRoom into a used buffer = %x, want %x", reused, want)
	}
}

func BenchmarkMarshalBatch(b *testing.B) {
	for _, width := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("width-%d", width), func(b *testing.B) {
			ms := make([]*Message, width)
			for i := range ms {
				ms[i] = &Message{Type: TypeNotify, Composite: "C", Instance: "i1",
					From: "s", To: fmt.Sprintf("t%d", i), Vars: map[string]string{"x": "1"}}
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := MarshalBatch(ms); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
