package journal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// fixedNow is the injected clock every test journal runs on: record
// timestamps must come from Options.Now, never the wall clock.
func fixedNow() time.Time { return time.Unix(1700000000, 42) }

// setSegmentMaxBytes lowers the segment rotation size for one test, so
// a few records fill a segment.
func setSegmentMaxBytes(t *testing.T, n int64) {
	old := segmentMaxBytes
	segmentMaxBytes = n
	t.Cleanup(func() { segmentMaxBytes = old })
}

func openTest(t *testing.T, opts Options) *Journal {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = t.TempDir()
	}
	if opts.Now == nil {
		opts.Now = fixedNow
	}
	j, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { j.Close() })
	return j
}

func collectAll(t *testing.T, j *Journal) []*Record {
	t.Helper()
	var out []*Record
	if err := j.Replay(func(r *Record) error {
		cp := *r
		out = append(out, &cp)
		return nil
	}); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return out
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j := openTest(t, Options{Dir: dir, Fsync: FsyncOff, Shards: 2})
	recs := []*Record{
		{Kind: KindArrival, Composite: "c", State: "s1", Instance: "i1", Src: "w", Seq: 1, Vars: map[string]string{"x": "1"}},
		{Kind: KindInvoke, Composite: "c", State: "s1", Instance: "i1", Service: "svc", Key: "c/i1/s1/1", Outputs: map[string]string{"x": "2"}},
		{Kind: KindRound, Composite: "c", State: "s1", Instance: "i1", FireSeq: 1, Consumed: []string{"w"}, Cleared: []string{"w"},
			Vars: map[string]string{"x": "2"}, SendSeq: 1, Msgs: []OutMsg{{Type: "notify", To: "s2", Seq: 1, Vars: map[string]string{"x": "2"}}}},
		{Kind: KindWStart, Composite: "c", Instance: "i1", Vars: map[string]string{"x": "0"}},
	}
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatalf("Append: %v", err)
		}
		if r.Time != fixedNow().UnixNano() {
			t.Fatalf("record time %d, want the injected clock's %d", r.Time, fixedNow().UnixNano())
		}
	}
	// Same instance → same shard → replay preserves append order.
	got := collectAll(t, j)
	if len(got) != len(recs) {
		t.Fatalf("replayed %d records, want %d", len(got), len(recs))
	}
	for i, r := range got {
		if r.Kind != recs[i].Kind {
			t.Fatalf("record %d kind %q, want %q", i, r.Kind, recs[i].Kind)
		}
	}
	if got[2].Msgs[0].To != "s2" || got[2].Msgs[0].Seq != 1 {
		t.Fatalf("round message survived badly: %+v", got[2].Msgs[0])
	}

	// Reopen: everything still there.
	j.Close()
	j2 := openTest(t, Options{Dir: dir, Fsync: FsyncOff, Shards: 2})
	if got := collectAll(t, j2); len(got) != len(recs) {
		t.Fatalf("after reopen: %d records, want %d", len(got), len(recs))
	}
}

// dirImage reads every file under dir: path -> contents.
func dirImage(t *testing.T, dir string) map[string]string {
	t.Helper()
	img := map[string]string{}
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		img[path] = string(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// TestClosedJournalRefusesUse pins that Close is final: a late Append (a
// killed process's provider call returning, say) used to rotate a
// brand-new segment into the directory — possibly one a restarted
// process had already reopened. Every file-touching operation now fails
// with ErrClosed and the directory stays byte-for-byte as Close left it.
func TestClosedJournalRefusesUse(t *testing.T) {
	dir := t.TempDir()
	j := openTest(t, Options{Dir: dir, Fsync: FsyncOff, Shards: 1})
	rec := &Record{Kind: KindPassivate, Composite: "c", State: "s", Instance: "i1"}
	if err := j.Append(rec); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	before := dirImage(t, dir)

	if err := j.Append(rec); !errors.Is(err, ErrClosed) {
		t.Errorf("Append after Close = %v, want ErrClosed", err)
	}
	if err := j.Stage(rec); !errors.Is(err, ErrClosed) {
		t.Errorf("Stage after Close = %v, want ErrClosed", err)
	}
	if _, _, err := j.TakePassive("c", "s", 0, "i1"); !errors.Is(err, ErrClosed) {
		t.Errorf("TakePassive after Close = %v, want ErrClosed", err)
	}
	if _, err := j.IsPassive("c", "s", 0, "i1"); !errors.Is(err, ErrClosed) {
		t.Errorf("IsPassive after Close = %v, want ErrClosed", err)
	}
	if err := j.Replay(func(*Record) error { return nil }); !errors.Is(err, ErrClosed) {
		t.Errorf("Replay after Close = %v, want ErrClosed", err)
	}
	if err := j.Compact(); !errors.Is(err, ErrClosed) {
		t.Errorf("Compact after Close = %v, want ErrClosed", err)
	}
	if after := dirImage(t, dir); !reflect.DeepEqual(after, before) {
		t.Errorf("directory changed after Close: %d file(s) before, %d after, or contents differ", len(before), len(after))
	}
	if err := j.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	setSegmentMaxBytes(t, 128)
	j := openTest(t, Options{Dir: dir, Fsync: FsyncOff, Shards: 1})
	for i := 0; i < 50; i++ {
		if err := j.Append(&Record{Kind: KindArrival, Composite: "c", State: "s", Instance: "i1", Src: "w", Seq: uint64(i + 1)}); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if st := j.Stats(); st.Segments < 3 {
		t.Fatalf("expected rotation to produce several segments, got %d", st.Segments)
	}
	got := collectAll(t, j)
	if len(got) != 50 {
		t.Fatalf("replayed %d, want 50", len(got))
	}
	for i, r := range got {
		if r.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d — rotation broke order", i, r.Seq)
		}
	}
}

func TestTornTailTruncatedOnReopen(t *testing.T) {
	dir := t.TempDir()
	j := openTest(t, Options{Dir: dir, Fsync: FsyncOff, Shards: 1})
	for i := 0; i < 3; i++ {
		if err := j.Append(&Record{Kind: KindArrival, Composite: "c", State: "s", Instance: "i1", Seq: uint64(i + 1)}); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	j.Close()
	// Simulate a crash mid-append: garbage half-frame at the tail.
	segs, _ := filepath.Glob(filepath.Join(dir, "shard-00", "seg-*.wal"))
	if len(segs) != 1 {
		t.Fatalf("want 1 segment, got %v", segs)
	}
	f, err := os.OpenFile(segs[0], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{9, 0, 0, 0, 1, 2, 3}); err != nil { // length 9, but only 0 payload bytes follow
		t.Fatal(err)
	}
	f.Close()

	j2 := openTest(t, Options{Dir: dir, Fsync: FsyncOff, Shards: 1})
	got := collectAll(t, j2)
	if len(got) != 3 {
		t.Fatalf("replayed %d records after torn tail, want 3", len(got))
	}
	// The repair is physical: the file itself was truncated back.
	info, err := os.Stat(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(segs[0])
	if n, err := walkSegment(segs[0], func(int64, *Record, []byte) error { return nil }); err != nil || n != info.Size() {
		t.Fatalf("segment not repaired: valid prefix %d of %d bytes (err %v)", n, len(data), err)
	}
}

func TestCorruptionInEarlierSegmentFailsOpen(t *testing.T) {
	dir := t.TempDir()
	setSegmentMaxBytes(t, 64)
	j := openTest(t, Options{Dir: dir, Fsync: FsyncOff, Shards: 1})
	for i := 0; i < 20; i++ {
		if err := j.Append(&Record{Kind: KindArrival, Composite: "c", State: "s", Instance: "i1", Seq: uint64(i + 1)}); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	j.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, "shard-00", "seg-*.wal"))
	if len(segs) < 2 {
		t.Fatalf("need >= 2 segments, got %d", len(segs))
	}
	// Flip a payload byte in the FIRST segment: not a torn tail, real damage.
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(segHeader)+frameHeader] ^= 0xff
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir, Fsync: FsyncOff, Shards: 1, Now: fixedNow}); err == nil {
		t.Fatal("Open accepted a corrupt non-tail segment")
	}
}

// isPassive asks an open journal about coordinator c/s's instance.
func isPassive(t *testing.T, j *Journal, instance string) bool {
	t.Helper()
	passive, err := j.IsPassive("c", "s", 0, instance)
	if err != nil {
		t.Fatalf("IsPassive(%s): %v", instance, err)
	}
	return passive
}

// TestTakePassiveRefusesAnotherInstancesRecord: the passive index holds
// hashes, not names, so TakePassive checks the record it reads back
// against the instance it was asked for. An entry under i2's key that
// points at i7's passivation — what a collision of the two hashes would
// leave — fails loudly, rehydrates nothing and stays filed, and i7 still
// rehydrates.
func TestTakePassiveRefusesAnotherInstancesRecord(t *testing.T) {
	j := openTest(t, Options{Dir: t.TempDir(), Fsync: FsyncOff, Shards: 1})
	pass := &Record{Kind: KindPassivate, Composite: "c", State: "s", Instance: "i7", Vars: map[string]string{"x": "3"}}
	if err := j.Append(pass); err != nil {
		t.Fatal(err)
	}
	s := j.shards[0]
	s.mu.Lock()
	s.passive[s.keyOf(instKey{"c", "s", 0, "i2"})] = s.passive[s.keyOf(instOf(pass))]
	s.mu.Unlock()
	if r, ok, err := j.TakePassive("c", "s", 0, "i2"); err == nil || ok || r != nil {
		t.Fatalf("TakePassive(i2) over i7's record = %+v, %v, %v; want an error and no record", r, ok, err)
	}
	if !isPassive(t, j, "i2") {
		t.Error("a refused rehydration dropped the index entry")
	}
	if r, ok, err := j.TakePassive("c", "s", 0, "i7"); err != nil || !ok || r.Instance != "i7" {
		t.Fatalf("TakePassive(i7) = %+v, %v, %v", r, ok, err)
	}
}

func TestPassiveIndex(t *testing.T) {
	dir := t.TempDir()
	j := openTest(t, Options{Dir: dir, Fsync: FsyncOff, Shards: 2})
	pass := &Record{
		Kind: KindPassivate, Composite: "c", State: "s", Instance: "i7",
		Vars:    map[string]string{"x": "3"},
		Sources: []SourceState{{Name: "w", Count: 1, Seen: 5, Vars: map[string]string{"y": "2"}}},
		FireSeq: 2, SendSeq: 4,
	}
	if err := j.Append(pass); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if !isPassive(t, j, "i7") {
		t.Fatal("instance not in passive index after passivate record")
	}
	if st := j.Stats(); st.Passive != 1 {
		t.Fatalf("Stats.Passive = %d, want 1", st.Passive)
	}

	r, ok, err := j.TakePassive("c", "s", 0, "i7")
	if err != nil || !ok {
		t.Fatalf("TakePassive: ok=%v err=%v", ok, err)
	}
	if !reflect.DeepEqual(r, pass) {
		t.Fatalf("rehydrated record wrong: %+v", r)
	}
	if isPassive(t, j, "i7") {
		t.Fatal("TakePassive left the index entry behind")
	}
	if _, ok, _ := j.TakePassive("c", "s", 0, "i7"); ok {
		t.Fatal("second TakePassive found the instance again")
	}

	// Passivate again, then reopen: the scan rebuilds the index.
	if err := j.Append(pass); err != nil {
		t.Fatal(err)
	}
	j.Close()
	j2 := openTest(t, Options{Dir: dir, Fsync: FsyncOff, Shards: 2})
	if !isPassive(t, j2, "i7") {
		t.Fatal("reopen lost the passive index")
	}
	// A later record for the key un-passivates it on scan too.
	if err := j2.Append(&Record{Kind: KindArrival, Composite: "c", State: "s", Instance: "i7", Src: "w", Seq: 6}); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	j3 := openTest(t, Options{Dir: dir, Fsync: FsyncOff, Shards: 2})
	if isPassive(t, j3, "i7") {
		t.Fatal("index kept an entry whose instance has later records")
	}
}

func TestCompact(t *testing.T) {
	dir := t.TempDir()
	j := openTest(t, Options{Dir: dir, Fsync: FsyncOff, Shards: 1})
	// Instance A: finished (wdone) — compaction must drop ALL its records,
	// including its coordinator-side ones.
	for _, r := range []*Record{
		{Kind: KindWStart, Composite: "c", Instance: "iA", Vars: map[string]string{"x": "0"}},
		{Kind: KindArrival, Composite: "c", State: "s1", Instance: "iA", Src: "w", Seq: 1},
		{Kind: KindRound, Composite: "c", State: "s1", Instance: "iA", FireSeq: 1},
		{Kind: KindWDone, Composite: "c", Instance: "iA"},
	} {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	// Instance B: live, with a snapshot mid-history — records before the
	// snapshot go, the snapshot and everything after stays.
	for _, r := range []*Record{
		{Kind: KindArrival, Composite: "c", State: "s1", Instance: "iB", Src: "w", Seq: 1},
		{Kind: KindRound, Composite: "c", State: "s1", Instance: "iB", FireSeq: 1},
		{Kind: KindSnapshot, Composite: "c", State: "s1", Instance: "iB", FireSeq: 1, Vars: map[string]string{"x": "1"}},
		{Kind: KindArrival, Composite: "c", State: "s1", Instance: "iB", Src: "w", Seq: 2},
	} {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	// Instance C: passivated — the index must survive compaction at the
	// record's NEW offset.
	if err := j.Append(&Record{Kind: KindPassivate, Composite: "c", State: "s2", Instance: "iC", Vars: map[string]string{"y": "9"}}); err != nil {
		t.Fatal(err)
	}

	if err := j.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	got := collectAll(t, j)
	for _, r := range got {
		if r.Instance == "iA" {
			t.Fatalf("compaction kept a record of finished instance iA: %+v", r)
		}
	}
	var kinds []string
	for _, r := range got {
		if r.Instance == "iB" {
			kinds = append(kinds, r.Kind)
		}
	}
	if len(kinds) != 2 || kinds[0] != KindSnapshot || kinds[1] != KindArrival {
		t.Fatalf("iB history after compact = %v, want [snapshot arrival]", kinds)
	}
	r, ok, err := j.TakePassive("c", "s2", 0, "iC")
	if err != nil || !ok || r.Vars["y"] != "9" {
		t.Fatalf("passive index broken after compact: ok=%v err=%v r=%+v", ok, err, r)
	}
	// Compacted journal still appends and reopens cleanly. 4 records
	// remain: iB's snapshot + 2 arrivals, and iC's passivate (TakePassive
	// removes the INDEX entry; the record itself stays until the next
	// compaction).
	if err := j.Append(&Record{Kind: KindArrival, Composite: "c", State: "s1", Instance: "iB", Src: "w", Seq: 3}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	j2 := openTest(t, Options{Dir: dir, Fsync: FsyncOff, Shards: 1})
	if n := len(collectAll(t, j2)); n != 4 {
		t.Fatalf("after compact+append+reopen: %d records, want 4", n)
	}
}

func TestFsyncModes(t *testing.T) {
	always := openTest(t, Options{Fsync: FsyncAlways, Shards: 1})
	for i := 0; i < 4; i++ {
		if err := always.Append(&Record{Kind: KindArrival, Composite: "c", State: "s", Instance: "i"}); err != nil {
			t.Fatal(err)
		}
	}
	if st := always.Stats(); st.Syncs != 4 {
		t.Fatalf("FsyncAlways: %d syncs for 4 appends", st.Syncs)
	}
	// Always is per write, not per record: two staged records and the
	// Append that carries them are one write and one sync.
	for i := 0; i < 3; i++ {
		put := always.Stage
		if i == 2 {
			put = always.Append
		}
		if err := put(&Record{Kind: KindArrival, Composite: "c", State: "s", Instance: "i"}); err != nil {
			t.Fatal(err)
		}
	}
	if st := always.Stats(); st.Syncs != 5 || st.Writes != 5 || st.Appends != 7 {
		t.Fatalf("FsyncAlways: %d syncs, %d writes, %d records after a 3-record batch, want 5, 5, 7", st.Syncs, st.Writes, st.Appends)
	} else if line := st.String(); !strings.Contains(line, "appends=7 writes=5 syncs=5 ") {
		t.Fatalf("Stats.String() = %q, want the three counters side by side", line)
	}

	// Batch syncs every 32 records: two batches and 30 records over.
	batch := openTest(t, Options{Fsync: FsyncBatch, Shards: 1})
	for i := 0; i < 94; i++ {
		if err := batch.Append(&Record{Kind: KindArrival, Composite: "c", State: "s", Instance: "i"}); err != nil {
			t.Fatal(err)
		}
	}
	if st := batch.Stats(); st.Syncs != 2 {
		t.Fatalf("FsyncBatch: %d syncs for 94 appends, want 2", st.Syncs)
	}
	// Batch counts records, not writes: 30 are unsynced, a staged one and
	// the Append carrying it make 32.
	if err := batch.Stage(&Record{Kind: KindArrival, Composite: "c", State: "s", Instance: "i"}); err != nil {
		t.Fatal(err)
	}
	if err := batch.Append(&Record{Kind: KindArrival, Composite: "c", State: "s", Instance: "i"}); err != nil {
		t.Fatal(err)
	}
	if st := batch.Stats(); st.Syncs != 3 || st.Writes != 95 {
		t.Fatalf("FsyncBatch: %d syncs, %d writes after 96 records in 95 writes, want 3, 95", st.Syncs, st.Writes)
	}

	off := openTest(t, Options{Fsync: FsyncOff, Shards: 1})
	for i := 0; i < 4; i++ {
		if err := off.Append(&Record{Kind: KindArrival, Composite: "c", State: "s", Instance: "i"}); err != nil {
			t.Fatal(err)
		}
	}
	if st := off.Stats(); st.Syncs != 0 {
		t.Fatalf("FsyncOff issued %d syncs", st.Syncs)
	}
}

func TestParseFsyncMode(t *testing.T) {
	for spec, want := range map[string]FsyncMode{"always": FsyncAlways, "": FsyncAlways, "batch": FsyncBatch, "off": FsyncOff} {
		got, err := ParseFsyncMode(spec)
		if err != nil || got != want {
			t.Fatalf("ParseFsyncMode(%q) = %v, %v", spec, got, err)
		}
		if spec != "" && got.String() != spec {
			t.Fatalf("FsyncMode %v round-trips to %q", got, got.String())
		}
	}
	if _, err := ParseFsyncMode("sometimes"); err == nil {
		t.Fatal("ParseFsyncMode accepted garbage")
	}
}

func TestShardCountPinnedToDirectory(t *testing.T) {
	dir := t.TempDir()
	j := openTest(t, Options{Dir: dir, Fsync: FsyncOff, Shards: 4})
	j.Close()
	if _, err := Open(Options{Dir: dir, Fsync: FsyncOff, Shards: 8, Now: fixedNow}); err == nil {
		t.Fatal("Open accepted a shard-count change on an existing journal")
	}
}

func TestOpenRejectsBadOptions(t *testing.T) {
	if _, err := Open(Options{}); err == nil {
		t.Fatal("Open accepted an empty dir")
	}
	if _, err := Open(Options{Dir: t.TempDir(), Fsync: FsyncMode(42)}); err == nil {
		t.Fatal("Open accepted a bogus fsync mode")
	}
}

// chainRound is the Chain round record bench/layers.go appends: what a
// coordinator writes once per firing.
func chainRound() *Record {
	return &Record{
		Kind: KindRound, Composite: "Chain8", State: "s3", Instance: "i12345", Version: 1,
		FireSeq: 1, Consumed: []string{"s2"}, Cleared: []string{"s2"},
		Vars: map[string]string{"x": "3"}, SendSeq: 1,
		Msgs: []OutMsg{{Type: "notify", To: "s4", Seq: 1, Vars: map[string]string{"x": "3"}}},
	}
}

// countWrites replaces the shard's write seam with one that counts calls
// and bytes on their way to the real file.
func countWrites(s *shard, calls, bytes *int) {
	s.write = func(f *os.File, b []byte) (int, error) {
		*calls++
		*bytes += len(b)
		return f.Write(b)
	}
}

// TestAppendCostBudget is the journal's row of the hop budget that
// transport's TestHopCostAllocs pins for the send path: a steady-state
// Append of the Chain round record allocates nothing, issues exactly one
// write, and grows the segment by exactly the frame — whose length Stats
// reports. And the batch: k staged records are no write at all, the next
// Append is one write of the k+1 frames, and none of it allocates.
func TestAppendCostBudget(t *testing.T) {
	dir := t.TempDir()
	j := openTest(t, Options{Dir: dir, Fsync: FsyncOff, Shards: 1})
	rec := chainRound()
	if err := j.Append(rec); err != nil { // opens the segment, sizes the buffers
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(200, func() { _ = j.Append(rec) }); a != 0 {
		t.Errorf("steady-state Append allocates %v per record, want 0", a)
	}

	s := j.shards[0]
	var calls, written int
	countWrites(s, &calls, &written)
	before, sizeBefore := j.Stats(), fileSize(t, s.openSegment())
	if err := j.Append(rec); err != nil {
		t.Fatal(err)
	}
	frame := int(j.Stats().Bytes - before.Bytes)
	if calls != 1 || written != frame {
		t.Errorf("one Append made %d write(s) of %d bytes in all, want 1 write of the %d-byte frame", calls, written, frame)
	}
	if grew := fileSize(t, s.openSegment()) - sizeBefore; grew != int64(frame) {
		t.Errorf("segment grew by %d bytes for a %d-byte frame", grew, frame)
	}
	if want := frameHeader + len(encodePayload(t, rec)); frame != want {
		t.Errorf("Stats.Bytes counted %d bytes for the record, want header + payload = %d", frame, want)
	}

	const k = 3
	invoke := &Record{Kind: KindInvoke, Composite: "Chain8", State: "s3", Instance: "i12345", Version: 1,
		Service: "svc3", Key: "Chain8/i12345/s3/1", Outputs: map[string]string{"x": "3"}, FireSeq: 1}
	batch := func() {
		for i := 0; i < k; i++ {
			if err := j.Stage(invoke); err != nil {
				t.Fatal(err)
			}
		}
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	batch() // sizes the buffers for k+1 frames
	if a := testing.AllocsPerRun(100, batch); a != 0 {
		t.Errorf("%d Stages and the Append that carries them allocate %v objects, want 0", k, a)
	}
	before, sizeBefore = j.Stats(), fileSize(t, s.openSegment())
	calls, written = 0, 0
	for i := 0; i < k; i++ {
		if err := j.Stage(invoke); err != nil {
			t.Fatal(err)
		}
	}
	if grew := fileSize(t, s.openSegment()) - sizeBefore; calls != 0 || grew != 0 {
		t.Errorf("%d Stages made %d write(s) and grew the segment by %d bytes, want none of either", k, calls, grew)
	}
	if err := j.Append(rec); err != nil {
		t.Fatal(err)
	}
	after := j.Stats()
	sum := k*(frameHeader+len(encodePayload(t, invoke))) + frame
	if calls != 1 || written != sum {
		t.Errorf("the Append after %d Stages made %d write(s) of %d bytes in all, want 1 write of the %d frames' %d bytes", k, calls, written, k+1, sum)
	}
	if grew := fileSize(t, s.openSegment()) - sizeBefore; grew != int64(sum) {
		t.Errorf("segment grew by %d bytes for %d bytes of frames", grew, sum)
	}
	if got := after.Appends - before.Appends; got != k+1 || after.Writes-before.Writes != 1 || after.Bytes-before.Bytes != uint64(sum) {
		t.Errorf("Stats moved by %d appends, %d writes, %d bytes; want %d, 1, %d",
			got, after.Writes-before.Writes, after.Bytes-before.Bytes, k+1, sum)
	}
}

// openSegment returns the path of the segment the shard is appending to.
func (s *shard) openSegment() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.segFile(s.segNum)
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return info.Size()
}

// TestFailedWriteDoesNotPoisonShard: a short write used to leave stray
// bytes in the segment without advancing the shard's offset, so every
// later record sat where the passive index did not expect it and the
// next Open met a bad frame in mid-file. The partial frame is now cut
// back before the error returns: later appends land where the index
// says, and a reopen replays exactly the acknowledged records.
func TestFailedWriteDoesNotPoisonShard(t *testing.T) {
	dir := t.TempDir()
	j := openTest(t, Options{Dir: dir, Fsync: FsyncOff, Shards: 1})
	arrival := func(seq uint64) *Record {
		return &Record{Kind: KindArrival, Composite: "c", State: "s", Instance: "i1", Src: "w", Seq: seq}
	}
	if err := j.Append(arrival(1)); err != nil {
		t.Fatal(err)
	}
	s := j.shards[0]
	s.write = func(f *os.File, b []byte) (int, error) {
		s.write = (*os.File).Write // the fault is transient
		n, _ := f.Write(b[:len(b)/2])
		return n, nil // short, and silent about it
	}
	if err := j.Append(arrival(2)); !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("Append over a short write = %v, want io.ErrShortWrite", err)
	}
	pass := &Record{Kind: KindPassivate, Composite: "c", State: "s", Instance: "i2", Vars: map[string]string{"x": "1"}}
	if err := j.Append(pass); err != nil {
		t.Fatalf("Append after the failed one: %v", err)
	}
	if err := j.Append(arrival(3)); err != nil {
		t.Fatal(err)
	}
	// The index points at the passivation record's true offset.
	if r, ok, err := j.TakePassive("c", "s", 0, "i2"); err != nil || !ok || !reflect.DeepEqual(r, pass) {
		t.Fatalf("TakePassive after a failed write: %+v, %v, %v", r, ok, err)
	}
	if st := j.Stats(); st.Appends != 3 {
		t.Errorf("Stats.Appends = %d, want the 3 acknowledged records", st.Appends)
	}
	j.Close()

	j2 := openTest(t, Options{Dir: dir, Fsync: FsyncOff, Shards: 1})
	var seqs []uint64
	for _, r := range collectAll(t, j2) {
		seqs = append(seqs, r.Seq)
	}
	if !reflect.DeepEqual(seqs, []uint64{1, 0, 3}) {
		t.Fatalf("reopen replayed seqs %v, want the acknowledged [1 0 3]", seqs)
	}
}

// TestFailedWriteThatCannotBeUndoneSealsSegment: when the partial frame
// cannot even be truncated away (here: the file is gone from under the
// shard), the segment is sealed and appends carry on in a fresh one at
// offsets the index agrees with.
func TestFailedWriteThatCannotBeUndoneSealsSegment(t *testing.T) {
	j := openTest(t, Options{Fsync: FsyncOff, Shards: 1})
	if err := j.Append(&Record{Kind: KindArrival, Composite: "c", State: "s", Instance: "i1"}); err != nil {
		t.Fatal(err)
	}
	s := j.shards[0]
	first := s.openSegment()
	s.write = func(f *os.File, b []byte) (int, error) {
		s.write = (*os.File).Write
		f.Close() // Truncate on the closed file fails too
		return 0, io.ErrUnexpectedEOF
	}
	if err := j.Append(&Record{Kind: KindArrival, Composite: "c", State: "s", Instance: "i1"}); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("Append = %v, want the write's error", err)
	}
	pass := &Record{Kind: KindPassivate, Composite: "c", State: "s", Instance: "i2"}
	if err := j.Append(pass); err != nil {
		t.Fatalf("Append after sealing: %v", err)
	}
	if s.openSegment() == first {
		t.Fatal("shard kept appending to the segment it could not repair")
	}
	if r, ok, err := j.TakePassive("c", "s", 0, "i2"); err != nil || !ok || !reflect.DeepEqual(r, pass) {
		t.Fatalf("TakePassive from the fresh segment: %+v, %v, %v", r, ok, err)
	}
	if st := j.Stats(); st.Segments != 2 {
		t.Errorf("Stats.Segments = %d, want the sealed one and the fresh one", st.Segments)
	}
}

// TestRotateHeaderWriteFailureLeavesNoSegment: a segment whose header
// did not land is removed, not left behind as a header-less file that a
// later Open would meet in mid-shard.
func TestRotateHeaderWriteFailureLeavesNoSegment(t *testing.T) {
	dir := t.TempDir()
	j := openTest(t, Options{Dir: dir, Fsync: FsyncOff, Shards: 1})
	s := j.shards[0]
	s.write = func(f *os.File, b []byte) (int, error) {
		s.write = (*os.File).Write
		return f.Write(b[:3])
	}
	rec := &Record{Kind: KindArrival, Composite: "c", State: "s", Instance: "i1"}
	if err := j.Append(rec); !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("Append over a torn header write = %v, want io.ErrShortWrite", err)
	}
	if segs, _ := segments(s.dir); len(segs) != 0 {
		t.Fatalf("torn-header segment left behind: %v", segs)
	}
	if err := j.Append(rec); err != nil {
		t.Fatal(err)
	}
	j.Close()
	if got := collectAll(t, openTest(t, Options{Dir: dir, Fsync: FsyncOff, Shards: 1})); len(got) != 1 {
		t.Fatalf("reopen replayed %d records, want 1", len(got))
	}
}

// arrivalRec and passivateRec are coordinator c/s's records in the batch
// tests; x pads the passivation record's bag.
func arrivalRec(instance string, seq uint64) *Record {
	return &Record{Kind: KindArrival, Composite: "c", State: "s", Instance: instance, Src: "w", Seq: seq}
}

func passivateRec(instance, x string) *Record {
	return &Record{Kind: KindPassivate, Composite: "c", State: "s", Instance: instance, Vars: map[string]string{"x": x}}
}

// TestTornBatchTruncatedOnReopen is TestTornTailTruncatedOnReopen for a
// write that carried several records: a kill can cut it at any byte, and
// wherever it does, the reopened journal holds the records before the
// batch and the longest whole-record prefix of it — a batch is not
// atomic and does not need to be, because nothing staged was anything an
// effect had waited for.
func TestTornBatchTruncatedOnReopen(t *testing.T) {
	dir := t.TempDir()
	j := openTest(t, Options{Dir: dir, Fsync: FsyncOff, Shards: 1})
	if err := j.Append(arrivalRec("i1", 1)); err != nil {
		t.Fatal(err)
	}
	for _, r := range []*Record{passivateRec("i2", "22"), arrivalRec("i1", 2), passivateRec("i3", "")} {
		if err := j.Stage(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Append(arrivalRec("i1", 3)); err != nil {
		t.Fatal(err)
	}
	if st := j.Stats(); st.Appends != 5 || st.Writes != 2 {
		t.Fatalf("fixture is %d records in %d writes, want 5 in 2", st.Appends, st.Writes)
	}
	seg := j.shards[0].openSegment()
	j.Close()
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	var ends []int // end offset of each record
	if _, err := walkSegment(seg, func(off int64, _ *Record, frame []byte) error {
		ends = append(ends, int(off)+len(frame))
		return nil
	}); err != nil || len(ends) != 5 {
		t.Fatalf("fixture segment walks to %d records (%v)", len(ends), err)
	}
	for cut := ends[0]; cut <= len(data); cut++ {
		want := 0
		for _, end := range ends {
			if end <= cut {
				want++
			}
		}
		torn := t.TempDir()
		path := filepath.Join(torn, "shard-00", filepath.Base(seg))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := Open(Options{Dir: torn, Fsync: FsyncOff, Shards: 1, Now: fixedNow})
		if err != nil {
			t.Fatalf("cut at %d: Open: %v", cut, err)
		}
		got := collectAll(t, j)
		// i2's passivation is the batch's first record, i3's its third.
		i2, _ := j.IsPassive("c", "s", 0, "i2")
		i3, _ := j.IsPassive("c", "s", 0, "i3")
		j.Close()
		if len(got) != want || i2 != (want >= 2) || i3 != (want >= 4) {
			t.Fatalf("cut at %d of %d: reopened to %d records (i2 passive %v, i3 passive %v), want the %d whole ones",
				cut, len(data), len(got), i2, i3, want)
		}
		if size := fileSize(t, path); size != int64(ends[want-1]) {
			t.Fatalf("cut at %d: segment repaired to %d bytes, want %d", cut, size, ends[want-1])
		}
	}
}

// TestStagedPassivationIndexedWhereWritten: a staged passivation record
// is passive at once, and the index names the place its bytes really
// went — the segment that was open when it was staged had filled up, so
// the write that carried it rotated first.
func TestStagedPassivationIndexedWhereWritten(t *testing.T) {
	for _, carrier := range []string{"Append", "TakePassive"} {
		t.Run("written by "+carrier, func(t *testing.T) {
			dir := t.TempDir()
			setSegmentMaxBytes(t, 256)
			j := openTest(t, Options{Dir: dir, Fsync: FsyncOff, Shards: 1})
			s := j.shards[0]
			for seq := uint64(1); seq == 1 || fileSize(t, s.openSegment()) < 256; seq++ {
				if err := j.Append(arrivalRec("i1", seq)); err != nil {
					t.Fatal(err)
				}
			}
			full := s.openSegment()
			pass := passivateRec("i2", "7")
			if err := j.Stage(pass); err != nil {
				t.Fatal(err)
			}
			if st := j.Stats(); !isPassive(t, j, "i2") || st.Passive != 1 {
				t.Fatalf("staged passivation: IsPassive false or Stats.Passive = %d", st.Passive)
			}
			if carrier == "Append" {
				if err := j.Append(arrivalRec("i1", 99)); err != nil {
					t.Fatal(err)
				}
			}
			r, ok, err := j.TakePassive("c", "s", 0, "i2")
			if err != nil || !ok || !reflect.DeepEqual(r, pass) {
				t.Fatalf("TakePassive of a record staged across a rotation: %+v, %v, %v", r, ok, err)
			}
			if s.openSegment() == full {
				t.Fatal("the full segment was not rotated away")
			}
			if isPassive(t, j, "i2") || j.Stats().Passive != 0 {
				t.Fatal("TakePassive left the instance passive")
			}
			// A staged record of any other kind makes the instance live again
			// at once, too.
			if err := j.Append(pass); err != nil {
				t.Fatal(err)
			}
			if err := j.Stage(arrivalRec("i2", 1)); err != nil {
				t.Fatal(err)
			}
			if _, ok, err := j.TakePassive("c", "s", 0, "i2"); ok || err != nil || isPassive(t, j, "i2") {
				t.Fatalf("instance with a later staged record still passive (%v, %v)", ok, err)
			}
		})
	}
}

// TestAbandonDropsWhatCloseWrites: Close puts staged frames on the disk;
// Abandon, the simulated kill, leaves exactly what had been written.
// Both are final.
func TestAbandonDropsWhatCloseWrites(t *testing.T) {
	for _, tc := range []struct {
		name  string
		end   func(*Journal)
		want  int    // records on disk afterwards
		syncs uint64 // fsyncs the ending itself issues under FsyncAlways
	}{
		{"Close", func(j *Journal) { j.Close() }, 3, 1},
		{"Abandon", (*Journal).Abandon, 1, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			j := openTest(t, Options{Dir: dir, Fsync: FsyncAlways, Shards: 1})
			if err := j.Append(arrivalRec("i1", 1)); err != nil {
				t.Fatal(err)
			}
			if err := j.Stage(passivateRec("i2", "1")); err != nil {
				t.Fatal(err)
			}
			if err := j.Stage(arrivalRec("i1", 2)); err != nil {
				t.Fatal(err)
			}
			syncs := j.Stats().Syncs
			tc.end(j)
			if got := j.Stats().Syncs - syncs; got != tc.syncs {
				t.Errorf("%s issued %d sync(s), want %d", tc.name, got, tc.syncs)
			}
			if err := j.Append(arrivalRec("i1", 3)); !errors.Is(err, ErrClosed) {
				t.Errorf("Append after %s = %v, want ErrClosed", tc.name, err)
			}
			if err := j.Replay(func(*Record) error { return nil }); !errors.Is(err, ErrClosed) {
				t.Errorf("Replay after %s = %v, want ErrClosed", tc.name, err)
			}
			j2 := openTest(t, Options{Dir: dir, Fsync: FsyncOff, Shards: 1})
			if got := collectAll(t, j2); len(got) != tc.want {
				t.Errorf("after %s the directory holds %d records, want %d", tc.name, len(got), tc.want)
			}
			if got := isPassive(t, j2, "i2"); got != (tc.want == 3) {
				t.Errorf("after %s i2 passive = %v", tc.name, got)
			}
		})
	}
}

// TestFailedBatchWriteKeepsOthersStaged: when the write carrying a batch
// fails, the Append that issued it is told and its own frame is gone —
// the single-record contract — but the frames other callers staged, who
// were told nothing and whose instance may already have left RAM, stay
// staged and visible, and the next write carries them.
func TestFailedBatchWriteKeepsOthersStaged(t *testing.T) {
	dir := t.TempDir()
	j := openTest(t, Options{Dir: dir, Fsync: FsyncOff, Shards: 1})
	if err := j.Append(arrivalRec("i1", 1)); err != nil {
		t.Fatal(err)
	}
	pass := passivateRec("i2", "1")
	if err := j.Stage(pass); err != nil {
		t.Fatal(err)
	}
	s := j.shards[0]
	size := fileSize(t, s.openSegment())
	s.write = func(f *os.File, b []byte) (int, error) {
		s.write = (*os.File).Write
		n, _ := f.Write(b[:len(b)-3]) // all of the staged frame, most of the Append's
		return n, nil
	}
	if err := j.Append(arrivalRec("i1", 2)); !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("Append over a short batch write = %v, want io.ErrShortWrite", err)
	}
	if got := fileSize(t, s.openSegment()); got != size {
		t.Errorf("failed batch left the segment at %d bytes, want it cut back to %d", got, size)
	}
	if st := j.Stats(); st.Appends != 2 || st.Writes != 1 || !isPassive(t, j, "i2") {
		t.Errorf("after the failed batch: %d records, %d writes, i2 passive %v; want 2, 1, true", st.Appends, st.Writes, isPassive(t, j, "i2"))
	}
	if err := j.Append(arrivalRec("i1", 3)); err != nil {
		t.Fatal(err)
	}
	if r, ok, err := j.TakePassive("c", "s", 0, "i2"); err != nil || !ok || !reflect.DeepEqual(r, pass) {
		t.Fatalf("TakePassive of the record the failed write had carried: %+v, %v, %v", r, ok, err)
	}
	j.Close()
	var seqs []uint64
	for _, r := range collectAll(t, openTest(t, Options{Dir: dir, Fsync: FsyncOff, Shards: 1})) {
		seqs = append(seqs, r.Seq)
	}
	if !reflect.DeepEqual(seqs, []uint64{1, 0, 3}) {
		t.Fatalf("reopen replayed seqs %v, want [1 0 3]: the acknowledged appends around the staged passivation", seqs)
	}
}

// TestStageBacklogIsBounded: records nobody waits for cannot pile up
// without limit behind a shard that sees no Append — the Stage that
// takes the backlog past maxKeptBuf writes it out — and when that write
// fails, Stage says so (the engine's eviction then takes its loud lossy
// path) and only its own frame is dropped.
func TestStageBacklogIsBounded(t *testing.T) {
	dir := t.TempDir()
	j := openTest(t, Options{Dir: dir, Fsync: FsyncOff, Shards: 1})
	if err := j.Append(arrivalRec("i0", 1)); err != nil {
		t.Fatal(err)
	}
	s := j.shards[0]
	var calls, written int
	countWrites(s, &calls, &written)
	quarter := strings.Repeat("x", maxKeptBuf/4) // with its framing, a little over
	for i := 1; i <= 3; i++ {
		if err := j.Stage(passivateRec(fmt.Sprint("big", i), quarter)); err != nil {
			t.Fatal(err)
		}
	}
	if calls != 0 {
		t.Fatalf("a backlog under the bound was written (%d writes)", calls)
	}
	if err := j.Stage(passivateRec("big4", quarter)); err != nil {
		t.Fatal(err)
	}
	if calls != 1 || written <= maxKeptBuf {
		t.Fatalf("the Stage that passed the bound made %d write(s) of %d bytes, want 1 of more than %d", calls, written, maxKeptBuf)
	}
	s.mu.Lock()
	kept := cap(s.enc.buf)
	s.mu.Unlock()
	if kept > maxKeptBuf {
		t.Errorf("shard kept a %d-byte buffer after writing the backlog", kept)
	}

	disk := errors.New("disk full")
	s.write = func(*os.File, []byte) (int, error) { return 0, disk }
	for i := 5; i <= 7; i++ {
		if err := j.Stage(passivateRec(fmt.Sprint("big", i), quarter)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Stage(passivateRec("big8", quarter)); !errors.Is(err, disk) {
		t.Fatalf("Stage past the bound over a dead disk = %v, want the write's error", err)
	}
	if isPassive(t, j, "big8") || !isPassive(t, j, "big7") {
		t.Fatal("the refused record is passive, or an accepted one is not")
	}
	s.write = (*os.File).Write
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if got := collectAll(t, openTest(t, Options{Dir: dir, Fsync: FsyncOff, Shards: 1})); len(got) != 8 {
		t.Fatalf("reopen replayed %d records, want the 8 accepted ones", len(got))
	}
}

// legacyFrame is a record as builds before the binary codec framed it:
// [length|crc32|json], no segment header.
func legacyFrame(t *testing.T, r *Record) []byte {
	t.Helper()
	payload, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	frame := make([]byte, frameHeader, frameHeader+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	return append(frame, payload...)
}

// TestLegacySegmentRefused: a directory written before the binary codec
// is refused with ErrFormat naming the file — wherever the segment sits
// in its shard — and Open leaves it byte-for-byte untouched (it is NOT a
// torn tail to truncate).
func TestLegacySegmentRefused(t *testing.T) {
	legacy := legacyFrame(t, &Record{Kind: KindArrival, Composite: "c", State: "s", Instance: "i1", Src: "w", Seq: 1})
	for _, tc := range []struct {
		name  string
		newer bool // a current-format segment follows the legacy one
	}{{"last segment", false}, {"earlier segment", true}} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			shardDir := filepath.Join(dir, "shard-00")
			if err := os.MkdirAll(shardDir, 0o755); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(shardDir, "seg-00000000.wal")
			if err := os.WriteFile(path, legacy, 0o644); err != nil {
				t.Fatal(err)
			}
			if tc.newer {
				if err := os.WriteFile(filepath.Join(shardDir, "seg-00000001.wal"), []byte(segHeader), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			before := dirImage(t, dir)
			_, err := Open(Options{Dir: dir, Fsync: FsyncOff, Shards: 1, Now: fixedNow})
			if !errors.Is(err, ErrFormat) || !strings.Contains(err.Error(), path) {
				t.Fatalf("Open of a pre-codec directory = %v, want ErrFormat naming %s", err, path)
			}
			if after := dirImage(t, dir); !reflect.DeepEqual(after, before) {
				t.Fatal("Open modified a directory it refused")
			}
			if err := Walk(dir, func(Entry) error { return nil }); !errors.Is(err, ErrFormat) {
				t.Fatalf("Walk of a pre-codec directory = %v, want ErrFormat", err)
			}
		})
	}
}

// TestUnnumberedSegmentRefused: the passive index files a record under
// its segment's number and rebuilds the path from it (segFile), so Open
// refuses a segment whose name that path would not give back, rather
// than rehydrate from another file.
func TestUnnumberedSegmentRefused(t *testing.T) {
	for _, name := range []string{"seg-1.wal", "seg-x.wal"} {
		dir := t.TempDir()
		shardDir := filepath.Join(dir, "shard-00")
		if err := os.MkdirAll(shardDir, 0o755); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(shardDir, name)
		if err := os.WriteFile(path, []byte(segHeader), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(Options{Dir: dir, Fsync: FsyncOff, Shards: 1, Now: fixedNow}); err == nil || !strings.Contains(err.Error(), path) {
			t.Errorf("Open with a segment named %s = %v, want an error naming it", name, err)
		}
	}
}

// TestTornSegmentHeaderRepaired: a crash between creating a segment and
// writing its header leaves the shard's last segment empty or holding a
// piece of the header. Both are torn tails: Open repairs them, keeps
// every earlier record, and the journal appends on.
func TestTornSegmentHeaderRepaired(t *testing.T) {
	for _, stub := range []string{"", segHeader[:3]} {
		t.Run(fmt.Sprintf("%d header bytes", len(stub)), func(t *testing.T) {
			dir := t.TempDir()
			j := openTest(t, Options{Dir: dir, Fsync: FsyncOff, Shards: 1})
			rec := &Record{Kind: KindArrival, Composite: "c", State: "s", Instance: "i1", Seq: 1}
			if err := j.Append(rec); err != nil {
				t.Fatal(err)
			}
			j.Close()
			torn := filepath.Join(dir, "shard-00", "seg-00000001.wal")
			if err := os.WriteFile(torn, []byte(stub), 0o644); err != nil {
				t.Fatal(err)
			}
			// Twice: after the first repair the emptied file is a non-tail
			// segment of the second Open, which must accept it as holding
			// nothing.
			for life := 0; life < 2; life++ {
				j := openTest(t, Options{Dir: dir, Fsync: FsyncOff, Shards: 1})
				if fileSize(t, torn) != 0 {
					t.Fatalf("life %d: torn header not truncated away", life)
				}
				if err := j.Append(rec); err != nil {
					t.Fatal(err)
				}
				if got := collectAll(t, j); len(got) != 2+life {
					t.Fatalf("life %d: replayed %d records, want %d", life, len(got), 2+life)
				}
				j.Close()
			}
		})
	}
}

// FuzzOpenSegment: arbitrary bytes as a shard's LAST segment either
// open (after torn-tail truncation, leaving a file that re-opens clean
// and appends) or fail with a typed error; the same bytes as an EARLIER
// segment open only if they are a whole segment, and otherwise fail
// typed. Nothing panics.
func FuzzOpenSegment(f *testing.F) {
	// Real segments, kept short so the fuzzer's minimizer stays quick:
	// the first and the last dozen records the golden Chain(8) run wrote
	// (the last ones include the passivations).
	frames := goldenFrames(f)
	for _, part := range [][][]byte{frames[:12], frames[len(frames)-12:]} {
		seg := append([]byte(segHeader), bytes.Join(part, nil)...)
		f.Add(seg)
		f.Add(seg[:len(seg)/2])                        // cut mid-record
		f.Add(append(append([]byte(nil), seg...), 7))  // trailing garbage
		f.Add(append([]byte(segHeader), seg[100:]...)) // frames out of phase
		flipped := append([]byte(nil), seg...)
		flipped[len(flipped)/2] ^= 0x40
		f.Add(flipped)
		// One write that carried the last three records, torn inside the
		// third (TestTornBatchTruncatedOnReopen walks every such cut).
		f.Add(seg[:len(seg)-len(part[len(part)-1])/2])
	}
	f.Add([]byte(nil))
	f.Add([]byte(segHeader))
	f.Add([]byte(segHeader[:5]))
	f.Add([]byte("SSJRNL\x00\x02 a later format"))
	f.Add(append([]byte(segHeader), 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0)) // absurd frame length
	f.Fuzz(func(t *testing.T, data []byte) {
		typed := func(err error) bool { return errors.Is(err, ErrFormat) || errors.Is(err, ErrCorrupt) }
		opts := Options{Fsync: FsyncOff, Shards: 1, Now: fixedNow}

		// As the last segment.
		opts.Dir = t.TempDir()
		shardDir := filepath.Join(opts.Dir, "shard-00")
		if err := os.MkdirAll(shardDir, 0o755); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(shardDir, "seg-00000000.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := Open(opts)
		if err != nil {
			if !typed(err) {
				t.Fatalf("last segment: untyped Open error: %v", err)
			}
		} else {
			kept := 0
			if err := j.Replay(func(*Record) error { kept++; return nil }); err != nil {
				t.Fatalf("last segment: Replay after repair: %v", err)
			}
			if err := j.Append(&Record{Kind: KindWDone, Composite: "c", Instance: "i"}); err != nil {
				t.Fatalf("last segment: Append after repair: %v", err)
			}
			j.Close()
			j, err = Open(opts)
			if err != nil {
				t.Fatalf("last segment: second Open after repair: %v", err)
			}
			again := 0
			j.Replay(func(*Record) error { again++; return nil })
			j.Close()
			if again != kept+1 {
				t.Fatalf("last segment: %d records after repair, %d after append and reopen", kept, again)
			}
		}

		// As an earlier segment: the repair must not apply.
		opts.Dir = t.TempDir()
		shardDir = filepath.Join(opts.Dir, "shard-00")
		if err := os.MkdirAll(shardDir, 0o755); err != nil {
			t.Fatal(err)
		}
		path = filepath.Join(shardDir, "seg-00000000.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(shardDir, "seg-00000001.wal"), []byte(segHeader), 0o644); err != nil {
			t.Fatal(err)
		}
		j, err = Open(opts)
		if err == nil {
			j.Close()
		} else if !typed(err) {
			t.Fatalf("earlier segment: untyped Open error: %v", err)
		}
		if after, rerr := os.ReadFile(path); rerr != nil || !bytes.Equal(after, data) {
			t.Fatalf("earlier segment: Open changed the file (read err %v)", rerr)
		}
	})
}

// TestWalk: the read-only path sees exactly what Replay sees, with each
// record's location, on a directory the journal still has open; it
// reports a torn tail as ErrTornTail after delivering every whole
// record, and repairs nothing.
func TestWalk(t *testing.T) {
	dir := t.TempDir()
	setSegmentMaxBytes(t, 256)
	j := openTest(t, Options{Dir: dir, Fsync: FsyncOff, Shards: 2})
	for i := 0; i < 40; i++ {
		rec := &Record{Kind: KindArrival, Composite: "c", State: "s", Instance: fmt.Sprintf("i%d", i%5), Src: "w", Seq: uint64(i + 1)}
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	want := collectAll(t, j)
	var got []*Record
	err := Walk(dir, func(e Entry) error { // j is still open
		r, err := readRecordAt(filepath.Join(dir, fmt.Sprintf("shard-%02d", e.Shard), e.Segment), e.Offset)
		if err != nil || !reflect.DeepEqual(r, e.Record) {
			t.Errorf("entry %+v is not at its stated location (read %+v, %v)", e, r, err)
		}
		got = append(got, e.Record)
		return nil
	})
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("Walk saw %d records (err %v), Replay %d", len(got), err, len(want))
	}
	if err := Walk(filepath.Join(dir, "missing"), func(Entry) error { return nil }); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("Walk of a missing directory = %v, want os.ErrNotExist", err)
	}
	stop := errors.New("stop")
	if err := Walk(dir, func(Entry) error { return stop }); !errors.Is(err, stop) {
		t.Fatalf("Walk did not return the callback's error: %v", err)
	}
	j.Close()

	// Tear shard 0's tail; shard 1 must still be walked in full.
	segs, _ := segments(filepath.Join(dir, "shard-00"))
	last := segs[len(segs)-1]
	f, err := os.OpenFile(last, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{9, 0, 0, 0, 1, 2, 3})
	f.Close()
	before := dirImage(t, dir)
	n := 0
	err = Walk(dir, func(Entry) error { n++; return nil })
	if !errors.Is(err, ErrTornTail) || !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), last) {
		t.Fatalf("Walk over a torn tail = %v, want ErrTornTail naming %s", err, last)
	}
	if n != len(want) {
		t.Fatalf("Walk delivered %d records around a torn tail, want all %d", n, len(want))
	}
	if !reflect.DeepEqual(dirImage(t, dir), before) {
		t.Fatal("Walk modified the directory")
	}

	// The same bytes in an earlier segment are damage, not a tail.
	if err := os.WriteFile(segs[0], append([]byte(segHeader), 1, 2, 3), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Walk(dir, func(Entry) error { return nil }); !errors.Is(err, ErrCorrupt) || errors.Is(err, ErrTornTail) {
		t.Fatalf("Walk over mid-shard damage = %v, want a plain ErrCorrupt", err)
	}
}
