package journal

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// fixedNow is the injected clock every test journal runs on: record
// timestamps must come from Options.Now, never the wall clock.
func fixedNow() time.Time { return time.Unix(1700000000, 42) }

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
	if _, _, err := j.TakePassive("c", "s", "i1"); !errors.Is(err, ErrClosed) {
		t.Errorf("TakePassive after Close = %v, want ErrClosed", err)
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
	j := openTest(t, Options{Dir: dir, Fsync: FsyncOff, Shards: 1, SegmentMaxBytes: 128})
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
	if n, err := walkSegment(segs[0], func(int64, *Record) error { return nil }); err != nil || n != info.Size() {
		t.Fatalf("segment not repaired: valid prefix %d of %d bytes (err %v)", n, len(data), err)
	}
}

func TestCorruptionInEarlierSegmentFailsOpen(t *testing.T) {
	dir := t.TempDir()
	j := openTest(t, Options{Dir: dir, Fsync: FsyncOff, Shards: 1, SegmentMaxBytes: 64})
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
	data[frameHeader] ^= 0xff
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir, Fsync: FsyncOff, Shards: 1, Now: fixedNow}); err == nil {
		t.Fatal("Open accepted a corrupt non-tail segment")
	}
}

func TestPassiveIndex(t *testing.T) {
	dir := t.TempDir()
	j := openTest(t, Options{Dir: dir, Fsync: FsyncOff, Shards: 2})
	pass := &Record{
		Kind: KindPassivate, Composite: "c", State: "s", Instance: "i7",
		Vars:     map[string]string{"x": "3"},
		Counts:   map[string]uint32{"w": 1},
		SrcVars:  map[string]map[string]string{"w": {"y": "2"}},
		LastSeen: map[string]uint64{"w": 5},
		FireSeq:  2, SendSeq: 4,
	}
	if err := j.Append(pass); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if !j.IsPassive("c", "s", "i7") {
		t.Fatal("instance not in passive index after passivate record")
	}
	if st := j.Stats(); st.Passive != 1 {
		t.Fatalf("Stats.Passive = %d, want 1", st.Passive)
	}

	r, ok, err := j.TakePassive("c", "s", "i7")
	if err != nil || !ok {
		t.Fatalf("TakePassive: ok=%v err=%v", ok, err)
	}
	if r.Vars["x"] != "3" || r.Counts["w"] != 1 || r.SrcVars["w"]["y"] != "2" || r.LastSeen["w"] != 5 || r.FireSeq != 2 {
		t.Fatalf("rehydrated record wrong: %+v", r)
	}
	if j.IsPassive("c", "s", "i7") {
		t.Fatal("TakePassive left the index entry behind")
	}
	if _, ok, _ := j.TakePassive("c", "s", "i7"); ok {
		t.Fatal("second TakePassive found the instance again")
	}

	// Passivate again, then reopen: the scan rebuilds the index.
	if err := j.Append(pass); err != nil {
		t.Fatal(err)
	}
	j.Close()
	j2 := openTest(t, Options{Dir: dir, Fsync: FsyncOff, Shards: 2})
	if !j2.IsPassive("c", "s", "i7") {
		t.Fatal("reopen lost the passive index")
	}
	// A later record for the key un-passivates it on scan too.
	if err := j2.Append(&Record{Kind: KindArrival, Composite: "c", State: "s", Instance: "i7", Src: "w", Seq: 6}); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	j3 := openTest(t, Options{Dir: dir, Fsync: FsyncOff, Shards: 2})
	if j3.IsPassive("c", "s", "i7") {
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
	r, ok, err := j.TakePassive("c", "s2", "iC")
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

	batch := openTest(t, Options{Fsync: FsyncBatch, FsyncEvery: 3, Shards: 1})
	for i := 0; i < 7; i++ {
		if err := batch.Append(&Record{Kind: KindArrival, Composite: "c", State: "s", Instance: "i"}); err != nil {
			t.Fatal(err)
		}
	}
	if st := batch.Stats(); st.Syncs != 2 {
		t.Fatalf("FsyncBatch(3): %d syncs for 7 appends, want 2", st.Syncs)
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
