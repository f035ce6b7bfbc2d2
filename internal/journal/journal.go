// Package journal is the engine's durability substrate: a per-shard
// append-only write-ahead log of firing rounds, plus the passivation
// index that lets an idle instance live on disk instead of RAM
// (docs/durability.md).
//
// Each record describes one commit point of one instance — a
// notification arrival, a completed provider invocation, a firing
// round's bag delta and outbound messages, or a full bag snapshot
// (periodic, or terminal-for-now when the instance passivates). Records
// are framed [length|crc32|json] and sharded by (composite, instance),
// so every record of an instance lands in one shard file sequence and
// the shard's append mutex makes file order equal commit order for that
// instance. Recovery replays shards independently (engine.Recover);
// cross-shard order carries no meaning.
//
// The journal is deliberately clock-free on its decision paths: fsync
// batching is COUNT-based (every N appends), never timer-based, so a
// replayed history is bit-for-bit independent of scheduling. The
// injected Options.Now stamps records for observability only.
package journal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Record kinds. Coordinator-side kinds carry State; wrapper-side kinds
// (the "w" prefix) do not.
const (
	// KindArrival is a notification accepted by a coordinator instance:
	// Src's variables merged into the instance bag, the source counter
	// bumped. Written BEFORE the arrival is applied (write-ahead).
	KindArrival = "arrival"
	// KindInvoke is a completed provider invocation: the idempotency Key
	// and the provider's Outputs. Replay primes service.Idempotent so a
	// re-fired round replays the response instead of re-executing.
	KindInvoke = "invoke"
	// KindRound is one firing round's effect on the instance: consumed
	// source counters, absorbed (cleared) source bags, the base-layer
	// delta, and the outbound messages with their dedup sequence numbers.
	// Written BEFORE the messages are flushed (write-ahead of sends).
	KindRound = "round"
	// KindSnapshot is a full coordinator-instance state image; replay
	// restarts from the newest one, and compaction drops what precedes it.
	KindSnapshot = "snapshot"
	// KindPassivate is a snapshot that also REMOVES the instance from
	// RAM: the journal's passive index keeps (file, offset), and the
	// instance rehydrates from it on its next frame.
	KindPassivate = "passivate"
	// KindWStart is a wrapper execution admitted: the request inputs.
	KindWStart = "wstart"
	// KindWArrival is a termination/fault notice received by the wrapper.
	KindWArrival = "warrival"
	// KindWDone marks a wrapper execution finished (result delivered or
	// faulted); compaction drops every record of the instance.
	KindWDone = "wdone"
)

// OutMsg is one outbound notification recorded in a KindRound record —
// enough to redeliver it after a crash. The destination is the LOGICAL
// peer (a state ID or the wrapper ID), never a transport address:
// addresses change across restarts and are re-resolved at redelivery.
type OutMsg struct {
	Type string            `json:"type"`
	To   string            `json:"to"`
	Seq  uint64            `json:"seq,omitempty"`
	Vars map[string]string `json:"vars,omitempty"`
}

// Record is one journal entry. One flat struct covers every kind; the
// unused fields of a kind are omitted from the JSON.
type Record struct {
	Kind      string `json:"k"`
	Composite string `json:"c"`
	Instance  string `json:"i"`
	State     string `json:"s,omitempty"`
	Version   uint64 `json:"v,omitempty"`
	// Time is Options.Now at append, unix nanoseconds. Observability
	// only: nothing in replay or compaction reads it.
	Time int64 `json:"t,omitempty"`

	// Arrival fields (also WArrival: Src + Seq + Vars + Error).
	Src string `json:"src,omitempty"`
	Seq uint64 `json:"seq,omitempty"`
	// Vars is the arrival's payload, the round's base-layer delta, the
	// snapshot's base layer, or the wstart's inputs — the "main bag" of
	// each kind.
	Vars map[string]string `json:"vars,omitempty"`

	// Invoke fields.
	Service string            `json:"svc,omitempty"`
	Key     string            `json:"key,omitempty"`
	Outputs map[string]string `json:"out,omitempty"`

	// Round fields.
	FireSeq  uint64   `json:"fire,omitempty"`
	Consumed []string `json:"cons,omitempty"` // source counters decremented
	Cleared  []string `json:"clr,omitempty"`  // source bags absorbed into base
	SendSeq  uint64   `json:"send,omitempty"` // high-water after stamping Msgs
	Msgs     []OutMsg `json:"msgs,omitempty"`

	// Snapshot/passivate fields (Vars carries the base layer).
	Counts   map[string]uint32            `json:"cnt,omitempty"`
	SrcVars  map[string]map[string]string `json:"bags,omitempty"`
	LastSeen map[string]uint64            `json:"seen,omitempty"`

	// Error carries a fault's text (WArrival of a TypeFault, WDone of a
	// failed execution).
	Error string `json:"err,omitempty"`
}

// FsyncMode selects the durability/throughput trade of Append.
type FsyncMode int

const (
	// FsyncAlways syncs after every append: a record returned from
	// Append survives power loss. The default.
	FsyncAlways FsyncMode = iota
	// FsyncBatch syncs every Options.FsyncEvery appends (count-based,
	// never timer-based). An OS crash may lose the tail of a batch; a
	// process crash loses nothing (the OS holds the pages).
	FsyncBatch
	// FsyncOff never syncs (tests, CI): a process crash loses nothing,
	// an OS crash may lose anything unsynced.
	FsyncOff
)

// String returns the flag spelling of the mode.
func (m FsyncMode) String() string {
	switch m {
	case FsyncAlways:
		return "always"
	case FsyncBatch:
		return "batch"
	case FsyncOff:
		return "off"
	}
	return fmt.Sprintf("FsyncMode(%d)", int(m))
}

// ParseFsyncMode parses the -fsync flag spelling.
func ParseFsyncMode(s string) (FsyncMode, error) {
	switch s {
	case "always", "":
		return FsyncAlways, nil
	case "batch":
		return FsyncBatch, nil
	case "off":
		return FsyncOff, nil
	}
	return 0, fmt.Errorf("journal: unknown fsync mode %q (want always, batch, or off)", s)
}

// Options configure a Journal.
type Options struct {
	// Dir is the journal directory; created if missing. Empty disables
	// durability entirely at the layers above (core.Options.Durability).
	Dir string
	// Fsync selects the sync policy (default FsyncAlways).
	Fsync FsyncMode
	// FsyncEvery is the batch size under FsyncBatch (default 32).
	FsyncEvery int
	// SnapshotEvery asks the engine to write a full instance snapshot
	// every N firing rounds (default 8). The journal only carries the
	// knob; the engine's commit points act on it.
	SnapshotEvery int
	// SegmentMaxBytes rotates a shard's segment beyond this size
	// (default 4 MiB).
	SegmentMaxBytes int64
	// Shards is the number of independent append streams (default 8).
	// Fixed at first Open of a directory: reopening with a different
	// count is an error.
	Shards int
	// Now stamps records (observability only). Defaults to time.Now.
	Now func() time.Time
}

// passiveLoc locates a passivated instance's record on disk. Only the
// location lives in RAM — the bag stays in the segment file, which is
// the entire point of passivation.
type passiveLoc struct {
	file string
	off  int64
}

// shard is one independent append stream: a directory of numbered
// segment files plus the slice of the passive index whose keys hash
// here.
type shard struct {
	mu       sync.Mutex // lockorder:journal — leaf; taken under engine instance locks, never above any other repo mutex
	dir      string
	seg      *os.File // open segment (lazily created on first append)
	segPath  string
	segSize  int64
	nextSeg  uint64
	unsynced int
	// passive maps composite\x00state\x00instance to the location of its
	// KindPassivate record. Guarded by mu (the index slice is shard-local
	// because records shard by (composite, instance)).
	passive map[string]passiveLoc
	// existing are the segment paths found at Open, oldest first; appends
	// go to a fresh segment so a torn tail is never appended after.
	existing []string
	// closed is set by Journal.Close: the shard then refuses every
	// operation that would touch its files (ErrClosed) instead of
	// silently rotating a fresh segment into a directory someone else may
	// already have reopened.
	closed bool
}

// ErrClosed reports use of a journal after Close.
var ErrClosed = errors.New("journal: closed")

// Journal is an open journal directory. Safe for concurrent use.
type Journal struct {
	opts   Options
	shards []*shard

	appends  atomic.Uint64
	syncs    atomic.Uint64
	bytes    atomic.Uint64
	replayed atomic.Uint64
}

// Stats are the journal's running counters.
type Stats struct {
	Appends  uint64 // records appended this process
	Syncs    uint64 // fsyncs issued
	Bytes    uint64 // bytes appended this process
	Passive  int    // instances currently passivated (index size)
	Segments int    // segment files on disk
}

// Open opens (creating if needed) the journal at opts.Dir, scans every
// existing segment to rebuild the passive index, and repairs a torn
// tail (a crash mid-append) by truncating the last segment of each
// shard to its last whole record. Corruption anywhere BUT a last
// segment's tail is an error — that is real damage, not a crash
// artifact.
func Open(opts Options) (*Journal, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("journal: empty directory")
	}
	if opts.Fsync < FsyncAlways || opts.Fsync > FsyncOff {
		return nil, fmt.Errorf("journal: bad fsync mode %d", int(opts.Fsync))
	}
	if opts.FsyncEvery <= 0 {
		opts.FsyncEvery = 32
	}
	if opts.SnapshotEvery <= 0 {
		opts.SnapshotEvery = 8
	}
	if opts.SegmentMaxBytes <= 0 {
		opts.SegmentMaxBytes = 4 << 20
	}
	if opts.Shards <= 0 {
		opts.Shards = 8
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	// The shard count is a property of the directory: records hash to
	// shards by (composite, instance), so reopening with a different
	// count would replay an instance's records out of their stream.
	existing, err := filepath.Glob(filepath.Join(opts.Dir, "shard-*"))
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	if n := len(existing); n > 0 && n != opts.Shards {
		return nil, fmt.Errorf("journal: %s holds %d shards, options say %d", opts.Dir, n, opts.Shards)
	}
	j := &Journal{opts: opts, shards: make([]*shard, opts.Shards)}
	for i := range j.shards {
		s := &shard{
			dir:     filepath.Join(opts.Dir, fmt.Sprintf("shard-%02d", i)),
			passive: map[string]passiveLoc{},
		}
		if err := os.MkdirAll(s.dir, 0o755); err != nil {
			return nil, fmt.Errorf("journal: %w", err)
		}
		if err := s.scan(); err != nil {
			return nil, err
		}
		j.shards[i] = s
	}
	return j, nil
}

// SnapshotEvery returns the snapshot cadence the engine should honor.
func (j *Journal) SnapshotEvery() int { return j.opts.SnapshotEvery }

// Dir returns the journal directory.
func (j *Journal) Dir() string { return j.opts.Dir }

// passiveKey names an instance's slot in the passive index.
func passiveKey(composite, state, instance string) string {
	return composite + "\x00" + state + "\x00" + instance
}

// shardFor hashes (composite, instance) onto a shard — state is NOT
// part of the key, so every coordinator's records for one instance
// (and the wrapper's) serialize through one stream.
func (j *Journal) shardFor(composite, instance string) *shard {
	h := uint32(2166136261)
	for i := 0; i < len(composite); i++ {
		h = (h ^ uint32(composite[i])) * 16777619
	}
	h = (h ^ 0) * 16777619
	for i := 0; i < len(instance); i++ {
		h = (h ^ uint32(instance[i])) * 16777619
	}
	return j.shards[h%uint32(len(j.shards))]
}

// Append writes r durably (per the fsync mode) and returns when it is
// committed. The caller's instance lock orders the records of one
// instance; the shard mutex orders the file.
func (j *Journal) Append(r *Record) error {
	r.Time = j.opts.Now().UnixNano()
	buf, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("journal: marshal: %w", err)
	}
	s := j.shardFor(r.Composite, r.Instance)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	off, err := s.append(buf, j.opts)
	if err != nil {
		return err
	}
	key := passiveKey(r.Composite, r.State, r.Instance)
	if r.Kind == KindPassivate {
		s.passive[key] = passiveLoc{file: s.segPath, off: off}
	} else {
		// Any later record for the key means the instance is live again;
		// Open's scan applies the same rule when rebuilding the index.
		delete(s.passive, key)
	}
	j.appends.Add(1)
	j.bytes.Add(uint64(len(buf) + frameHeader))
	if s.unsynced > 0 && (j.opts.Fsync == FsyncAlways || (j.opts.Fsync == FsyncBatch && s.unsynced >= j.opts.FsyncEvery)) {
		if err := s.seg.Sync(); err != nil {
			return fmt.Errorf("journal: sync: %w", err)
		}
		s.unsynced = 0
		j.syncs.Add(1)
	}
	return nil
}

// TakePassive removes an instance from the passive index and returns
// its passivation record — the rehydration path. ok is false when the
// instance is not passivated here.
func (j *Journal) TakePassive(composite, state, instance string) (*Record, bool, error) {
	s := j.shardFor(composite, instance)
	key := passiveKey(composite, state, instance)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, false, ErrClosed
	}
	loc, ok := s.passive[key]
	if !ok {
		return nil, false, nil
	}
	r, err := readRecordAt(loc.file, loc.off)
	if err != nil {
		return nil, false, fmt.Errorf("journal: rehydrate %s/%s/%s: %w", composite, state, instance, err)
	}
	delete(s.passive, key)
	return r, true, nil
}

// IsPassive reports whether the instance is currently passivated.
func (j *Journal) IsPassive(composite, state, instance string) bool {
	s := j.shardFor(composite, instance)
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.passive[passiveKey(composite, state, instance)]
	return ok
}

// Replay streams every record on disk, shard by shard, in append order
// within each shard, stopping early if fn errors. Concurrent appends
// are excluded per shard (recovery runs before traffic anyway).
func (j *Journal) Replay(fn func(*Record) error) error {
	for _, s := range j.shards {
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return ErrClosed
		}
		err := s.replay(func(r *Record) error {
			j.replayed.Add(1)
			return fn(r)
		})
		s.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// Compact rewrites each shard keeping only what recovery needs: for a
// finished instance (a KindWDone anywhere in the shard) nothing at all;
// for every other (composite, state, instance) the records from its
// newest snapshot/passivate onward (or all of them when it never
// snapshotted). The passive index is rebuilt at the new offsets.
func (j *Journal) Compact() error {
	for _, s := range j.shards {
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return ErrClosed
		}
		err := s.compact(j.opts)
		s.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// Stats returns the running counters.
func (j *Journal) Stats() Stats {
	st := Stats{
		Appends: j.appends.Load(),
		Syncs:   j.syncs.Load(),
		Bytes:   j.bytes.Load(),
	}
	for _, s := range j.shards {
		s.mu.Lock()
		st.Passive += len(s.passive)
		st.Segments += len(s.existing)
		if s.seg != nil {
			st.Segments++
		}
		s.mu.Unlock()
	}
	return st
}

// Close syncs and closes every open segment. Afterwards Append,
// TakePassive, Replay and Compact fail with ErrClosed.
func (j *Journal) Close() error {
	var first error
	for _, s := range j.shards {
		s.mu.Lock()
		s.closed = true
		if s.seg != nil {
			if s.unsynced > 0 && j.opts.Fsync != FsyncOff {
				if err := s.seg.Sync(); err != nil && first == nil {
					first = err
				}
			}
			if err := s.seg.Close(); err != nil && first == nil {
				first = err
			}
			s.seg = nil
		}
		s.mu.Unlock()
	}
	return first
}

// frameHeader is the per-record framing overhead: a little-endian
// uint32 payload length followed by the payload's CRC-32 (IEEE).
const frameHeader = 8

// maxRecordBytes bounds a single record frame — a sanity valve so a
// corrupt length word can't ask for a gigabyte allocation.
const maxRecordBytes = 16 << 20

// append writes one framed payload to the shard's open segment,
// rotating first when over the size limit. Returns the record's offset
// in the (possibly fresh) segment. Caller holds s.mu.
func (s *shard) append(payload []byte, opts Options) (int64, error) {
	if s.seg == nil || s.segSize >= opts.SegmentMaxBytes {
		if err := s.rotate(opts); err != nil {
			return 0, err
		}
	}
	off := s.segSize
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	if _, err := s.seg.Write(hdr[:]); err != nil {
		return 0, fmt.Errorf("journal: append: %w", err)
	}
	if _, err := s.seg.Write(payload); err != nil {
		return 0, fmt.Errorf("journal: append: %w", err)
	}
	s.segSize += int64(frameHeader + len(payload))
	s.unsynced++
	return off, nil
}

// rotate closes the open segment (if any) and starts the next one.
// Caller holds s.mu.
func (s *shard) rotate(opts Options) error {
	if s.seg != nil {
		if s.unsynced > 0 && opts.Fsync != FsyncOff {
			if err := s.seg.Sync(); err != nil {
				return fmt.Errorf("journal: rotate: %w", err)
			}
			s.unsynced = 0
		}
		if err := s.seg.Close(); err != nil {
			return fmt.Errorf("journal: rotate: %w", err)
		}
		s.existing = append(s.existing, s.segPath)
		s.seg = nil
	}
	path := filepath.Join(s.dir, fmt.Sprintf("seg-%08d.wal", s.nextSeg))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("journal: rotate: %w", err)
	}
	s.nextSeg++
	s.seg = f
	s.segPath = path
	s.segSize = 0
	return nil
}

// scan walks the shard's existing segments oldest-first: validates
// frames, rebuilds the passive index, truncates a torn tail on the LAST
// segment (crash artifact), and errors on damage anywhere else. Appends
// after scan go to a fresh segment.
func (s *shard) scan() error {
	segs, err := filepath.Glob(filepath.Join(s.dir, "seg-*.wal"))
	if err != nil {
		return fmt.Errorf("journal: scan: %w", err)
	}
	sort.Strings(segs)
	s.existing = segs
	for _, path := range segs {
		// Segment names are zero-padded so the lexical sort above is the
		// numeric order; nextSeg must clear the highest seen.
		var n uint64
		base := filepath.Base(path)
		if _, err := fmt.Sscanf(base, "seg-%d.wal", &n); err == nil && n >= s.nextSeg {
			s.nextSeg = n + 1
		}
	}
	for i, path := range segs {
		last := i == len(segs)-1
		validLen, err := s.scanSegment(path)
		if err != nil {
			if !last {
				return fmt.Errorf("journal: segment %s: %w (not the shard tail — real corruption, not a torn append)", path, err)
			}
			// Torn tail from a crash mid-append: repair by truncating to
			// the last whole record so later scans see a clean file.
			if terr := os.Truncate(path, validLen); terr != nil {
				return fmt.Errorf("journal: truncate torn tail of %s: %w", path, terr)
			}
		}
	}
	return nil
}

// scanSegment validates one segment, applying its records to the
// passive index. Returns the length of the valid prefix and an error
// describing the first bad frame (nil when the file is whole).
func (s *shard) scanSegment(path string) (int64, error) {
	return walkSegment(path, func(off int64, r *Record) error {
		key := passiveKey(r.Composite, r.State, r.Instance)
		if r.Kind == KindPassivate {
			s.passive[key] = passiveLoc{file: path, off: off}
		} else {
			delete(s.passive, key)
		}
		return nil
	})
}

// replay streams the shard's records in order. The open (currently
// appended) segment is read via its path — the write fd's offset is
// untouched. Caller holds s.mu.
func (s *shard) replay(fn func(*Record) error) error {
	segs := append([]string(nil), s.existing...)
	if s.seg != nil {
		segs = append(segs, s.segPath)
	}
	for _, path := range segs {
		_, err := walkSegment(path, func(_ int64, r *Record) error { return fn(r) })
		if err != nil {
			return fmt.Errorf("journal: replay %s: %w", path, err)
		}
	}
	return nil
}

// compact rewrites the shard (see Journal.Compact). Caller holds s.mu.
func (s *shard) compact(opts Options) error {
	// Pass 1: find finished instances and each key's newest snapshot
	// position (counting records per key so pass 2 can cut precisely).
	type cursor struct {
		n        int // records seen for this key
		snapshot int // 1-based index of the newest snapshot/passivate; 0 = none
	}
	doneInst := map[string]bool{} // composite\x00instance
	cursors := map[string]*cursor{}
	collect := func(r *Record) error {
		if r.Kind == KindWDone {
			doneInst[r.Composite+"\x00"+r.Instance] = true
		}
		key := passiveKey(r.Composite, r.State, r.Instance)
		c := cursors[key]
		if c == nil {
			c = &cursor{}
			cursors[key] = c
		}
		c.n++
		if r.Kind == KindSnapshot || r.Kind == KindPassivate {
			c.snapshot = c.n
		}
		return nil
	}
	if err := s.replay(collect); err != nil {
		return err
	}

	// Pass 2: stream the keepers into fresh segments. The old segments
	// are removed only after the new ones are synced, so a crash during
	// compaction leaves either the old history or the new — never
	// neither. (A crash in between can leave BOTH; the keepers replay
	// twice, which recovery tolerates: arrivals dedup, rounds re-apply
	// onto snapshots idempotently.)
	old := append([]string(nil), s.existing...)
	if s.seg != nil {
		if s.unsynced > 0 && opts.Fsync != FsyncOff {
			if err := s.seg.Sync(); err != nil {
				return err
			}
			s.unsynced = 0
		}
		if err := s.seg.Close(); err != nil {
			return err
		}
		old = append(old, s.segPath)
		s.seg = nil
	}
	s.existing = nil
	s.passive = map[string]passiveLoc{}
	seen := map[string]int{}
	keep := func(_ int64, r *Record, raw []byte) error {
		if doneInst[r.Composite+"\x00"+r.Instance] {
			return nil
		}
		key := passiveKey(r.Composite, r.State, r.Instance)
		seen[key]++
		if c := cursors[key]; c.snapshot != 0 && seen[key] < c.snapshot {
			return nil
		}
		off, err := s.append(raw, opts)
		if err != nil {
			return err
		}
		if r.Kind == KindPassivate {
			s.passive[key] = passiveLoc{file: s.segPath, off: off}
		} else {
			delete(s.passive, key)
		}
		return nil
	}
	for _, path := range old {
		if _, err := walkSegmentRaw(path, keep); err != nil {
			return fmt.Errorf("journal: compact %s: %w", path, err)
		}
	}
	if s.seg != nil && opts.Fsync != FsyncOff {
		if err := s.seg.Sync(); err != nil {
			return err
		}
		s.unsynced = 0
	}
	for _, path := range old {
		if err := os.Remove(path); err != nil {
			return fmt.Errorf("journal: compact: %w", err)
		}
	}
	return nil
}

// walkSegment streams a segment's decoded records.
func walkSegment(path string, fn func(off int64, r *Record) error) (int64, error) {
	return walkSegmentRaw(path, func(off int64, r *Record, _ []byte) error {
		return fn(off, r)
	})
}

// walkSegmentRaw streams a segment's records with their offsets and raw
// payloads. It returns the byte length of the valid prefix; err
// describes the first bad frame (io errors, short frames, CRC
// mismatches). A clean EOF returns a nil error.
func walkSegmentRaw(path string, fn func(off int64, r *Record, raw []byte) error) (int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	var off int64
	for int64(len(data))-off >= frameHeader {
		n := int64(binary.LittleEndian.Uint32(data[off : off+4]))
		crc := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if n == 0 || n > maxRecordBytes {
			return off, fmt.Errorf("bad frame length %d at offset %d", n, off)
		}
		if int64(len(data))-off-frameHeader < n {
			return off, fmt.Errorf("truncated frame at offset %d", off)
		}
		payload := data[off+frameHeader : off+frameHeader+n]
		if crc32.ChecksumIEEE(payload) != crc {
			return off, fmt.Errorf("crc mismatch at offset %d", off)
		}
		var r Record
		if err := json.Unmarshal(payload, &r); err != nil {
			return off, fmt.Errorf("bad record at offset %d: %w", off, err)
		}
		if err := fn(off, &r, payload); err != nil {
			return off, err
		}
		off += frameHeader + n
	}
	if rem := int64(len(data)) - off; rem > 0 {
		return off, fmt.Errorf("trailing %d bytes at offset %d", rem, off)
	}
	return off, nil
}

// readRecordAt decodes the single record at (file, off) — the
// rehydration read.
func readRecordAt(path string, off int64) (*Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var hdr [frameHeader]byte
	if _, err := f.ReadAt(hdr[:], off); err != nil {
		return nil, err
	}
	n := int64(binary.LittleEndian.Uint32(hdr[0:4]))
	crc := binary.LittleEndian.Uint32(hdr[4:8])
	if n == 0 || n > maxRecordBytes {
		return nil, fmt.Errorf("bad frame length %d at offset %d", n, off)
	}
	payload := make([]byte, n)
	if _, err := f.ReadAt(payload, off+frameHeader); err != nil {
		return nil, err
	}
	if crc32.ChecksumIEEE(payload) != crc {
		return nil, fmt.Errorf("crc mismatch at offset %d", off)
	}
	var r Record
	if err := json.Unmarshal(payload, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

// FormatStats renders the stats for a -stats log line.
func (st Stats) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "appends=%d syncs=%d bytes=%d passive=%d segments=%d",
		st.Appends, st.Syncs, st.Bytes, st.Passive, st.Segments)
	return sb.String()
}
