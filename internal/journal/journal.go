// Package journal is the engine's durability substrate: a per-shard
// append-only write-ahead log of firing rounds, plus the passivation
// index that lets an idle instance live on disk instead of RAM
// (docs/durability.md).
//
// Each record describes one commit point of one instance — a
// notification arrival, a completed provider invocation, a firing
// round's bag delta and outbound messages, or a full bag snapshot
// (periodic, or terminal-for-now when the instance passivates). Records
// are sharded by (composite, instance), so every record of an instance
// lands in one shard file sequence and the shard's append mutex makes
// file order equal commit order for that instance. Recovery replays
// shards independently (engine.Recover); cross-shard order carries no
// meaning.
//
// On disk a segment is an 8-byte magic+version header followed by
// frames [length|crc32|payload]; the payload is the binary record
// encoding of codec.go — one encoder, one decoder, maps in sorted key
// order so equal records are equal bytes. Walk is the read-only operator
// path over the same bytes (selfserv journal dump).
//
// There are two verbs, and the difference is the whole commit protocol
// (docs/durability.md, "One write per effect boundary"). The invariant:
// no effect leaves the host — a provider call, a send, a reply to the
// client — before every record it depends on is on the fd. Append is for
// the record an effect waits on: it returns with the record on the fd
// (and synced, per the fsync mode). Stage is for a record no effect
// waits on: it encodes the frame into the buffer the shard owns — file
// order is call order — and returns; the bytes ride the shard's next
// Append in the same single write(2), and the same single fsync. An
// Append with nothing staged before it is a batch of one. Neither verb
// allocates. A kill loses what was staged, which is by construction
// nothing an effect depended on; Close writes it, Abandon — the
// simulated kill — does not.
//
// The journal is deliberately clock-free on its decision paths: fsync
// batching is COUNT-based (every N records), never timer-based, and a
// staged frame waits for the next Append, never for a timer, so a
// replayed history is bit-for-bit independent of scheduling. The
// injected Options.Now stamps records for observability only.
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Record kinds. Coordinator-side kinds carry State; wrapper-side kinds
// (the "w" prefix) do not.
const (
	// KindArrival is a notification accepted by a coordinator instance:
	// Src's variables merged into the instance bag, the source counter
	// bumped. Written BEFORE the arrival is applied (write-ahead).
	KindArrival = "arrival"
	// KindInvoke is a completed provider invocation: the provider's
	// Outputs under its idempotency key's fields (Composite, Instance,
	// State, FireSeq). Replay primes service.Idempotent so a re-fired
	// round replays the response instead of re-executing.
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
	// RAM: the journal's passive index keeps (segment, offset), and the
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

// SourceState is one notification source's share of a snapshot or
// passivation record: its pending count, its dedup high-water mark and
// its accumulated bag, keyed by source NAME so a restart that recompiles
// the plan can still map it back.
type SourceState struct {
	Name  string            `json:"name"`
	Count uint32            `json:"cnt,omitempty"`
	Seen  uint64            `json:"seen,omitempty"`
	Vars  map[string]string `json:"vars,omitempty"`
}

// Record is one journal entry. One flat struct covers every kind; a
// kind leaves the fields it does not use zero. The JSON tags are the
// rendering of `selfserv journal dump` (and the tests' oracle) — the
// on-disk encoding is codec.go's.
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

	// Invoke fields. Key is written empty: records written before the
	// idempotency key was a struct hold it here as text, naming the
	// same Composite, Instance, State and FireSeq recovery reads.
	Service string            `json:"svc,omitempty"`
	Key     string            `json:"key,omitempty"`
	Outputs map[string]string `json:"out,omitempty"`

	// Round fields.
	FireSeq  uint64   `json:"fire,omitempty"`
	Consumed []string `json:"cons,omitempty"` // source counters decremented
	Cleared  []string `json:"clr,omitempty"`  // source bags absorbed into base
	SendSeq  uint64   `json:"send,omitempty"` // high-water after stamping Msgs
	Msgs     []OutMsg `json:"msgs,omitempty"`

	// Snapshot/passivate fields (Vars carries the base layer): one entry
	// per source that has anything to remember.
	Sources []SourceState `json:"srcs,omitempty"`

	// Error carries a fault's text (WArrival of a TypeFault, WDone of a
	// failed execution).
	Error string `json:"err,omitempty"`
}

// FsyncMode selects the durability/throughput trade of Append.
type FsyncMode int

const (
	// FsyncAlways syncs after every write: a record returned from Append
	// — and every record staged before it, which the same write carried —
	// survives power loss. The default.
	FsyncAlways FsyncMode = iota
	// FsyncBatch syncs once fsyncBatchRecords records have been written
	// since the last sync (count-based, never timer-based). An OS crash
	// may lose the tail of a batch; a process crash loses nothing (the OS
	// holds the pages).
	FsyncBatch
	// FsyncOff never syncs (tests, CI): a process crash loses nothing,
	// an OS crash may lose anything unsynced.
	FsyncOff
)

// fsyncBatchRecords is FsyncBatch's batch size, in records.
const fsyncBatchRecords = 32

// segmentMaxBytes rotates a shard's segment once it holds this many
// bytes. Tests lower it to rotate after a few records.
var segmentMaxBytes int64 = 4 << 20

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
	// Shards is the number of independent append streams (default 8).
	// Fixed at first Open of a directory: reopening with a different
	// count is an error.
	Shards int
	// Now stamps records (observability only). Defaults to time.Now.
	Now func() time.Time
}

// instKey names one coordinator's side of one execution (state "" is
// the wrapper's side) in compaction's bookkeeping, and, hashed to an
// indexKey, in the passive index. The plan version is part of it:
// instance IDs restart with every version, so v2's i1 is another
// execution than v1's.
type instKey struct {
	composite, state string
	version          uint64
	instance         string
}

func instOf(r *Record) instKey {
	return instKey{r.Composite, r.State, r.Version, r.Instance}
}

// indexKey is an instKey as the passive index and the staged frames hold
// it: its 128-bit hash under the shard's two seeds. Neither holds a
// pointer, so the collector scans no bucket of the index and the index
// pins no instance ID; the strings stay in the records on disk, and
// TakePassive checks the ones it reads back, so a collision fails loudly
// instead of rehydrating another instance. The seeds are made at Open,
// which rebuilds the index by scanning, so no hash outlives its process.
type indexKey [2]uint64

// keyOf hashes k under each of the shard's seeds, writing every string
// after its length so that no two keys write the same bytes.
func (s *shard) keyOf(k instKey) (key indexKey) {
	var n [8]byte
	for i, seed := range s.seeds {
		var h maphash.Hash
		h.SetSeed(seed)
		for _, f := range [...]string{k.composite, k.state, k.instance} {
			binary.LittleEndian.PutUint64(n[:], uint64(len(f)))
			h.Write(n[:])
			h.WriteString(f)
		}
		binary.LittleEndian.PutUint64(n[:], k.version)
		h.Write(n[:])
		key[i] = h.Sum64()
	}
	return key
}

// passiveLoc locates a passivated instance's record on disk: the number
// of its shard's segment and the frame's offset there. Only the location
// lives in RAM — the bag stays in the segment file, which is the entire
// point of passivation — and a number, not the path, keeps an index
// entry (indexKey and passiveLoc) at 32 bytes with no pointer in it; the
// path is rebuilt only to rehydrate (segFile).
type passiveLoc struct {
	seg uint64
	off int64
}

// indexOp is what one record means to the passive index — the one rule
// the write path, Open's scan and Compact share: a passivation record
// parks its instance where the record lies, and a record of any other
// kind means the instance is live again.
type indexOp struct {
	key       indexKey
	passivate bool
}

func (s *shard) opOf(r *Record) indexOp {
	return indexOp{s.keyOf(instOf(r)), r.Kind == KindPassivate}
}

// stagedFrame is one frame of the shard's buffer that no write has
// carried yet: where it starts there, and the index rule to apply once
// its bytes have an offset in a segment.
type stagedFrame struct {
	indexOp
	start int
}

// shard is one independent append stream: a directory of numbered
// segment files plus the slice of the passive index whose keys hash
// here.
type shard struct {
	dir   string
	opts  *Options        // the journal's, immutable after Open
	seeds [2]maphash.Seed // the journal's, made at Open: indexKey's
	// write is (*os.File).Write: the one call through which segment bytes
	// reach the disk, a field so tests can count writes and cut one short.
	write func(*os.File, []byte) (int, error)

	mu       sync.Mutex // lockorder:journal — guards everything below; leaf: taken under engine instance locks, never above any other repo mutex
	seg      *os.File   // open segment (lazily created on first write)
	segNum   uint64     // its number (segFile has the path)
	segSize  int64
	nextSeg  uint64
	unsynced int // records written since the last sync
	// enc.buf holds, in call order, the frames no write has carried yet,
	// and staged has one entry per frame: Stage leaves its frame there,
	// Append adds its own and writes the lot. Both are empty after every
	// successful write and keep their capacity, so neither verb allocates.
	enc    encoder
	staged []stagedFrame
	// Stats' counters.
	appends, writes, syncs, bytes uint64
	// passive maps an instance to the location of its KindPassivate
	// record (the index slice is shard-local because records shard by
	// (composite, instance)). A record is indexed when its bytes are
	// written — the offset, and after a rotation the segment, are only
	// known then — so readers consult staged first (lookup).
	passive map[indexKey]passiveLoc
	// existing are the sealed segment paths, oldest first; appends go to
	// a fresh segment so a torn tail is never appended after.
	existing []string
	// closed is set by Journal.Close and Abandon: the shard then refuses
	// every operation (ErrClosed) instead of silently rotating a fresh
	// segment into a directory someone else may already have reopened.
	closed bool
}

// ErrClosed reports use of a journal after Close or Abandon.
var ErrClosed = errors.New("journal: closed")

// Journal is an open journal directory. Safe for concurrent use.
type Journal struct {
	opts   Options
	shards []*shard
}

// Stats are the journal's running counters. Appends over Writes is the
// records one write(2) carries on average.
type Stats struct {
	Appends  uint64 // records accepted this process, by Append or Stage
	Writes   uint64 // write(2) calls that put them on the fd
	Syncs    uint64 // fsyncs issued
	Bytes    uint64 // bytes of those records' frames
	Passive  int    // instances currently passivated (staged passivations included)
	Segments int    // segment files on disk
}

// Open opens (creating if needed) the journal at opts.Dir, scans every
// existing segment to rebuild the passive index, and repairs a torn
// tail (a crash mid-append) by truncating the last segment of each
// shard to its last whole record. Corruption anywhere BUT a last
// segment's tail is an error — that is real damage, not a crash
// artifact — and a segment in another format is an ErrFormat, left
// untouched.
func Open(opts Options) (*Journal, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("journal: empty directory")
	}
	if opts.Fsync < FsyncAlways || opts.Fsync > FsyncOff {
		return nil, fmt.Errorf("journal: bad fsync mode %d", int(opts.Fsync))
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
	seeds := [2]maphash.Seed{maphash.MakeSeed(), maphash.MakeSeed()}
	for i := range j.shards {
		s := &shard{
			dir:     filepath.Join(opts.Dir, fmt.Sprintf("shard-%02d", i)),
			opts:    &j.opts,
			seeds:   seeds,
			write:   (*os.File).Write,
			passive: map[indexKey]passiveLoc{},
		}
		if err := os.MkdirAll(s.dir, 0o755); err != nil {
			return nil, fmt.Errorf("journal: %w", err)
		}
		s.mu.Lock()
		err := s.scan()
		s.mu.Unlock()
		if err != nil {
			return nil, err
		}
		j.shards[i] = s
	}
	return j, nil
}

// Dir returns the journal directory.
func (j *Journal) Dir() string { return j.opts.Dir }

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

// maxKeptBuf bounds what a shard's frame buffer holds and keeps: a Stage
// that would leave more than this staged writes the backlog out itself,
// and a buffer one oversized record grew past it is let go once it has
// been written, not pinned for the life of the shard.
const maxKeptBuf = 1 << 20

// Append writes r — and, ahead of it in the same single write, every
// frame staged in its shard — and returns when it is committed: on the
// fd, and synced per the fsync mode. The caller's instance lock orders
// the records of one instance; the shard mutex orders the file.
//
// If the write fails, r's own frame is cut back and the error is the
// caller's; the frames staged before it belong to other callers, who
// have been told nothing, so they stay staged for the next write to
// carry.
func (j *Journal) Append(r *Record) error { return j.put(r, true) }

// Stage encodes r into its shard's buffer, after the frames already
// staged and before whatever the shard is handed next, and returns: r
// reaches the fd with the shard's next Append, in the same write. It is
// for a record no effect waits on (the package comment has the rule). A
// staged passivation record is visible to IsPassive and TakePassive at
// once. The backlog is bounded: the Stage that takes it past maxKeptBuf
// writes it out as an Append would, and fails as an Append would.
func (j *Journal) Stage(r *Record) error { return j.put(r, false) }

func (j *Journal) put(r *Record, through bool) error {
	r.Time = j.opts.Now().UnixNano()
	s := j.shardFor(r.Composite, r.Instance)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	start := len(s.enc.buf)
	if err := s.enc.frame(r); err != nil {
		s.trimBuf()
		return err
	}
	s.staged = append(s.staged, stagedFrame{s.opOf(r), start})
	size := len(s.enc.buf) - start
	var syncErr error
	if through || len(s.enc.buf) > maxKeptBuf {
		if err := s.writeStaged(); err != nil {
			// r's frame goes; the frames staged before it stay.
			s.staged = s.staged[:len(s.staged)-1]
			s.enc.buf = s.enc.buf[:start]
			s.trimBuf()
			return err
		}
		syncErr = s.syncDue()
	}
	s.appends++
	s.bytes += uint64(size)
	return syncErr
}

// trimBuf lets an oversized frame buffer go as soon as what it holds
// fits a buffer worth keeping. Caller holds s.mu.
func (s *shard) trimBuf() {
	if cap(s.enc.buf) > maxKeptBuf && len(s.enc.buf) <= maxKeptBuf {
		s.enc.buf = append([]byte(nil), s.enc.buf...)
	}
}

// writeStaged hands every staged frame to the open segment in one write
// and files each under the offset it landed on. After an error nothing
// of the batch is on the fd (writeFrame's cut) and all of it is still
// staged. Caller holds s.mu.
func (s *shard) writeStaged() error {
	if len(s.staged) == 0 {
		return nil
	}
	base, err := s.writeFrame(s.enc.buf)
	if err != nil {
		return err
	}
	for i := range s.staged {
		f := &s.staged[i]
		s.index(f.indexOp, s.segNum, base+int64(f.start))
	}
	s.writes++
	s.unsynced += len(s.staged)
	s.staged = s.staged[:0]
	s.enc.buf = s.enc.buf[:0]
	s.trimBuf()
	return nil
}

// syncDue fsyncs the open segment if the mode says the records written
// since the last sync are due one. Caller holds s.mu.
func (s *shard) syncDue() error {
	if s.unsynced == 0 || s.opts.Fsync == FsyncOff || (s.opts.Fsync == FsyncBatch && s.unsynced < fsyncBatchRecords) {
		return nil
	}
	if err := s.seg.Sync(); err != nil {
		return fmt.Errorf("journal: sync: %w", err)
	}
	s.unsynced = 0
	s.syncs++
	return nil
}

// flush commits whatever is staged — what every operation that reads the
// files, or ends them, does first. Caller holds s.mu.
func (s *shard) flush() error {
	if err := s.writeStaged(); err != nil {
		return err
	}
	return s.syncDue()
}

// index applies one record's rule at (segment seg, off) to the passive
// index. Caller holds s.mu.
func (s *shard) index(op indexOp, seg uint64, off int64) {
	if op.passivate {
		s.passive[op.key] = passiveLoc{seg: seg, off: off}
	} else {
		delete(s.passive, op.key)
	}
}

// lookup reports whether key is passivated right now — the last frame
// staged for it decides, the index when there is none — and whether the
// record that says so is still staged. Caller holds s.mu.
func (s *shard) lookup(key indexKey) (passive, staged bool) {
	for i := len(s.staged) - 1; i >= 0; i-- {
		if f := &s.staged[i]; f.key == key {
			return f.passivate, true
		}
	}
	_, passive = s.passive[key]
	return passive, false
}

// TakePassive removes an instance from the passive index and returns
// its passivation record — the rehydration path. ok is false when the
// instance is not passivated here. A record that is still staged is
// written first (it is read back from its segment); nothing is written
// for an instance that is not passive, so a miss — every new instance's
// first frame — costs no write. A record read back that is not this
// instance's passivation (two keys sharing a hash) is an error, and the
// index entry stays where it is.
func (j *Journal) TakePassive(composite, state string, version uint64, instance string) (*Record, bool, error) {
	s := j.shardFor(composite, instance)
	want := instKey{composite, state, version, instance}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, false, ErrClosed
	}
	key := s.keyOf(want)
	passive, staged := s.lookup(key)
	if !passive {
		return nil, false, nil
	}
	if staged {
		if err := s.flush(); err != nil {
			return nil, false, fmt.Errorf("journal: rehydrate %s/%s/%s: %w", composite, state, instance, err)
		}
	}
	loc := s.passive[key]
	r, err := readRecordAt(s.segFile(loc.seg), loc.off)
	if err != nil {
		return nil, false, fmt.Errorf("journal: rehydrate %s/%s/%s: %w", composite, state, instance, err)
	}
	if r.Kind != KindPassivate || instOf(r) != want {
		return nil, false, fmt.Errorf("journal: rehydrate %s/%s/%s v%d: the passive index points at a %s record of %s/%s/%s v%d",
			composite, state, instance, version, r.Kind, r.Composite, r.State, r.Instance, r.Version)
	}
	delete(s.passive, key)
	return r, true, nil
}

// IsPassive reports whether the instance is currently passivated.
func (j *Journal) IsPassive(composite, state string, version uint64, instance string) (bool, error) {
	s := j.shardFor(composite, instance)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false, ErrClosed
	}
	passive, _ := s.lookup(s.keyOf(instKey{composite, state, version, instance}))
	return passive, nil
}

// Replay streams every record the journal has been handed, staged ones
// included (they are written first), shard by shard, in append order
// within each shard, stopping early if fn errors. Concurrent appends are
// excluded per shard (recovery runs before traffic anyway).
func (j *Journal) Replay(fn func(*Record) error) error {
	return j.eachShard(func(s *shard) error {
		return s.replay(func(_ int64, r *Record, _ []byte) error { return fn(r) })
	})
}

// eachShard runs fn on every shard in turn, under its mutex and with
// nothing staged, and stops at the first error; a closed shard's is
// ErrClosed.
func (j *Journal) eachShard(fn func(*shard) error) error {
	for _, s := range j.shards {
		s.mu.Lock()
		err := ErrClosed
		if !s.closed {
			if err = s.flush(); err == nil {
				err = fn(s)
			}
		}
		s.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// Stats returns the running counters.
func (j *Journal) Stats() Stats {
	var st Stats
	for _, s := range j.shards {
		s.mu.Lock()
		st.Appends += s.appends
		st.Writes += s.writes
		st.Syncs += s.syncs
		st.Bytes += s.bytes
		st.Passive += len(s.passive)
		for i := range s.staged {
			if s.staged[i].passivate {
				st.Passive++
			}
		}
		st.Segments += len(s.existing)
		if s.seg != nil {
			st.Segments++
		}
		s.mu.Unlock()
	}
	return st
}

// Close writes what is staged, syncs and closes every open segment.
// Afterwards every operation but Stats fails with ErrClosed.
func (j *Journal) Close() error {
	var first error
	for _, s := range j.shards {
		s.mu.Lock()
		err := s.flush() // nothing to do on a second Close: end left nothing staged
		if cerr := s.end(); err == nil {
			err = cerr
		}
		s.mu.Unlock()
		if first == nil {
			first = err
		}
	}
	return first
}

// Abandon is Close as a killed process performs it: staged frames are
// dropped, not written, and the segments are closed without a sync, so
// the directory holds exactly what had reached the fd — what a SIGKILL
// at this instant would have left. The crash-recovery suites end a life
// with it (core.Platform.Crash).
func (j *Journal) Abandon() {
	for _, s := range j.shards {
		s.mu.Lock()
		s.unsynced = 0 // seal syncs nothing
		_ = s.end()    // a kill has nobody to report a failed close(2) to
		s.mu.Unlock()
	}
}

// end marks the shard closed, forgets whatever is still staged and seals
// the open segment. Caller holds s.mu.
func (s *shard) end() error {
	s.closed = true
	s.enc, s.staged = encoder{}, nil
	return s.seal()
}

// writeFrame appends whole frames — the staged batch, or one frame
// Compact keeps — to the shard's open segment in a single write,
// rotating first when the segment is full, and returns the offset of
// the first in the (possibly fresh) segment. Caller holds s.mu.
func (s *shard) writeFrame(frame []byte) (int64, error) {
	if s.seg == nil || s.segSize >= segmentMaxBytes {
		if err := s.rotate(); err != nil {
			return 0, err
		}
	}
	off := s.segSize
	n, err := s.write(s.seg, frame)
	if err == nil && n < len(frame) {
		err = io.ErrShortWrite
	}
	if err != nil {
		// Part of the write may be on disk. Later records must land where
		// the passive index says and a reopen must not meet stray bytes
		// mid-file, so cut the segment back to the write's start (the
		// segment is opened O_APPEND: the next write lands there). If even
		// that fails, seal the segment: appends carry on in a fresh one,
		// and the next Open reports the sealed one's tail as the damage
		// it is.
		if terr := s.seg.Truncate(off); terr != nil {
			_ = s.seal() // the truncate error already says the file is bad
		}
		return 0, fmt.Errorf("journal: append to %s: %w", s.segFile(s.segNum), err)
	}
	s.segSize += int64(len(frame))
	return off, nil
}

// seal syncs (per the fsync mode) and closes the open segment, if any,
// and files it with the finished ones. The segment is closed even when
// the sync fails, so a shard is never stuck on a bad file. Caller holds
// s.mu.
func (s *shard) seal() error {
	if s.seg == nil {
		return nil
	}
	var err error
	if s.unsynced > 0 && s.opts.Fsync != FsyncOff {
		err = s.seg.Sync()
	}
	if cerr := s.seg.Close(); err == nil {
		err = cerr
	}
	s.unsynced = 0
	s.existing = append(s.existing, s.segFile(s.segNum))
	s.seg = nil
	return err
}

// rotate seals the open segment (if any) and starts the next one with
// its format header. Caller holds s.mu.
func (s *shard) rotate() error {
	if err := s.seal(); err != nil {
		return fmt.Errorf("journal: rotate: %w", err)
	}
	n := s.nextSeg
	path := s.segFile(n)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("journal: rotate: %w", err)
	}
	s.nextSeg++
	if n, err := s.write(f, []byte(segHeader)); err != nil || n < len(segHeader) {
		// A segment without its header must not stay behind as a
		// non-tail file; both calls are best effort on a file that just
		// failed a write.
		_ = f.Close()
		_ = os.Remove(path)
		if err == nil {
			err = io.ErrShortWrite
		}
		return fmt.Errorf("journal: rotate: write header of %s: %w", path, err)
	}
	s.seg = f
	s.segNum = n
	s.segSize = int64(len(segHeader))
	return nil
}

// segFile is the path of the shard's segment number n.
func (s *shard) segFile(n uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("seg-%08d.wal", n))
}

// segments lists dir's segment files oldest first: names are
// zero-padded, so the lexical order is the numeric one.
func segments(dir string) ([]string, error) {
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	sort.Strings(segs)
	return segs, err
}

// scan walks the shard's existing segments oldest-first: validates
// frames, rebuilds the passive index, truncates a torn tail on the LAST
// segment (crash artifact), and errors on damage anywhere else. Appends
// after scan go to a fresh segment. Caller holds s.mu.
func (s *shard) scan() error {
	segs, err := segments(s.dir)
	if err != nil {
		return fmt.Errorf("journal: scan: %w", err)
	}
	s.existing = segs
	for i, path := range segs {
		// The index files a record under its segment's number, and
		// nextSeg must clear the highest number seen.
		var n uint64
		if _, err := fmt.Sscanf(filepath.Base(path), "seg-%d.wal", &n); err != nil || s.segFile(n) != path {
			return fmt.Errorf("journal: segment %s: not a segment name the journal writes", path)
		}
		if n >= s.nextSeg {
			s.nextSeg = n + 1
		}
		validLen, err := walkSegment(path, func(off int64, r *Record, _ []byte) error {
			s.index(s.opOf(r), n, off)
			return nil
		})
		switch {
		case err == nil:
		case !errors.Is(err, ErrCorrupt):
			// Another format, or an I/O error: nothing a truncation fixes.
			return fmt.Errorf("journal: segment %s: %w", path, err)
		case i < len(segs)-1:
			return fmt.Errorf("journal: segment %s: %w (not the shard tail — real corruption, not a torn append)", path, err)
		default:
			// Torn tail from a crash mid-append: repair by truncating to
			// the last whole record so later scans see a clean file.
			if terr := os.Truncate(path, validLen); terr != nil {
				return fmt.Errorf("journal: truncate torn tail of %s: %w", path, terr)
			}
		}
	}
	return nil
}

// replay streams the shard's records in order. The open (currently
// appended) segment is read via its path — the write fd's offset is
// untouched. Caller holds s.mu.
func (s *shard) replay(fn func(off int64, r *Record, frame []byte) error) error {
	segs := append([]string(nil), s.existing...)
	if s.seg != nil {
		segs = append(segs, s.segFile(s.segNum))
	}
	for _, path := range segs {
		if _, err := walkSegment(path, fn); err != nil {
			return fmt.Errorf("journal: replay %s: %w", path, err)
		}
	}
	return nil
}

// compact rewrites the shard (see Journal.Compact). Caller holds s.mu.
func (s *shard) compact() error {
	// Pass 1: find finished instances and each key's newest snapshot
	// position (counting records per key so pass 2 can cut precisely).
	type cursor struct {
		n        int // records seen for this key
		snapshot int // 1-based index of the newest snapshot/passivate; 0 = none
	}
	done := map[instKey]bool{} // finished executions, state left empty
	cursors := map[instKey]*cursor{}
	err := s.replay(func(_ int64, r *Record, _ []byte) error {
		if r.Kind == KindWDone {
			done[instKey{r.Composite, "", r.Version, r.Instance}] = true
		}
		key := instOf(r)
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
	})
	if err != nil {
		return err
	}

	// Pass 2: stream the keepers' frames, as they are, into fresh
	// segments. The old segments are removed only after the new ones are
	// synced, so a crash during compaction leaves either the old history
	// or the new — never neither. (A crash in between can leave BOTH; the
	// keepers replay twice, which recovery tolerates: arrivals dedup,
	// rounds re-apply onto snapshots idempotently.)
	if err := s.seal(); err != nil {
		return fmt.Errorf("journal: compact: %w", err)
	}
	old := s.existing
	s.existing = nil
	s.passive = map[indexKey]passiveLoc{}
	seen := map[instKey]int{}
	keep := func(_ int64, r *Record, frame []byte) error {
		if done[instKey{r.Composite, "", r.Version, r.Instance}] {
			return nil
		}
		key := instOf(r)
		seen[key]++
		if c := cursors[key]; c.snapshot != 0 && seen[key] < c.snapshot {
			return nil
		}
		off, err := s.writeFrame(frame)
		if err != nil {
			return err
		}
		s.index(s.opOf(r), s.segNum, off)
		return nil
	}
	for _, path := range old {
		if _, err := walkSegment(path, keep); err != nil {
			return fmt.Errorf("journal: compact %s: %w", path, err)
		}
	}
	if s.seg != nil && s.opts.Fsync != FsyncOff {
		if err := s.seg.Sync(); err != nil {
			return fmt.Errorf("journal: compact: %w", err)
		}
	}
	for _, path := range old {
		if err := os.Remove(path); err != nil {
			return fmt.Errorf("journal: compact: %w", err)
		}
	}
	return nil
}

// walkSegment streams a segment's records to fn: each one's offset, its
// decoded form and its whole frame. It returns the byte length of the
// valid prefix. A non-nil error is fn's, an I/O error, ErrFormat (the
// file does not begin with the segment header) or ErrCorrupt (the first
// bad frame: short, CRC mismatch, undecodable). A file of no bytes at
// all is a segment whose header write never happened and holds nothing.
func walkSegment(path string, fn func(off int64, r *Record, frame []byte) error) (int64, error) {
	data, err := os.ReadFile(path)
	if err != nil || len(data) == 0 {
		return 0, err
	}
	if len(data) < len(segHeader) {
		return 0, fmt.Errorf("%w: torn segment header (%d bytes)", ErrCorrupt, len(data))
	}
	if string(data[:len(segHeader)]) != segHeader {
		return 0, fmt.Errorf("%w: %s begins %q, want %q", ErrFormat, path, data[:len(segHeader)], segHeader)
	}
	off := len(segHeader)
	for off < len(data) {
		r, n, err := decodeFrame(data[off:])
		if err != nil {
			return int64(off), fmt.Errorf("%w (frame at offset %d)", err, off)
		}
		if err := fn(int64(off), r, data[off:off+n]); err != nil {
			return int64(off), err
		}
		off += n
	}
	return int64(off), nil
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
	n := binary.LittleEndian.Uint32(hdr[0:4])
	if n > maxRecordBytes {
		return nil, fmt.Errorf("%w: bad frame length %d at offset %d", ErrCorrupt, n, off)
	}
	frame := make([]byte, frameHeader+int(n))
	copy(frame, hdr[:])
	if _, err := f.ReadAt(frame[frameHeader:], off+frameHeader); err != nil {
		return nil, err
	}
	r, _, err := decodeFrame(frame)
	return r, err
}

// ErrTornTail is Walk's report of bad bytes at the end of a shard's last
// segment: a crash mid-append (or an append in flight in a process that
// has the directory open), which the next Open repairs by truncation.
var ErrTornTail = errors.New("journal: torn tail")

// Entry is one record as Walk found it on disk.
type Entry struct {
	Shard   int     `json:"shard"`
	Segment string  `json:"segment"` // file name within the shard directory
	Offset  int64   `json:"offset"`  // of the record's frame in the segment
	Record  *Record `json:"record"`
}

// Walk streams every record under the journal directory dir to fn, shard
// by shard in append order, without opening the journal: it takes no
// lock, builds no index and repairs nothing, so it is safe on a
// directory a running process owns. A torn tail does not stop the walk;
// it is reported once every shard has been read, as an ErrTornTail.
// Anything else — fn's error, damage before a tail, a segment in
// another format — ends it at once.
func Walk(dir string, fn func(Entry) error) error {
	if _, err := os.Stat(dir); err != nil { // Glob would report a missing directory as an empty journal
		return fmt.Errorf("journal: walk: %w", err)
	}
	shards, err := filepath.Glob(filepath.Join(dir, "shard-*"))
	if err != nil {
		return fmt.Errorf("journal: walk: %w", err)
	}
	sort.Strings(shards)
	var torn error
	for _, sdir := range shards {
		var e Entry
		if _, err := fmt.Sscanf(filepath.Base(sdir), "shard-%d", &e.Shard); err != nil {
			return fmt.Errorf("journal: walk %s: %w", sdir, err)
		}
		segs, err := segments(sdir)
		if err != nil {
			return fmt.Errorf("journal: walk: %w", err)
		}
		for i, path := range segs {
			e.Segment = filepath.Base(path)
			_, err := walkSegment(path, func(off int64, r *Record, _ []byte) error {
				e.Offset, e.Record = off, r
				return fn(e)
			})
			if errors.Is(err, ErrCorrupt) && i == len(segs)-1 {
				torn = errors.Join(torn, fmt.Errorf("%w: %s: %w", ErrTornTail, path, err))
			} else if err != nil {
				return fmt.Errorf("journal: walk %s: %w", path, err)
			}
		}
	}
	return torn
}

// String renders the stats for a log line.
func (st Stats) String() string {
	return fmt.Sprintf("appends=%d writes=%d syncs=%d bytes=%d passive=%d segments=%d",
		st.Appends, st.Writes, st.Syncs, st.Bytes, st.Passive, st.Segments)
}
