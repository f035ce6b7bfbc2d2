package engine

import (
	"context"
	"sync"
	"sync/atomic"

	"selfserv/internal/journal"
)

// This file is the firing hand-off (docs/engine.md, "Firing hand-off"):
// how a clause that maybeFireLocked matched gets a goroutine to run on.
// A firing's deepest frames — bindInputs' map, the outbox flush into the
// transport send path, the journal encoder — overflow a fresh goroutine's
// 2 KiB stack, so spawning one per firing paid a stack copy (and a
// newproc) on every hop. Firings run on workers instead: goroutines that
// have fired before, whose stacks are already grown, and that park on an
// unbuffered channel between firings.
//
// There is no queue. A firing is handed to a worker that is parked right
// now, or a new worker is started for it: it never waits behind another
// firing or a provider still executing, and the dispatching goroutine —
// a receive lane holding inst.mu — never blocks.

// maxIdleWorkers bounds how many workers stay parked per host between
// firings; a worker that finishes while that many are parked exits.
// Eight covers the widest burst the paper's shapes produce on one host
// (an 8-way AND-split delivered back to back by one lane).
const maxIdleWorkers = 8

// firing is one matched clause on its way to a worker, by value: the
// arguments of coordinator.fire.
type firing struct {
	c        *coordinator
	ctx      context.Context
	instance string
	inst     *coordInstance
	fireSeq  uint64
	vars     map[string]string
	consumed []string
}

// roundScratch backs the two slices of the round record a firing
// journals — the outbound messages and the names of the absorbed sources
// — for rounds of up to four of each (every shipped shape; a wider round
// grows onto the heap as any append does). A worker of a journaling host
// owns one for life, so a round record allocates nothing; finish zeroes
// it once the journal has encoded the record. A stack array would not
// do: the journal keeps a record's key strings in its passive index, so
// escape analysis moves whatever a Record points at to the heap.
type roundScratch struct {
	msgs    [4]journal.OutMsg
	cleared [inlineSources]string
}

// fireWorkers is a host's set of firing workers. Its bookkeeping is
// atomic, not mutex-guarded: a worker descheduled inside a critical
// section would hold every other worker out of its park, and each firing
// arriving meanwhile would start a goroutine.
type fireWorkers struct {
	jobs chan firing   // unbuffered: a send succeeds only into a parked worker
	quit chan struct{} // closed by close: parked workers exit
	// spawned counts workers started because no worker was parked — off
	// the steady-state path, where every firing finds one.
	spawned atomic.Uint64
	idle    atomic.Int32 // workers parked, or on their way into or out of a park
	closed  atomic.Bool
	// parked is read-held by every parked worker, so that close can wait
	// for them by taking the write lock once (a WaitGroup would not do:
	// workers keep arriving while close waits).
	parked sync.RWMutex
}

func newFireWorkers() *fireWorkers {
	return &fireWorkers{jobs: make(chan firing), quit: make(chan struct{})}
}

// dispatch starts f: on a parked worker if one is receiving at this
// instant, else on a new one. It never blocks — callers hold inst.mu.
func (w *fireWorkers) dispatch(f firing) {
	select {
	case w.jobs <- f:
	default:
		w.spawned.Add(1)
		go w.work(f)
	}
}

// work runs f, then every firing handed to this worker while it is
// parked, until the idle bound or close turns it away.
func (w *fireWorkers) work(f firing) {
	var scratch *roundScratch // nil on a host with no journal, which w's one host has or has not for good
	if f.c.host.opts.Journal != nil {
		scratch = new(roundScratch)
	}
	for {
		f.c.fire(f.ctx, f.instance, f.inst, f.fireSeq, f.vars, f.consumed, scratch)
		f = firing{} // a parked worker pins no instance's bag (finish has zeroed scratch)
		if !w.park() {
			return
		}
		select {
		case f = <-w.jobs:
			w.unpark()
		case <-w.quit:
			w.unpark()
			return
		}
	}
}

// park reports whether the calling worker may wait for another firing.
func (w *fireWorkers) park() bool {
	if w.idle.Add(1) > maxIdleWorkers {
		w.idle.Add(-1)
		return false
	}
	w.parked.RLock()
	if w.closed.Load() {
		w.unpark()
		return false
	}
	return true
}

func (w *fireWorkers) unpark() {
	w.parked.RUnlock()
	w.idle.Add(-1)
}

// close retires the parked workers and returns once each has left its
// park. A worker still firing — its provider may be blocked — is not
// waited for: it exits when its firing ends, as a firing in flight at
// Close always has.
func (w *fireWorkers) close() {
	if w.closed.CompareAndSwap(false, true) {
		close(w.quit)
	}
	// Every worker parked before closed was set holds the read lock until
	// quit wakes it; one that arrives later sees closed and lets go.
	w.parked.Lock()
	w.parked.Unlock()
}
