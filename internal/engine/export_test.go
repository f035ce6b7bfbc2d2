package engine

import (
	"encoding/json"
	"fmt"

	"selfserv/internal/journal"
	"selfserv/internal/message"
	"selfserv/internal/routing"
)

// KernelSnapshots renders the kernel snapshot (marking.snapshot: counts,
// per-source bags, base layer, dedup marks, fire/send sequence numbers)
// of every in-RAM instance of the given hosts and wrappers, keyed
// "composite/state/v<version>/instance" with state "$wrapper" for
// wrapper executions. The values are the snapshot records as JSON — a
// deep copy, so they stay comparable after the fabric they came from
// keeps running or is torn down.
func KernelSnapshots(hosts []*Host, wrappers []*Wrapper) map[string]string {
	out := map[string]string{}
	render := func(r *journal.Record) {
		buf, err := json.Marshal(r)
		if err != nil {
			panic(err) // a Record of strings and numbers always marshals
		}
		out[fmt.Sprintf("%s/%s/v%d/%s", r.Composite, r.State, r.Version, r.Instance)] = string(buf)
	}
	for _, h := range hosts {
		h.mu.RLock()
		for _, c := range h.coords {
			c.instances.forEach(func(id string, inst *coordInstance) {
				inst.mu.Lock()
				render(c.snapshotLocked(journal.KindSnapshot, id, inst))
				inst.mu.Unlock()
			})
		}
		h.mu.RUnlock()
	}
	for _, w := range wrappers {
		names := map[int]string{}
		for _, clause := range w.compiled.Plan.Finish {
			for _, src := range clause.Sources {
				if idx, ok := w.compiled.FinishSourceIndex(src); ok {
					names[idx] = src
				}
			}
		}
		w.instances.forEach(func(id string, inst *wrapperInstance) {
			r := newRecord(journal.KindSnapshot, w.composite, message.WrapperID, id, w.version)
			inst.mu.Lock()
			inst.mk.snapshot(r, func(i int) string { return names[i] })
			render(r)
			inst.mu.Unlock()
		})
	}
	return out
}

// InstallTable does to a declarative table what every deploy path does:
// compile it (routing.Compile for a whole chart, hostapi on receipt of a
// pushed document), then hand the host the compiled form. A table that
// does not compile never reaches the host.
func InstallTable(h *Host, composite string, table *routing.Table) error {
	compiled, err := routing.CompileTable(table)
	if err != nil {
		return err
	}
	return h.InstallCompiled(composite, compiled)
}

// MessageType is the type origin.message gives a message from peer from
// to peer to — what Recover's redelivery puts on the wire.
func MessageType(from, to string) message.Type {
	var m message.Message
	(&origin{from: from}).message(&m, "", to, 0, nil)
	return m.Type
}

// MaxIdleWorkers is the per-host bound on parked firing workers.
const MaxIdleWorkers = maxIdleWorkers

// WorkerStats reports how many firing workers h has started and how many
// are parked right now.
func WorkerStats(h *Host) (spawned uint64, idle int) {
	return h.workers.spawned.Load(), int(h.workers.idle.Load())
}

// TableStats reports, over every coordinator of h, how many instances are
// seated and how many slots the widest stripe's eviction ring has.
func TableStats(h *Host) (seated, ringCap int) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	for _, c := range h.coords {
		for i := range c.instances.shards {
			s := &c.instances.shards[i]
			s.mu.Lock()
			seated += len(s.m)
			ringCap = max(ringCap, len(s.order))
			s.mu.Unlock()
		}
	}
	return seated, ringCap
}
