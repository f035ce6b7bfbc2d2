package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"selfserv/internal/core"
	"selfserv/internal/expr"
	"selfserv/internal/message"
	"selfserv/internal/service"
	"selfserv/internal/transport"
)

// The tracer records spans from OUTSIDE the program, at its public
// interfaces: a transport.Network decorator sees every Send and every
// handler entry, a service.Provider decorator sees every invocation, and
// the load loop's Execute call is the root. Nothing inside the program is
// touched (spans inside it are a later change).
//
// Span kinds and their causes:
//
//	execute  one Composite.Execute call (root; trace id = instance id)
//	send     one message handed to Send/SendBatch; parent = the handle (or
//	         execute) span whose context the engine passed down
//	transit  send entry → destination handler entry; derived after the run
//	handle   one coordinator (or wrapper) round: transport handler entry
//	         until the round's last invoke/send returns — the engine
//	         finishes a round on its own goroutine after the transport
//	         handler has returned; parent = the send that delivered it
//	invoke   one provider call; nests in the handle span that fired it
//
// Causality across goroutines rides the context.Context the engine
// already threads from handler to provider to sender; causality across the
// wire is rejoined after the run by (instance, from, to), which is unique
// per execution in every workload here (no loops).
type spanKind uint8

const (
	spanExecute spanKind = iota
	spanSend
	spanTransit
	spanHandle
	spanInvoke
)

var spanKindNames = [...]string{"execute", "send", "transit", "handle", "invoke"}

// span is one record in the pre-sized buffer. It holds no pointers, so a
// million of them cost the collector nothing.
type span struct {
	start, end int64  // nanoseconds since the tracer's epoch
	inst       uint64 // hash of the instance ID (filled in afterwards for execute/invoke)
	parent     int32  // index of the causing span, -1 for none
	kind       spanKind
	frame      bool   // send: first message of its wire frame
	from, to   uint16 // interned peer names (send, handle) / service (invoke, in to)
}

type tracer struct {
	epoch time.Time
	seed  maphash.Seed
	spans []span
	next  atomic.Int64 // slots asked for; beyond len(spans) they were dropped
	done  atomic.Int64 // recorded spans ended; analysis waits for all of them

	// names interns peer and service names; read-only once intern has run.
	names    map[string]uint16
	nameList []string

	funcCalls atomic.Int64

	instMu    sync.Mutex
	instNames map[uint64]string // hash → instance ID, for -trace-out
}

func newTracer() *tracer {
	return &tracer{
		epoch:     time.Now(),
		seed:      maphash.MakeSeed(),
		names:     map[string]uint16{"?": 0},
		nameList:  []string{"?"},
		instNames: map[uint64]string{},
	}
}

type spanCtxKey struct{}

// parentOf returns the span the engine's context says caused this call.
func parentOf(ctx context.Context) int32 {
	if id, ok := ctx.Value(spanCtxKey{}).(int32); ok {
		return id
	}
	return -1
}

// intern registers every peer and service name of the deployed plan, so
// the hot path resolves names with one read-only map lookup.
func (t *tracer) intern(comp *core.Composite) {
	add := func(name string) {
		if _, ok := t.names[name]; !ok {
			t.names[name] = uint16(len(t.nameList))
			t.nameList = append(t.nameList, name)
		}
	}
	add(message.WrapperID)
	for id, tbl := range comp.Plan().Tables {
		add(id)
		add(tbl.Service)
	}
}

// reset drops everything recorded so far (set-up and warm-up) and sizes
// the buffer for about execs executions. Call only while nothing is in
// flight.
func (t *tracer) reset(execs int) {
	const spansPerExecBound = 96
	t.spans = make([]span, execs*spansPerExecBound+4096)
	t.next.Store(0)
	t.done.Store(0)
	t.funcCalls.Store(0)
	t.instMu.Lock()
	t.instNames = map[uint64]string{}
	t.instMu.Unlock()
}

// full reports that the buffer is nearly used up; the traced round stops
// early instead of dropping spans.
func (t *tracer) full() bool {
	return t.next.Load() > int64(len(t.spans))*9/10
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// hashInstance folds an instance ID into the pointer-free trace
// identifier spans carry.
func (t *tracer) hashInstance(id string) uint64 { return maphash.String(t.seed, id) }

// begin claims a slot and stamps the span's start; -1 when the buffer is
// full (or not sized yet: set-up traffic before the first reset).
func (t *tracer) begin(kind spanKind, inst uint64, from, to string, parent int32) int32 {
	i := t.next.Add(1) - 1
	if i >= int64(len(t.spans)) {
		return -1
	}
	s := &t.spans[i]
	*s = span{inst: inst, parent: parent, kind: kind, from: t.names[from], to: t.names[to]}
	s.start = t.now()
	return int32(i)
}

func (t *tracer) end(i int32) {
	if i < 0 {
		return
	}
	t.spans[i].end = t.now()
	t.done.Add(1)
}

// wrapExecutor opens an execute span around every Execute call and hands
// its id down in the context, where the wrapper's start sends find it.
func (t *tracer) wrapExecutor(inner executor) executor { return &tracedExecutor{inner, t} }

type tracedExecutor struct {
	inner executor
	t     *tracer
}

func (e *tracedExecutor) Execute(ctx context.Context, inputs map[string]string) (map[string]string, error) {
	id := e.t.begin(spanExecute, 0, "", "", -1)
	out, err := e.inner.Execute(context.WithValue(ctx, spanCtxKey{}, id), inputs)
	e.t.end(id)
	return out, err
}

// wrapNetwork decorates inner so every Listen handler, every Opened
// Sender and the network's own Send/SendBatch record spans. Everything
// else (MintAddr, Stats, Close) passes through.
func (t *tracer) wrapNetwork(inner transport.Network) transport.Network {
	rec, _ := inner.(transport.AvailabilityRecorder)
	return &tracedNet{Network: inner, rec: rec, t: t}
}

type tracedNet struct {
	transport.Network
	rec transport.AvailabilityRecorder // inner's, nil when it has none
	t   *tracer
}

func (n *tracedNet) Listen(addr string, h transport.Handler) (transport.Endpoint, error) {
	t := n.t
	return n.Network.Listen(addr, func(ctx context.Context, m *message.Message) {
		id := t.begin(spanHandle, t.hashInstance(m.Instance), m.From, m.To, -1)
		h(context.WithValue(ctx, spanCtxKey{}, id), m)
		t.end(id)
	})
}

func (n *tracedNet) Open(from string) transport.Sender {
	return &tracedSender{Sender: n.Network.Open(from), t: n.t}
}

func (n *tracedNet) Send(ctx context.Context, to string, m *message.Message) error {
	id := n.t.beginSend(ctx, m, true)
	err := n.Network.Send(ctx, to, m)
	n.t.end(id)
	return err
}

func (n *tracedNet) SendBatch(ctx context.Context, to string, ms []*message.Message) error {
	ids := n.t.beginBatch(ctx, ms)
	err := n.Network.SendBatch(ctx, to, ms)
	n.t.endBatch(ids)
	return err
}

// The engine discovers AvailabilityRecorder by type assertion on the
// network it was given; forward so wrapping does not switch it off.
func (n *tracedNet) RecordFailover(addr string) {
	if n.rec != nil {
		n.rec.RecordFailover(addr)
	}
}

func (n *tracedNet) RecordShed(addr string) {
	if n.rec != nil {
		n.rec.RecordShed(addr)
	}
}

func (n *tracedNet) RecordBreakerOpen(addr string) {
	if n.rec != nil {
		n.rec.RecordBreakerOpen(addr)
	}
}

type tracedSender struct {
	transport.Sender
	t *tracer
}

func (s *tracedSender) Send(ctx context.Context, to string, m *message.Message) error {
	id := s.t.beginSend(ctx, m, true)
	err := s.Sender.Send(ctx, to, m)
	s.t.end(id)
	return err
}

func (s *tracedSender) SendBatch(ctx context.Context, to string, ms []*message.Message) error {
	ids := s.t.beginBatch(ctx, ms)
	err := s.Sender.SendBatch(ctx, to, ms)
	s.t.endBatch(ids)
	return err
}

func (t *tracer) beginSend(ctx context.Context, m *message.Message, frame bool) int32 {
	inst := t.hashInstance(m.Instance)
	if m.From == message.WrapperID {
		// One wrapper send per execution is where the instance ID first
		// becomes visible outside the program; keep its spelling.
		t.instMu.Lock()
		if _, ok := t.instNames[inst]; !ok {
			t.instNames[inst] = m.Instance
		}
		t.instMu.Unlock()
	}
	id := t.begin(spanSend, inst, m.From, m.To, parentOf(ctx))
	if id >= 0 {
		t.spans[id].frame = frame
	}
	return id
}

// beginBatch records one send span per message of a frame (they share the
// frame's interval); only the first is marked as the frame.
func (t *tracer) beginBatch(ctx context.Context, ms []*message.Message) []int32 {
	ids := make([]int32, len(ms))
	for i, m := range ms {
		ids[i] = t.beginSend(ctx, m, i == 0)
	}
	return ids
}

func (t *tracer) endBatch(ids []int32) {
	for _, id := range ids {
		t.end(id)
	}
}

// wrapProvider records an invoke span around every call into inner.
func (t *tracer) wrapProvider(inner service.Provider) service.Provider {
	return &tracedProvider{Provider: inner, t: t}
}

type tracedProvider struct {
	service.Provider
	t *tracer
}

func (p *tracedProvider) Invoke(ctx context.Context, req service.Request) (service.Response, error) {
	id := p.t.begin(spanInvoke, 0, "", p.Provider.Name(), parentOf(ctx))
	resp, err := p.Provider.Invoke(ctx, req)
	p.t.end(id)
	return resp, err
}

// wrapFuncs counts calls into the guard functions.
func (t *tracer) wrapFuncs(funcs map[string]expr.Func) map[string]expr.Func {
	out := make(map[string]expr.Func, len(funcs))
	for name, fn := range funcs {
		out[name] = func(args []expr.Value) (expr.Value, error) {
			t.funcCalls.Add(1)
			return fn(args)
		}
	}
	return out
}

// traceSummary is what one traced round adds up to, per kind.
type traceSummary struct {
	Executes, Handles, Invokes int64
	// all in nanoseconds, summed over the round
	ExecuteNs, SendNs, TransitNs, HandleSelfNs, WrapperSelfNs, InvokeNs int64
	Lost                                                                int64
}

// analyze waits for every open span to end, joins the spans into trees
// (filling in transit spans, handle parents and round ends) and sums the
// per-kind totals. Call after the round's platform is closed.
func (t *tracer) analyze() (traceSummary, error) {
	recorded := min(t.next.Load(), int64(len(t.spans)))
	deadline := time.Now().Add(3 * time.Second)
	for t.done.Load() != recorded {
		if time.Now().After(deadline) {
			return traceSummary{}, fmt.Errorf("trace: %d spans still open", recorded-t.done.Load())
		}
		time.Sleep(time.Millisecond)
	}
	spans := t.spans[:recorded]
	sum := traceSummary{Lost: t.next.Load() - recorded}

	// Across the wire: a handle's parent is the send of the same
	// (instance, from, to).
	type hopKey struct {
		inst     uint64
		from, to uint16
	}
	sendOf := make(map[hopKey]int32, len(spans)/3)
	for i := range spans {
		if s := &spans[i]; s.kind == spanSend {
			sendOf[hopKey{s.inst, s.from, s.to}] = int32(i)
		}
	}
	wrapper := t.names[message.WrapperID]
	children := make(map[int32][]interval) // handle/execute span → child coverage
	firstSend := make(map[int32]int64)     // execute span → start of its first send
	lastDone := make(map[uint64]int64)     // instance → entry of its last wrapper handle
	execInst := make(map[int32]uint64)     // execute span → instance
	var transits []span
	for i := range spans {
		s := &spans[i]
		switch s.kind {
		case spanHandle:
			if p, ok := sendOf[hopKey{s.inst, s.from, s.to}]; ok {
				s.parent = p
				transits = append(transits, span{
					start: spans[p].start, end: s.start, inst: s.inst,
					parent: p, kind: spanTransit, from: s.from, to: s.to,
				})
				sum.TransitNs += s.start - spans[p].start
			}
			if s.to == wrapper && s.start > lastDone[s.inst] {
				lastDone[s.inst] = s.start
			}
		case spanSend, spanInvoke:
			if s.parent < 0 {
				continue
			}
			p := &spans[s.parent]
			if s.kind == spanInvoke {
				s.inst = p.inst
			}
			if p.kind == spanExecute {
				execInst[s.parent] = s.inst
				if first, ok := firstSend[s.parent]; !ok || s.start < first {
					firstSend[s.parent] = s.start
				}
				continue
			}
			children[s.parent] = append(children[s.parent], interval{s.start, s.end})
		}
	}
	for i := range spans {
		s := &spans[i]
		switch s.kind {
		case spanExecute:
			s.inst = execInst[int32(i)]
			sum.Executes++
			sum.ExecuteNs += s.end - s.start
			if first, ok := firstSend[int32(i)]; ok {
				sum.WrapperSelfNs += first - s.start
			}
			if done, ok := lastDone[s.inst]; ok && done <= s.end {
				sum.WrapperSelfNs += s.end - done
			}
		case spanSend:
			if s.frame {
				sum.SendNs += s.end - s.start
			}
		case spanInvoke:
			sum.Invokes++
			sum.InvokeNs += s.end - s.start
		case spanHandle:
			sum.Handles++
			if s.to == wrapper {
				continue // the wrapper's rounds are wrapper_self
			}
			// The round ends when its last child does.
			for _, c := range children[int32(i)] {
				if c.end > s.end {
					s.end = c.end
				}
			}
			sum.HandleSelfNs += selfTime(s.start, s.end, children[int32(i)])
		}
	}
	t.spans = append(spans, transits...)
	return sum, nil
}

// appendTo appends the analyzed spans to path as JSON lines.
func (t *tracer) appendTo(path, workload string) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	type line struct {
		Workload string `json:"workload"`
		ID       int    `json:"id"`
		Parent   int32  `json:"parent"`
		Name     string `json:"name"`
		Trace    string `json:"trace"`
		From     string `json:"from,omitempty"`
		To       string `json:"to,omitempty"`
		StartNs  int64  `json:"start_ns"`
		EndNs    int64  `json:"end_ns"`
	}
	for i, s := range t.spans {
		l := line{
			Workload: workload, ID: i, Parent: s.parent, Name: spanKindNames[s.kind],
			Trace: t.instNames[s.inst], StartNs: s.start, EndNs: s.end,
		}
		if s.from != 0 {
			l.From = t.nameList[s.from]
		}
		if s.to != 0 {
			l.To = t.nameList[s.to]
		}
		if err := enc.Encode(l); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
