package engine

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync/atomic"

	"selfserv/internal/expr"
	"selfserv/internal/message"
	"selfserv/internal/routing"
	"selfserv/internal/transport"
)

// Central is the baseline the paper argues against: a hub orchestrator
// that keeps ALL control flow on one node. It interprets the same
// COMPILED routing plan as the peer-to-peer fabric (so E3/E7 comparisons
// stay apples-to-apples: both sides pay zero runtime parsing), but every
// state firing becomes a remote invocation round trip
// (TypeInvoke/TypeResult) through the hub, and every routing decision is
// taken centrally. Used as the comparator in experiments E3 and E7.
//
// Independent states still execute concurrently (the hub is an
// orchestrator, not a serializer), so wall-clock comparisons against the
// P2P engine isolate coordination cost, not artificial sequentialization.
type Central struct {
	station
	dir      *Directory
	plan     *routing.Plan
	compiled *routing.CompiledPlan
	funcEnv  expr.Env

	seq atomic.Int64

	// pending routes invocation replies (token → waiter channel). It is
	// lock-striped by token hash (instances.go): concurrent runs register and
	// resolve replies without sharing a hub-wide mutex.
	pending shardedTable[chan *message.Message]
}

// NewCentral deploys a central orchestrator for an already-compiled
// plan (see NewWrapper), listening on addr for invocation replies. The
// plan's states must already be installed on hosts (so the directory
// knows where each component service lives).
func NewCentral(net transport.Network, addr string, dir *Directory, compiled *routing.CompiledPlan, funcs Funcs) (*Central, error) {
	plan := compiled.Plan
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	c := &Central{
		dir:      dir,
		plan:     plan,
		compiled: compiled,
		funcEnv:  funcs.Env(),
	}
	if err := c.listen(net, addr, "central", c.handle); err != nil {
		return nil, err
	}
	return c, nil
}

// Close unregisters the orchestrator.
func (c *Central) Close() error { return c.ep.Close() }

// handle routes invocation replies to their waiting goroutine.
func (c *Central) handle(_ context.Context, m *message.Message) {
	if m.Type != message.TypeResult {
		return
	}
	ch, ok := c.pending.take(m.Instance)
	if !ok {
		return
	}
	reply := *m // the delivery lends m for this call only, and the bag is taken
	m.Vars = nil
	ch <- &reply
}

// stateResult reports one completed remote invocation to the event loop.
type stateResult struct {
	state   string
	outputs map[string]string
	err     error
}

// centralMark is the hub-local notification bookkeeping for one state,
// indexed by the state's compiled table interning (the hub equivalent of
// coordInstance counts).
type centralMark struct {
	counts  []uint32
	pending []uint64
}

// centralRun is the marking of one instance inside the hub. donePend is
// the seen-source bitmask over the finish universe (finish clauses are
// never consumed, so no counts are kept — mirroring wrapperInstance).
type centralRun struct {
	vars     map[string]string
	received map[string]*centralMark // state -> interned notification counts
	donePend []uint64
	inflight int
	results  chan stateResult
}

// Execute runs one instance of the composite through the hub and returns
// the final bag restricted to declared inputs+outputs.
func (c *Central) Execute(ctx context.Context, inputs map[string]string) (map[string]string, error) {
	run := &centralRun{
		vars:     map[string]string{},
		received: map[string]*centralMark{},
		donePend: make([]uint64, c.compiled.FinishMaskWords()),
		results:  make(chan stateResult, len(c.plan.Tables)+1),
	}
	for k, v := range inputs {
		run.vars[k] = v
	}
	instance := "c" + strconv.FormatInt(c.seq.Add(1), 10)

	// Start phase: hub evaluates entry guards (it is the wrapper here).
	started := 0
	for _, target := range c.compiled.Start {
		ok, err := evalGuard(target.Condition, run.vars, c.funcEnv)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		if err := c.applyAssignments(run, target.Actions); err != nil {
			return nil, err
		}
		if err := c.notify(run, message.WrapperID, target.To); err != nil {
			return nil, err
		}
		started++
	}
	if started == 0 {
		return nil, fmt.Errorf("engine: composite %q: no start condition matched the request", c.plan.Composite)
	}
	if err := c.fireEnabled(ctx, instance, run); err != nil {
		return nil, err
	}

	// Event loop: process invocation completions until a finish clause
	// holds or the instance stalls.
	for {
		if c.finishSatisfied(run) {
			return projectOutputs(c.plan, run.vars), nil
		}
		if run.inflight == 0 {
			return nil, fmt.Errorf("engine: composite %q instance %s stalled: no enabled state and no pending invocation", c.plan.Composite, instance)
		}
		select {
		case res := <-run.results:
			run.inflight--
			if res.err != nil {
				return nil, fmt.Errorf("%w: state %s: %v", ErrInstanceFault, res.state, res.err)
			}
			tbl := c.compiled.Tables[res.state]
			bindOutputs(tbl.Outputs, res.outputs, run.vars)
			if err := c.postprocess(run, tbl); err != nil {
				return nil, err
			}
			if err := c.fireEnabled(ctx, instance, run); err != nil {
				return nil, err
			}
		case <-ctx.Done():
			return nil, fmt.Errorf("engine: composite %q instance %s: %w", c.plan.Composite, instance, ctx.Err())
		}
	}
}

// notify records a control notification in the hub's marking. (No network
// message: this is exactly the centralization being measured — routing
// decisions are local to the hub.)
func (c *Central) notify(run *centralRun, from, to string) error {
	if to == message.WrapperID {
		if idx, ok := c.compiled.FinishSourceIndex(from); ok {
			run.donePend[idx>>6] |= 1 << (idx & 63)
		}
		return nil
	}
	tbl := c.compiled.Tables[to]
	if tbl == nil {
		return fmt.Errorf("engine: notification for unknown state %q", to)
	}
	mark, ok := run.received[to]
	if !ok {
		mark = &centralMark{
			counts:  make([]uint32, tbl.NumSources()),
			pending: make([]uint64, tbl.MaskWords()),
		}
		run.received[to] = mark
	}
	if idx, ok := tbl.SourceIndex(from); ok {
		mark.counts[idx]++
		mark.pending[idx>>6] |= 1 << (idx & 63)
	}
	return nil
}

// postprocess evaluates a completed state's postprocessing targets on the
// hub's global bag.
func (c *Central) postprocess(run *centralRun, tbl *routing.CompiledTable) error {
	for _, target := range tbl.Postprocessings {
		ok, err := evalGuard(target.Condition, run.vars, c.funcEnv)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		if err := c.applyAssignments(run, target.Actions); err != nil {
			return err
		}
		if err := c.notify(run, tbl.State, target.To); err != nil {
			return err
		}
	}
	return nil
}

// applyAssignments applies precompiled ECA actions to the hub's global bag.
func (c *Central) applyAssignments(run *centralRun, actions []routing.CompiledAssignment) error {
	if len(actions) == 0 {
		return nil
	}
	merged, err := applyActions(actions, run.vars, c.funcEnv)
	if err != nil {
		return err
	}
	run.vars = merged
	return nil
}

// launch is one enabled invocation of a firing round: the request
// message plus the reply channel its waiter consumes.
type launch struct {
	state string
	token string
	msg   *message.Message
	ch    chan *message.Message
}

// launchGroup collects one destination host's launches of a firing
// round (the Central equivalent of an outbox entry: one frame per
// group, first-use order).
type launchGroup struct {
	addr     string
	launches []*launch
}

// fireEnabled launches remote invocations for every state whose
// precondition now holds. The round's TypeInvoke messages are grouped
// per destination and flushed as one frame per host — states co-hosted
// on one node cost the hub one syscall per round, not one per state.
// Replies still arrive (and are awaited) independently.
func (c *Central) fireEnabled(ctx context.Context, instance string, run *centralRun) error {
	var groups []*launchGroup
	for state, mark := range run.received {
		tbl := c.compiled.Tables[state]
	clauses:
		for _, clause := range tbl.Preconditions {
			if !clause.Covered(mark.pending) {
				continue
			}
			ok, err := evalGuard(clause.Condition, run.vars, c.funcEnv)
			if err != nil {
				if errors.Is(err, expr.ErrUndefinedVar) {
					continue clauses
				}
				return err
			}
			if !ok {
				continue
			}
			for _, idx := range clause.SourceIndexes() {
				if mark.counts[idx] > 0 {
					mark.counts[idx]--
				}
				if mark.counts[idx] == 0 {
					mark.pending[idx>>6] &^= 1 << (idx & 63)
				}
			}
			if err := c.applyAssignments(run, clause.Actions); err != nil {
				return err
			}
			params := make(map[string]string, len(tbl.Inputs)+1)
			if err := bindInputs(params, tbl.Inputs, run.vars, c.funcEnv); err != nil {
				return err
			}
			// The tenant tag rides the invoke as the reserved TenantVar
			// entry; serveInvoke moves it into Request.Tenant and strips
			// it from the provider's params.
			if tenant := run.vars[TenantVar]; tenant != "" {
				params[TenantVar] = tenant
			}
			// Pinned to the hub's own compiled plan version: a redeploy
			// mid-run must not re-route this instance's invocations.
			addr, found := c.dir.RouteV(c.plan.Composite, c.compiled.Version, tbl.State, instance, run.vars[TenantVar])
			if !found {
				return fmt.Errorf("engine: state %q is not deployed", tbl.State)
			}
			l := &launch{
				state: tbl.State,
				token: instance + "/" + tbl.State + "/" + strconv.FormatInt(c.seq.Add(1), 10),
				ch:    make(chan *message.Message, 1),
			}
			l.msg = &message.Message{
				Type:      message.TypeInvoke,
				Composite: c.plan.Composite,
				Instance:  l.token,
				From:      "central",
				To:        tbl.Service + "/" + tbl.Operation,
				ReplyTo:   c.Addr(),
				Version:   c.compiled.Version,
				Vars:      params,
			}
			// Same first-use-order linear grouping as outbox.next, but over
			// launches (the reply bookkeeping must travel with the message).
			grp := (*launchGroup)(nil)
			for _, g := range groups {
				if g.addr == addr {
					grp = g
					break
				}
			}
			if grp == nil {
				grp = &launchGroup{addr: addr}
				groups = append(groups, grp)
			}
			grp.launches = append(grp.launches, l)
			run.inflight++
			break // one firing per state per round; loop re-checks later
		}
	}

	// Register every reply route before anything is sent: a fast host
	// must never answer an unregistered token.
	for _, g := range groups {
		for _, l := range g.launches {
			c.pending.insert(l.token, l.ch, false)
		}
	}

	for _, g := range groups {
		g := g
		ms := make([]*message.Message, len(g.launches))
		for i, l := range g.launches {
			ms[i] = l.msg
		}
		// One goroutine per destination: dial latency stays off the event
		// loop, and the whole round for that host is one frame.
		go func() {
			if err := c.sender.SendBatch(ctx, g.addr, ms); err != nil {
				// Fail every invocation of the lost frame through its reply
				// channel, wire-shaped, so the waiters below stay the only
				// writers of run.results.
				for _, l := range g.launches {
					l.ch <- &message.Message{Type: message.TypeResult, Error: err.Error()}
				}
			}
		}()
		for _, l := range g.launches {
			go c.awaitReply(ctx, l, run.results)
		}
	}
	return nil
}

// awaitReply blocks until l's TypeResult arrives (or ctx ends) and
// reports it to the event loop.
func (c *Central) awaitReply(ctx context.Context, l *launch, results chan<- stateResult) {
	defer c.pending.remove(l.token)
	select {
	case reply := <-l.ch:
		if reply.Error != "" {
			results <- stateResult{state: l.state, err: fmt.Errorf("%s", reply.Error)}
			return
		}
		results <- stateResult{state: l.state, outputs: reply.Vars}
	case <-ctx.Done():
		results <- stateResult{state: l.state, err: ctx.Err()}
	}
}

// finishSatisfied checks the compiled finish clauses against collected
// termination notices.
func (c *Central) finishSatisfied(run *centralRun) bool {
	for _, clause := range c.compiled.Finish {
		if !clause.Covered(run.donePend) {
			continue
		}
		ok, err := evalGuard(clause.Condition, run.vars, c.funcEnv)
		if err != nil || !ok {
			continue
		}
		return true
	}
	return false
}
