package routing

import (
	"fmt"
	"sort"

	"selfserv/internal/expr"
	"selfserv/internal/statechart"
)

// This file implements the compiled half of the deployment artifact: the
// per-composite execution plan the coordinators actually interpret at
// runtime. A Plan (routing.go) is the declarative, serializable form —
// guard conditions and actions are source strings, precondition sources
// are peer-ID strings. Compiling it:
//
//   - parses every Clause.Condition, Target.Condition, and
//     Assignment.Expr exactly once, into shared *expr.Program handles;
//   - interns each table's precondition sources to small integer indices,
//     so per-instance notification bookkeeping is a counts slice plus a
//     "pending" bitmask instead of a map[string]int;
//   - turns clause coverage ("have all sources notified?") into a
//     word-wise mask comparison instead of a map scan.
//
// Compilation happens at deploy time (the control plane compiles the plan
// it hands to Host.InstallCompiled, NewWrapper and NewCentral; hostapi
// compiles the bare table a remote push carries), which makes it the
// LAST place an ill-formed guard can surface: once a CompiledTable or
// CompiledPlan exists, the notification hot path is pointer-chasing over
// immutable precompiled structures and cannot hit a parse error.

// CompiledAssignment is one pre-parsed ECA action: Var := Expr.
type CompiledAssignment struct {
	Var  string
	Expr *expr.Program
}

// CompiledTarget is a Target with its guard pre-parsed. A nil Condition
// means "always notify" (empty or constant-true guards are elided at
// compile time so the runtime skips evaluation entirely).
type CompiledTarget struct {
	To        string
	Condition *expr.Program
	Actions   []CompiledAssignment
}

// CompiledClause is a Clause with its guard pre-parsed and its sources
// interned against the owning table's source universe. Sources keeps the
// original (sorted) IDs for error messages and logs.
type CompiledClause struct {
	Sources   []string
	Condition *expr.Program
	Actions   []CompiledAssignment

	srcIdx []int    // interned source indices, parallel to Sources
	mask   []uint64 // required-sources bitmask over the interning universe
}

// Covered reports whether every source of the clause has a pending
// notification, given the receiver's pending bitmask (bit i set iff the
// source interned at index i has count > 0). This is the per-notification
// replacement for Clause.covers' map scan.
func (c *CompiledClause) Covered(pending []uint64) bool {
	for w, m := range c.mask {
		if pending[w]&m != m {
			return false
		}
	}
	return true
}

// SourceIndexes returns the interned indices of the clause's sources, in
// the same order as Sources. Callers use it to consume notifications once
// the clause fires. The returned slice is shared and must not be mutated.
func (c *CompiledClause) SourceIndexes() []int { return c.srcIdx }

// CompiledBinding is a Binding with any value expression pre-parsed.
// Exactly one of Var/Expr is set (validated by statechart.Validate).
type CompiledBinding struct {
	Param string
	Var   string
	Expr  *expr.Program
}

// sourceInterner assigns dense integer indices to source IDs.
type sourceInterner struct {
	index map[string]int
	ids   []string
	order []int // indices sorted by source ID; see mergeOrder
}

func newSourceInterner() *sourceInterner {
	return &sourceInterner{index: map[string]int{}}
}

func (si *sourceInterner) intern(id string) int {
	if i, ok := si.index[id]; ok {
		return i
	}
	i := len(si.ids)
	si.index[id] = i
	si.ids = append(si.ids, id)
	return i
}

// words returns the number of uint64 mask words covering the universe.
func (si *sourceInterner) words() int { return (len(si.ids) + 63) / 64 }

// seal freezes the universe and precomputes the canonical merge order:
// the interned indices sorted by source ID. Every receiver that merges
// per-source variable bags in this order computes the SAME merged bag
// for the same set of notifications, regardless of arrival order — the
// determinism alternative receivers of one AND-join need to agree on
// which guarded successor fires (see engine: coordinator/wrapper).
// "$wrapper" and "$event:..." pseudo-sources sort before state IDs, so
// request inputs and event payloads form the lowest-priority layer.
func (si *sourceInterner) seal() {
	si.order = make([]int, len(si.ids))
	for i := range si.order {
		si.order[i] = i
	}
	sort.Slice(si.order, func(a, b int) bool {
		return si.ids[si.order[a]] < si.ids[si.order[b]]
	})
}

// CompiledTable is the runtime form of one state's routing table: every
// expression pre-parsed, every precondition source interned. It is built
// once per (composite, state) at install time and shared immutably by all
// execution instances of that coordinator.
type CompiledTable struct {
	// Table is the declarative source of this compilation (kept for
	// identity, logs, and re-serialization).
	Table *Table

	// Version is the deployment version copied from the declarative
	// table. Coordinators stamp every outgoing notification with it and
	// hosts key their coordinator table by it, so instances started on
	// version v keep exchanging v-routed notifications while a newer
	// version serves fresh traffic (docs/controlplane.md).
	Version uint64

	State     string
	Service   string
	Operation string
	Once      bool // Table.Once: an instance that has fired is finished

	Inputs  []CompiledBinding
	Outputs []statechart.Binding

	Preconditions   []*CompiledClause
	Postprocessings []CompiledTarget

	interner *sourceInterner
}

// NumSources returns the size of the table's interned source universe —
// the length of the per-instance notification-count slice.
func (t *CompiledTable) NumSources() int { return len(t.interner.ids) }

// MaskWords returns the number of uint64 words in the pending bitmask.
func (t *CompiledTable) MaskWords() int { return t.interner.words() }

// SourceIndex resolves a notification sender to its interned index.
// Senders that appear in no precondition clause return ok=false: they can
// never contribute to coverage, so the caller may drop the count.
func (t *CompiledTable) SourceIndex(id string) (int, bool) {
	i, ok := t.interner.index[id]
	return i, ok
}

// SourceName is the inverse of SourceIndex: the state ID behind an
// interned index. The journal serializes per-source state (counts,
// bags, dedup high-water marks) keyed by source NAME, not index —
// interning order is a compile-time artifact that a recompiled plan
// need not reproduce, while state IDs are stable across restarts.
func (t *CompiledTable) SourceName(i int) string { return t.interner.ids[i] }

// MergeOrder returns the interned source indices sorted by source ID —
// the canonical order in which per-source variable bags must be merged
// so that every receiver computes the same bag for the same set of
// notifications, independent of arrival order. The slice is shared and
// must not be mutated.
func (t *CompiledTable) MergeOrder() []int { return t.interner.order }

// CompileTable compiles one routing table. Errors identify the offending
// guard or action so deploy-time failures are actionable.
func CompileTable(tbl *Table) (*CompiledTable, error) {
	if tbl == nil {
		return nil, fmt.Errorf("routing: compile: nil table")
	}
	ct := &CompiledTable{
		Table:     tbl,
		Version:   tbl.Version,
		State:     tbl.State,
		Service:   tbl.Service,
		Operation: tbl.Operation,
		Once:      tbl.Once,
		Outputs:   tbl.Outputs,
		interner:  newSourceInterner(),
	}
	var err error
	if ct.Inputs, err = compileBindings(tbl.Inputs); err != nil {
		return nil, fmt.Errorf("routing: compile state %q: %w", tbl.State, err)
	}
	// Intern every source first so masks share one universe.
	for _, c := range tbl.Preconditions {
		for _, src := range c.Sources {
			ct.interner.intern(src)
		}
	}
	for _, c := range tbl.Preconditions {
		cc, err := compileClause(c, ct.interner)
		if err != nil {
			return nil, fmt.Errorf("routing: compile state %q precondition: %w", tbl.State, err)
		}
		ct.Preconditions = append(ct.Preconditions, cc)
	}
	for _, tg := range tbl.Postprocessings {
		c, err := compileTarget(tg)
		if err != nil {
			return nil, fmt.Errorf("routing: compile state %q postprocessing: %w", tbl.State, err)
		}
		ct.Postprocessings = append(ct.Postprocessings, c)
	}
	ct.interner.seal()
	return ct, nil
}

// CompiledPlan is the runtime form of a whole deployment plan. The
// wrapper interprets Start/Finish; the centralized baseline interprets
// everything. One CompiledPlan is built per composite at deploy time and
// shared immutably by all instances.
type CompiledPlan struct {
	// Plan is the declarative source of this compilation.
	Plan *Plan

	// Version is the deployment version copied from the declarative
	// plan (see Plan.Version). Wrappers pin every instance they start to
	// it; the platform's redeploy path drains version v(n) while v(n+1)
	// serves new executions.
	Version uint64

	Tables map[string]*CompiledTable
	Start  []CompiledTarget
	Finish []*CompiledClause

	finish    *sourceInterner
	eventSubs map[string][]string
}

// NumFinishSources returns the size of the finish-clause source universe.
func (p *CompiledPlan) NumFinishSources() int { return len(p.finish.ids) }

// FinishMaskWords returns the pending-bitmask width for finish tracking.
func (p *CompiledPlan) FinishMaskWords() int { return p.finish.words() }

// FinishSourceIndex resolves a termination-notice sender (or event
// pseudo-source) to its interned index in the finish universe.
func (p *CompiledPlan) FinishSourceIndex(id string) (int, bool) {
	i, ok := p.finish.index[id]
	return i, ok
}

// FinishMergeOrder returns the finish-universe indices in canonical
// (sorted-by-source-ID) merge order; see CompiledTable.MergeOrder. The
// slice is shared and must not be mutated.
func (p *CompiledPlan) FinishMergeOrder() []int { return p.finish.order }

// EventSubscribers returns the precomputed, sorted state IDs whose
// preconditions reference the event. The slice is shared; don't mutate.
func (p *CompiledPlan) EventSubscribers(event string) []string {
	return p.eventSubs[event]
}

// CompilePlan compiles every table plus the wrapper's start targets and
// finish clauses. It is side-effect free: a failed compilation leaves no
// partial artifact, which lets deployers verify a plan before touching
// any host.
func CompilePlan(plan *Plan) (*CompiledPlan, error) {
	if plan == nil {
		return nil, fmt.Errorf("routing: compile: nil plan")
	}
	cp := &CompiledPlan{
		Plan:      plan,
		Version:   plan.Version,
		Tables:    make(map[string]*CompiledTable, len(plan.Tables)),
		finish:    newSourceInterner(),
		eventSubs: map[string][]string{},
	}
	for id, tbl := range plan.Tables {
		ct, err := CompileTable(tbl)
		if err != nil {
			return nil, fmt.Errorf("routing: compile plan %q: %w", plan.Composite, err)
		}
		cp.Tables[id] = ct
	}
	for _, tg := range plan.Start {
		c, err := compileTarget(tg)
		if err != nil {
			return nil, fmt.Errorf("routing: compile plan %q start: %w", plan.Composite, err)
		}
		cp.Start = append(cp.Start, c)
	}
	for _, c := range plan.Finish {
		for _, src := range c.Sources {
			cp.finish.intern(src)
		}
	}
	for _, c := range plan.Finish {
		cc, err := compileClause(c, cp.finish)
		if err != nil {
			return nil, fmt.Errorf("routing: compile plan %q finish: %w", plan.Composite, err)
		}
		cp.Finish = append(cp.Finish, cc)
	}
	for _, ev := range plan.Events() {
		cp.eventSubs[ev] = plan.EventSubscribers(ev)
	}
	cp.finish.seal()
	return cp, nil
}

// Compile turns a statechart into its compiled plan: generate the routing
// plan, validate it, compile every table. It touches no host, so it is
// where a chart that cannot be deployed — an invalid plan, an ill-formed
// guard — is refused. The result is unversioned (0) and unshared; a
// rollout stamps it with SetVersion before anything executes it.
func Compile(sc *statechart.Statechart) (*CompiledPlan, error) {
	plan, err := Generate(sc)
	if err != nil {
		return nil, err
	}
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	return CompilePlan(plan)
}

// SetVersion stamps the compiled plan, its declarative source and every
// table of both with the deployment version. Call it only on a plan
// nothing executes or serves yet: the runtime reads these fields without
// a lock.
func (p *CompiledPlan) SetVersion(v uint64) {
	p.Version = v
	p.Plan.SetVersion(v)
	for _, t := range p.Tables {
		t.Version = v
	}
}

// compileCondition parses a guard, eliding guards that are statically
// true so the runtime can skip them with a nil check.
func compileCondition(src string) (*expr.Program, error) {
	p, err := expr.Compile(src)
	if err != nil {
		return nil, fmt.Errorf("condition %q: %w", src, err)
	}
	if v, ok := p.ConstBool(); ok && v {
		return nil, nil
	}
	return p, nil
}

func compileActions(in []statechart.Assignment) ([]CompiledAssignment, error) {
	if len(in) == 0 {
		return nil, nil
	}
	out := make([]CompiledAssignment, len(in))
	for i, a := range in {
		p, err := expr.Compile(a.Expr)
		if err != nil {
			return nil, fmt.Errorf("action %s := %s: %w", a.Var, a.Expr, err)
		}
		out[i] = CompiledAssignment{Var: a.Var, Expr: p}
	}
	return out, nil
}

func compileBindings(in []statechart.Binding) ([]CompiledBinding, error) {
	if len(in) == 0 {
		return nil, nil
	}
	out := make([]CompiledBinding, len(in))
	for i, b := range in {
		cb := CompiledBinding{Param: b.Param, Var: b.Var}
		if b.Expr != "" {
			p, err := expr.Compile(b.Expr)
			if err != nil {
				return nil, fmt.Errorf("input %q: %w", b.Param, err)
			}
			cb.Expr = p
		}
		out[i] = cb
	}
	return out, nil
}

func compileTarget(t Target) (CompiledTarget, error) {
	cond, err := compileCondition(t.Condition)
	if err != nil {
		return CompiledTarget{}, fmt.Errorf("target %q: %w", t.To, err)
	}
	actions, err := compileActions(t.Actions)
	if err != nil {
		return CompiledTarget{}, fmt.Errorf("target %q: %w", t.To, err)
	}
	return CompiledTarget{To: t.To, Condition: cond, Actions: actions}, nil
}

func compileClause(c Clause, si *sourceInterner) (*CompiledClause, error) {
	cond, err := compileCondition(c.Condition)
	if err != nil {
		return nil, err
	}
	actions, err := compileActions(c.Actions)
	if err != nil {
		return nil, err
	}
	cc := &CompiledClause{
		Sources:   c.Sources,
		Condition: cond,
		Actions:   actions,
		srcIdx:    make([]int, len(c.Sources)),
	}
	for i, src := range c.Sources {
		cc.srcIdx[i] = si.intern(src)
	}
	// Covered only iterates the clause's own mask words, so a mask shorter
	// than the final universe (possible only if a caller skipped the
	// pre-interning pass) still compares correctly against a full-width
	// pending bitmask.
	cc.mask = make([]uint64, si.words())
	for _, idx := range cc.srcIdx {
		cc.mask[idx>>6] |= 1 << (idx & 63)
	}
	return cc, nil
}
