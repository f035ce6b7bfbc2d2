// Package routing implements the service deployer's core algorithm: the
// static extraction of per-state routing tables from a composite service's
// statechart (Benatallah et al., ICDE 2002; §2 of the VLDB'02 demo paper).
//
// A routing table tells one peer coordinator everything it needs at
// runtime, so that "the coordinators do not need to implement any complex
// scheduling algorithm":
//
//   - Preconditions: a disjunction of clauses; each clause is the set of
//     peers whose completion notifications must ALL have arrived before
//     the state's service may be invoked. Multiple clauses express
//     alternative entry paths (OR-joins); multi-member clauses express
//     AND-join synchronization after concurrent regions.
//   - Postprocessings: guarded targets; after the service completes, the
//     coordinator evaluates each target's condition against the instance's
//     variable bag and notifies every target whose condition holds.
//
// Guard placement: conditions are evaluated by the SENDER (postprocessing
// side) whenever the source of a transition is a single state — the
// sender then owns the complete variable bag of its control path. For
// transitions leaving a CONCURRENT state, no single region exit sees the
// merged bag (the travel scenario's near(major_attraction, accommodation)
// guard needs outputs of two different regions), so those guards move to
// the RECEIVER: every region exit notifies the successor unconditionally,
// and the successor's precondition clause carries the guard, evaluated on
// the merged bag once all notifications have arrived. The same rule
// applies to the wrapper's finish clauses.
//
// The package has two artifact layers. Plan/Table (this file) is the
// declarative, serializable form: guards and actions are source strings,
// sources are peer-ID strings. CompiledPlan/CompiledTable (compiled.go)
// is the runtime form the engine interprets: every expression pre-parsed
// to a shared *expr.Program, sources interned to small integers, clause
// coverage a bitmask compare. Compilation runs exactly once per
// composite, at deploy time, which makes deployment the ONLY place a
// guard parse error can surface — a deployed composite never parses at
// runtime (statechart.Validate already enforces the same contract for
// charts; CompileTable/CompilePlan enforce it for plans loaded from
// files or built by hand).
package routing

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"selfserv/internal/message"
	"selfserv/internal/statechart"
)

// EventSourcePrefix marks pseudo-sources in precondition clauses that are
// satisfied by raised ECA events rather than by peer completion
// notifications: a transition "on e [cond]" compiles to a clause
// containing the real sources plus "$event:e".
const EventSourcePrefix = "$event:"

// EventSource returns the pseudo-source ID for event name.
func EventSource(event string) string { return EventSourcePrefix + event }

// Target is one guarded postprocessing entry: whom to notify after the
// local service completes, under what condition, applying which variable
// assignments to the outgoing message.
type Target struct {
	// To is a state ID, or message.WrapperID for termination notices.
	To string
	// Condition guards the notification; empty means always.
	Condition string
	// Actions are assignments applied to the variable bag of the outgoing
	// notification (ECA rule actions of the crossed transitions).
	Actions []statechart.Assignment
}

// Clause is one alternative way a state becomes fireable: every source in
// Sources (state IDs or message.WrapperID) must have sent a notification,
// and Condition — if any — must evaluate to true on the instance's merged
// variable bag (receiver-side guard of an AND-join; see the package
// comment). Actions are applied to the bag when the clause fires.
// Sources are kept sorted and unique.
type Clause struct {
	Sources   []string
	Condition string
	Actions   []statechart.Assignment
}

// covers reports whether every source has a pending notification in
// received (counts > 0).
func (c Clause) covers(received map[string]int) bool {
	for _, src := range c.Sources {
		if received[src] <= 0 {
			return false
		}
	}
	return true
}

// Table is the routing knowledge of one basic state's coordinator.
type Table struct {
	// Version is the deployment version of the plan this table belongs
	// to. Version 0 is the unversioned (pre-control-plane) namespace;
	// versioned deployments stamp every table with the plan's version so
	// hosts can keep coordinators of several plan versions side by side
	// while the older versions drain (docs/controlplane.md).
	Version uint64
	// State is the basic state this table belongs to.
	State string
	// Service and Operation to invoke, with parameter bindings, copied
	// from the statechart so a coordinator needs no other artifact.
	Service   string
	Operation string
	Inputs    []statechart.Binding
	Outputs   []statechart.Binding
	// Preconditions in disjunctive normal form.
	Preconditions []Clause
	// Postprocessings to evaluate after the service completes.
	Postprocessings []Target
	// Once: the plan proves the state fires at most once per execution
	// (onceStates). Generate derives it; an older document decodes false.
	Once bool
}

// Plan is the full deployment artifact for one composite service: one
// table per basic state, plus the wrapper's own start/finish knowledge.
type Plan struct {
	// Composite is the composite service name.
	Composite string
	// Version is this deployment's monotonically increasing version.
	// Generate leaves it 0 (the unversioned namespace); a rollout
	// stamps it (CompiledPlan.SetVersion), so the compiled plan, all
	// its tables, and every runtime message of an instance carry the
	// version the instance started on (docs/controlplane.md).
	Version uint64
	// Inputs and Outputs mirror the composite signature.
	Inputs  []statechart.Param
	Outputs []statechart.Param
	// Tables maps basic state ID to its routing table.
	Tables map[string]*Table
	// Start lists the guarded targets the wrapper notifies to begin an
	// instance (the states "which need to be entered in the first place").
	Start []Target
	// Finish lists the clauses of states whose termination notices the
	// wrapper must collect before the instance is complete.
	Finish []Clause
}

// SetVersion stamps the plan AND every table with the deployment
// version, so the per-state artifacts uploaded to hosts agree with the
// wrapper's plan about which version an instance runs on. Call before
// CompilePlan, which copies the version into the compiled artifacts; a
// plan that is already compiled is stamped with CompiledPlan.SetVersion.
func (p *Plan) SetVersion(v uint64) {
	p.Version = v
	for _, tbl := range p.Tables {
		tbl.Version = v
	}
}

// Generate compiles a validated statechart into a Plan. The chart must
// have passed statechart.Validate; Generate re-checks only what it needs
// and returns an error for structurally impossible inputs.
func Generate(sc *statechart.Statechart) (*Plan, error) {
	if sc.Root == nil {
		return nil, fmt.Errorf("routing: statechart %q has no root", sc.Name)
	}
	if err := statechart.Validate(sc); err != nil {
		return nil, fmt.Errorf("routing: %w", err)
	}
	g := &generator{plan: &Plan{
		Composite: sc.Name,
		Inputs:    append([]statechart.Param(nil), sc.Inputs...),
		Outputs:   append([]statechart.Param(nil), sc.Outputs...),
		Tables:    map[string]*Table{},
	}}
	// Allocate a table for every basic state first, so wiring can target
	// any of them.
	sc.Root.Walk(func(s *statechart.State) bool {
		if s.Kind == statechart.KindBasic {
			g.plan.Tables[s.ID] = &Table{
				State:     s.ID,
				Service:   s.Service,
				Operation: s.Operation,
				Inputs:    append([]statechart.Binding(nil), s.Inputs...),
				Outputs:   append([]statechart.Binding(nil), s.Outputs...),
			}
		}
		return true
	})
	if err := g.wireCompound(sc.Root); err != nil {
		return nil, err
	}
	// Root-level entry and exit become wrapper knowledge.
	ens, err := g.entries(sc.Root)
	if err != nil {
		return nil, err
	}
	for _, e := range ens {
		g.plan.Start = append(g.plan.Start, Target{To: e.id, Condition: e.cond, Actions: e.actions})
		g.addPrecondition(e.id, Clause{Sources: []string{message.WrapperID}})
	}
	exs, err := g.exitGroups(sc.Root)
	if err != nil {
		return nil, err
	}
	for _, grp := range exs {
		clause := g.wireGroupToTarget(grp, message.WrapperID, "", nil)
		g.plan.Finish = append(g.plan.Finish, clause)
	}
	g.dedupe()
	for id := range g.plan.onceStates() {
		g.plan.Tables[id].Once = true
	}
	return g.plan, nil
}

// onceStates returns the states that fire at most once per execution, by
// least fixpoint over the finished plan: exactly one precondition clause,
// every source of it the wrapper (start is sent once) or a once state,
// each naming this state in exactly one of its targets. Such a state gets
// at most one notification per source and needs them all to fire, so none
// can arrive after its round. A state on a cycle, behind an OR-join,
// waiting on an event or named twice by one sender never qualifies.
func (p *Plan) onceStates() map[string]bool {
	named := map[[2]string]int{} // (sender, state): the sender's targets that name the state
	for _, t := range p.Start {
		named[[2]string{message.WrapperID, t.To}]++
	}
	for id, tbl := range p.Tables {
		for _, t := range tbl.Postprocessings {
			named[[2]string{id, t.To}]++
		}
	}
	once := map[string]bool{}
	for grew := true; grew; {
		grew = false
		for id, tbl := range p.Tables {
			unproven := func(src string) bool {
				return src != message.WrapperID && !once[src] || named[[2]string{src, id}] != 1
			}
			pre := tbl.Preconditions
			if !once[id] && len(pre) == 1 && len(pre[0].Sources) > 0 && !slices.ContainsFunc(pre[0].Sources, unproven) {
				once[id], grew = true, true
			}
		}
	}
	return once
}

// wireGroupToTarget attaches postprocessing entries on every member of
// grp notifying `to`, and returns the precondition clause the receiver
// must hold. Guard placement follows the package rule: single-member
// groups evaluate transCond sender-side; multi-member groups move it to
// the receiver's clause.
func (g *generator) wireGroupToTarget(grp group, to, transCond string, transActions []statechart.Assignment) Clause {
	return g.wireGroupToTargetOn(grp, to, "", transCond, transActions)
}

// wireGroupToTargetOn is wireGroupToTarget for ECA transitions: when event
// is non-empty the receiver's clause additionally requires the raised
// event, and the transition guard moves receiver-side (its condition may
// reference event payload variables the sender never sees).
func (g *generator) wireGroupToTargetOn(grp group, to, event, transCond string, transActions []statechart.Assignment) Clause {
	if event != "" {
		// Keep the guard off the senders: they notify unconditionally and
		// the receiver decides once completion(s) AND the event are in.
		sources := make([]string, 0, len(grp.members)+1)
		for _, m := range grp.members {
			sources = append(sources, m.id)
			g.addPostprocessing(m.id, Target{To: to, Condition: m.cond, Actions: m.actions})
		}
		sources = append(sources, EventSource(event))
		return normalizeClause(Clause{
			Sources:   sources,
			Condition: conj(grp.cond, transCond),
			Actions:   concatActions(grp.actions, transActions),
		})
	}
	grp = grp.foldCond(transCond, transActions)
	if len(grp.members) == 1 {
		m := grp.members[0]
		g.addPostprocessing(m.id, Target{
			To:        to,
			Condition: m.cond,
			Actions:   m.actions,
		})
		return normalizeClause(Clause{Sources: []string{m.id}})
	}
	sources := make([]string, 0, len(grp.members))
	for _, m := range grp.members {
		sources = append(sources, m.id)
		// Member-local conditions (from exits nested inside the member's
		// own region) stay sender-side; only the cross-region guard moves.
		g.addPostprocessing(m.id, Target{To: to, Condition: m.cond, Actions: m.actions})
	}
	return normalizeClause(Clause{Sources: sources, Condition: grp.cond, Actions: grp.actions})
}

// guardedRef is a state reference with an accumulated guard and actions.
type guardedRef struct {
	id      string
	cond    string
	actions []statechart.Assignment
}

// group is a set of refs that must all complete (AND semantics). For
// multi-member groups, cond/actions accumulate guards that span regions
// and therefore cannot be evaluated by any single member; they move to
// the receiver's clause (see the package comment on guard placement).
type group struct {
	members []guardedRef
	cond    string
	actions []statechart.Assignment
}

// foldCond attaches a transition guard to the group: single-member groups
// keep guards sender-side; multi-member groups accumulate them on the
// group for receiver-side evaluation.
func (g group) foldCond(cond string, actions []statechart.Assignment) group {
	if cond == "" && len(actions) == 0 {
		return g
	}
	if len(g.members) == 1 {
		m := g.members[0]
		return group{members: []guardedRef{{
			id:      m.id,
			cond:    conj(m.cond, cond),
			actions: concatActions(m.actions, actions),
		}}, cond: g.cond, actions: g.actions}
	}
	return group{
		members: g.members,
		cond:    conj(g.cond, cond),
		actions: concatActions(g.actions, actions),
	}
}

type generator struct {
	plan *Plan
}

// entries resolves the set of guarded basic states entered when s is
// entered.
func (g *generator) entries(s *statechart.State) ([]guardedRef, error) {
	switch s.Kind {
	case statechart.KindBasic:
		return []guardedRef{{id: s.ID}}, nil
	case statechart.KindCompound:
		init := s.Initial()
		if init == nil {
			return nil, fmt.Errorf("routing: compound %q has no initial state", s.ID)
		}
		var out []guardedRef
		for _, t := range s.TransitionsFrom(init.ID) {
			child := s.Child(t.To)
			if child == nil {
				return nil, fmt.Errorf("routing: %q: transition to unknown %q", s.ID, t.To)
			}
			inner, err := g.entries(child)
			if err != nil {
				return nil, err
			}
			for _, e := range inner {
				out = append(out, guardedRef{
					id:      e.id,
					cond:    conj(t.Condition, e.cond),
					actions: concatActions(t.Actions, e.actions),
				})
			}
		}
		return out, nil
	case statechart.KindConcurrent:
		var out []guardedRef
		for _, region := range s.Children {
			inner, err := g.entries(region)
			if err != nil {
				return nil, err
			}
			out = append(out, inner...)
		}
		return out, nil
	default:
		return nil, fmt.Errorf("routing: cannot enter %s state %q", s.Kind, s.ID)
	}
}

// exitGroups resolves the groups of guarded basic states whose joint
// completion means s has completed. Alternative exit paths yield multiple
// groups; concurrent regions yield the cross product of their groups.
func (g *generator) exitGroups(s *statechart.State) ([]group, error) {
	switch s.Kind {
	case statechart.KindBasic:
		return []group{{members: []guardedRef{{id: s.ID}}}}, nil
	case statechart.KindCompound:
		fin := s.Final()
		if fin == nil {
			return nil, fmt.Errorf("routing: compound %q has no final state", s.ID)
		}
		var out []group
		for _, t := range s.TransitionsTo(fin.ID) {
			child := s.Child(t.From)
			if child == nil {
				return nil, fmt.Errorf("routing: %q: transition from unknown %q", s.ID, t.From)
			}
			inner, err := g.exitGroups(child)
			if err != nil {
				return nil, err
			}
			for _, grp := range inner {
				out = append(out, grp.foldCond(t.Condition, t.Actions))
			}
		}
		if len(out) == 0 {
			return nil, fmt.Errorf("routing: compound %q has no transition into its final state", s.ID)
		}
		return out, nil
	case statechart.KindConcurrent:
		combos := []group{{}}
		for _, region := range s.Children {
			inner, err := g.exitGroups(region)
			if err != nil {
				return nil, err
			}
			var next []group
			for _, base := range combos {
				for _, grp := range inner {
					merged := group{
						members: append(append([]guardedRef(nil), base.members...), grp.members...),
						cond:    conj(base.cond, grp.cond),
						actions: concatActions(base.actions, grp.actions),
					}
					next = append(next, merged)
				}
			}
			combos = next
		}
		return combos, nil
	default:
		return nil, fmt.Errorf("routing: cannot exit %s state %q", s.Kind, s.ID)
	}
}

// wireCompound wires all transitions between working (non-pseudo) sibling
// states of every compound state, recursively.
func (g *generator) wireCompound(s *statechart.State) error {
	switch s.Kind {
	case statechart.KindCompound:
		init, fin := s.Initial(), s.Final()
		for _, t := range s.Transitions {
			if init != nil && t.From == init.ID {
				continue // entry wiring handled by the parent via entries()
			}
			if fin != nil && t.To == fin.ID {
				continue // exit wiring handled by the parent via exitGroups()
			}
			if err := g.wireTransition(s, t); err != nil {
				return err
			}
		}
		for _, c := range s.Children {
			if c.IsComposite() {
				if err := g.wireCompound(c); err != nil {
					return err
				}
			}
		}
		return nil
	case statechart.KindConcurrent:
		for _, region := range s.Children {
			if err := g.wireCompound(region); err != nil {
				return err
			}
		}
		return nil
	default:
		return nil
	}
}

// wireTransition connects every exit group of the source to every entry of
// the destination.
func (g *generator) wireTransition(parent *statechart.State, t statechart.Transition) error {
	from := parent.Child(t.From)
	to := parent.Child(t.To)
	if from == nil || to == nil {
		return fmt.Errorf("routing: %q: transition %s->%s references unknown states", parent.ID, t.From, t.To)
	}
	groups, err := g.exitGroups(from)
	if err != nil {
		return err
	}
	ens, err := g.entries(to)
	if err != nil {
		return err
	}
	for _, grp := range groups {
		for _, e := range ens {
			clause := g.wireGroupToTargetOn(grp, e.id, t.Event,
				conj(t.Condition, e.cond),
				concatActions(t.Actions, e.actions))
			g.addPrecondition(e.id, clause)
		}
	}
	return nil
}

func (g *generator) addPrecondition(stateID string, c Clause) {
	tbl := g.plan.Tables[stateID]
	if tbl == nil {
		return
	}
	tbl.Preconditions = append(tbl.Preconditions, c)
}

func (g *generator) addPostprocessing(stateID string, t Target) {
	tbl := g.plan.Tables[stateID]
	if tbl == nil {
		return
	}
	tbl.Postprocessings = append(tbl.Postprocessings, t)
}

// dedupe removes duplicate clauses and targets and sorts everything so the
// generated plan is deterministic.
func (g *generator) dedupe() {
	for _, tbl := range g.plan.Tables {
		tbl.Preconditions = dedupeClauses(tbl.Preconditions)
		tbl.Postprocessings = dedupeTargets(tbl.Postprocessings)
	}
	g.plan.Finish = dedupeClauses(g.plan.Finish)
	g.plan.Start = dedupeTargets(g.plan.Start)
}

func dedupeClauses(in []Clause) []Clause {
	seen := map[string]bool{}
	var out []Clause
	for _, c := range in {
		key := clauseKey(c)
		if !seen[key] {
			seen[key] = true
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		return clauseKey(out[i]) < clauseKey(out[j])
	})
	return out
}

func clauseKey(c Clause) string {
	return strings.Join(c.Sources, "\x00") + "\x01" + c.Condition + "\x01" + actionsKey(c.Actions)
}

func dedupeTargets(in []Target) []Target {
	seen := map[string]bool{}
	var out []Target
	for _, t := range in {
		key := t.To + "\x00" + t.Condition + "\x00" + actionsKey(t.Actions)
		if !seen[key] {
			seen[key] = true
			out = append(out, t)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].To != out[j].To {
			return out[i].To < out[j].To
		}
		return out[i].Condition < out[j].Condition
	})
	return out
}

func actionsKey(as []statechart.Assignment) string {
	parts := make([]string, len(as))
	for i, a := range as {
		parts[i] = a.Var + ":=" + a.Expr
	}
	return strings.Join(parts, ";")
}

func normalizeClause(c Clause) Clause {
	sort.Strings(c.Sources)
	out := c.Sources[:0]
	var prev string
	for i, id := range c.Sources {
		if i == 0 || id != prev {
			out = append(out, id)
		}
		prev = id
	}
	c.Sources = out
	return c
}

// conj combines two guard expressions conjunctively, treating "" as true.
func conj(a, b string) string {
	a, b = strings.TrimSpace(a), strings.TrimSpace(b)
	switch {
	case a == "" || a == "true":
		return b
	case b == "" || b == "true":
		return a
	default:
		return "(" + a + ") and (" + b + ")"
	}
}

func concatActions(a, b []statechart.Assignment) []statechart.Assignment {
	if len(a) == 0 && len(b) == 0 {
		return nil
	}
	out := make([]statechart.Assignment, 0, len(a)+len(b))
	out = append(out, a...)
	out = append(out, b...)
	return out
}

// Covered returns, in order, every precondition clause whose sources all
// have pending notifications in received. The caller (the coordinator)
// evaluates each candidate's Condition on the merged variable bag and
// fires the first one that holds.
func (t *Table) Covered(received map[string]int) []Clause {
	var out []Clause
	for _, c := range t.Preconditions {
		if c.covers(received) {
			out = append(out, c)
		}
	}
	return out
}

// Peers returns every distinct peer this table communicates with (sources
// of preconditions and targets of postprocessings), sorted.
func (t *Table) Peers() []string {
	seen := map[string]bool{}
	for _, c := range t.Preconditions {
		for _, src := range c.Sources {
			seen[src] = true
		}
	}
	for _, tg := range t.Postprocessings {
		seen[tg.To] = true
	}
	out := make([]string, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Validate checks plan invariants: every table has at least one
// precondition clause (it can be entered) and at least one postprocessing
// (its completion is observed), every referenced peer exists, and the
// wrapper can both start and finish an instance.
func (p *Plan) Validate() error {
	var problems []string
	if len(p.Start) == 0 {
		problems = append(problems, "no start targets")
	}
	if len(p.Finish) == 0 {
		problems = append(problems, "no finish clauses")
	}
	known := func(id string) bool {
		return id == message.WrapperID ||
			strings.HasPrefix(id, EventSourcePrefix) ||
			p.Tables[id] != nil
	}
	for _, t := range p.Start {
		if !known(t.To) {
			problems = append(problems, fmt.Sprintf("start target %q has no table", t.To))
		}
	}
	ids := make([]string, 0, len(p.Tables))
	for id := range p.Tables {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	once := p.onceStates()
	for _, id := range ids {
		tbl := p.Tables[id]
		if tbl.Once && !once[id] {
			problems = append(problems, fmt.Sprintf("state %q is marked once, which its sources and their targets do not prove", id))
		}
		if len(tbl.Preconditions) == 0 {
			problems = append(problems, fmt.Sprintf("state %q has no precondition (unreachable)", id))
		}
		if len(tbl.Postprocessings) == 0 {
			problems = append(problems, fmt.Sprintf("state %q has no postprocessing (dead end)", id))
		}
		for _, peer := range tbl.Peers() {
			if !known(peer) {
				problems = append(problems, fmt.Sprintf("state %q references unknown peer %q", id, peer))
			}
		}
	}
	if len(problems) > 0 {
		return fmt.Errorf("routing: plan for %q invalid: %s", p.Composite, strings.Join(problems, "; "))
	}
	return nil
}

// Events returns the distinct ECA event names referenced by any
// precondition clause (or finish clause), sorted.
func (p *Plan) Events() []string {
	seen := map[string]bool{}
	collect := func(cs []Clause) {
		for _, c := range cs {
			for _, src := range c.Sources {
				if strings.HasPrefix(src, EventSourcePrefix) {
					seen[strings.TrimPrefix(src, EventSourcePrefix)] = true
				}
			}
		}
	}
	for _, t := range p.Tables {
		collect(t.Preconditions)
	}
	collect(p.Finish)
	out := make([]string, 0, len(seen))
	for e := range seen {
		out = append(out, e)
	}
	sort.Strings(out)
	return out
}

// EventSubscribers returns the state IDs whose preconditions reference the
// event, sorted — the peers a wrapper must notify when the event is
// raised.
func (p *Plan) EventSubscribers(event string) []string {
	src := EventSource(event)
	var out []string
	ids := sortedPlanIDs(p)
	for _, id := range ids {
		for _, c := range p.Tables[id].Preconditions {
			if containsString(c.Sources, src) {
				out = append(out, id)
				break
			}
		}
	}
	return out
}

func sortedPlanIDs(p *Plan) []string {
	ids := make([]string, 0, len(p.Tables))
	for id := range p.Tables {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

func containsString(ss []string, want string) bool {
	for _, s := range ss {
		if s == want {
			return true
		}
	}
	return false
}

// String renders the plan as a readable multi-line table for logs, tests,
// and the CLI's "explain" mode.
func (p *Plan) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "plan %s\n", p.Composite)
	fmt.Fprintf(&sb, "  start:")
	for _, t := range p.Start {
		fmt.Fprintf(&sb, " %s%s", t.To, condSuffix(t.Condition))
	}
	sb.WriteByte('\n')
	ids := make([]string, 0, len(p.Tables))
	for id := range p.Tables {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		tbl := p.Tables[id]
		fmt.Fprintf(&sb, "  %s (%s.%s)%s\n", id, tbl.Service, tbl.Operation, map[bool]string{true: " once"}[tbl.Once])
		for _, c := range tbl.Preconditions {
			fmt.Fprintf(&sb, "    pre:  all of {%s}%s\n", strings.Join(c.Sources, ", "), condSuffix(c.Condition))
		}
		for _, t := range tbl.Postprocessings {
			fmt.Fprintf(&sb, "    post: notify %s%s\n", t.To, condSuffix(t.Condition))
		}
	}
	fmt.Fprintf(&sb, "  finish:")
	for _, c := range p.Finish {
		fmt.Fprintf(&sb, " all of {%s}%s", strings.Join(c.Sources, ", "), condSuffix(c.Condition))
	}
	sb.WriteByte('\n')
	return sb.String()
}

func condSuffix(cond string) string {
	if cond == "" {
		return ""
	}
	return " [" + cond + "]"
}
