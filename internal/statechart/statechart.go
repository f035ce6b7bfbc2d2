// Package statechart defines the declarative composition model of
// SELF-SERV: composite services are described as statecharts whose basic
// states are bound to component web services (or service communities) and
// whose transitions carry ECA-style guard conditions.
//
// The model supports the constructs used by the paper's travel scenario
// and by the ICDE'02 companion algorithms:
//
//   - basic states bound to a service operation,
//   - compound (OR) states with an initial and a final pseudo-state,
//   - concurrent (AND) states whose regions execute in parallel,
//   - guarded transitions between sibling states.
//
// Statecharts are plain data: they can be built programmatically (see
// package composer), loaded from XML (see xml.go), validated, and compiled
// into routing tables (see package routing).
package statechart

import (
	"fmt"
	"sort"
	"strings"
)

// Kind classifies a state.
type Kind int

// State kinds.
const (
	// KindBasic is a state bound to a component service invocation.
	KindBasic Kind = iota
	// KindInitial is the entry pseudo-state of a compound state.
	KindInitial
	// KindFinal is the exit pseudo-state of a compound state.
	KindFinal
	// KindCompound is an OR-state: exactly one child is active at a time.
	KindCompound
	// KindConcurrent is an AND-state: all regions are active in parallel.
	KindConcurrent
)

// String returns the XML attribute spelling of the kind.
func (k Kind) String() string {
	switch k {
	case KindBasic:
		return "basic"
	case KindInitial:
		return "initial"
	case KindFinal:
		return "final"
	case KindCompound:
		return "compound"
	case KindConcurrent:
		return "concurrent"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// KindFromString parses the XML spelling of a kind.
func KindFromString(s string) (Kind, error) {
	switch s {
	case "basic", "":
		return KindBasic, nil
	case "initial":
		return KindInitial, nil
	case "final":
		return KindFinal, nil
	case "compound":
		return KindCompound, nil
	case "concurrent", "and":
		return KindConcurrent, nil
	default:
		return 0, fmt.Errorf("statechart: unknown state kind %q", s)
	}
}

// Param declares a named, typed parameter of a composite service or of a
// state's service operation. Type is informational ("string", "number",
// "bool") and checked only when both sides declare it.
type Param struct {
	Name string
	Type string
}

// Binding maps a service operation parameter to a composite-service
// variable (by name) or to a constant expression.
type Binding struct {
	// Param is the name of the component operation's parameter.
	Param string
	// Var is the composite variable the parameter is wired to. Exactly one
	// of Var and Expr is set.
	Var string
	// Expr is an expression over composite variables supplying the value.
	Expr string
}

// Transition connects two sibling states inside a compound state.
type Transition struct {
	// From and To are sibling state IDs.
	From string
	To   string
	// Event is an optional event name (ECA "on" part). Empty means the
	// transition fires on completion of the source state.
	Event string
	// Condition is a guard expression; empty means always enabled.
	Condition string
	// Actions are variable assignments ("var := expr") executed when the
	// transition is taken. They run in the sender's coordinator.
	Actions []Assignment
}

// Assignment sets a composite variable from an expression.
type Assignment struct {
	Var  string
	Expr string
}

// State is a node of the statechart tree.
type State struct {
	// ID is unique within the whole statechart.
	ID string
	// Name is a human-readable label; defaults to ID.
	Name string
	// Kind classifies the state.
	Kind Kind

	// Service and Operation bind a basic state to a component service
	// (which may be a community). Unset for pseudo and composite states.
	Service   string
	Operation string
	// Inputs and Outputs wire the operation's parameters to composite
	// variables. Outputs' Var names receive the operation results.
	Inputs  []Binding
	Outputs []Binding

	// Children are the sub-states of a compound state, or the regions of a
	// concurrent state (each region must itself be a compound state).
	Children []*State
	// Transitions connect children of a compound state.
	Transitions []Transition
}

// Statechart is a complete composite-service definition.
type Statechart struct {
	// Name identifies the composite service.
	Name string
	// Inputs and Outputs declare the composite operation's signature.
	Inputs  []Param
	Outputs []Param
	// Root is the top-level compound state.
	Root *State
}

// IsComposite reports whether the state contains children.
func (s *State) IsComposite() bool {
	return s.Kind == KindCompound || s.Kind == KindConcurrent
}

// Initial returns the initial pseudo-state of a compound state, or nil.
func (s *State) Initial() *State {
	for _, c := range s.Children {
		if c.Kind == KindInitial {
			return c
		}
	}
	return nil
}

// Final returns the final pseudo-state of a compound state, or nil.
func (s *State) Final() *State {
	for _, c := range s.Children {
		if c.Kind == KindFinal {
			return c
		}
	}
	return nil
}

// Child returns the direct child with the given ID, or nil.
func (s *State) Child(id string) *State {
	for _, c := range s.Children {
		if c.ID == id {
			return c
		}
	}
	return nil
}

// TransitionsFrom returns the transitions leaving child state id.
func (s *State) TransitionsFrom(id string) []Transition {
	var out []Transition
	for _, t := range s.Transitions {
		if t.From == id {
			out = append(out, t)
		}
	}
	return out
}

// TransitionsTo returns the transitions entering child state id.
func (s *State) TransitionsTo(id string) []Transition {
	var out []Transition
	for _, t := range s.Transitions {
		if t.To == id {
			out = append(out, t)
		}
	}
	return out
}

// Walk visits s and all descendants in depth-first pre-order. Returning
// false from fn stops descent into that subtree (but not the walk).
func (s *State) Walk(fn func(*State) bool) {
	if !fn(s) {
		return
	}
	for _, c := range s.Children {
		c.Walk(fn)
	}
}

// Find locates a state by ID anywhere in the chart, or returns nil.
func (sc *Statechart) Find(id string) *State {
	var found *State
	if sc.Root == nil {
		return nil
	}
	sc.Root.Walk(func(s *State) bool {
		if s.ID == id {
			found = s
		}
		return found == nil
	})
	return found
}

// Parent returns the parent of the state with the given ID, or nil for the
// root or an unknown ID.
func (sc *Statechart) Parent(id string) *State {
	var parent *State
	if sc.Root == nil {
		return nil
	}
	sc.Root.Walk(func(s *State) bool {
		for _, c := range s.Children {
			if c.ID == id {
				parent = s
				return false
			}
		}
		return parent == nil
	})
	return parent
}

// BasicStates returns all basic states in the chart in a deterministic
// (document) order.
func (sc *Statechart) BasicStates() []*State {
	var out []*State
	if sc.Root == nil {
		return nil
	}
	sc.Root.Walk(func(s *State) bool {
		if s.Kind == KindBasic {
			out = append(out, s)
		}
		return true
	})
	return out
}

// Services returns the distinct service names referenced by basic states,
// sorted alphabetically.
func (sc *Statechart) Services() []string {
	seen := map[string]bool{}
	for _, s := range sc.BasicStates() {
		seen[s.Service] = true
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// CountStates returns the total number of states including pseudo-states.
func (sc *Statechart) CountStates() int {
	n := 0
	if sc.Root == nil {
		return 0
	}
	sc.Root.Walk(func(*State) bool { n++; return true })
	return n
}

// Depth returns the maximum nesting depth (root = 1).
func (sc *Statechart) Depth() int {
	var depth func(s *State) int
	depth = func(s *State) int {
		best := 1
		for _, c := range s.Children {
			if d := depth(c) + 1; d > best {
				best = d
			}
		}
		return best
	}
	if sc.Root == nil {
		return 0
	}
	return depth(sc.Root)
}

// String returns a compact tree rendering useful in logs and tests.
func (sc *Statechart) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "statechart %s", sc.Name)
	var render func(s *State, indent string)
	render = func(s *State, indent string) {
		fmt.Fprintf(&sb, "\n%s%s [%s]", indent, s.ID, s.Kind)
		if s.Service != "" {
			fmt.Fprintf(&sb, " -> %s.%s", s.Service, s.Operation)
		}
		for _, c := range s.Children {
			render(c, indent+"  ")
		}
		for _, t := range s.Transitions {
			fmt.Fprintf(&sb, "\n%s  %s --[%s]--> %s", indent, t.From, t.Condition, t.To)
		}
	}
	if sc.Root != nil {
		render(sc.Root, "  ")
	}
	return sb.String()
}

// Clone returns a deep copy of the statechart. The copy shares no mutable
// state with the original, so it can be modified or deployed independently.
func (sc *Statechart) Clone() *Statechart {
	cp := &Statechart{
		Name:    sc.Name,
		Inputs:  append([]Param(nil), sc.Inputs...),
		Outputs: append([]Param(nil), sc.Outputs...),
	}
	if sc.Root != nil {
		cp.Root = cloneState(sc.Root)
	}
	return cp
}

func cloneState(s *State) *State {
	cp := &State{
		ID:        s.ID,
		Name:      s.Name,
		Kind:      s.Kind,
		Service:   s.Service,
		Operation: s.Operation,
		Inputs:    append([]Binding(nil), s.Inputs...),
		Outputs:   append([]Binding(nil), s.Outputs...),
	}
	for _, t := range s.Transitions {
		t.Actions = append([]Assignment(nil), t.Actions...)
		cp.Transitions = append(cp.Transitions, t)
	}
	for _, c := range s.Children {
		cp.Children = append(cp.Children, cloneState(c))
	}
	return cp
}
