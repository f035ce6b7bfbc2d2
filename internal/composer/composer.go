// Package composer is the programmatic equivalent of SELF-SERV's Service
// Editor: where the paper's composer draws a statechart in a GUI and the
// tool "translates it into an XML document", this package offers a fluent
// builder that produces the same statechart values (and the same XML via
// statechart.MarshalXML).
//
// Each compound scope implicitly owns an initial and a final pseudo-state
// named "<id>.init" / "<id>.final"; Start and End wire transitions from
// and to them, so composers never touch pseudo-states directly.
package composer

import (
	"fmt"

	"selfserv/internal/statechart"
)

// Builder accumulates a composite-service definition.
type Builder struct {
	chart *statechart.Statechart
	root  *Scope
	errs  []error
}

// New starts a definition for a composite service with the given name.
// The root scope's ID is "root".
func New(name string) *Builder {
	b := &Builder{chart: &statechart.Statechart{Name: name}}
	b.root = newScope(b, nil, "root")
	b.chart.Root = b.root.state
	return b
}

// Input declares a composite input parameter.
func (b *Builder) Input(name, typ string) *Builder {
	b.chart.Inputs = append(b.chart.Inputs, statechart.Param{Name: name, Type: typ})
	return b
}

// Output declares a composite output parameter.
func (b *Builder) Output(name, typ string) *Builder {
	b.chart.Outputs = append(b.chart.Outputs, statechart.Param{Name: name, Type: typ})
	return b
}

// Root returns the root scope for adding states and transitions.
func (b *Builder) Root() *Scope { return b.root }

// Build finalizes the definition: pseudo-states are materialized, the
// chart is validated, and either the chart or the accumulated errors are
// returned.
func (b *Builder) Build() (*statechart.Statechart, error) {
	if len(b.errs) > 0 {
		return nil, fmt.Errorf("composer: %q: %w", b.chart.Name, b.errs[0])
	}
	if err := statechart.Validate(b.chart); err != nil {
		return nil, err
	}
	return b.chart.Clone(), nil
}

// MustBuild is Build for tests and examples with known-good definitions.
func (b *Builder) MustBuild() *statechart.Statechart {
	sc, err := b.Build()
	if err != nil {
		panic(err)
	}
	return sc
}

func (b *Builder) errorf(format string, args ...any) {
	b.errs = append(b.errs, fmt.Errorf(format, args...))
}

// Scope is a compound state under construction.
type Scope struct {
	b     *Builder
	state *statechart.State
	init  *statechart.State
	final *statechart.State
}

// newScope adds compound state id, with its two pseudo-states, under
// parent (nil for the root).
func newScope(b *Builder, parent *statechart.State, id string) *Scope {
	s := &Scope{
		b:     b,
		state: &statechart.State{ID: id, Kind: statechart.KindCompound},
		init:  &statechart.State{ID: id + ".init", Kind: statechart.KindInitial},
		final: &statechart.State{ID: id + ".final", Kind: statechart.KindFinal},
	}
	s.state.Children = append(s.state.Children, s.init, s.final)
	if parent != nil {
		parent.Children = append(parent.Children, s.state)
	}
	return s
}

// InitialID returns the scope's implicit initial pseudo-state ID.
func (s *Scope) InitialID() string { return s.init.ID }

// Basic adds a basic state bound to a service operation and returns a
// binding handle.
func (s *Scope) Basic(id, svc, operation string) *BasicState {
	st := &statechart.State{
		ID: id, Kind: statechart.KindBasic,
		Service: svc, Operation: operation,
	}
	s.state.Children = append(s.state.Children, st)
	return &BasicState{state: st}
}

// Compound adds a nested compound state and returns its scope.
func (s *Scope) Compound(id string) *Scope { return newScope(s.b, s.state, id) }

// Concurrent adds an AND-state and returns a handle for adding regions.
func (s *Scope) Concurrent(id string) *Concurrent {
	st := &statechart.State{ID: id, Kind: statechart.KindConcurrent}
	s.state.Children = append(s.state.Children, st)
	return &Concurrent{b: s.b, state: st}
}

// Transition wires from -> to unconditionally.
func (s *Scope) Transition(from, to string) *Scope {
	return s.TransitionIf(from, to, "")
}

// TransitionIf wires from -> to guarded by cond.
func (s *Scope) TransitionIf(from, to, cond string, actions ...statechart.Assignment) *Scope {
	s.state.Transitions = append(s.state.Transitions, statechart.Transition{
		From: from, To: to, Condition: cond, Actions: actions,
	})
	return s
}

// TransitionOn wires an ECA transition: from -> to fires when event has
// been raised (and cond, if any, holds on the merged variable bag).
func (s *Scope) TransitionOn(from, to, event, cond string, actions ...statechart.Assignment) *Scope {
	s.state.Transitions = append(s.state.Transitions, statechart.Transition{
		From: from, To: to, Event: event, Condition: cond, Actions: actions,
	})
	return s
}

// Start wires the scope's initial state to the given state.
func (s *Scope) Start(to string) *Scope { return s.StartIf(to, "") }

// StartIf wires the scope's initial state to the given state under cond.
func (s *Scope) StartIf(to, cond string) *Scope {
	return s.TransitionIf(s.init.ID, to, cond)
}

// End wires the given state to the scope's final state.
func (s *Scope) End(from string) *Scope { return s.EndIf(from, "") }

// EndIf wires the given state to the scope's final state under cond.
func (s *Scope) EndIf(from, cond string) *Scope {
	return s.TransitionIf(from, s.final.ID, cond)
}

// Sequence is a convenience: Start(ids[0]), chain each id to the next,
// End(last). IDs must already exist in the scope.
func (s *Scope) Sequence(ids ...string) *Scope {
	if len(ids) == 0 {
		s.b.errorf("Sequence in %q needs at least one state", s.state.ID)
		return s
	}
	s.Start(ids[0])
	for i := 0; i+1 < len(ids); i++ {
		s.Transition(ids[i], ids[i+1])
	}
	return s.End(ids[len(ids)-1])
}

// Concurrent is an AND-state under construction.
type Concurrent struct {
	b     *Builder
	state *statechart.State
}

// Named sets the display name.
func (c *Concurrent) Named(name string) *Concurrent {
	c.state.Name = name
	return c
}

// Region adds a region (a compound scope) to the AND-state.
func (c *Concurrent) Region(id string) *Scope { return newScope(c.b, c.state, id) }

// SingleServiceRegion adds a region containing exactly one basic state —
// the common "run these services in parallel" shape.
func (c *Concurrent) SingleServiceRegion(regionID, stateID, svc, operation string) *BasicState {
	scope := c.Region(regionID)
	bs := scope.Basic(stateID, svc, operation)
	scope.Sequence(stateID)
	return bs
}

// BasicState is a binding handle for a basic state.
type BasicState struct {
	state *statechart.State
}

// In binds an operation input parameter to a composite variable.
func (bs *BasicState) In(param, variable string) *BasicState {
	bs.state.Inputs = append(bs.state.Inputs, statechart.Binding{Param: param, Var: variable})
	return bs
}

// Out binds an operation output parameter to a composite variable.
func (bs *BasicState) Out(param, variable string) *BasicState {
	bs.state.Outputs = append(bs.state.Outputs, statechart.Binding{Param: param, Var: variable})
	return bs
}

// Named sets the display name.
func (bs *BasicState) Named(name string) *BasicState {
	bs.state.Name = name
	return bs
}
