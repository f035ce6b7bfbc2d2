package routing

import (
	"fmt"
	"strings"
	"testing"

	"selfserv/internal/composer"
	"selfserv/internal/statechart"
	"selfserv/internal/workload"
)

// flat is a one-level chart over basic states named by single letters:
// "init>a a>b b>end" wires them, "a>b?x>0" guards a transition and
// "a>b!go" makes it wait for event go.
func flat(name, wiring string) *statechart.Statechart {
	root := &statechart.State{ID: "root", Kind: statechart.KindCompound, Children: []*statechart.State{
		{ID: "init", Kind: statechart.KindInitial}, {ID: "end", Kind: statechart.KindFinal},
	}}
	seen := map[string]bool{"init": true, "end": true}
	for _, w := range strings.Fields(wiring) {
		w, event, _ := strings.Cut(w, "!")
		w, cond, _ := strings.Cut(w, "?")
		from, to, _ := strings.Cut(w, ">")
		for _, id := range []string{from, to} {
			if !seen[id] {
				seen[id] = true
				root.Children = append(root.Children, &statechart.State{ID: id, Kind: statechart.KindBasic, Service: strings.ToUpper(id), Operation: "op"})
			}
		}
		root.Transitions = append(root.Transitions, statechart.Transition{From: from, To: to, Event: event, Condition: cond})
	}
	return &statechart.Statechart{Name: name, Root: root}
}

// parityAfterFork runs p and q concurrently, then b or c on x's parity —
// decided at the receivers, since no region sees the merged bag — and
// joins them in d.
func parityAfterFork() *statechart.Statechart {
	b := composer.New("Fork").Input("x", "number").Output("x", "number")
	root := b.Root()
	par := root.Concurrent("par")
	par.SingleServiceRegion("rp", "p", "P", "op")
	par.SingleServiceRegion("rq", "q", "Q", "op")
	for _, id := range []string{"b", "c", "d"} {
		root.Basic(id, strings.ToUpper(id), "op")
	}
	root.Start("par").TransitionIf("par", "b", "x % 2 = 0").TransitionIf("par", "c", "x % 2 = 1").
		Transition("b", "d").Transition("c", "d").End("d")
	return b.MustBuild()
}

// TestGenerateMarksStatesThatFireOnce: the once mark is exactly the
// states fed, once each, by the wrapper or by other once states, whose
// clauses are one or exclude each other.
func TestGenerateMarksStatesThatFireOnce(t *testing.T) {
	all := func(n int, format string) []string {
		var ids []string
		for i := 1; i <= n; i++ {
			ids = append(ids, fmt.Sprintf(format, i))
		}
		return ids
	}
	cases := []struct {
		chart      *statechart.Statechart
		once, many []string
	}{
		{chart: workload.Chain(8), once: all(8, "s%d")},
		{chart: workload.Parallel(8), once: all(8, "p%d")},
		// CR is entered from the three-way join under a receiver-side guard,
		// one clause per flight alternative; the wrapper's start fan sends
		// DFB and ITA under domestic(destination) and its negation, so each
		// clause excludes the other's flight (rule 4).
		{chart: workload.Travel(), once: []string{"AS", "AB", "DFB", "ITA", "CR"}},
		// a and b are on the cycle; c, past it, is fed by a state that may
		// fire again, so it is not proven either. b's guards x<3 and x>=3
		// are complementary, but b may fire many times, on many bags.
		{chart: flat("Loop", "init>a a>b b>a?x<3 b>c?x>=3 c>end"), many: []string{"a", "b", "c"}},
		{chart: flat("Event", "init>a a>b!go b>end"), once: []string{"a"}, many: []string{"b"}},
		// d is an OR-join of b and c, which a sends under x>0 and x<=0 on
		// its one bag, so they exclude each other; e is fed by d alone.
		// (Before the exclusivity rule both were left unproven.)
		{chart: flat("Alt", "init>a a>b?x>0 a>c?x<=0 b>d c>d d>e e>end"), once: []string{"a", "b", "c", "d", "e"}},
		// x>0 and x>1 merely differ: both hold for x = 2.
		{chart: flat("Differ", "init>a a>b?x>0 a>c?x>1 b>d c>d d>end"), once: []string{"a", "b", "c"}, many: []string{"d"}},
		// The guards move to b's and c's clauses, next to an $event: source
		// that may be raised again, with another payload.
		{chart: flat("EventAlt", "init>a a>b?x>0!go a>c?x<=0!go b>d c>d d>end"), once: []string{"a"}, many: []string{"b", "c", "d"}},
		// a names b in two targets (one clause {a} at b after dedupe).
		{chart: flat("Twice", "init>a a>b?x>0 a>b?x<=0 b>end"), once: []string{"a"}, many: []string{"b"}},
		// b and c decide x's parity on one bag, the merge of p's and q's
		// notifications (one clause {p, q} each), so d's clauses exclude.
		{chart: parityAfterFork(), once: []string{"p", "q", "b", "c", "d"}},
	}
	for _, tc := range cases {
		p := mustGenerate(t, tc.chart)
		if got, want := len(p.Tables), len(tc.once)+len(tc.many); got != want {
			t.Errorf("%s: %d tables, the case lists %d", tc.chart.Name, got, want)
		}
		for _, id := range tc.once {
			tbl := p.Tables[id]
			if line := fmt.Sprintf("  %s (%s.%s) once\n", id, tbl.Service, tbl.Operation); !tbl.Once || !strings.Contains(p.String(), line) {
				t.Errorf("%s: %s fires once and is not marked (or explain does not say so)\n%s", tc.chart.Name, id, p)
			}
		}
		for _, id := range tc.many {
			if p.Tables[id].Once {
				t.Errorf("%s: %s is marked once\n%s", tc.chart.Name, id, p)
			}
		}
		cp, err := CompilePlan(p)
		if err != nil {
			t.Fatal(err)
		}
		for id, ct := range cp.Tables {
			if ct.Once != p.Tables[id].Once {
				t.Errorf("%s: compiled %s has Once %v, its table %v", tc.chart.Name, id, ct.Once, p.Tables[id].Once)
			}
		}
	}
}

// TestOnceMarkRoundTripsAndDefaultsToFalse: the mark is an attribute of
// the table document, on its own and inside a plan, and a document from
// before it existed decodes to the old lifecycle.
func TestOnceMarkRoundTripsAndDefaultsToFalse(t *testing.T) {
	p := mustGenerate(t, workload.Travel())
	planDoc, err := MarshalPlan(p)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalPlan(planDoc)
	if err != nil {
		t.Fatal(err)
	}
	for id, tbl := range p.Tables {
		doc, err := MarshalTable(tbl)
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.Contains(string(doc), `once="true"`); got != tbl.Once {
			t.Errorf("table %s (Once %v) marshals to\n%s", id, tbl.Once, doc)
		}
		alone, err := UnmarshalTable(doc)
		if err != nil {
			t.Fatal(err)
		}
		if alone.Once != tbl.Once || back.Tables[id].Once != tbl.Once {
			t.Errorf("table %s: Once %v came back %v alone and %v in its plan", id, tbl.Once, alone.Once, back.Tables[id].Once)
		}
	}

	old := strings.ReplaceAll(string(planDoc), ` once="true"`, "")
	if old == string(planDoc) {
		t.Fatal("the plan document carries no mark to strip")
	}
	unmarked, err := UnmarshalPlan([]byte(old))
	if err != nil {
		t.Fatal(err)
	}
	if err := unmarked.Validate(); err != nil {
		t.Errorf("a plan without the mark does not validate: %v", err)
	}
	for id, tbl := range unmarked.Tables {
		if tbl.Once {
			t.Errorf("table %s decoded Once from a document without the attribute", id)
		}
	}
	tbl, err := UnmarshalTable([]byte(`<table state="a" service="S" operation="o"/>`))
	if err != nil || tbl.Once {
		t.Errorf("bare table: Once %v, err %v", tbl != nil && tbl.Once, err)
	}
}

// TestValidateRejectsForgedOnceMark: a plan may leave a derivable mark
// off, never claim one the rule does not derive.
func TestValidateRejectsForgedOnceMark(t *testing.T) {
	p := mustGenerate(t, workload.Travel())
	p.Tables["AS"].Once = false
	if err := p.Validate(); err != nil {
		t.Errorf("a mark left off: %v", err)
	}
	p.Tables["CR"].Once = false
	if err := p.Validate(); err != nil {
		t.Errorf("CR's mark left off: %v", err)
	}
	differ := mustGenerate(t, flat("Differ", "init>a a>b?x>0 a>c?x>1 b>d c>d d>end"))
	differ.Tables["d"].Once = true
	err := differ.Validate()
	if err == nil || !strings.Contains(err.Error(), `"d" is marked once`) {
		t.Errorf("forged mark on an OR-join whose clauses do not exclude each other: %v", err)
	}
	loop := mustGenerate(t, flat("Loop", "init>a a>b b>a?x<3 b>end?x>=3"))
	loop.Tables["b"].Once = true
	if err := loop.Validate(); err == nil {
		t.Error("forged mark on a state of a cycle validated")
	}
}
