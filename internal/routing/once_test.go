package routing

import (
	"fmt"
	"strings"
	"testing"

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

// TestGenerateMarksStatesThatFireOnce: the once mark is exactly the
// states whose single clause is fed, once each, by the wrapper or by
// other once states.
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
		// one clause per flight alternative.
		{chart: workload.Travel(), once: []string{"AS", "AB", "DFB", "ITA"}, many: []string{"CR"}},
		// a and b are on the cycle; c, past it, is fed by a state that may
		// fire again, so it is not proven either.
		{chart: flat("Loop", "init>a a>b b>a?x<3 b>c?x>=3 c>end"), many: []string{"a", "b", "c"}},
		{chart: flat("Event", "init>a a>b!go b>end"), once: []string{"a"}, many: []string{"b"}},
		// d is an OR-join of b and c; e inherits the doubt.
		{chart: flat("Alt", "init>a a>b?x>0 a>c?x<=0 b>d c>d d>e e>end"), once: []string{"a", "b", "c"}, many: []string{"d", "e"}},
		// a names b in two targets (one clause {a} at b after dedupe).
		{chart: flat("Twice", "init>a a>b?x>0 a>b?x<=0 b>end"), once: []string{"a"}, many: []string{"b"}},
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
	p.Tables["CR"].Once = true
	err := p.Validate()
	if err == nil || !strings.Contains(err.Error(), `"CR" is marked once`) {
		t.Errorf("forged mark on CR: %v", err)
	}
	loop := mustGenerate(t, flat("Loop", "init>a a>b b>a?x<3 b>end?x>=3"))
	loop.Tables["b"].Once = true
	if err := loop.Validate(); err == nil {
		t.Error("forged mark on a state of a cycle validated")
	}
}
