package routing

import (
	"reflect"
	"strings"
	"testing"

	"selfserv/internal/message"
	"selfserv/internal/statechart"
	"selfserv/internal/workload"
)

func mustGenerate(t *testing.T, sc *statechart.Statechart) *Plan {
	t.Helper()
	p, err := Generate(sc)
	if err != nil {
		t.Fatalf("Generate(%s): %v", sc.Name, err)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("plan.Validate(%s): %v\n%s", sc.Name, err, p)
	}
	return p
}

func hasClause(cs []Clause, want ...string) bool {
	return findClause(cs, want...) != nil
}

func findClause(cs []Clause, want ...string) *Clause {
	for i, c := range cs {
		if len(c.Sources) != len(want) {
			continue
		}
		match := true
		for j := range c.Sources {
			if c.Sources[j] != want[j] {
				match = false
				break
			}
		}
		if match {
			return &cs[i]
		}
	}
	return nil
}

func targetsTo(ts []Target, to string) []Target {
	var out []Target
	for _, t := range ts {
		if t.To == to {
			out = append(out, t)
		}
	}
	return out
}

func TestGenerateChain(t *testing.T) {
	p := mustGenerate(t, workload.Chain(3))
	if len(p.Tables) != 3 {
		t.Fatalf("tables = %d, want 3", len(p.Tables))
	}
	// Start enters s1 unconditionally.
	if len(p.Start) != 1 || p.Start[0].To != "s1" || p.Start[0].Condition != "" {
		t.Fatalf("Start = %+v", p.Start)
	}
	// s1 waits for the wrapper; s2 for s1; s3 for s2.
	if !hasClause(p.Tables["s1"].Preconditions, message.WrapperID) {
		t.Fatalf("s1 preconditions = %v", p.Tables["s1"].Preconditions)
	}
	if !hasClause(p.Tables["s2"].Preconditions, "s1") {
		t.Fatalf("s2 preconditions = %v", p.Tables["s2"].Preconditions)
	}
	if !hasClause(p.Tables["s3"].Preconditions, "s2") {
		t.Fatalf("s3 preconditions = %v", p.Tables["s3"].Preconditions)
	}
	// s3 notifies the wrapper; finish waits for s3 alone.
	if len(targetsTo(p.Tables["s3"].Postprocessings, message.WrapperID)) != 1 {
		t.Fatalf("s3 postprocessings = %+v", p.Tables["s3"].Postprocessings)
	}
	if !hasClause(p.Finish, "s3") {
		t.Fatalf("Finish = %v", p.Finish)
	}
	// Inner states never talk to the wrapper.
	if len(targetsTo(p.Tables["s1"].Postprocessings, message.WrapperID)) != 0 {
		t.Fatalf("s1 must not notify the wrapper: %+v", p.Tables["s1"].Postprocessings)
	}
}

func TestGenerateParallel(t *testing.T) {
	p := mustGenerate(t, workload.Parallel(3))
	// The wrapper starts all three branches.
	if len(p.Start) != 3 {
		t.Fatalf("Start = %+v", p.Start)
	}
	// Finish is one clause requiring all three.
	if len(p.Finish) != 1 {
		t.Fatalf("Finish = %v", p.Finish)
	}
	if !hasClause(p.Finish, "p1", "p2", "p3") {
		t.Fatalf("Finish = %v, want the 3-way AND clause", p.Finish)
	}
	// Every branch notifies the wrapper.
	for _, id := range []string{"p1", "p2", "p3"} {
		if len(targetsTo(p.Tables[id].Postprocessings, message.WrapperID)) != 1 {
			t.Fatalf("%s postprocessings = %+v", id, p.Tables[id].Postprocessings)
		}
	}
}

func TestGenerateTravel(t *testing.T) {
	p := mustGenerate(t, workload.Travel())

	// Start: the AND-state's entries = DFB|ITA (guarded), AS, AB.
	if len(p.Start) != 4 {
		t.Fatalf("Start = %+v", p.Start)
	}
	var dfbCond, itaCond string
	for _, s := range p.Start {
		switch s.To {
		case "DFB":
			dfbCond = s.Condition
		case "ITA":
			itaCond = s.Condition
		case "AS", "AB":
			if s.Condition != "" {
				t.Errorf("%s start condition = %q, want unconditional", s.To, s.Condition)
			}
		default:
			t.Errorf("unexpected start target %q", s.To)
		}
	}
	if !strings.Contains(dfbCond, "domestic(destination)") || strings.Contains(dfbCond, "not") {
		t.Errorf("DFB condition = %q", dfbCond)
	}
	if !strings.Contains(itaCond, "not") {
		t.Errorf("ITA condition = %q", itaCond)
	}

	// CR is the AND-join: it needs one clause per (flight-alternative x AS x AB).
	cr := p.Tables["CR"]
	if len(cr.Preconditions) != 2 {
		t.Fatalf("CR preconditions = %v, want 2 clauses (DFB and ITA alternatives)", cr.Preconditions)
	}
	if !hasClause(cr.Preconditions, "AB", "AS", "DFB") {
		t.Errorf("CR preconditions missing {AB,AS,DFB}: %v", cr.Preconditions)
	}
	if !hasClause(cr.Preconditions, "AB", "AS", "ITA") {
		t.Errorf("CR preconditions missing {AB,AS,ITA}: %v", cr.Preconditions)
	}

	// The near/far guard crosses regions, so it moves receiver-side: each
	// booking member notifies BOTH CR and the wrapper unconditionally, and
	// the guard sits on the receivers' clauses.
	for _, id := range []string{"DFB", "ITA", "AS", "AB"} {
		tbl := p.Tables[id]
		crTargets := targetsTo(tbl.Postprocessings, "CR")
		if len(crTargets) != 1 || crTargets[0].Condition != "" {
			t.Errorf("%s -> CR targets = %+v, want unconditional", id, crTargets)
		}
		wTargets := targetsTo(tbl.Postprocessings, message.WrapperID)
		if len(wTargets) != 1 || wTargets[0].Condition != "" {
			t.Errorf("%s -> wrapper targets = %+v, want unconditional", id, wTargets)
		}
	}
	for _, clause := range cr.Preconditions {
		if !strings.Contains(clause.Condition, "not near") {
			t.Errorf("CR clause %v condition = %q, want receiver-side 'not near' guard", clause.Sources, clause.Condition)
		}
	}

	// CR itself notifies the wrapper unconditionally.
	crW := targetsTo(cr.Postprocessings, message.WrapperID)
	if len(crW) != 1 || crW[0].Condition != "" {
		t.Fatalf("CR -> wrapper = %+v", crW)
	}

	// Finish: either CR alone (unconditioned), or the three parallel
	// branches guarded receiver-side by "near(...)", with both flight
	// alternatives -> 3 clauses total.
	if len(p.Finish) != 3 {
		t.Fatalf("Finish = %v, want 3 clauses", p.Finish)
	}
	if c := findClause(p.Finish, "CR"); c == nil || c.Condition != "" {
		t.Errorf("Finish {CR} = %+v", c)
	}
	for _, want := range [][]string{{"AB", "AS", "DFB"}, {"AB", "AS", "ITA"}} {
		c := findClause(p.Finish, want...)
		if c == nil || !strings.HasPrefix(c.Condition, "near") {
			t.Errorf("Finish clause %v = %+v, want near(...) guard", want, c)
		}
	}

	// Tables carry the service bindings so a coordinator needs nothing else.
	if cr.Service != "CarRental" || cr.Operation != "rent" || len(cr.Inputs) != 2 {
		t.Fatalf("CR table bindings = %+v", cr)
	}
}

func TestGenerateAlternativeJoin(t *testing.T) {
	// a -> (b|c) -> d: d must accept either source.
	root := &statechart.State{
		ID: "root", Kind: statechart.KindCompound,
		Children: []*statechart.State{
			{ID: "init", Kind: statechart.KindInitial},
			{ID: "a", Kind: statechart.KindBasic, Service: "A", Operation: "op"},
			{ID: "b", Kind: statechart.KindBasic, Service: "B", Operation: "op"},
			{ID: "c", Kind: statechart.KindBasic, Service: "C", Operation: "op"},
			{ID: "d", Kind: statechart.KindBasic, Service: "D", Operation: "op"},
			{ID: "end", Kind: statechart.KindFinal},
		},
		Transitions: []statechart.Transition{
			{From: "init", To: "a"},
			{From: "a", To: "b", Condition: "x > 0"},
			{From: "a", To: "c", Condition: "x <= 0"},
			{From: "b", To: "d"},
			{From: "c", To: "d"},
			{From: "d", To: "end"},
		},
	}
	sc := &statechart.Statechart{Name: "Alt", Root: root}
	p := mustGenerate(t, sc)
	d := p.Tables["d"]
	if len(d.Preconditions) != 2 || !hasClause(d.Preconditions, "b") || !hasClause(d.Preconditions, "c") {
		t.Fatalf("d preconditions = %v", d.Preconditions)
	}
	a := p.Tables["a"]
	bT := targetsTo(a.Postprocessings, "b")
	cT := targetsTo(a.Postprocessings, "c")
	if len(bT) != 1 || bT[0].Condition != "x > 0" {
		t.Fatalf("a->b = %+v", bT)
	}
	if len(cT) != 1 || cT[0].Condition != "x <= 0" {
		t.Fatalf("a->c = %+v", cT)
	}
}

func TestGenerateNestedCompound(t *testing.T) {
	// a -> [sub: u -> v] -> z; entering the sub targets u, exiting from v.
	sub := &statechart.State{
		ID: "sub", Kind: statechart.KindCompound,
		Children: []*statechart.State{
			{ID: "si", Kind: statechart.KindInitial},
			{ID: "u", Kind: statechart.KindBasic, Service: "U", Operation: "op"},
			{ID: "v", Kind: statechart.KindBasic, Service: "V", Operation: "op"},
			{ID: "sf", Kind: statechart.KindFinal},
		},
		Transitions: []statechart.Transition{
			{From: "si", To: "u"},
			{From: "u", To: "v"},
			{From: "v", To: "sf"},
		},
	}
	root := &statechart.State{
		ID: "root", Kind: statechart.KindCompound,
		Children: []*statechart.State{
			{ID: "init", Kind: statechart.KindInitial},
			{ID: "a", Kind: statechart.KindBasic, Service: "A", Operation: "op"},
			sub,
			{ID: "z", Kind: statechart.KindBasic, Service: "Z", Operation: "op"},
			{ID: "end", Kind: statechart.KindFinal},
		},
		Transitions: []statechart.Transition{
			{From: "init", To: "a"},
			{From: "a", To: "sub"},
			{From: "sub", To: "z"},
			{From: "z", To: "end"},
		},
	}
	p := mustGenerate(t, &statechart.Statechart{Name: "Nested", Root: root})
	if !hasClause(p.Tables["u"].Preconditions, "a") {
		t.Fatalf("u preconditions = %v", p.Tables["u"].Preconditions)
	}
	if !hasClause(p.Tables["z"].Preconditions, "v") {
		t.Fatalf("z preconditions = %v", p.Tables["z"].Preconditions)
	}
	if len(targetsTo(p.Tables["a"].Postprocessings, "u")) != 1 {
		t.Fatalf("a postprocessings = %+v", p.Tables["a"].Postprocessings)
	}
	if len(targetsTo(p.Tables["v"].Postprocessings, "z")) != 1 {
		t.Fatalf("v postprocessings = %+v", p.Tables["v"].Postprocessings)
	}
}

func TestGenerateLoop(t *testing.T) {
	// a -> b; b -> a [again]; b -> end [done]. Loops are static tables.
	root := &statechart.State{
		ID: "root", Kind: statechart.KindCompound,
		Children: []*statechart.State{
			{ID: "init", Kind: statechart.KindInitial},
			{ID: "a", Kind: statechart.KindBasic, Service: "A", Operation: "op"},
			{ID: "b", Kind: statechart.KindBasic, Service: "B", Operation: "op"},
			{ID: "end", Kind: statechart.KindFinal},
		},
		Transitions: []statechart.Transition{
			{From: "init", To: "a"},
			{From: "a", To: "b"},
			{From: "b", To: "a", Condition: "x < 3", Actions: []statechart.Assignment{{Var: "x", Expr: "x + 1"}}},
			{From: "b", To: "end", Condition: "x >= 3"},
		},
	}
	p := mustGenerate(t, &statechart.Statechart{Name: "Loop", Root: root})
	a := p.Tables["a"]
	if !hasClause(a.Preconditions, message.WrapperID) || !hasClause(a.Preconditions, "b") {
		t.Fatalf("a preconditions = %v", a.Preconditions)
	}
	back := targetsTo(p.Tables["b"].Postprocessings, "a")
	if len(back) != 1 || back[0].Condition != "x < 3" || len(back[0].Actions) != 1 {
		t.Fatalf("b->a = %+v", back)
	}
}

func TestGenerateRejectsInvalidChart(t *testing.T) {
	sc := workload.Chain(2)
	sc.Find("s1").Service = "" // invalidate
	if _, err := Generate(sc); err == nil {
		t.Fatal("Generate accepted an invalid chart")
	}
	if _, err := Generate(&statechart.Statechart{Name: "x"}); err == nil {
		t.Fatal("Generate accepted a chart without root")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	sc := workload.Travel()
	p1 := mustGenerate(t, sc)
	p2 := mustGenerate(t, sc)
	d1, err := MarshalPlan(p1)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := MarshalPlan(p2)
	if err != nil {
		t.Fatal(err)
	}
	if string(d1) != string(d2) {
		t.Fatal("Generate is not deterministic")
	}
}

func TestCovered(t *testing.T) {
	tbl := &Table{
		State: "q",
		Preconditions: []Clause{
			{Sources: []string{"a", "b"}},
			{Sources: []string{"c"}, Condition: "x > 0"},
		},
	}
	if got := tbl.Covered(map[string]int{"a": 1}); len(got) != 0 {
		t.Fatalf("partial clause covered: %v", got)
	}
	if got := tbl.Covered(map[string]int{"a": 1, "b": 1}); len(got) != 1 || len(got[0].Sources) != 2 {
		t.Fatalf("clause {a,b}: %v", got)
	}
	if got := tbl.Covered(map[string]int{"c": 2}); len(got) != 1 || got[0].Condition != "x > 0" {
		t.Fatalf("clause {c}: %v", got)
	}
	if got := tbl.Covered(map[string]int{"a": 1, "b": 1, "c": 1}); len(got) != 2 {
		t.Fatalf("both clauses: %v", got)
	}
	if got := tbl.Covered(nil); len(got) != 0 {
		t.Fatalf("empty set covered: %v", got)
	}
	// Zero or negative counts do not cover.
	if got := tbl.Covered(map[string]int{"c": 0}); len(got) != 0 {
		t.Fatalf("zero count covered: %v", got)
	}
}

func TestPeers(t *testing.T) {
	tbl := &Table{
		Preconditions:   []Clause{{Sources: []string{"a", "b"}}, {Sources: []string{"a"}}},
		Postprocessings: []Target{{To: "z"}, {To: message.WrapperID}},
	}
	got := tbl.Peers()
	want := []string{message.WrapperID, "a", "b", "z"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Peers = %v, want %v", got, want)
	}
}

func TestPlanValidateCatchesProblems(t *testing.T) {
	p := &Plan{
		Composite: "bad",
		Tables: map[string]*Table{
			"lonely": {State: "lonely"},
		},
	}
	err := p.Validate()
	if err == nil {
		t.Fatal("Validate accepted a broken plan")
	}
	for _, want := range []string{"no start targets", "no finish clauses", "unreachable", "dead end"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}

func TestPlanStringMentionsEverything(t *testing.T) {
	p := mustGenerate(t, workload.Travel())
	s := p.String()
	for _, want := range []string{"TravelPlanner", "CR", "pre:", "post:", "finish:", "start:"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q", want)
		}
	}
}

func TestConj(t *testing.T) {
	cases := []struct{ a, b, want string }{
		{"", "", ""},
		{"x", "", "x"},
		{"", "y", "y"},
		{"true", "y", "y"},
		{"x", "true", "x"},
		{"x", "y", "(x) and (y)"},
	}
	for _, c := range cases {
		if got := conj(c.a, c.b); got != c.want {
			t.Errorf("conj(%q, %q) = %q, want %q", c.a, c.b, got, c.want)
		}
	}
}

func TestXMLPlanRoundTrip(t *testing.T) {
	for _, sc := range []*statechart.Statechart{workload.Travel(), workload.Chain(4), workload.Parallel(3)} {
		p := mustGenerate(t, sc)
		data, err := MarshalPlan(p)
		if err != nil {
			t.Fatalf("MarshalPlan: %v", err)
		}
		back, err := UnmarshalPlan(data)
		if err != nil {
			t.Fatalf("UnmarshalPlan: %v", err)
		}
		if !reflect.DeepEqual(p, back) {
			d2, _ := MarshalPlan(back)
			t.Fatalf("round trip mismatch for %s:\n%s\nvs\n%s", sc.Name, data, d2)
		}
		if err := back.Validate(); err != nil {
			t.Fatalf("round-tripped plan invalid: %v", err)
		}
	}
}

func TestXMLTableRoundTrip(t *testing.T) {
	p := mustGenerate(t, workload.Travel())
	for id, tbl := range p.Tables {
		data, err := MarshalTable(tbl)
		if err != nil {
			t.Fatalf("MarshalTable(%s): %v", id, err)
		}
		back, err := UnmarshalTable(data)
		if err != nil {
			t.Fatalf("UnmarshalTable(%s): %v", id, err)
		}
		if !reflect.DeepEqual(tbl, back) {
			t.Fatalf("table %s round trip mismatch", id)
		}
	}
}

func TestUnmarshalPlanErrors(t *testing.T) {
	if _, err := UnmarshalPlan([]byte("nope")); err == nil {
		t.Fatal("accepted garbage")
	}
	dup := `<routingPlan composite="x">
	  <table state="a" service="S" operation="o"/>
	  <table state="a" service="S" operation="o"/>
	</routingPlan>`
	if _, err := UnmarshalPlan([]byte(dup)); err == nil {
		t.Fatal("accepted duplicate tables")
	}
}

// Property: for every random chart, the generated plan validates, and all
// postprocessing conditions parse as expressions.
func TestRandomChartsProducePlansThatValidate(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		sc := workload.RandomChart(workload.RandomOptions{
			States: 20, MaxDepth: 3, BranchProb: 0.3, ParallelProb: 0.25, Seed: seed,
		})
		p, err := Generate(sc)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("seed %d: %v\nchart: %s\nplan: %s", seed, err, sc, p)
		}
	}
}

func BenchmarkGenerateTravel(b *testing.B) {
	sc := workload.Travel()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(sc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGenerateBySize(b *testing.B) {
	for _, n := range []int{8, 32, 128} {
		sc := workload.RandomChart(workload.RandomOptions{
			States: n, MaxDepth: 3, BranchProb: 0.25, ParallelProb: 0.2, Seed: 99,
		})
		b.Run(sc.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Generate(sc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
