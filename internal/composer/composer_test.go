package composer_test

import (
	"strings"
	"testing"

	"selfserv/internal/composer"
	"selfserv/internal/routing"
	"selfserv/internal/statechart"
	"selfserv/internal/workload"
)

// The paper's Fig 2 scenario is workload.Travel, written with this
// package: the editor can express the full demo.
func TestBuildTravelValidatesAndCompiles(t *testing.T) {
	sc := workload.Travel()
	if err := statechart.Validate(sc); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := len(sc.BasicStates()); got != 5 {
		t.Fatalf("basic states = %d", got)
	}
	plan, err := routing.Generate(sc)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if err := plan.Validate(); err != nil {
		t.Fatalf("plan: %v", err)
	}
	// The AND-join condition must sit receiver-side on CR.
	for _, c := range plan.Tables["CR"].Preconditions {
		if !strings.Contains(c.Condition, "not near") {
			t.Fatalf("CR clause = %+v", c)
		}
	}
}

func TestXMLExportRoundTrips(t *testing.T) {
	data, err := statechart.MarshalXML(workload.Travel())
	if err != nil {
		t.Fatalf("XML: %v", err)
	}
	back, err := statechart.UnmarshalXML(data)
	if err != nil {
		t.Fatalf("UnmarshalXML: %v", err)
	}
	if err := statechart.Validate(back); err != nil {
		t.Fatalf("round-tripped chart invalid: %v", err)
	}
	if back.Find("CR") == nil || back.Find("bookings").Kind != statechart.KindConcurrent {
		t.Fatal("structure lost in XML export")
	}
}

func TestSequenceConvenience(t *testing.T) {
	b := composer.New("Pipeline").Input("x", "number").Output("x", "number")
	root := b.Root()
	root.Basic("a", "SvcA", "run").In("x", "x").Out("x", "x")
	root.Basic("bee", "SvcB", "run").In("x", "x").Out("x", "x")
	root.Basic("c", "SvcC", "run").In("x", "x").Out("x", "x")
	root.Sequence("a", "bee", "c")
	sc, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if len(sc.Root.Transitions) != 4 {
		t.Fatalf("transitions = %+v", sc.Root.Transitions)
	}
}

func TestBuildErrors(t *testing.T) {
	t.Run("empty sequence", func(t *testing.T) {
		b := composer.New("Bad")
		b.Root().Sequence()
		if _, err := b.Build(); err == nil {
			t.Fatal("Build accepted empty Sequence")
		}
	})
	t.Run("invalid chart surfaces from validate", func(t *testing.T) {
		b := composer.New("Bad2")
		b.Root().Basic("a", "", "run") // no service
		b.Root().Sequence("a")
		if _, err := b.Build(); err == nil {
			t.Fatal("Build accepted basic state without service")
		}
	})
	t.Run("MustBuild panics", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("MustBuild did not panic")
			}
		}()
		b := composer.New("Bad3")
		b.Root().Sequence()
		b.MustBuild()
	})
}

func TestNestedCompound(t *testing.T) {
	b := composer.New("Nested").Input("x", "number").Output("x", "number")
	root := b.Root()
	root.Basic("a", "SvcA", "run").In("x", "x").Out("x", "x")
	sub := root.Compound("sub")
	sub.Basic("u", "SvcU", "run").In("x", "x").Out("x", "x")
	sub.Sequence("u")
	root.Start("a").Transition("a", "sub").End("sub")
	sc, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	plan, err := routing.Generate(sc)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if len(plan.Tables) != 2 {
		t.Fatalf("tables = %d", len(plan.Tables))
	}
	// a's completion enters u; u's completion finishes the composite.
	found := false
	for _, c := range plan.Tables["u"].Preconditions {
		for _, src := range c.Sources {
			if src == "a" {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("u preconditions = %+v", plan.Tables["u"].Preconditions)
	}
}

func TestScopePseudoIDs(t *testing.T) {
	b := composer.New("X")
	root := b.Root()
	root.Basic("a", "SvcA", "run")
	root.Sequence("a")
	sc := b.MustBuild()
	if root.InitialID() != "root.init" || sc.Root.Initial().ID != "root.init" || sc.Root.Final().ID != "root.final" {
		t.Fatalf("pseudo IDs = %q %q %q", root.InitialID(), sc.Root.Initial().ID, sc.Root.Final().ID)
	}
}
