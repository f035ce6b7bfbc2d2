package routing

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"selfserv/internal/statechart"
	"selfserv/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/*.plan.xml from the current workload charts")

// TestGoldenPlans pins the routing plan every workload chart compiles to:
// MarshalPlan(Generate(chart)) for Travel, Chain(8) and Parallel(8) must
// equal the committed documents byte for byte. A change to how a chart is
// written down (its pseudo-states, the order its states are declared in)
// must not move a table, a clause or a guard. Regenerate with
// `go test ./internal/routing -run GoldenPlans -update` only when a
// routing change is meant to move them.
func TestGoldenPlans(t *testing.T) {
	for name, sc := range map[string]*statechart.Statechart{
		"travel":    workload.Travel(),
		"chain8":    workload.Chain(8),
		"parallel8": workload.Parallel(8),
	} {
		got, err := MarshalPlan(mustGenerate(t, sc))
		if err != nil {
			t.Fatalf("%s: MarshalPlan: %v", name, err)
		}
		path := filepath.Join("testdata", name+".plan.xml")
		if *update {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: plan differs from %s\ngot:\n%s\nwant:\n%s", name, path, got, want)
		}
	}
}
