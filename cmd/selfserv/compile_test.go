package main

import (
	"os"
	"path/filepath"
	"testing"

	"selfserv/internal/routing"
	"selfserv/internal/workload"
)

// TestWriteAndReadPlanFiles: `selfserv compile` writes one plan file
// and one file per state, and both read back into valid artifacts.
func TestWriteAndReadPlanFiles(t *testing.T) {
	dir := t.TempDir()
	plan, err := routing.Generate(workload.Travel())
	if err != nil {
		t.Fatal(err)
	}
	if err := writePlanFiles(dir, plan); err != nil {
		t.Fatalf("writePlanFiles: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	// 1 plan file + 5 table files.
	if len(entries) != 6 {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("files = %v", names)
	}
	doc, err := os.ReadFile(filepath.Join(dir, "TravelPlanner.plan.xml"))
	if err != nil {
		t.Fatal(err)
	}
	back, err := routing.UnmarshalPlan(doc)
	if err != nil {
		t.Fatalf("UnmarshalPlan: %v", err)
	}
	if back.Composite != "TravelPlanner" || len(back.Tables) != 5 {
		t.Fatalf("plan = %+v", back)
	}
	if err := back.Validate(); err != nil {
		t.Fatalf("round-tripped plan: %v", err)
	}
	// Individual table file parses too.
	data, err := os.ReadFile(filepath.Join(dir, "TravelPlanner.CR.table.xml"))
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := routing.UnmarshalTable(data)
	if err != nil || tbl.State != "CR" {
		t.Fatalf("table = %+v, %v", tbl, err)
	}
}
