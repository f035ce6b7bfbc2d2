package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// compareFiles prints, for every (workload, end-to-end metric) present in
// both result files, the two medians, how much worse b is than a as a
// share of a, the metric's bound and a verdict:
//
//	ok          b is not worse than a by more than the bound
//	regressed   it is
//	unresolved  either file's round spread is wider than the bound, so the
//	            runs cannot tell
//
// It returns 1 if anything regressed, 2 if a file could not be read.
func compareFiles(w io.Writer, pathA, pathB string) int {
	a, err := readResult(pathA)
	if err == nil {
		var b *Result
		if b, err = readResult(pathB); err == nil {
			return compare(w, a, b)
		}
	}
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 2
}

func readResult(path string) (*Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func compare(w io.Writer, a, b *Result) int {
	if a.Env.Rounds != b.Env.Rounds || a.Env.SliceSeconds != b.Env.SliceSeconds || a.Env.Clients != b.Env.Clients {
		fmt.Fprintf(w, "warning: settings differ (rounds %d vs %d, slice %gs vs %gs, clients %d vs %d)\n",
			a.Env.Rounds, b.Env.Rounds, a.Env.SliceSeconds, b.Env.SliceSeconds, a.Env.Clients, b.Env.Clients)
	}
	fmt.Fprintf(w, "%-18s %-22s %14s %14s %8s %7s  %s\n", "workload", "metric", "a", "b", "worse", "bound", "verdict")
	regressed := 0
	for _, wa := range a.Workloads {
		var wb *WorkloadResult
		for _, cand := range b.Workloads {
			if cand.Name == wa.Name {
				wb = cand
			}
		}
		if wb == nil || wa.EndToEnd == nil || wb.EndToEnd == nil {
			continue
		}
		for _, def := range endToEnd {
			ma, mb := wa.EndToEnd[def.name], wb.EndToEnd[def.name]
			verdict := verdictOf(def, ma, mb)
			if verdict == "regressed" {
				regressed++
			}
			fmt.Fprintf(w, "%-18s %-22s %14.4f %14.4f %+7.1f%% %6.1f%%  %s\n",
				wa.Name, def.name, ma.Value, mb.Value, 100*worseBy(def, ma.Value, mb.Value), 100*def.bound, verdict)
		}
	}
	if regressed > 0 {
		fmt.Fprintf(w, "%d regressed\n", regressed)
		return 1
	}
	return 0
}

// worseBy is how much worse b is than a, as a share of a (negative when b
// is better).
func worseBy(def metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if def.better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

func verdictOf(def metricDef, a, b Metric) string {
	switch {
	case a.spread() > def.bound || b.spread() > def.bound:
		return "unresolved"
	case worseBy(def, a.Value, b.Value) > def.bound:
		return "regressed"
	}
	return "ok"
}
