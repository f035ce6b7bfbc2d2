package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"selfserv/internal/service"
)

func TestPercentileNearestRank(t *testing.T) {
	ten := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, tc := range []struct {
		permille int
		want     int64
	}{{500, 50}, {900, 90}, {990, 100}, {999, 100}, {1, 10}, {100, 10}, {101, 20}} {
		if got := percentile(ten, tc.permille); got != tc.want {
			t.Errorf("percentile(1..10 x10, %d) = %d, want %d", tc.permille, got, tc.want)
		}
	}
	if got := percentile([]int64{7}, 999); got != 7 {
		t.Errorf("percentile of one sample = %d, want 7", got)
	}
}

func TestMedianOverRounds(t *testing.T) {
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median(9,1,5) = %v, want 5", got)
	}
	if got := median([]float64{4, 2}); got != 3 {
		t.Errorf("median(4,2) = %v, want 3", got)
	}
	m := overRounds([]float64{120, 100, 110}, "us", 42)
	want := Metric{Value: 110, Unit: "us", Min: 100, Max: 120, Samples: 42}
	if m != want {
		t.Errorf("overRounds = %+v, want %+v", m, want)
	}
	if s := m.spread(); s < 0.18 || s > 0.19 {
		t.Errorf("spread = %v, want 20/110", s)
	}
}

// Three windows of known executions, and a stub of a fourth that is
// folded away.
func TestWindowMetrics(t *testing.T) {
	at := func(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }
	marks := []usage{
		{at: at(0)},
		{at: at(500), cpu: 30 * time.Millisecond, mallocs: 3000, bytes: 30000},
		{at: at(1000), cpu: 130 * time.Millisecond, mallocs: 4000, bytes: 40000},
		{at: at(1500), cpu: 160 * time.Millisecond, mallocs: 7000, bytes: 70000},
		{at: at(1510), cpu: 161 * time.Millisecond, mallocs: 7001, bytes: 70001},
	}
	var all []sample
	for i := 1; i <= 30; i++ { // 30 executions of 100us in window 1
		all = append(all, sample{at(i * 10), 100 * time.Microsecond})
	}
	for i := 1; i <= 10; i++ { // 10 executions of 1ms in window 2, a burst
		all = append(all, sample{at(500 + i*40), time.Millisecond})
	}
	for i := 1; i <= 30; i++ { // 30 executions of 110us in window 3
		all = append(all, sample{at(1000 + i*10), 110 * time.Microsecond})
	}
	want := map[string][]float64{
		"exec_p50_us": {100, 1000, 110}, "exec_p90_us": {100, 1000, 110}, "execs_per_sec": {60, 20, 60},
		"cpu_us_per_exec": {1000, 10000, 1000}, "allocs_per_exec": {100, 100, 100}, "alloc_bytes_per_exec": {1000, 1000, 1000},
	}
	if got := windowMetrics(all, marks); !reflect.DeepEqual(got, want) {
		t.Errorf("windowMetrics = %v, want %v", got, want)
	}
}

func TestUndisturbed(t *testing.T) {
	forty := make([]float64, 40)
	for i := range forty {
		forty[i] = float64(40 - i) // 40..1, unsorted on purpose
	}
	if got := undisturbed(forty, "lower"); got != 3 {
		t.Errorf("undisturbed of 1..40, lower is better = %v, want 3", got)
	}
	if got := undisturbed(forty, "higher"); got != 38 {
		t.Errorf("undisturbed of 1..40, higher is better = %v, want 38", got)
	}
	if got := undisturbed([]float64{7, 5, 9}, "lower"); got != 5 {
		t.Errorf("undisturbed of three = %v, want the best, 5", got)
	}
	// A burst that spoils most windows does not move it.
	burst := []float64{100, 101, 99, 180, 175, 190, 185, 170, 181, 179}
	if got := undisturbed(burst, "lower"); got != 99 {
		t.Errorf("undisturbed under a burst = %v, want 99", got)
	}
}

// A parent [0,100) with children [10,40) and [30,60) (overlapping), [70,80)
// and one sticking out [90,130): covered 10..60, 70..80, 90..100 = 70.
func TestSelfTimeOverlappingChildren(t *testing.T) {
	children := []interval{{70, 80}, {30, 60}, {10, 40}, {90, 130}}
	if got := selfTime(0, 100, children); got != 30 {
		t.Errorf("selfTime = %d, want 30", got)
	}
	if got := selfTime(0, 100, nil); got != 100 {
		t.Errorf("selfTime without children = %d, want 100", got)
	}
	if got := selfTime(50, 60, []interval{{0, 200}}); got != 0 {
		t.Errorf("selfTime under a covering child = %d, want 0", got)
	}
}

func requestsFor(w *workloadDef, seed int64) ([]map[string]string, []int) {
	rng := rand.New(rand.NewSource(seed))
	inputs := w.inputs(rng)
	return inputs, sequence(rng, len(inputs))
}

func TestSameSeedSameRequests(t *testing.T) {
	for _, w := range workloads() {
		in1, seq1 := requestsFor(&w, 7)
		in2, seq2 := requestsFor(&w, 7)
		if !reflect.DeepEqual(in1, in2) || !reflect.DeepEqual(seq1, seq2) {
			t.Errorf("%s: seed 7 gave two different request sequences", w.name)
		}
		in3, seq3 := requestsFor(&w, 8)
		if reflect.DeepEqual(in1, in3) && reflect.DeepEqual(seq1, seq3) {
			t.Errorf("%s: seeds 7 and 8 gave the same request sequence", w.name)
		}
		if len(in1) != distinctRequests || len(seq1) != sequenceLen {
			t.Errorf("%s: %d distinct requests in a sequence of %d", w.name, len(in1), len(seq1))
		}
		count := make([]int, len(in1))
		for _, i := range seq1 {
			count[i]++
		}
		for i, c := range count {
			if c != sequenceLen/distinctRequests {
				t.Errorf("%s: request %d appears %d times, want %d", w.name, i, c, sequenceLen/distinctRequests)
			}
		}
	}
}

// A provider that starts adding 2 where the reference added 1 must be
// counted as failed executions and fail the run: the proof that a wrong
// output would not pass unnoticed. The reference is the hub's run on the
// same deployment, so the provider turns bad only after those
// distinctRequests reference executions.
func TestWrongProviderIsCounted(t *testing.T) {
	sound := workloadNamed("chain8_inmem")
	broken := *sound
	broken.register = func(reg *service.Registry) error {
		if err := sound.register(reg); err != nil {
			return err
		}
		var calls atomic.Int64
		bad := service.NewSimulated("svc3", service.SimulatedOptions{})
		bad.Handle("run", func(_ context.Context, p map[string]string) (map[string]string, error) {
			x, err := strconv.Atoi(p["x"])
			if calls.Add(1) > distinctRequests {
				x++
			}
			return map[string]string{"x": strconv.Itoa(x + 1)}, err
		})
		reg.Register(bad)
		return nil
	}
	res, err := run(config{workloads: []workloadDef{broken}, seed: 1, seconds: 0.1, rounds: 1, warmups: 0, timed: true})
	if err == nil {
		t.Fatal("run with a wrong provider returned no error")
	}
	wr := res.Workloads[0]
	if wr.Attempted == 0 || wr.Failed != wr.Attempted {
		t.Errorf("run counted %d failed of %d attempted; want all failed", wr.Failed, wr.Attempted)
	}
	var line bytes.Buffer
	contractLine(&line, wr, config{timed: true})
	if !strings.Contains(line.String(), `"correct":false`) {
		t.Errorf("contract line does not report the failure: %s", line.String())
	}
}

// -smoke completes all five workloads plus the traced round, every metric
// is reported, nothing fails, and the counts that must repeat exactly do.
func TestSmokeAllWorkloads(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	traceOut := t.TempDir() + "/spans.jsonl"
	// 600 warm-ups fill every instance table (instanceCap), so the counts
	// below are the steady state's.
	res, err := run(config{
		workloads: workloads(), seed: 1, seconds: 0.3, rounds: 1, warmups: 600,
		timed: true, traced: true, traceOut: traceOut,
	})
	if err != nil {
		t.Fatal(err)
	}
	wantMsgs := map[string]float64{"chain8_inmem": 9, "parallel8_inmem": 16, "chain8_tcp": 9, "chain8_journal": 9}
	for _, wr := range res.Workloads {
		if wr.Failed != 0 || wr.Attempted == 0 {
			t.Errorf("%s: attempted %d, failed %d", wr.Name, wr.Attempted, wr.Failed)
		}
		for _, def := range endToEnd {
			if m, ok := wr.EndToEnd[def.name]; !ok || m.Value <= 0 || m.Unit != def.unit {
				t.Errorf("%s: end-to-end %s = %+v", wr.Name, def.name, m)
			}
		}
		for _, def := range perLayer {
			if m, ok := wr.PerLayer[def.name]; !ok || m.Unit != def.unit {
				t.Errorf("%s: per-layer %s = %+v (present %v)", wr.Name, def.name, m, ok)
			}
		}
		layer := func(name string) float64 { return wr.PerLayer[name].Value }
		if want, ok := wantMsgs[wr.Name]; ok {
			if got := layer("transport.msgs_per_exec"); got != want {
				t.Errorf("%s: transport.msgs_per_exec = %v, want %v", wr.Name, got, want)
			}
			if got := layer("service.invokes_per_exec"); got != 8 {
				t.Errorf("%s: service.invokes_per_exec = %v, want 8", wr.Name, got)
			}
		}
		// 27 commit-point records plus one passivation of an evicted
		// (finished) instance at each of the 8 coordinators.
		wantAppends := 0.0
		if wr.Name == "chain8_journal" {
			wantAppends = 27 + 8
		}
		if got := layer("journal.appends_per_exec"); got != wantAppends {
			t.Errorf("%s: journal.appends_per_exec = %v, want %v", wr.Name, got, wantAppends)
		}
		if strings.HasPrefix(wr.Name, "chain8") {
			mean := layer("engine.wrapper_self_us_per_exec") + layer("engine.handle_self_us_per_exec") +
				layer("service.invoke_us_per_exec") + layer("transport.transit_us_per_exec") + layer("engine.residual_us_per_exec")
			if r := layer("engine.residual_us_per_exec"); r > 0.15*mean || r < -0.15*mean {
				t.Errorf("%s: hop budget residual %v us of a %v us execution", wr.Name, r, mean)
			}
		}
		if wr.Name == "travel_replicated" && layer("expr.func_calls_per_exec") < 2 {
			t.Errorf("travel guards called %v functions per execution, want >= 2", layer("expr.func_calls_per_exec"))
		}
	}

	// The span file holds every workload's traced round, one span per
	// line, every kind present.
	data, err := os.ReadFile(traceOut)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
		var s struct{ Name, Trace string }
		if err := json.Unmarshal(line, &s); err != nil {
			t.Fatalf("span line %q: %v", line, err)
		}
		kinds[s.Name]++
	}
	for _, kind := range spanKindNames {
		if kinds[kind] == 0 {
			t.Errorf("no %s span in the trace file (%v)", kind, kinds)
		}
	}

	// The driver's line for a single-workload run carries exactly the
	// declared metrics of the mode.
	for _, mode := range []struct {
		cfg  config
		want int
	}{{config{timed: true}, len(endToEnd)}, {config{traced: true}, len(perLayer)}} {
		var buf bytes.Buffer
		contractLine(&buf, res.Workloads[0], mode.cfg)
		var line struct {
			Correct           bool
			Attempted, Failed int64
			Metrics           map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
			t.Fatal(err)
		}
		if !line.Correct || line.Attempted < 1 || line.Failed != 0 || len(line.Metrics) != mode.want {
			t.Errorf("contract line (want %d metrics) = %s", mode.want, buf.String())
		}
	}
}

// BENCHMARK.json repeats the definitions in metrics.go and workloads.go
// for the driver; the two must not drift.
func TestManifestMatchesDefinitions(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Why, Unit, Better string
		Bound                   float64
	}
	var manifest struct {
		Workloads []entry
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &manifest); err != nil {
		t.Fatal(err)
	}
	var want []entry
	for _, w := range workloads() {
		want = append(want, entry{Name: w.name, Why: w.why})
	}
	if !reflect.DeepEqual(manifest.Workloads, want) {
		t.Errorf("workloads: manifest %+v, code %+v", manifest.Workloads, want)
	}
	want = nil
	for _, d := range endToEnd {
		want = append(want, entry{Name: d.name, Unit: d.unit, Better: d.better, Bound: d.bound})
	}
	if !reflect.DeepEqual(manifest.EndToEnd, want) {
		t.Errorf("end_to_end: manifest %+v, code %+v", manifest.EndToEnd, want)
	}
	want = nil
	for _, d := range perLayer {
		want = append(want, entry{Name: d.name, Unit: d.unit, Better: d.better})
	}
	if !reflect.DeepEqual(manifest.PerLayer, want) {
		t.Errorf("per_layer: manifest %+v, code %+v", manifest.PerLayer, want)
	}
}

func TestCompareVerdicts(t *testing.T) {
	mk := func(p50, lo, hi, rate float64) *Result {
		e2e := map[string]Metric{}
		for _, d := range endToEnd {
			e2e[d.name] = Metric{Value: 1, Min: 1, Max: 1, Unit: d.unit}
		}
		e2e["exec_p50_us"] = Metric{Value: p50, Min: lo, Max: hi, Unit: "us"}
		e2e["execs_per_sec"] = Metric{Value: rate, Min: rate, Max: rate, Unit: "1/s"}
		return &Result{Env: Env{Rounds: 3}, Workloads: []*WorkloadResult{{Name: "chain8_inmem", EndToEnd: e2e}}}
	}
	// Both metrics under test share one bound; express the cases in it.
	b := 100 * endToEnd[0].bound
	if endToEnd[2].name != "execs_per_sec" || endToEnd[2].bound != endToEnd[0].bound {
		t.Fatal("test assumes exec_p50_us and execs_per_sec share a bound")
	}
	base := mk(100, 99, 101, 1000)
	var buf bytes.Buffer
	if code := compare(&buf, base, mk(100+b/2, 100+b/2, 100+b/2, 1000-5*b)); code != 0 || strings.Contains(buf.String(), "regressed") {
		t.Errorf("half a bound worse: code %d\n%s", code, buf.String())
	}
	buf.Reset()
	if code := compare(&buf, base, mk(100+2*b, 100+2*b, 100+2*b, 1000)); code != 1 || !strings.Contains(buf.String(), "regressed") {
		t.Errorf("p50 two bounds worse: code %d\n%s", code, buf.String())
	}
	buf.Reset()
	if code := compare(&buf, base, mk(100, 100, 100, 1000-20*b)); code != 1 {
		t.Errorf("throughput two bounds lower: code %d\n%s", code, buf.String())
	}
	buf.Reset()
	if code := compare(&buf, base, mk(100+2*b, 100, 100+4*b, 1000)); code != 0 || !strings.Contains(buf.String(), "unresolved") {
		t.Errorf("round spread wider than the bound: code %d\n%s", code, buf.String())
	}
}
