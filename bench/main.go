// Command bench is the repository's benchmark of record (see README.md
// beside it and /BENCHMARK.json). It drives core.Composite.Execute on five
// named workloads with a closed loop, prints seven end-to-end metrics per
// workload from untraced rounds, and — from a separate traced round that
// wraps the program's public interfaces, plus isolated timed calls into
// each layer — a per-layer budget for one notification hop.
//
//	bash bench/run.sh                                  # everything, ~4 min
//	bash bench/run.sh -workload chain8_tcp -trace 0    # one workload, end to end only
//	bash bench/run.sh -compare a.json b.json           # two result files, by the bounds
//
// The driver's form is
// `--workload <name> --seed <n> --seconds <s> --trace <0|1>`; with exactly
// one workload the last line of standard output is one JSON object
// {correct, attempted, failed, metrics}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// config is one invocation's settings, all from flags.
type config struct {
	workloads []workloadDef
	seed      int64
	seconds   float64 // timed seconds per workload, split over the rounds
	rounds    int
	warmups   int
	timed     bool // run the untraced rounds (end-to-end metrics)
	traced    bool // run the traced round and the isolated layer timers
	traceOut  string
}

// Result is what -out writes: the environment stamp and every workload's
// rounds and metrics.
type Result struct {
	Env       Env               `json:"env"`
	Workloads []*WorkloadResult `json:"workloads"`
}

// WorkloadResult is one workload's share of a Result.
type WorkloadResult struct {
	Name      string            `json:"name"`
	Why       string            `json:"why"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Rounds    []roundResult     `json:"rounds,omitempty"`
	EndToEnd  map[string]Metric `json:"end_to_end,omitempty"`
	PerLayer  map[string]Metric `json:"per_layer,omitempty"`
}

func main() {
	os.Exit(realMain(os.Args[1:]))
}

func realMain(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	names := fs.String("workload", "all", "comma-separated workload names, or all")
	seed := fs.Int64("seed", 1, "seed the request sequence is generated from")
	seconds := fs.Float64("seconds", 24, "timed seconds per workload, split evenly over the rounds")
	rounds := fs.Int("rounds", 3, "timed rounds per workload; the reported value is the median over them")
	trace := fs.String("trace", "both", "0: untraced rounds, end-to-end metrics; 1: traced round and layer timers, per-layer metrics; both")
	out := fs.String("out", "", "write the full result as JSON to this file")
	traceOut := fs.String("trace-out", "", "write the traced round's spans as JSON lines to this file")
	smoke := fs.Bool("smoke", false, "1 round of 0.3 s with 50 warm-ups: exercises every path, measures nothing")
	compare := fs.Bool("compare", false, "compare two result files (positional arguments) by the end-to-end bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two result files")
			return 2
		}
		return compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
	}

	cfg := config{seed: *seed, seconds: *seconds, rounds: *rounds, warmups: warmups, traceOut: *traceOut}
	if *smoke {
		cfg.seconds, cfg.rounds, cfg.warmups = 0.3, 1, 50
	}
	switch *trace {
	case "0":
		cfg.timed = true
	case "1":
		cfg.traced = true
	case "both":
		cfg.timed, cfg.traced = true, true
	default:
		fmt.Fprintf(os.Stderr, "bench: -trace %q: want 0, 1 or both\n", *trace)
		return 2
	}
	if cfg.rounds < 1 || cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "bench: -rounds and -seconds must be positive")
		return 2
	}
	all := workloads()
	if *names == "all" {
		cfg.workloads = all
	} else {
		for _, name := range strings.Split(*names, ",") {
			found := false
			for _, w := range all {
				if w.name == name {
					cfg.workloads = append(cfg.workloads, w)
					found = true
				}
			}
			if !found {
				fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", name)
				return 2
			}
		}
	}

	res, err := run(cfg)
	if res != nil {
		report(os.Stdout, res)
		if *out != "" {
			if werr := writeJSON(*out, res); werr != nil && err == nil {
				err = werr
			}
		}
		if len(res.Workloads) == 1 {
			contractLine(os.Stdout, res.Workloads[0], cfg)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return 0
}

// run executes the configured rounds. Timed rounds are interleaved
// round-robin across the workloads (w1 w2 … w1 w2 …) so a noisy minute on
// a shared machine is spread over all of them instead of swallowing one.
// A result is returned even alongside an error, so what was measured
// before the failure is still printed.
func run(cfg config) (*Result, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(cores))
	res := &Result{Env: stampEnv(cfg)}
	for _, w := range cfg.workloads {
		res.Workloads = append(res.Workloads, &WorkloadResult{Name: w.name, Why: w.why})
	}
	slice := time.Duration(cfg.seconds / float64(cfg.rounds) * float64(time.Second))
	if cfg.timed {
		for r := 0; r < cfg.rounds; r++ {
			for i := range cfg.workloads {
				round, err := cfg.workloads[i].runRound(roundConfig{seed: cfg.seed, slice: slice, warmups: cfg.warmups})
				wr := res.Workloads[i]
				wr.Attempted += round.Attempted
				wr.Failed += round.Failed
				if err != nil {
					return res, err
				}
				wr.Rounds = append(wr.Rounds, round)
			}
		}
		for _, wr := range res.Workloads {
			wr.EndToEnd = foldRounds(wr.Rounds)
		}
	}
	if cfg.traced {
		if cfg.traceOut != "" {
			// Every workload's traced round appends to the one file.
			if err := os.WriteFile(cfg.traceOut, nil, 0o644); err != nil {
				return res, err
			}
		}
		iso, err := isoMetrics(time.Duration(cfg.seconds * 0.4 * float64(time.Second)))
		if err != nil {
			return res, err
		}
		for i := range cfg.workloads {
			if err := cfg.workloads[i].perLayer(cfg, iso, res.Workloads[i]); err != nil {
				return res, err
			}
		}
	}
	return res, nil
}

// foldRounds turns the rounds' figures into the end-to-end metrics. Each
// is folded over the windows of ALL rounds pooled (the undisturbed window
// of a timed metric, the median window of a count), with the rounds' own
// values as the spread beside it; setup_s, of which a round has one, is
// the median over the rounds.
func foldRounds(rounds []roundResult) map[string]Metric {
	var samples int64
	for _, r := range rounds {
		samples += r.ok()
	}
	out := map[string]Metric{}
	for _, def := range endToEnd {
		var pooled []float64
		own := make([]float64, len(rounds))
		for i, r := range rounds {
			pooled = append(pooled, r.Windows[def.name]...)
			own[i] = r.Metrics[def.name]
		}
		m := overRounds(own, def.unit, samples)
		if len(pooled) > 0 {
			m.Value = def.overWindows(pooled)
		}
		out[def.name] = m
	}
	return out
}

// perLayer runs w's share of the per-layer metrics: an untraced twin
// round and a traced round of the same length (their difference is the
// tracing overhead), the hub baseline on the same deployment, and the
// Stats() deltas — and merges in the isolated layer timings.
func (w *workloadDef) perLayer(cfg config, iso map[string]float64, wr *WorkloadResult) error {
	slice := time.Duration(cfg.seconds * 0.25 * float64(time.Second))
	plain, err := w.runRound(roundConfig{seed: cfg.seed, slice: slice, warmups: cfg.warmups})
	wr.Attempted += plain.Attempted
	wr.Failed += plain.Failed
	if err != nil {
		return err
	}
	tr := newTracer()
	traced, err := w.runRound(roundConfig{seed: cfg.seed, slice: slice, warmups: cfg.warmups, tracer: tr})
	wr.Attempted += traced.Attempted
	wr.Failed += traced.Failed
	if err != nil {
		return err
	}
	sum, err := tr.analyze()
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	if sum.Lost > 0 {
		return fmt.Errorf("%s: trace buffer overflowed, %d spans lost", w.name, sum.Lost)
	}
	if cfg.traceOut != "" {
		if err := tr.appendTo(cfg.traceOut, w.name); err != nil {
			return err
		}
	}
	centralP50, err := w.centralP50(cfg, time.Duration(cfg.seconds*0.1*float64(time.Second)))
	if err != nil {
		return err
	}

	vals := map[string]float64{}
	for k, v := range iso {
		vals[k] = v
	}
	execs := float64(traced.ok())
	us := func(ns int64) float64 { return float64(ns) / 1e3 / execs }
	meanExec := us(sum.ExecuteNs)
	vals["expr.func_calls_per_exec"] = float64(tr.funcCalls.Load()) / execs
	vals["transport.msgs_per_exec"] = float64(traced.net.MsgsOut) / execs
	vals["transport.frames_per_exec"] = float64(traced.net.FramesOut) / execs
	vals["transport.bytes_per_exec"] = float64(traced.net.BytesOut) / execs
	vals["transport.send_blocked"] = float64(traced.net.SendBlocked)
	vals["transport.send_us_per_exec"] = us(sum.SendNs)
	vals["transport.transit_us_per_exec"] = us(sum.TransitNs)
	vals["engine.central_p50_us"] = centralP50
	vals["engine.handlers_per_exec"] = float64(sum.Handles) / execs
	vals["engine.handle_self_us_per_exec"] = us(sum.HandleSelfNs)
	vals["engine.wrapper_self_us_per_exec"] = us(sum.WrapperSelfNs)
	// What the spans do not account for. On the chain workloads a round is
	// strictly sequential, so the parts must sum to the whole and this
	// stays near 0; where branches overlap it is negative by the overlap.
	vals["engine.residual_us_per_exec"] = meanExec - us(sum.WrapperSelfNs+sum.HandleSelfNs+sum.InvokeNs+sum.TransitNs)
	vals["service.invokes_per_exec"] = float64(sum.Invokes) / execs
	vals["service.invoke_us_per_exec"] = us(sum.InvokeNs)
	vals["journal.appends_per_exec"] = float64(traced.journal.Appends) / execs
	vals["journal.bytes_per_exec"] = float64(traced.journal.Bytes) / execs
	vals["journal.syncs_per_exec"] = float64(traced.journal.Syncs) / execs
	vals["journal.est_us_per_exec"] = vals["journal.appends_per_exec"] * iso["journal.append_ns"] / 1e3
	vals["core.exec_p99_us"] = float64(percentile(plain.latencies, 990)) / 1e3
	vals["core.exec_p999_us"] = float64(percentile(plain.latencies, 999)) / 1e3
	plainP50 := float64(percentile(plain.latencies, 500))
	vals["core.trace_overhead_pct"] = 100 * (float64(percentile(traced.latencies, 500)) - plainP50) / plainP50

	wr.PerLayer = map[string]Metric{}
	for _, def := range perLayer {
		v, ok := vals[def.name]
		if !ok {
			return fmt.Errorf("per-layer metric %s was not measured", def.name)
		}
		m := Metric{Value: v, Unit: def.unit, Min: v, Max: v}
		switch def.name {
		case "core.exec_p99_us", "core.exec_p999_us":
			m.Samples = plain.ok()
		case "engine.residual_us_per_exec":
			m.Samples = sum.Executes
		}
		wr.PerLayer[def.name] = m
	}
	return nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// contractLine prints the driver's one-line summary of a single-workload
// run: the end-to-end metrics for an untraced run, the per-layer metrics
// for a traced one.
func contractLine(w io.Writer, wr *WorkloadResult, cfg config) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	src := wr.EndToEnd
	if !cfg.timed {
		src = wr.PerLayer
	}
	for name, m := range src {
		metrics[name] = value{m.Value, m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{wr.Failed == 0 && len(metrics) > 0, wr.Attempted, wr.Failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return
	}
	fmt.Fprintf(w, "%s\n", line)
}

// report prints every metric by name with its unit and round spread, then
// the per-layer table grouped by layer.
func report(w io.Writer, res *Result) {
	e := res.Env
	fmt.Fprintf(w, "# selfserv bench — %s/%s, %s, nproc %d, GOMAXPROCS %d, clients %d, %s, commit %s\n",
		e.GOOS, e.GOARCH, e.CPU, e.NumCPU, e.GOMAXPROCS, e.Clients, e.GoVersion, e.Commit)
	fmt.Fprintf(w, "# seed %d, %d round(s) x %.3gs slice, %d warm-ups (the benchmark of record is 3 rounds; other settings are not comparable)\n",
		e.Seed, e.Rounds, e.SliceSeconds, e.Warmups)
	for _, wr := range res.Workloads {
		fmt.Fprintf(w, "\n## %s — attempted %d, failed %d\n", wr.Name, wr.Attempted, wr.Failed)
		if wr.EndToEnd != nil {
			fmt.Fprintf(w, "%-24s %14s %-6s %14s %14s %9s\n", "end-to-end", "median", "unit", "min", "max", "samples")
			for _, def := range endToEnd {
				m := wr.EndToEnd[def.name]
				fmt.Fprintf(w, "%-24s %14.4f %-6s %14.4f %14.4f %9d\n", def.name, m.Value, m.Unit, m.Min, m.Max, m.Samples)
			}
		}
		if wr.PerLayer != nil {
			fmt.Fprintf(w, "%-10s %-34s %14s %-6s\n", "layer", "per-layer", "value", "unit")
			names := make([]string, 0, len(wr.PerLayer))
			for name := range wr.PerLayer {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				m := wr.PerLayer[name]
				layer, _, _ := strings.Cut(name, ".")
				fmt.Fprintf(w, "%-10s %-34s %14.4f %-6s\n", layer, name, m.Value, m.Unit)
			}
		}
	}
}
