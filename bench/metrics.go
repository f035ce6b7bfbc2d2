package main

// Metric is one reported figure: for an end-to-end metric the median over
// the timed rounds with the round extremes beside it, for a per-layer
// metric the single measured value (Min == Max == Value).
type Metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
	Samples int64   `json:"samples,omitempty"`
}

// metricDef names one metric of the benchmark. The lists below are the
// single definition; BENCHMARK.json repeats them for the driver and
// TestManifestMatchesDefinitions keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
	// timed marks an end-to-end metric the machine's other tenants can
	// only make worse; its value is taken from the least-disturbed windows
	// (see undisturbed). The others are the median over the windows.
	timed bool
}

// endToEnd are the figures a caller of Composite.Execute sees.
var endToEnd = []metricDef{
	{name: "exec_p50_us", unit: "us", better: "lower", bound: 0.25, timed: true},
	{name: "exec_p90_us", unit: "us", better: "lower", bound: 0.25, timed: true},
	{name: "execs_per_sec", unit: "1/s", better: "higher", bound: 0.25, timed: true},
	{name: "cpu_us_per_exec", unit: "us", better: "lower", bound: 0.25, timed: true},
	{name: "allocs_per_exec", unit: "count", better: "lower", bound: 0.01},
	{name: "alloc_bytes_per_exec", unit: "B", better: "lower", bound: 0.01},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
}

// overWindows folds one metric's per-window values into one figure.
func (d metricDef) overWindows(vs []float64) float64 {
	if d.timed {
		return undisturbed(vs, d.better)
	}
	return median(vs)
}

// perLayer are the single-layer figures, named <package>.<what>. Those
// marked iso are timed by calling the layer's exported functions alone;
// the rest come from the traced round or from Stats() deltas and are per
// verified execution of the workload being run.
var perLayer = []metricDef{
	{name: "expr.eval_ns", unit: "ns", better: "lower"},                    // iso
	{name: "expr.eval_allocs", unit: "count", better: "lower"},             // iso
	{name: "expr.compile_ns", unit: "ns", better: "lower"},                 // iso
	{name: "expr.func_calls_per_exec", unit: "count", better: "lower"},     // trc
	{name: "message.marshal_hop_ns", unit: "ns", better: "lower"},          // iso
	{name: "message.marshal_bag_ns", unit: "ns", better: "lower"},          // iso
	{name: "message.unmarshal_hop_ns", unit: "ns", better: "lower"},        // iso
	{name: "message.unmarshal_bag_ns", unit: "ns", better: "lower"},        // iso
	{name: "message.marshal_hop_allocs", unit: "count", better: "lower"},   // iso
	{name: "message.unmarshal_hop_allocs", unit: "count", better: "lower"}, // iso
	{name: "message.hop_bytes", unit: "B", better: "lower"},                // iso
	{name: "message.bag_bytes", unit: "B", better: "lower"},                // iso
	{name: "message.marshal_batch8_ns", unit: "ns", better: "lower"},       // iso
	{name: "message.unmarshal_batch8_ns", unit: "ns", better: "lower"},     // iso
	{name: "message.merge_batch8_ns", unit: "ns", better: "lower"},         // iso
	{name: "transport.inmem_send_ns", unit: "ns", better: "lower"},         // iso
	{name: "transport.inmem_oneway_ns", unit: "ns", better: "lower"},       // iso
	{name: "transport.tcp_send_ns", unit: "ns", better: "lower"},           // iso
	{name: "transport.tcp_oneway_ns", unit: "ns", better: "lower"},         // iso
	{name: "transport.inmem_send_allocs", unit: "count", better: "lower"},  // iso
	{name: "transport.tcp_send_allocs", unit: "count", better: "lower"},    // iso
	{name: "transport.msgs_per_exec", unit: "count", better: "lower"},      // trc
	{name: "transport.frames_per_exec", unit: "count", better: "lower"},    // trc
	{name: "transport.bytes_per_exec", unit: "B", better: "lower"},         // trc
	{name: "transport.send_blocked", unit: "count", better: "lower"},       // trc
	{name: "transport.send_us_per_exec", unit: "us", better: "lower"},      // trc
	{name: "transport.transit_us_per_exec", unit: "us", better: "lower"},   // trc
	{name: "routing.generate_us", unit: "us", better: "lower"},             // iso
	{name: "routing.compile_plan_us", unit: "us", better: "lower"},         // iso
	{name: "routing.covered_ns", unit: "ns", better: "lower"},              // iso
	{name: "placement.pick_ns", unit: "ns", better: "lower"},               // iso
	{name: "placement.build_ns", unit: "ns", better: "lower"},              // iso
	{name: "engine.route1_ns", unit: "ns", better: "lower"},                // iso
	{name: "engine.route3_ns", unit: "ns", better: "lower"},                // iso
	{name: "engine.route_allocs", unit: "count", better: "lower"},          // iso
	{name: "engine.hop_us", unit: "us", better: "lower"},                   // iso
	{name: "engine.hop_allocs", unit: "count", better: "lower"},            // iso
	{name: "engine.central_p50_us", unit: "us", better: "lower"},           // trc
	{name: "engine.handlers_per_exec", unit: "count", better: "lower"},     // trc
	{name: "engine.handle_self_us_per_exec", unit: "us", better: "lower"},  // trc
	{name: "engine.wrapper_self_us_per_exec", unit: "us", better: "lower"}, // trc
	{name: "engine.residual_us_per_exec", unit: "us", better: "lower"},     // trc
	{name: "service.invoke_ns", unit: "ns", better: "lower"},               // iso
	{name: "service.invokes_per_exec", unit: "count", better: "lower"},     // trc
	{name: "service.invoke_us_per_exec", unit: "us", better: "lower"},      // trc
	{name: "journal.append_ns", unit: "ns", better: "lower"},               // iso
	{name: "journal.append_allocs", unit: "count", better: "lower"},        // iso
	{name: "journal.append_bytes", unit: "B", better: "lower"},             // iso
	{name: "journal.replay_ns_per_record", unit: "ns", better: "lower"},    // iso
	{name: "journal.open_ms", unit: "ms", better: "lower"},                 // iso
	{name: "journal.appends_per_exec", unit: "count", better: "lower"},     // trc
	{name: "journal.bytes_per_exec", unit: "B", better: "lower"},           // trc
	{name: "journal.syncs_per_exec", unit: "count", better: "lower"},       // trc
	{name: "journal.est_us_per_exec", unit: "us", better: "lower"},         // trc
	{name: "core.deploy_ms", unit: "ms", better: "lower"},                  // iso
	{name: "core.recover_ms", unit: "ms", better: "lower"},                 // iso
	{name: "core.exec_p99_us", unit: "us", better: "lower"},                // trc
	{name: "core.exec_p999_us", unit: "us", better: "lower"},               // trc
	{name: "core.trace_overhead_pct", unit: "%", better: "lower"},          // trc
}
