package main

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"

	"selfserv/internal/core"
	"selfserv/internal/engine"
	"selfserv/internal/journal"
	"selfserv/internal/placement"
	"selfserv/internal/service"
	"selfserv/internal/statechart"
	"selfserv/internal/transport"
	"selfserv/internal/workload"
)

// workloadDef is one named set of inputs and the deployment it runs on.
// Every workload drives Composite.Execute with the same closed loop; they
// differ only in which layers the execution leans on (the why).
type workloadDef struct {
	name string
	why  string

	chart func() *statechart.Statechart
	// register fills the platform's pool with the chart's providers
	// (zero service time, so platform overhead is not diluted).
	register func(reg *service.Registry) error
	// replicas is how many hosts carry EVERY service; 0 means the
	// paper's layout of one host per service.
	replicas  int
	tcp       bool // transport.NewTCP on loopback instead of in-memory
	journal   bool // core.Options.Durability with fsync off
	placement placement.Policy
	guards    bool // workload.TravelGuards as core.Options.Funcs
	// inputs generates the workload's distinct requests from the seed.
	inputs func(rng *rand.Rand) []map[string]string
}

// distinctRequests is how many different input bags a workload cycles
// through, and sequenceLen the length of the seeded order they are issued
// in: every distinct request appears sequenceLen/distinctRequests times,
// so the mix is exactly uniform whatever the seed.
const (
	distinctRequests = 32
	sequenceLen      = 1024
)

// instanceCap is the per-coordinator instance-table cap every workload
// deploys with. A coordinator never drops a finished instance; it evicts
// the oldest once the table is at its cap, and that — table full, one
// eviction (with a journal: one passivation append) per new instance — is
// the state any deployment is in after its first minutes. The default cap
// of 16384 would be reached somewhere INSIDE the timed slice, earlier or
// later with machine speed, and the per-execution cost changes there; this
// cap is reached during the warm-ups, so the whole slice measures the one
// steady state.
const instanceCap = 512

// counterInputs are the Chain/Parallel requests: x drawn from the seed,
// so every execution's output (x+8, or x+i per branch) is checked against
// its own reference rather than one constant.
func counterInputs(rng *rand.Rand) []map[string]string {
	out := make([]map[string]string, distinctRequests)
	for i := range out {
		out[i] = map[string]string{"x": strconv.Itoa(rng.Intn(1000))}
	}
	return out
}

// travelInputs are the four routes of the paper's scenario (domestic or
// not × attraction near or far) for eight tenants, in seeded order.
func travelInputs(rng *rand.Rand) []map[string]string {
	var out []map[string]string
	for _, dest := range []string{"sydney", "melbourne", "tokyo", "paris"} {
		for t := 0; t < 8; t++ {
			req := workload.TravelRequest(fmt.Sprintf("cust%d", rng.Intn(1000)), dest, service.IsDomesticCity(dest))
			req[engine.TenantVar] = fmt.Sprintf("t%d", t)
			out = append(out, req)
		}
	}
	return out
}

func chain8(name, why string) workloadDef {
	return workloadDef{
		name: name, why: why,
		chart: func() *statechart.Statechart { return workload.Chain(8) },
		register: func(reg *service.Registry) error {
			workload.RegisterChainProviders(reg, 8, service.SimulatedOptions{})
			return nil
		},
		inputs: counterInputs,
	}
}

// workloads lists the benchmark's workloads in the order rounds are
// interleaved.
func workloads() []workloadDef {
	inmem := chain8("chain8_inmem",
		"sequential 8-state chain in memory: 9 smallest messages, so per-hop fixed cost in engine+message dominates; socket, disk and placement idle")
	parallel := workloadDef{
		name:  "parallel8_inmem",
		why:   "8-way start fan and 8-source AND-join in memory: bag merge, clause coverage and merge order, which the chains never touch",
		chart: func() *statechart.Statechart { return workload.Parallel(8) },
		register: func(reg *service.Registry) error {
			workload.RegisterParallelProviders(reg, 8, service.SimulatedOptions{})
			return nil
		},
		inputs: counterInputs,
	}
	tcp := chain8("chain8_tcp",
		"chain8_inmem over loopback TCP: same engine work and bytes, so the difference is the socket path (frame write, queues, lanes, wake-ups)")
	tcp.tcp = true
	jnl := chain8("chain8_journal",
		"chain8_inmem with the write-ahead journal on (fsync off): 35 appends per execution put journal encode+write in front")
	jnl.journal = true
	travel := workloadDef{
		name:  "travel_replicated",
		why:   "the paper's travel scenario on 3 replicas with tenant shards: XOR+AND regions, function-call guards, a ~10-variable bag, a community, rendezvous routing",
		chart: workload.Travel,
		register: func(reg *service.Registry) error {
			_, err := workload.RegisterTravelProviders(reg, service.SimulatedOptions{})
			return err
		},
		replicas:  3,
		placement: placement.Policy{ShardSize: 2},
		guards:    true,
		inputs:    travelInputs,
	}
	return []workloadDef{inmem, parallel, tcp, jnl, travel}
}

// workloadNamed returns the workload called name; the name is one of the
// benchmark's own, so a miss is a bug.
func workloadNamed(name string) *workloadDef {
	for _, w := range workloads() {
		if w.name == name {
			return &w
		}
	}
	panic("bench: no workload named " + name)
}

// request is one generated input with the output the program must give.
type request struct {
	inputs map[string]string
	want   map[string]string
}

// sequence returns the seeded order in which the distinct requests are
// issued: a shuffle of sequenceLen slots holding each request equally
// often. Same seed, same order.
func sequence(rng *rand.Rand, distinct int) []int {
	seq := make([]int, sequenceLen)
	for i := range seq {
		seq[i] = i % distinct
	}
	rng.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	return seq
}

// verify reports whether got is the reference output. The community's QoS
// policy may legitimately book another hotel brand than the hub run did,
// so accommodation only has to be present.
func verify(got, want map[string]string) bool {
	if len(got) != len(want) {
		return false
	}
	for k, w := range want {
		g, ok := got[k]
		if !ok {
			return false
		}
		if k == "accommodation" {
			if g == "" {
				return false
			}
			continue
		}
		if g != w {
			return false
		}
	}
	return true
}

// deployment is one round's running platform.
type deployment struct {
	platform *core.Platform
	comp     *core.Composite
	net      transport.Network
	tmpDir   string // journal directory, removed at close
}

// deploy builds a fresh platform for w: network, hosts, providers,
// Deploy. With a tracer the network, the providers and the guard functions
// are wrapped in its decorators; the program is otherwise identical.
func (w *workloadDef) deploy(tr *tracer) (*deployment, error) {
	d := &deployment{}
	if w.tcp {
		d.net = transport.NewTCP()
	} else {
		d.net = transport.NewInMem(transport.InMemOptions{})
	}
	opts := core.Options{
		Network:     d.net,
		Placement:   w.placement,
		HostOptions: engine.HostOptions{MaxInstancesPerState: instanceCap},
	}
	if tr != nil {
		opts.Network = tr.wrapNetwork(d.net)
	}
	if w.guards {
		opts.Funcs = workload.TravelGuards()
		if tr != nil {
			opts.Funcs = tr.wrapFuncs(opts.Funcs)
		}
	}
	if w.journal {
		dir, err := os.MkdirTemp("", "selfserv-bench-journal-")
		if err != nil {
			return nil, err
		}
		d.tmpDir = dir
		// Fsync off, as stated in the workload's why: the sandbox's disk
		// is not a device measurement.
		opts.Durability = journal.Options{Dir: dir, Fsync: journal.FsyncOff}
	}
	d.platform = core.New(opts)
	err := d.platform.DurabilityError()
	if err == nil {
		err = w.populate(d.platform, tr)
	}
	if err == nil {
		d.comp, err = d.platform.Deploy(w.chart())
	}
	if err != nil {
		d.close()
		return nil, fmt.Errorf("%s: deploy: %w", w.name, err)
	}
	return d, nil
}

// populate adds w's hosts to p and places its providers on them.
func (w *workloadDef) populate(p *core.Platform, tr *tracer) error {
	if err := w.register(p.Registry()); err != nil {
		return err
	}
	// Each provider is wrapped once, however many hosts it is placed on.
	services := w.chart().Services()
	provs := make([]service.Provider, len(services))
	for i, svc := range services {
		prov, err := p.Registry().Lookup(svc)
		if err != nil {
			return err
		}
		if tr != nil {
			prov = tr.wrapProvider(prov)
		}
		provs[i] = prov
	}
	if w.replicas == 0 {
		for i, svc := range services {
			h, err := p.AddHost(p.Network().MintAddr(fmt.Sprintf("host-%d-%s", i, svc)))
			if err != nil {
				return err
			}
			p.RegisterService(h, provs[i])
		}
		return nil
	}
	for r := 0; r < w.replicas; r++ {
		h, err := p.AddHost(p.Network().MintAddr(fmt.Sprintf("replica-%d", r)))
		if err != nil {
			return err
		}
		for _, prov := range provs {
			p.RegisterService(h, prov)
		}
	}
	return nil
}

// close tears the round down completely — platform, caller-supplied
// network, journal directory — so nothing of it leaks into the next one.
func (d *deployment) close() error {
	var first error
	if d.platform != nil {
		first = d.platform.Close()
	}
	if err := d.net.Close(); err != nil && first == nil {
		first = err
	}
	if d.tmpDir != "" {
		if err := os.RemoveAll(d.tmpDir); err != nil && first == nil {
			first = err
		}
	}
	return first
}
