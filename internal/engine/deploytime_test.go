package engine_test

import (
	"strings"
	"testing"

	"selfserv/internal/engine"
	"selfserv/internal/message"
	"selfserv/internal/routing"
	"selfserv/internal/service"
	"selfserv/internal/statechart"
	"selfserv/internal/transport"
	"selfserv/internal/workload"
)

// These tests pin the compiled-plan contract: an ill-formed guard or
// action surfaces when the artifact is DEPLOYED (Host.Install,
// NewWrapper, NewCentral), never while an instance is executing. Before
// the compiled-plan layer the same inputs deployed fine and faulted the
// first instance that evaluated the broken expression.

// badPlan returns a structurally valid single-state plan with one
// expression replaced by unparseable source, per the mutate callback.
func badPlan(mutate func(p *routing.Plan)) *routing.Plan {
	p := &routing.Plan{
		Composite: "C",
		Tables: map[string]*routing.Table{
			"s": {
				State:     "s",
				Service:   "svc1",
				Operation: "op",
				Preconditions: []routing.Clause{
					{Sources: []string{message.WrapperID}},
				},
				Postprocessings: []routing.Target{
					{To: message.WrapperID},
				},
			},
		},
		Start:  []routing.Target{{To: "s"}},
		Finish: []routing.Clause{{Sources: []string{"s"}}},
	}
	mutate(p)
	return p
}

func chainRegistry(t *testing.T) *service.Registry {
	t.Helper()
	reg := service.NewRegistry()
	workload.RegisterChainProviders(reg, 1, service.SimulatedOptions{})
	return reg
}

func TestInstallRejectsInvalidGuards(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(p *routing.Plan)
	}{
		{"precondition-condition", func(p *routing.Plan) {
			p.Tables["s"].Preconditions[0].Condition = "x > ("
		}},
		{"precondition-action", func(p *routing.Plan) {
			p.Tables["s"].Preconditions[0].Actions = []statechart.Assignment{{Var: "y", Expr: "1 +"}}
		}},
		{"postprocessing-condition", func(p *routing.Plan) {
			p.Tables["s"].Postprocessings[0].Condition = "and and"
		}},
		{"postprocessing-action", func(p *routing.Plan) {
			p.Tables["s"].Postprocessings[0].Actions = []statechart.Assignment{{Var: "y", Expr: "(("}}
		}},
		{"input-binding-expr", func(p *routing.Plan) {
			p.Tables["s"].Inputs = []statechart.Binding{{Param: "in", Expr: "x ++"}}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			net := transport.NewInMem(transport.InMemOptions{})
			defer net.Close()
			dir := engine.NewDirectory()
			h, err := engine.NewHost(net, "h1", chainRegistry(t), dir, engine.HostOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer h.Close()
			plan := badPlan(tc.mutate)
			err = engine.InstallTable(h, "C", plan.Tables["s"])
			if err == nil {
				t.Fatal("Install accepted a table with an unparseable expression")
			}
			if !strings.Contains(err.Error(), "install") && !strings.Contains(err.Error(), "compile") {
				t.Errorf("error %q does not identify the deploy-time failure", err)
			}
			// The broken coordinator must not have been registered, nor the
			// host have joined a replica set for it.
			if states := h.States(); len(states) != 0 {
				t.Errorf("host registered states %v despite failed install", states)
			}
			if peers := dir.PeerReplicas("C", 0); len(peers) != 0 {
				t.Errorf("directory lists %v despite failed install", peers)
			}
		})
	}
}

func TestWrapperRejectsInvalidPlanGuards(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(p *routing.Plan)
	}{
		{"start-condition", func(p *routing.Plan) {
			p.Start[0].Condition = "vip and ("
		}},
		{"start-action", func(p *routing.Plan) {
			p.Start[0].Actions = []statechart.Assignment{{Var: "y", Expr: "* 2"}}
		}},
		{"finish-condition", func(p *routing.Plan) {
			p.Finish[0].Condition = "x <"
		}},
		{"table-condition", func(p *routing.Plan) {
			p.Tables["s"].Postprocessings[0].Condition = "))"
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			net := transport.NewInMem(transport.InMemOptions{})
			defer net.Close()
			dir := engine.NewDirectory()
			plan := badPlan(tc.mutate)
			if _, err := newWrapper(net, "w1", dir, plan, engine.HostOptions{}); err == nil {
				t.Fatal("NewWrapper accepted a plan with an unparseable expression")
			}
			if _, err := newCentral(net, "c1", dir, plan, nil); err == nil {
				t.Fatal("NewCentral accepted a plan with an unparseable expression")
			}
		})
	}
}

// TestValidGuardsStillDeploy guards the other direction: the deploy-time
// compilation must not reject plans whose guards are well-formed but
// reference variables that only exist at runtime.
func TestValidGuardsStillDeploy(t *testing.T) {
	net := transport.NewInMem(transport.InMemOptions{})
	defer net.Close()
	dir := engine.NewDirectory()
	plan := badPlan(func(p *routing.Plan) {
		p.Start[0].Condition = "" // always
		p.Tables["s"].Preconditions[0].Condition = "runtime_only_var > 3"
		p.Tables["s"].Postprocessings[0].Condition = "near(x) or price < budget"
	})
	h, err := engine.NewHost(net, "h1", chainRegistry(t), dir, engine.HostOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if err := engine.InstallTable(h, "C", plan.Tables["s"]); err != nil {
		t.Fatalf("Install rejected a well-formed table: %v", err)
	}
	w, err := newWrapper(net, "w1", dir, plan, engine.HostOptions{})
	if err != nil {
		t.Fatalf("NewWrapper rejected a well-formed plan: %v", err)
	}
	defer w.Close()
}
