package workload

import (
	"context"
	"maps"
	"testing"

	"selfserv/internal/community"
	"selfserv/internal/service"
)

// TestProvidersLeaveTheirParamsBorrowed pins service.Request.Params'
// borrow rule on every shipped provider: once Invoke has returned, the
// caller overwrites and then clears the map it lent — as a firing worker
// does before its next firing — and the Outputs the call returned do not
// change. The community is invoked a second time under the same key, so
// its idempotency cache's replay is checked against the same rule.
func TestProvidersLeaveTheirParamsBorrowed(t *testing.T) {
	chain, parallel, travel := service.NewRegistry(), service.NewRegistry(), service.NewRegistry()
	RegisterChainProviders(chain, 8, service.SimulatedOptions{})
	RegisterParallelProviders(parallel, 8, service.SimulatedOptions{})
	if _, err := RegisterTravelProviders(travel, service.SimulatedOptions{}); err != nil {
		t.Fatal(err)
	}
	inputs := map[string]string{"x": "3", "dest": "melbourne", "customer": "alice", "addr": "GrandHotel melbourne"}
	ctx := context.Background()
	invoked := 0
	for _, reg := range []*service.Registry{chain, parallel, travel} {
		for _, name := range reg.Names() {
			prov, err := reg.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, op := range prov.Operations() {
				params := maps.Clone(inputs)
				req := service.Request{Service: name, Operation: op, Params: params,
					IdempotencyKey: service.Key{Composite: "Borrow", Instance: name, State: op, Seq: 1}}
				resp, err := prov.Invoke(ctx, req)
				if err != nil || len(resp.Outputs) == 0 {
					t.Fatalf("%s.%s: outputs %v, err %v", name, op, resp.Outputs, err)
				}
				want := maps.Clone(resp.Outputs)
				for k := range params {
					params[k] = "overwritten"
				}
				params["extra"] = "added"
				if !maps.Equal(resp.Outputs, want) {
					t.Errorf("%s.%s: outputs became %v when the caller overwrote its params, want %v", name, op, resp.Outputs, want)
				}
				clear(params)
				if !maps.Equal(resp.Outputs, want) {
					t.Errorf("%s.%s: outputs became %v when the caller cleared its params, want %v", name, op, resp.Outputs, want)
				}
				if _, ok := prov.(*community.Community); ok {
					replay, err := prov.Invoke(ctx, req)
					if err != nil || !maps.Equal(replay.Outputs, want) {
						t.Errorf("%s.%s: replay under the same key gave %v, err %v, want %v", name, op, replay.Outputs, err, want)
					}
				}
				invoked++
			}
		}
	}
	if want := 8 + 8 + 5; invoked != want {
		t.Errorf("invoked %d provider operations, want %d", invoked, want)
	}
}
