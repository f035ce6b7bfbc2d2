package engine

import (
	"context"
	"maps"
	"strconv"
	"strings"
	"testing"

	"selfserv/internal/journal"
	"selfserv/internal/service"
)

// TestPrimeReadsKeysWrittenAsText: the committed Chain(8) journal
// directory was written while an invoke record carried its idempotency
// key as text, "composite/instance/state/fireSeq". For every invoke
// record there, recovery primes the service.Key that text spells, built
// from the record's own fields: a service.Idempotent primed by
// primeInvoke replays the journaled outputs for that key without
// reaching its provider.
func TestPrimeReadsKeysWrittenAsText(t *testing.T) {
	var invokes []*journal.Record
	if err := journal.Walk("../journal/testdata/chain8", func(e journal.Entry) error {
		if e.Record.Kind == journal.KindInvoke {
			invokes = append(invokes, e.Record)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(invokes) == 0 {
		t.Fatal("the golden directory holds no invoke record")
	}
	ctx := context.Background()
	for _, r := range invokes {
		parts := strings.Split(r.Key, "/")
		if len(parts) != 4 {
			t.Fatalf("invoke record key %q is not composite/instance/state/fireSeq", r.Key)
		}
		seq, err := strconv.ParseUint(parts[3], 10, 64)
		if err != nil {
			t.Fatalf("invoke record key %q: %v", r.Key, err)
		}
		want := service.Key{Composite: parts[0], Instance: parts[1], State: parts[2], Seq: seq}

		prov := service.NewSimulated(r.Service, service.SimulatedOptions{})
		prov.Handle("run", func(context.Context, map[string]string) (map[string]string, error) {
			return map[string]string{"x": "executed"}, nil
		})
		reg := service.NewRegistry()
		reg.Register(service.NewIdempotent(prov, 0))
		if !primeInvoke(map[*service.Registry]bool{reg: true}, r) {
			t.Fatalf("record keyed %q found no idempotency cache to prime", r.Key)
		}
		resp, err := reg.Invoke(ctx, service.Request{Service: r.Service, Operation: "run",
			Params: map[string]string{"x": "0"}, IdempotencyKey: want})
		if invoked, _, _ := prov.Counters(); err != nil || invoked != 0 || !maps.Equal(resp.Outputs, r.Outputs) {
			t.Errorf("record keyed %q: the primed key gave %v (err %v) after %d invocation(s), want the journaled %v and none",
				r.Key, resp.Outputs, err, invoked, r.Outputs)
		}
	}
}
