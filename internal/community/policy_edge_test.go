package community

import (
	"context"
	"errors"
	"strings"
	"testing"

	"selfserv/internal/service"
)

// TestAllIneligibleIsNoMemberNotAllDark: when every member's predicate
// rejects the request, the error is ErrNoMember (a routing problem), not
// ErrAllDark (an availability incident).
func TestAllIneligibleIsNoMemberNotAllDark(t *testing.T) {
	c := New("C", Options{Breaker: breakerOpts(&manualClock{})})
	m := member("Sydney", 1, service.SimulatedOptions{})
	m.Attributes = map[string]string{"city": "sydney"}
	m.Predicate = "city = req.dest"
	if err := c.Join(m); err != nil {
		t.Fatal(err)
	}
	_, err := c.Invoke(context.Background(), service.Request{
		Operation: "book", Params: map[string]string{"dest": "mars"},
	})
	if !errors.Is(err, ErrNoMember) {
		t.Fatalf("all-ineligible err = %v, want ErrNoMember", err)
	}
	if errors.Is(err, ErrAllDark) {
		t.Fatal("all-ineligible must not report ErrAllDark")
	}
}

// TestPredicateErrorRejectsMemberNotRequest: a member whose predicate
// fails to EVALUATE (here: an unbound variable) is silently disqualified;
// the request still succeeds through a member with a valid predicate.
func TestPredicateErrorRejectsMemberNotRequest(t *testing.T) {
	c := New("C", Options{Policy: NewCheapest()})
	broken := member("BrokenPred", 1, service.SimulatedOptions{})
	// Parses fine (so Join accepts it) but references a variable neither
	// the attributes nor the request bind — evaluation always errors.
	broken.Predicate = "no_such_attribute = req.dest"
	good := member("Good", 9, service.SimulatedOptions{})
	if err := c.Join(broken); err != nil {
		t.Fatal(err)
	}
	if err := c.Join(good); err != nil {
		t.Fatal(err)
	}
	// Cheapest would prefer BrokenPred (cost 1 vs 9); its broken predicate
	// must knock IT out, not fail the request.
	resp, err := c.Invoke(context.Background(), service.Request{
		Operation: "book", Params: map[string]string{"dest": "d"},
	})
	if err != nil {
		t.Fatalf("request rejected by a member's broken predicate: %v", err)
	}
	if !strings.HasPrefix(resp.Outputs["addr"], "Good") {
		t.Fatalf("addr = %q, want Good", resp.Outputs["addr"])
	}
	// When the broken-predicate member is the ONLY member, the request
	// (correctly) finds nobody.
	c.Leave("Good")
	if _, err := c.Invoke(context.Background(), service.Request{
		Operation: "book", Params: map[string]string{"dest": "d"},
	}); !errors.Is(err, ErrNoMember) {
		t.Fatalf("err = %v, want ErrNoMember", err)
	}
}

// TestQoSTieBreakDeterministic: members with identical QoS history, cost,
// and load tie on score; the policy must resolve the tie by the
// deterministic name-sorted candidate order, every time.
func TestQoSTieBreakDeterministic(t *testing.T) {
	p := NewQoS(Weights{})
	c := New("C", Options{Policy: p})
	// Join in non-alphabetical order to prove sorting, not insertion
	// order, decides.
	for _, n := range []string{"Zulu", "Alpha", "Mike"} {
		if err := c.Join(member(n, 3, service.SimulatedOptions{})); err != nil {
			t.Fatal(err)
		}
	}
	// Identical histories for all three.
	for _, n := range []string{"Zulu", "Alpha", "Mike"} {
		c.History().Begin(n)
		c.History().End(n, 0, true)
	}
	for i := 0; i < 5; i++ {
		m, err := c.selectMember(service.Request{Operation: "book"}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if m.Name() != "Alpha" {
			t.Fatalf("iteration %d: tie broken to %q, want Alpha (first in name order)", i, m.Name())
		}
	}
}

// TestCheapestTieBreakDeterministic: equal costs resolve by name order.
func TestCheapestTieBreakDeterministic(t *testing.T) {
	c := New("C", Options{Policy: NewCheapest()})
	for _, n := range []string{"Bravo", "Delta", "Charlie"} {
		if err := c.Join(member(n, 2, service.SimulatedOptions{})); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		m, err := c.selectMember(service.Request{Operation: "book"}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if m.Name() != "Bravo" {
			t.Fatalf("iteration %d: tie broken to %q, want Bravo", i, m.Name())
		}
	}
}

// TestLeastLoadedTieBreakDeterministic: equal loads resolve by name order.
func TestLeastLoadedTieBreakDeterministic(t *testing.T) {
	c := New("C", Options{Policy: NewLeastLoaded()})
	for _, n := range []string{"Yankee", "Echo"} {
		if err := c.Join(member(n, 1, service.SimulatedOptions{})); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		m, err := c.selectMember(service.Request{Operation: "book"}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if m.Name() != "Echo" {
			t.Fatalf("iteration %d: tie broken to %q, want Echo", i, m.Name())
		}
	}
}
