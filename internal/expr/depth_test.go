package expr

import (
	"errors"
	"reflect"
	"strings"
	"testing"
)

// height is the height of n's tree, the second thing Parse bounds.
func height(n Node) int {
	switch n := n.(type) {
	case *notNode:
		return 1 + height(n.x)
	case *negNode:
		return 1 + height(n.x)
	case *binNode:
		return 1 + max(height(n.l), height(n.r))
	case *callNode:
		h := 0
		for _, a := range n.args {
			h = max(h, height(a))
		}
		return 1 + h
	default:
		return 1
	}
}

// nested wraps inner in depth levels of open and close.
func nested(open, inner, close string, depth int) string {
	return strings.Repeat(open, depth) + inner + strings.Repeat(close, depth)
}

// TestNestingPastMaxDepthIsRefused: every way an expression nests —
// parentheses, "not", unary minus, call arguments, and a chain of binary
// operators whose tree grows one level per operator — is parsed up to
// its bound (MaxDepth levels of tree, twice that of parentheses around
// one leaf) and refused past it, with a SyntaxError that wraps
// ErrTooDeep and names an offset inside the source. The refused depth, 1,000, is
// one a parent commit without the bound parses (it parsed 3×10⁵ levels,
// and ended the process with a fatal stack overflow at 10⁶), so this
// test fails there; 10⁶ levels are refused here like any other depth.
func TestNestingPastMaxDepthIsRefused(t *testing.T) {
	const deep = 1000
	shapes := []struct {
		name  string
		bound int
		at    func(depth int) string
	}{
		{"parentheses", 2 * MaxDepth, func(d int) string { return nested("(", "x", ")", d) }},
		{"not", MaxDepth, func(d int) string { return nested("!", "true", "", d-1) }},
		{"minus", MaxDepth, func(d int) string { return nested("-", "x", "", d-1) }},
		{"calls", MaxDepth, func(d int) string { return nested("f(", "x", ")", d-1) }},
		{"chain", MaxDepth, func(d int) string { return "x" + strings.Repeat(" + 1", d-1) }},
	}
	for _, s := range shapes {
		t.Run(s.name, func(t *testing.T) {
			n, err := Parse(s.at(s.bound))
			if err != nil {
				t.Fatalf("depth %d: %v", s.bound, err)
			}
			if h := height(n); h > MaxDepth {
				t.Errorf("depth %d parsed to a tree %d high", s.bound, h)
			}
			for _, depth := range []int{s.bound + 1, deep, 1_000_000} {
				src := s.at(depth)
				_, err := Parse(src)
				var syn *SyntaxError
				if !errors.Is(err, ErrTooDeep) || !errors.As(err, &syn) || syn.Pos <= 0 || syn.Pos > len(src) {
					t.Fatalf("depth %d: %v, want a SyntaxError wrapping ErrTooDeep at an offset inside the source", depth, err)
				}
			}
		})
	}
}

// FuzzParseExpr: Parse never panics on any input; what it accepts nests
// no deeper than MaxDepth, and its String parses back to an equal tree;
// what it refuses for depth it refuses with a SyntaxError at an offset
// inside the source.
func FuzzParseExpr(f *testing.F) {
	for _, src := range []string{
		"true", "price < 200 and not domestic(destination)", "near(major_attraction, accommodation)",
		"(a or b) and c", "x + y * z", "-x", "- -1", "f(1, 'two', g(3))", "s != 'it\\'s'", "x % 2 = 0",
		nested("(", "x > 1", ")", MaxDepth), nested("!", "true", "", MaxDepth+1), "x" + strings.Repeat(" - 1", MaxDepth),
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		n, err := Parse(src)
		if err != nil {
			var syn *SyntaxError
			if errors.Is(err, ErrTooDeep) && (!errors.As(err, &syn) || syn.Pos < 0 || syn.Pos > len(src)) {
				t.Fatalf("refused for depth with %v", err)
			}
			return
		}
		if h := height(n); h > MaxDepth {
			t.Fatalf("accepted a tree %d high", h)
		}
		back, err := Parse(n.String())
		if err != nil {
			t.Fatalf("%q parses, its String %q does not: %v", src, n.String(), err)
		}
		if !reflect.DeepEqual(back, n) {
			t.Fatalf("%q parses to %s, which parses back to %s", src, n, back)
		}
	})
}
