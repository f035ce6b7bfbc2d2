package expr

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func env(pairs ...any) *MapEnv {
	e := NewMapEnv()
	for i := 0; i+1 < len(pairs); i += 2 {
		name := pairs[i].(string)
		switch v := pairs[i+1].(type) {
		case bool:
			e.Bind(name, Bool(v))
		case float64:
			e.Bind(name, Number(v))
		case int:
			e.Bind(name, Number(float64(v)))
		case string:
			e.Bind(name, StringVal(v))
		default:
			panic(fmt.Sprintf("bad pair value %T", v))
		}
	}
	return e
}

func TestEvalBoolTable(t *testing.T) {
	e := env(
		"destination", "sydney",
		"price", 120.5,
		"stars", 4,
		"vip", true,
		"trip.distance", 35.0,
	)
	e.BindFunc("domestic", func(args []Value) (Value, error) {
		s, err := args[0].AsString()
		if err != nil {
			return Value{}, err
		}
		return Bool(s == "sydney" || s == "melbourne"), nil
	})
	e.BindFunc("near", func(args []Value) (Value, error) {
		a, _ := args[0].AsNumber()
		return Bool(a < 50), nil
	})

	cases := []struct {
		src  string
		want bool
	}{
		{"true", true},
		{"false", false},
		{"", true}, // empty guard means "always"
		{"   ", true},
		{"not false", true},
		{"!false", true},
		{"not not true", true},
		{"true and true", true},
		{"true && false", false},
		{"false or true", true},
		{"false || false", false},
		{"vip", true},
		{"not vip or vip", true},
		{"price < 200", true},
		{"price <= 120.5", true},
		{"price > 120.5", false},
		{"price >= 121", false},
		{"stars = 4", true},
		{"stars == 4", true},
		{"stars != 5", true},
		{"stars <> 5", true},
		{"destination = 'sydney'", true},
		{"destination == \"sydney\"", true},
		{"destination != 'tokyo'", true},
		{"destination < 'tokyo'", true}, // lexicographic
		{"domestic(destination)", true},
		{"not domestic('tokyo')", true},
		{"near(trip.distance)", true},
		{"not near(trip.distance + 100)", true},
		{"price * 2 > 240", true},
		{"(price + 79.5) / 2 = 100", true},
		{"10 % 3 = 1", true},
		{"-price < 0", true},
		{"min(stars, 10) = 4", true},
		{"max(1, 2, 3) = 3", true},
		{"abs(-3) = 3", true},
		{"floor(1.9) = 1", true},
		{"ceil(1.1) = 2", true},
		{"round(1.5) = 2", true},
		{"sqrt(16) = 4", true},
		{"len(destination) = 6", true},
		{"contains(destination, 'syd')", true},
		{"prefix(destination, 'syd')", true},
		{"suffix(destination, 'ney')", true},
		{"lower('ABC') = 'abc'", true},
		{"upper('abc') = 'ABC'", true},
		{"trim('  x ') = 'x'", true},
		{"if(vip, 1, 2) = 1", true},
		{"number('42') = 42", true},
		{"string(42) = '42'", true},
		{"'a' + 'b' = 'ab'", true},
		{"price < 100 or stars >= 4 and vip", true},
		{"(price < 100 or stars >= 4) and vip", true},
	}
	for _, tc := range cases {
		got, err := EvalBool(tc.src, e)
		if err != nil {
			t.Errorf("EvalBool(%q): unexpected error: %v", tc.src, err)
			continue
		}
		if got != tc.want {
			t.Errorf("EvalBool(%q) = %v, want %v", tc.src, got, tc.want)
		}
	}
}

func TestEvalNumbers(t *testing.T) {
	e := env("x", 7, "y", 2)
	cases := []struct {
		src  string
		want float64
	}{
		{"x + y", 9},
		{"x - y", 5},
		{"x * y", 14},
		{"x / y", 3.5},
		{"x % y", 1},
		{"-x + y", -5},
		{"x + y * 3", 13},
		{"(x + y) * 3", 27},
		{"2 * -3", -6},
		{"1e3 + 1", 1001},
		{"0.5 * 4", 2},
	}
	for _, tc := range cases {
		v, err := Eval(tc.src, e)
		if err != nil {
			t.Fatalf("Eval(%q): %v", tc.src, err)
		}
		n, err := v.AsNumber()
		if err != nil {
			t.Fatalf("Eval(%q) kind = %v, want number", tc.src, v.Kind())
		}
		if n != tc.want {
			t.Errorf("Eval(%q) = %g, want %g", tc.src, n, tc.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"(", ")", "1 +", "and true", "true and", "x ==", "== x",
		"f(", "f(1,", "f(1", "'unterminated", "\"unterminated",
		"a..b", "a.", "1 2", "x & y", "x | y", "@", "1 = = 2",
		"not", "x !", "'bad\\q'",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		} else {
			var se *SyntaxError
			if !errorsAs(err, &se) {
				t.Errorf("Parse(%q) error is %T, want *SyntaxError", src, err)
			}
		}
	}
}

// errorsAs is a tiny local clone to avoid importing errors just for one call.
func errorsAs(err error, target **SyntaxError) bool {
	for err != nil {
		if se, ok := err.(*SyntaxError); ok {
			*target = se
			return true
		}
		type unwrapper interface{ Unwrap() error }
		u, ok := err.(unwrapper)
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

func TestEvalErrors(t *testing.T) {
	e := env("s", "abc", "n", 3, "b", true)
	bad := []string{
		"missing",             // undefined variable
		"nosuchfn(1)",         // undefined function
		"defined(x)",          // no such builtin either
		"s + n",               // mixed + with non-numbers
		"s < n",               // incomparable kinds
		"not n",               // not on number
		"n and b",             // and on number
		"n or b",              // or with number on lhs
		"-s",                  // negate string
		"1 / 0",               // division by zero
		"1 % 0",               // modulo by zero
		"1.5 % 2",             // non-integer modulo
		"abs('x')",            // wrong arg type
		"abs(1, 2)",           // wrong arity
		"len(1)",              // len of number
		"if(1, 2, 3)",         // if cond not bool
		"number('not-a-num')", // unconvertible
		"min()",               // empty variadic
		"contains('a')",       // arity
	}
	for _, src := range bad {
		if _, err := Eval(src, e); err == nil {
			t.Errorf("Eval(%q) succeeded, want error", src)
		}
	}
}

func TestShortCircuit(t *testing.T) {
	calls := 0
	e := NewMapEnv().Bind("t", Bool(true)).Bind("f", Bool(false))
	e.BindFunc("boom", func([]Value) (Value, error) {
		calls++
		return Value{}, fmt.Errorf("must not be called")
	})
	if ok, err := EvalBool("f and boom()", e); err != nil || ok {
		t.Fatalf("f and boom() = %v, %v; want false, nil", ok, err)
	}
	if ok, err := EvalBool("t or boom()", e); err != nil || !ok {
		t.Fatalf("t or boom() = %v, %v; want true, nil", ok, err)
	}
	if calls != 0 {
		t.Fatalf("boom called %d times, want 0", calls)
	}
}

func TestStringRoundTrip(t *testing.T) {
	srcs := []string{
		"true",
		"price < 200 and not domestic(destination)",
		"near(major_attraction, accommodation)",
		"(a or b) and c",
		"a or (b and c)",
		"x + y * z",
		"(x + y) * z",
		"-x",
		"f()",
		"f(1, 'two', g(3))",
		"a.b.c = 'v'",
		"s != 'it\\'s'",
	}
	e := NewMapEnv()
	for _, src := range srcs {
		n1, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		rendered := n1.String()
		n2, err := Parse(rendered)
		if err != nil {
			t.Fatalf("re-Parse(%q) from %q: %v", rendered, src, err)
		}
		if n1.String() != n2.String() {
			t.Errorf("round trip diverged: %q -> %q -> %q", src, rendered, n2.String())
		}
		_ = e
	}
}

func TestVariablesAndFunctions(t *testing.T) {
	n := MustParse("near(major_attraction, accommodation) and price < budget or f(x)")
	vars := Variables(n)
	wantVars := map[string]bool{"major_attraction": true, "accommodation": true, "price": true, "budget": true, "x": true}
	if len(vars) != len(wantVars) {
		t.Fatalf("Variables = %v, want keys %v", vars, wantVars)
	}
	for _, v := range vars {
		if !wantVars[v] {
			t.Errorf("unexpected variable %q", v)
		}
	}
	fns := Functions(n)
	wantFns := map[string]bool{"near": true, "f": true}
	if len(fns) != len(wantFns) {
		t.Fatalf("Functions = %v, want keys %v", fns, wantFns)
	}
	for _, f := range fns {
		if !wantFns[f] {
			t.Errorf("unexpected function %q", f)
		}
	}
}

func TestChainEnv(t *testing.T) {
	inner := NewMapEnv().Bind("x", Number(1)).Bind("shadow", StringVal("inner"))
	outer := NewMapEnv().Bind("y", Number(2)).Bind("shadow", StringVal("outer"))
	c := ChainEnv{inner, outer}
	v, ok := c.Lookup("x")
	if !ok || v.n != 1 {
		t.Fatalf("Lookup(x) = %v, %v", v, ok)
	}
	v, ok = c.Lookup("y")
	if !ok || v.n != 2 {
		t.Fatalf("Lookup(y) = %v, %v", v, ok)
	}
	v, ok = c.Lookup("shadow")
	if !ok || v.s != "inner" {
		t.Fatalf("Lookup(shadow) = %v, want inner binding", v)
	}
	if _, ok := c.Lookup("absent"); ok {
		t.Fatal("Lookup(absent) found a value")
	}
	if _, ok := c.Func("abs"); !ok {
		t.Fatal("ChainEnv did not resolve builtin through MapEnv")
	}
}

func TestFromText(t *testing.T) {
	cases := []struct {
		in   string
		kind Kind
	}{
		{"true", KindBool},
		{"false", KindBool},
		{"42", KindNumber},
		{"-1.5", KindNumber},
		{"1e9", KindNumber},
		{"hello", KindString},
		{"TRUE", KindString}, // only lowercase spellings are bools
		{"", KindString},
	}
	for _, tc := range cases {
		if got := FromText(tc.in).Kind(); got != tc.kind {
			t.Errorf("FromText(%q).Kind() = %v, want %v", tc.in, got, tc.kind)
		}
	}
}

// TestFromTextMatchesUnguarded holds FromText, which decides most strings
// from their first byte, to the function it was before the guard: bool
// spellings, then whatever strconv.ParseFloat accepts, then string. The
// table has every spelling family ParseFloat knows; the loop adds every
// one- and two-byte string, so no first byte is guessed wrong.
func TestFromTextMatchesUnguarded(t *testing.T) {
	unguarded := func(s string) Value {
		switch s {
		case "true":
			return Bool(true)
		case "false":
			return Bool(false)
		}
		if n, err := strconv.ParseFloat(s, 64); err == nil {
			return Number(n)
		}
		return StringVal(s)
	}
	inputs := []string{
		"inf", "+Inf", "-inf", "Infinity", "-INFINITY", "nan", "NaN", "+nan",
		".5", "-.5e3", "+.5", "5.", "0x1p-2", "-0X1.8p3", "0x_1p0", "1_0", "0b101", "0o17",
		"", "-", "+", ".", "e5", "E5", "true", "false", "True", "sydney", "QF-421", "i421", "north", "Nice",
		"1e9", "1e", "١٢٣", " 1", "1 ", "\x001",
	}
	for a := 0; a < 256; a++ {
		inputs = append(inputs, string([]byte{byte(a)}))
		for b := 0; b < 256; b++ {
			inputs = append(inputs, string([]byte{byte(a), byte(b)}))
		}
	}
	for _, in := range inputs {
		got, want := FromText(in), unguarded(in)
		// NaN != NaN: compare what a NaN renders as.
		if got.Kind() != want.Kind() || got.Text() != want.Text() {
			t.Errorf("FromText(%q) = %s %v, unguarded says %s %v", in, got.Kind(), got, want.Kind(), want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { FromText("sydney") }); n != 0 {
		t.Errorf("FromText of a plain string allocates %v objects, want 0", n)
	}
}

func TestValueAccessors(t *testing.T) {
	if _, err := Bool(true).AsNumber(); err == nil {
		t.Error("AsNumber on bool succeeded")
	}
	if _, err := Number(1).AsString(); err == nil {
		t.Error("AsString on number succeeded")
	}
	if _, err := StringVal("x").AsBool(); err == nil {
		t.Error("AsBool on string succeeded")
	}
	if Bool(true).Text() != "true" || Number(2.5).Text() != "2.5" || StringVal("s").Text() != "s" {
		t.Error("Text() canonical forms wrong")
	}
	if !Number(1).Equal(Number(1)) || Number(1).Equal(Number(2)) || Number(1).Equal(StringVal("1")) {
		t.Error("Equal semantics wrong")
	}
}

// Property: every parsed expression renders to a string that re-parses and
// evaluates to the same value.
func TestQuickRenderEvalEquivalence(t *testing.T) {
	e := env("a", 3, "b", 5, "s", "hello", "flag", true)
	exprs := []string{
		"a + b", "a * b - 2", "a < b", "a = b or flag",
		"contains(s, 'ell') and a + 1 <= b", "not flag or a > 0",
		"if(flag, a, b) + min(a, b)",
	}
	for _, src := range exprs {
		n := MustParse(src)
		v1, err := n.Eval(e)
		if err != nil {
			t.Fatalf("Eval(%q): %v", src, err)
		}
		n2 := MustParse(n.String())
		v2, err := n2.Eval(e)
		if err != nil {
			t.Fatalf("Eval(render(%q)): %v", src, err)
		}
		if !v1.Equal(v2) {
			t.Errorf("%q: value changed after render round trip: %s vs %s", src, v1, v2)
		}
	}
}

// Property: arithmetic in the language matches Go float64 arithmetic.
func TestQuickArithmeticMatchesGo(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		e := NewMapEnv().Bind("a", Number(a)).Bind("b", Number(b))
		v, err := Eval("a + b * 2 - a / 4", e)
		if err != nil {
			return false
		}
		got, err := v.AsNumber()
		if err != nil {
			return false
		}
		want := a + b*2 - a/4
		return got == want || math.Abs(got-want) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: comparison operators form a total order consistent with Go.
func TestQuickComparisonsMatchGo(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		e := NewMapEnv().Bind("a", Number(a)).Bind("b", Number(b))
		checks := []struct {
			src  string
			want bool
		}{
			{"a < b", a < b},
			{"a <= b", a <= b},
			{"a > b", a > b},
			{"a >= b", a >= b},
			{"a = b", a == b},
			{"a != b", a != b},
		}
		for _, c := range checks {
			got, err := EvalBool(c.src, e)
			if err != nil || got != c.want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: lexer never loops forever and tokenizes printable ASCII
// without panicking.
func TestQuickLexerTotal(t *testing.T) {
	f := func(s string) bool {
		// Constrain to printable ASCII to focus on grammar, not UTF-8 noise.
		var sb strings.Builder
		for _, r := range s {
			if r >= ' ' && r < 127 {
				sb.WriteRune(r)
			}
		}
		l := newLexer(sb.String())
		for i := 0; i < len(sb.String())+2; i++ {
			tok, err := l.next()
			if err != nil {
				return true // errors are fine; hangs/panics are not
			}
			if tok.kind == tokEOF {
				return true
			}
		}
		return false // did not terminate within bound
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestSyntaxErrorMessage(t *testing.T) {
	_, err := Parse("price <")
	if err == nil {
		t.Fatal("expected error")
	}
	msg := err.Error()
	for _, want := range []string{"syntax error", "price <"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q does not mention %q", msg, want)
		}
	}
}

func BenchmarkParseGuard(b *testing.B) {
	src := "not near(major_attraction, accommodation) and price < budget"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvalGuard(b *testing.B) {
	n := MustParse("not near(dist) and price < budget")
	e := NewMapEnv().
		Bind("dist", Number(120)).
		Bind("price", Number(80)).
		Bind("budget", Number(100))
	e.BindFunc("near", func(args []Value) (Value, error) {
		d, err := args[0].AsNumber()
		if err != nil {
			return Value{}, err
		}
		return Bool(d < 50), nil
	})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v, err := n.Eval(e)
		if err != nil || !v.IsTrue() {
			b.Fatalf("eval = %v, %v", v, err)
		}
	}
}

// TestExclusive: two guards exclude each other only when their syntax
// proves it, conjunct by conjunct.
func TestExclusive(t *testing.T) {
	cases := []struct {
		a, b string
		want bool
	}{
		{"domestic(destination)", "not domestic(destination)", true},
		{"not near(d)", "near(d)", true},
		{"x % 2 = 0", "x % 2 = 1", true},
		{"x < 3", "x >= 3", true},
		{"x > 0", "x <= 0", true},
		{"kind = 'a'", "kind != 'a'", true},
		{"(y = 1) and (x < 3)", "x >= 3", true},
		{"x = 1", "x = 1.0", false}, // one number, written twice
		{"x > 0", "x > 1", false},
		{"x < 3", "y >= 3", false},
		{"x < 3 or y", "x >= 3", false},
		{"", "x > 0", false},
		{"x >", "x <=", false},
	}
	for _, c := range cases {
		a, _ := Parse(c.a) // nil when it does not parse
		b, _ := Parse(c.b)
		if got := Exclusive(a, b); got != c.want {
			t.Errorf("Exclusive(%q, %q) = %v, want %v", c.a, c.b, got, c.want)
		}
		if got := Exclusive(b, a); got != c.want {
			t.Errorf("Exclusive(%q, %q) = %v, want %v", c.b, c.a, got, c.want)
		}
	}
}
