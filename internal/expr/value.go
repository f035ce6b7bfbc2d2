// Package expr implements the guard-expression language used throughout
// SELF-SERV: in ECA rules on statechart transitions (e.g.
// "not domestic(destination)"), in routing-table preconditions, and in
// community membership predicates.
//
// The language is a small, side-effect-free expression language over three
// value kinds (booleans, numbers, strings) with variables, dotted paths,
// and host-registered functions. It is evaluated against an Env.
package expr

import (
	"fmt"
	"strconv"
)

// Kind enumerates the dynamic types a Value may hold.
type Kind int

// The value kinds.
const (
	KindBool Kind = iota
	KindNumber
	KindString
)

// String returns the lowercase name of the kind.
func (k Kind) String() string {
	switch k {
	case KindBool:
		return "bool"
	case KindNumber:
		return "number"
	case KindString:
		return "string"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Value is a dynamically typed value produced by evaluation.
// The zero Value is the boolean false.
type Value struct {
	kind Kind
	b    bool
	n    float64
	s    string
}

// Bool returns a boolean Value.
func Bool(b bool) Value { return Value{kind: KindBool, b: b} }

// Number returns a numeric Value.
func Number(n float64) Value { return Value{kind: KindNumber, n: n} }

// String returns a string Value.
func StringVal(s string) Value { return Value{kind: KindString, s: s} }

// Kind reports the dynamic kind of v.
func (v Value) Kind() Kind { return v.kind }

// IsTrue reports whether v is the boolean true.
func (v Value) IsTrue() bool { return v.kind == KindBool && v.b }

// AsBool returns the boolean content of v, or an error if v is not a bool.
func (v Value) AsBool() (bool, error) {
	if v.kind != KindBool {
		return false, fmt.Errorf("expr: %s is not a bool", v)
	}
	return v.b, nil
}

// AsNumber returns the numeric content of v, or an error if v is not a number.
func (v Value) AsNumber() (float64, error) {
	if v.kind != KindNumber {
		return 0, fmt.Errorf("expr: %s is not a number", v)
	}
	return v.n, nil
}

// AsString returns the string content of v, or an error if v is not a string.
func (v Value) AsString() (string, error) {
	if v.kind != KindString {
		return "", fmt.Errorf("expr: %s is not a string", v)
	}
	return v.s, nil
}

// Text returns the raw string content regardless of kind, rendering
// numbers and booleans in their canonical form. Useful for carrying
// values into XML documents.
func (v Value) Text() string {
	switch v.kind {
	case KindBool:
		return strconv.FormatBool(v.b)
	case KindNumber:
		return strconv.FormatFloat(v.n, 'g', -1, 64)
	default:
		return v.s
	}
}

// String implements fmt.Stringer. Strings are quoted so that the output
// is unambiguous in logs and error messages.
func (v Value) String() string {
	if v.kind == KindString {
		return strconv.Quote(v.s)
	}
	return v.Text()
}

// Equal reports deep equality of two values. Values of different kinds
// are never equal.
func (v Value) Equal(o Value) bool {
	if v.kind != o.kind {
		return false
	}
	switch v.kind {
	case KindBool:
		return v.b == o.b
	case KindNumber:
		return v.n == o.n
	default:
		return v.s == o.s
	}
}

// FromText parses s into the most specific Value: bool if it is "true" or
// "false", number if it parses as a float, otherwise a string.
func FromText(s string) Value {
	switch s {
	case "true":
		return Bool(true)
	case "false":
		return Bool(false)
	}
	// Everything ParseFloat accepts starts with a digit, a sign, a point,
	// or the i/n of inf and nan. Any other text is a string — decided
	// here, because ParseFloat's refusal allocates an error holding a copy
	// of s, and a bag's text variables are read on every guard.
	if s == "" || !floatStart(s[0]) {
		return StringVal(s)
	}
	if n, err := strconv.ParseFloat(s, 64); err == nil {
		return Number(n)
	}
	return StringVal(s)
}

// floatStart reports whether a strconv.ParseFloat input can begin with c.
func floatStart(c byte) bool {
	switch c {
	case '+', '-', '.', 'i', 'I', 'n', 'N':
		return true
	}
	return '0' <= c && c <= '9'
}
