package expr

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Node is a parsed expression. Nodes are immutable after parsing and safe
// for concurrent evaluation against different environments.
type Node interface {
	// Eval computes the node's value in env.
	Eval(env Env) (Value, error)
	// String renders the node back to parseable source text.
	String() string
	// walk calls fn for this node and every descendant.
	walk(fn func(Node))
}

// litNode is a literal constant.
type litNode struct{ v Value }

func (n *litNode) Eval(Env) (Value, error) { return n.v, nil }
func (n *litNode) String() string          { return n.v.String() }
func (n *litNode) walk(fn func(Node))      { fn(n) }

// ErrUndefinedVar reports an evaluation that referenced a variable the
// environment does not define. Receiver-side guards test for it with
// errors.Is: an incomplete bag is a reason to keep waiting, any other
// evaluation error (a guard function's own failure included, whatever
// its text says) is a fault.
var ErrUndefinedVar = errors.New("undefined variable")

// varNode references a (possibly dotted) variable.
type varNode struct{ name string }

func (n *varNode) Eval(env Env) (Value, error) {
	v, ok := env.Lookup(n.name)
	if !ok {
		return Value{}, fmt.Errorf("expr: %w %q", ErrUndefinedVar, n.name)
	}
	return v, nil
}
func (n *varNode) String() string     { return n.name }
func (n *varNode) walk(fn func(Node)) { fn(n) }

// callNode is a function application.
type callNode struct {
	name string
	args []Node
}

func (n *callNode) Eval(env Env) (Value, error) {
	fn, ok := env.Func(n.name)
	if !ok {
		return Value{}, fmt.Errorf("expr: undefined function %q", n.name)
	}
	args := make([]Value, len(n.args))
	for i, a := range n.args {
		v, err := a.Eval(env)
		if err != nil {
			return Value{}, err
		}
		args[i] = v
	}
	v, err := fn(args)
	if err != nil {
		return Value{}, fmt.Errorf("expr: %s(...): %w", n.name, err)
	}
	return v, nil
}

func (n *callNode) String() string {
	parts := make([]string, len(n.args))
	for i, a := range n.args {
		parts[i] = a.String()
	}
	return n.name + "(" + strings.Join(parts, ", ") + ")"
}

func (n *callNode) walk(fn func(Node)) {
	fn(n)
	for _, a := range n.args {
		a.walk(fn)
	}
}

// notNode is logical negation.
type notNode struct{ x Node }

func (n *notNode) Eval(env Env) (Value, error) {
	v, err := n.x.Eval(env)
	if err != nil {
		return Value{}, err
	}
	b, err := v.AsBool()
	if err != nil {
		return Value{}, fmt.Errorf("expr: operand of 'not' %w", errNotBool(v))
	}
	_ = b
	return Bool(!v.b), nil
}
func (n *notNode) String() string { return "not " + parenthesize(n.x) }
func (n *notNode) walk(fn func(Node)) {
	fn(n)
	n.x.walk(fn)
}

// negNode is arithmetic negation.
type negNode struct{ x Node }

func (n *negNode) Eval(env Env) (Value, error) {
	v, err := n.x.Eval(env)
	if err != nil {
		return Value{}, err
	}
	f, err := v.AsNumber()
	if err != nil {
		return Value{}, fmt.Errorf("expr: operand of unary '-' is not a number: %s", v)
	}
	return Number(-f), nil
}
func (n *negNode) String() string { return "-" + parenthesize(n.x) }
func (n *negNode) walk(fn func(Node)) {
	fn(n)
	n.x.walk(fn)
}

// binOp enumerates binary operators.
type binOp int

const (
	opAnd binOp = iota
	opOr
	opEq
	opNeq
	opLt
	opLte
	opGt
	opGte
	opAdd
	opSub
	opMul
	opDiv
	opMod
)

func (op binOp) String() string {
	switch op {
	case opAnd:
		return "and"
	case opOr:
		return "or"
	case opEq:
		return "="
	case opNeq:
		return "!="
	case opLt:
		return "<"
	case opLte:
		return "<="
	case opGt:
		return ">"
	case opGte:
		return ">="
	case opAdd:
		return "+"
	case opSub:
		return "-"
	case opMul:
		return "*"
	case opDiv:
		return "/"
	case opMod:
		return "%"
	default:
		return "?"
	}
}

// binNode is a binary operation.
type binNode struct {
	op   binOp
	l, r Node
}

func (n *binNode) Eval(env Env) (Value, error) {
	switch n.op {
	case opAnd, opOr:
		return n.evalLogic(env)
	}
	lv, err := n.l.Eval(env)
	if err != nil {
		return Value{}, err
	}
	rv, err := n.r.Eval(env)
	if err != nil {
		return Value{}, err
	}
	switch n.op {
	case opEq:
		return Bool(lv.Equal(rv)), nil
	case opNeq:
		return Bool(!lv.Equal(rv)), nil
	case opLt, opLte, opGt, opGte:
		return compare(n.op, lv, rv)
	case opAdd:
		// '+' concatenates strings and adds numbers.
		if lv.Kind() == KindString && rv.Kind() == KindString {
			return StringVal(lv.s + rv.s), nil
		}
		return arith(n.op, lv, rv)
	default:
		return arith(n.op, lv, rv)
	}
}

// evalLogic implements short-circuit and/or.
func (n *binNode) evalLogic(env Env) (Value, error) {
	lv, err := n.l.Eval(env)
	if err != nil {
		return Value{}, err
	}
	lb, err := lv.AsBool()
	if err != nil {
		return Value{}, fmt.Errorf("expr: left operand of %q %w", n.op.String(), errNotBool(lv))
	}
	if n.op == opAnd && !lb {
		return Bool(false), nil
	}
	if n.op == opOr && lb {
		return Bool(true), nil
	}
	rv, err := n.r.Eval(env)
	if err != nil {
		return Value{}, err
	}
	rb, err := rv.AsBool()
	if err != nil {
		return Value{}, fmt.Errorf("expr: right operand of %q %w", n.op.String(), errNotBool(rv))
	}
	return Bool(rb), nil
}

func (n *binNode) String() string {
	return parenthesize(n.l) + " " + n.op.String() + " " + parenthesize(n.r)
}

func (n *binNode) walk(fn func(Node)) {
	fn(n)
	n.l.walk(fn)
	n.r.walk(fn)
}

func compare(op binOp, l, r Value) (Value, error) {
	if l.Kind() == KindString && r.Kind() == KindString {
		c := strings.Compare(l.s, r.s)
		return Bool(cmpHolds(op, c)), nil
	}
	lf, err := l.AsNumber()
	if err != nil {
		return Value{}, fmt.Errorf("expr: cannot compare %s with %s", l, r)
	}
	rf, err := r.AsNumber()
	if err != nil {
		return Value{}, fmt.Errorf("expr: cannot compare %s with %s", l, r)
	}
	var c int
	switch {
	case lf < rf:
		c = -1
	case lf > rf:
		c = 1
	}
	return Bool(cmpHolds(op, c)), nil
}

func cmpHolds(op binOp, c int) bool {
	switch op {
	case opLt:
		return c < 0
	case opLte:
		return c <= 0
	case opGt:
		return c > 0
	case opGte:
		return c >= 0
	default:
		return false
	}
}

func arith(op binOp, l, r Value) (Value, error) {
	lf, err := l.AsNumber()
	if err != nil {
		return Value{}, fmt.Errorf("expr: left operand of %q is not a number: %s", op.String(), l)
	}
	rf, err := r.AsNumber()
	if err != nil {
		return Value{}, fmt.Errorf("expr: right operand of %q is not a number: %s", op.String(), r)
	}
	switch op {
	case opAdd:
		return Number(lf + rf), nil
	case opSub:
		return Number(lf - rf), nil
	case opMul:
		return Number(lf * rf), nil
	case opDiv:
		if rf == 0 {
			return Value{}, fmt.Errorf("expr: division by zero")
		}
		return Number(lf / rf), nil
	case opMod:
		if rf == 0 {
			return Value{}, fmt.Errorf("expr: modulo by zero")
		}
		li, lerr := toInt(lf)
		ri, rerr := toInt(rf)
		if lerr != nil || rerr != nil {
			return Value{}, fmt.Errorf("expr: %% requires integer operands")
		}
		return Number(float64(li % ri)), nil
	default:
		return Value{}, fmt.Errorf("expr: unknown arithmetic operator %q", op.String())
	}
}

func toInt(f float64) (int64, error) {
	i := int64(f)
	if float64(i) != f {
		return 0, fmt.Errorf("not an integer: %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	return i, nil
}

func errNotBool(v Value) error {
	return fmt.Errorf("is not a bool: %s", v)
}

// parenthesize renders a child expression, wrapping composite nodes in
// parentheses so that String output re-parses with identical structure.
func parenthesize(n Node) string {
	switch n.(type) {
	case *binNode, *notNode:
		return "(" + n.String() + ")"
	default:
		return n.String()
	}
}

// Exclusive reports whether guards x and y cannot both hold on one
// environment, judged by their syntax: some conjunct of one is the
// negation of a conjunct of the other ("g" and "not g"), or the two
// compare one expression by complementary operators ("E < F" and
// "E >= F", "E > F" and "E <= F", "E = F" and "E != F"), or equate it
// with two different literals ("E = 0" and "E = 1"). Evaluation is
// deterministic, so one environment gives one E. A nil guard (one that
// did not parse) excludes nothing; an empty one always holds.
func Exclusive(x, y Node) bool {
	if x == nil || y == nil {
		return false
	}
	var bx, by [4]Node // most guards have few conjuncts: no heap for them
	qs := conjuncts(y, by[:0])
	for _, p := range conjuncts(x, bx[:0]) {
		for _, q := range qs {
			if negates(p, q) || negates(q, p) {
				return true
			}
		}
	}
	return false
}

// conjuncts appends the operands of n's top-level "and"s to dst.
func conjuncts(n Node, dst []Node) []Node {
	if b, ok := n.(*binNode); ok && b.op == opAnd {
		return conjuncts(b.r, conjuncts(b.l, dst))
	}
	return append(dst, n)
}

var complement = map[binOp]binOp{opLt: opGte, opGte: opLt, opGt: opLte, opLte: opGt, opEq: opNeq, opNeq: opEq}

// negates reports whether p holding means q does not (see Exclusive).
func negates(p, q Node) bool {
	if n, ok := p.(*notNode); ok {
		return n.x.String() == q.String()
	}
	bp, okP := p.(*binNode)
	bq, okQ := q.(*binNode)
	if !okP || !okQ || bp.l.String() != bq.l.String() {
		return false
	}
	lp, litP := bp.r.(*litNode)
	lq, litQ := bq.r.(*litNode)
	if bp.op == opEq && bq.op == opEq && litP && litQ {
		return !lp.v.Equal(lq.v)
	}
	c, ok := complement[bp.op]
	return ok && c == bq.op && bp.r.String() == bq.r.String()
}
