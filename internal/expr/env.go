package expr

import (
	"fmt"
	"math"
	"strings"
)

// Func is a host function callable from expressions.
type Func func(args []Value) (Value, error)

// Env supplies variable bindings and functions during evaluation.
type Env interface {
	// Lookup resolves a (possibly dotted) variable name.
	Lookup(name string) (Value, bool)
	// Func resolves a function by name.
	Func(name string) (Func, bool)
}

// MapEnv is a simple Env backed by maps. The zero value is usable: it has
// no variables and only the built-in functions.
type MapEnv struct {
	Vars  map[string]Value
	Funcs map[string]Func
}

// NewMapEnv returns an empty environment ready for Bind/BindFunc calls.
func NewMapEnv() *MapEnv {
	return &MapEnv{Vars: map[string]Value{}, Funcs: map[string]Func{}}
}

// Bind sets variable name to v and returns the environment for chaining.
func (e *MapEnv) Bind(name string, v Value) *MapEnv {
	if e.Vars == nil {
		e.Vars = map[string]Value{}
	}
	e.Vars[name] = v
	return e
}

// BindText parses raw into the most specific value kind and binds it.
func (e *MapEnv) BindText(name, raw string) *MapEnv {
	return e.Bind(name, FromText(raw))
}

// BindFunc registers a host function and returns the environment.
func (e *MapEnv) BindFunc(name string, fn Func) *MapEnv {
	if e.Funcs == nil {
		e.Funcs = map[string]Func{}
	}
	e.Funcs[name] = fn
	return e
}

// Lookup implements Env.
func (e *MapEnv) Lookup(name string) (Value, bool) {
	v, ok := e.Vars[name]
	return v, ok
}

// Func implements Env. Built-in functions are consulted when the name is
// not overridden in e.Funcs.
func (e *MapEnv) Func(name string) (Func, bool) {
	if fn, ok := e.Funcs[name]; ok {
		return fn, true
	}
	fn, ok := builtins[name]
	return fn, ok
}

// ChainEnv resolves against a sequence of environments, first match wins.
// It is the composition glue for the two-layer evaluation setup used by
// the engine: a per-instance TextVars layer chained onto a per-composite
// FuncsEnv layer, so host functions are bound exactly once per composite
// instead of re-registered on every evaluation.
type ChainEnv []Env

// Lookup implements Env.
func (c ChainEnv) Lookup(name string) (Value, bool) {
	for _, e := range c {
		if v, ok := e.Lookup(name); ok {
			return v, true
		}
	}
	return Value{}, false
}

// Func implements Env.
func (c ChainEnv) Func(name string) (Func, bool) {
	for _, e := range c {
		if f, ok := e.Func(name); ok {
			return f, true
		}
	}
	return nil, false
}

// FuncsEnv is an Env layer that resolves only functions: the registered
// ones first, then the built-ins. It holds no variables, so one FuncsEnv
// can be built per composite at deploy time and shared immutably by every
// evaluation of every instance.
type FuncsEnv map[string]Func

// Lookup implements Env; a FuncsEnv binds no variables.
func (FuncsEnv) Lookup(string) (Value, bool) { return Value{}, false }

// Func implements Env, falling back to the built-in functions.
func (f FuncsEnv) Func(name string) (Func, bool) {
	if fn, ok := f[name]; ok {
		return fn, true
	}
	fn, ok := builtins[name]
	return fn, ok
}

// TextVars is an Env layer over a raw text variable bag (the shape control
// messages carry). Values are converted with FromText lazily, on lookup,
// so an evaluation touching two of fifty variables converts two — the
// eager alternative materializes the whole bag per evaluation.
type TextVars map[string]string

// Lookup implements Env.
func (t TextVars) Lookup(name string) (Value, bool) {
	raw, ok := t[name]
	if !ok {
		return Value{}, false
	}
	return FromText(raw), true
}

// Func implements Env; a TextVars layer provides no functions.
func (TextVars) Func(string) (Func, bool) { return nil, false }

// builtins are functions available in every MapEnv.
var builtins = map[string]Func{
	"abs":      numeric1("abs", math.Abs),
	"floor":    numeric1("floor", math.Floor),
	"ceil":     numeric1("ceil", math.Ceil),
	"round":    numeric1("round", math.Round),
	"sqrt":     numeric1("sqrt", math.Sqrt),
	"min":      variadicNum("min", math.Min),
	"max":      variadicNum("max", math.Max),
	"len":      builtinLen,
	"contains": builtinContains,
	"prefix":   builtinPrefix,
	"suffix":   builtinSuffix,
	"lower":    string1("lower", strings.ToLower),
	"upper":    string1("upper", strings.ToUpper),
	"trim":     string1("trim", strings.TrimSpace),
	"if":       builtinIf,
	"number":   builtinNumber,
	"string":   builtinString,
}

func numeric1(name string, f func(float64) float64) Func {
	return func(args []Value) (Value, error) {
		if len(args) != 1 {
			return Value{}, fmt.Errorf("%s expects 1 argument, got %d", name, len(args))
		}
		n, err := args[0].AsNumber()
		if err != nil {
			return Value{}, err
		}
		return Number(f(n)), nil
	}
}

func string1(name string, f func(string) string) Func {
	return func(args []Value) (Value, error) {
		if len(args) != 1 {
			return Value{}, fmt.Errorf("%s expects 1 argument, got %d", name, len(args))
		}
		s, err := args[0].AsString()
		if err != nil {
			return Value{}, err
		}
		return StringVal(f(s)), nil
	}
}

func variadicNum(name string, f func(float64, float64) float64) Func {
	return func(args []Value) (Value, error) {
		if len(args) == 0 {
			return Value{}, fmt.Errorf("%s expects at least 1 argument", name)
		}
		acc, err := args[0].AsNumber()
		if err != nil {
			return Value{}, err
		}
		for _, a := range args[1:] {
			n, err := a.AsNumber()
			if err != nil {
				return Value{}, err
			}
			acc = f(acc, n)
		}
		return Number(acc), nil
	}
}

func builtinLen(args []Value) (Value, error) {
	if len(args) != 1 {
		return Value{}, fmt.Errorf("len expects 1 argument, got %d", len(args))
	}
	s, err := args[0].AsString()
	if err != nil {
		return Value{}, err
	}
	return Number(float64(len(s))), nil
}

func builtinContains(args []Value) (Value, error) {
	if len(args) != 2 {
		return Value{}, fmt.Errorf("contains expects 2 arguments, got %d", len(args))
	}
	s, err := args[0].AsString()
	if err != nil {
		return Value{}, err
	}
	sub, err := args[1].AsString()
	if err != nil {
		return Value{}, err
	}
	return Bool(strings.Contains(s, sub)), nil
}

func builtinPrefix(args []Value) (Value, error) {
	if len(args) != 2 {
		return Value{}, fmt.Errorf("prefix expects 2 arguments, got %d", len(args))
	}
	s, err := args[0].AsString()
	if err != nil {
		return Value{}, err
	}
	pre, err := args[1].AsString()
	if err != nil {
		return Value{}, err
	}
	return Bool(strings.HasPrefix(s, pre)), nil
}

func builtinSuffix(args []Value) (Value, error) {
	if len(args) != 2 {
		return Value{}, fmt.Errorf("suffix expects 2 arguments, got %d", len(args))
	}
	s, err := args[0].AsString()
	if err != nil {
		return Value{}, err
	}
	suf, err := args[1].AsString()
	if err != nil {
		return Value{}, err
	}
	return Bool(strings.HasSuffix(s, suf)), nil
}

// builtinIf is if(cond, then, else). Both branches are already evaluated
// by the time the function is applied; the language is side-effect free,
// so this only costs evaluation time, never correctness.
func builtinIf(args []Value) (Value, error) {
	if len(args) != 3 {
		return Value{}, fmt.Errorf("if expects 3 arguments, got %d", len(args))
	}
	c, err := args[0].AsBool()
	if err != nil {
		return Value{}, err
	}
	if c {
		return args[1], nil
	}
	return args[2], nil
}

func builtinNumber(args []Value) (Value, error) {
	if len(args) != 1 {
		return Value{}, fmt.Errorf("number expects 1 argument, got %d", len(args))
	}
	v := FromText(args[0].Text())
	if v.Kind() != KindNumber {
		return Value{}, fmt.Errorf("number: cannot convert %s", args[0])
	}
	return v, nil
}

func builtinString(args []Value) (Value, error) {
	if len(args) != 1 {
		return Value{}, fmt.Errorf("string expects 1 argument, got %d", len(args))
	}
	return StringVal(args[0].Text()), nil
}
