package expr

import "fmt"

// Program is a compiled expression: the reusable product of parsing one
// guard/action source string. A Program is immutable after Compile and
// safe for concurrent evaluation against different environments, so a
// deployer can compile every guard of a composite once and share the
// handles across all execution instances — the runtime then never touches
// the lexer or parser again.
type Program struct {
	root Node
	src  string
}

// Compile parses src into a reusable Program, the deploy-time half of an
// evaluation: callers compile once and call Program.Eval/EvalBool per
// evaluation.
func Compile(src string) (*Program, error) {
	n, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return &Program{root: n, src: src}, nil
}

// Source returns the source text the program was compiled from.
func (p *Program) Source() string { return p.src }

// Node exposes the parsed expression tree (for analysis and String
// rendering).
func (p *Program) Node() Node { return p.root }

// ConstBool reports whether the program is a boolean constant, and its
// value. Empty guards compile to the constant true, so routing layers can
// skip storing (and evaluating) them entirely.
func (p *Program) ConstBool() (value, ok bool) {
	lit, isLit := p.root.(*litNode)
	if !isLit || lit.v.Kind() != KindBool {
		return false, false
	}
	return lit.v.b, true
}

// Eval evaluates the compiled program against env.
func (p *Program) Eval(env Env) (Value, error) {
	return p.root.Eval(env)
}

// EvalBool evaluates the program, requiring a boolean result.
func (p *Program) EvalBool(env Env) (bool, error) {
	v, err := p.root.Eval(env)
	if err != nil {
		return false, err
	}
	b, err := v.AsBool()
	if err != nil {
		return false, fmt.Errorf("expr: %q did not evaluate to a bool: %w", p.src, err)
	}
	return b, nil
}
