package expr

import "fmt"

// MustParse is like Parse but panics on error. Intended for tests and
// package-level expression constants.
func MustParse(src string) Node {
	n, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return n
}

// Variables returns the set of variable names referenced by n, in no
// particular order. Useful for validating that a guard only references
// declared parameters.
func Variables(n Node) []string {
	seen := map[string]bool{}
	var names []string
	n.walk(func(c Node) {
		if v, ok := c.(*varNode); ok && !seen[v.name] {
			seen[v.name] = true
			names = append(names, v.name)
		}
	})
	return names
}

// Functions returns the set of function names referenced by n.
func Functions(n Node) []string {
	seen := map[string]bool{}
	var names []string
	n.walk(func(c Node) {
		if v, ok := c.(*callNode); ok && !seen[v.name] {
			seen[v.name] = true
			names = append(names, v.name)
		}
	})
	return names
}

// MustCompile is like Compile but panics on error. Intended for tests and
// package-level expression constants.
func MustCompile(src string) *Program {
	p, err := Compile(src)
	if err != nil {
		panic(err)
	}
	return p
}

// Eval parses src and evaluates it against env in one step. It is a
// convenience wrapper over Compile + Program.Eval for one-shot callers;
// hot paths should Compile once and reuse the Program.
func Eval(src string, env Env) (Value, error) {
	n, err := Parse(src)
	if err != nil {
		return Value{}, err
	}
	return n.Eval(env)
}

// EvalBool parses src and evaluates it, requiring a boolean result. Like
// Eval, it is the one-shot wrapper over Compile + Program.EvalBool.
func EvalBool(src string, env Env) (bool, error) {
	v, err := Eval(src, env)
	if err != nil {
		return false, err
	}
	b, err := v.AsBool()
	if err != nil {
		return false, fmt.Errorf("expr: %q did not evaluate to a bool: %w", src, err)
	}
	return b, nil
}
