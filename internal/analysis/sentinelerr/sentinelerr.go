// Package sentinelerr enforces the transport/circuit/limits error
// contract (docs/transport.md): sentinel errors travel WRAPPED —
// transport.ErrSendDeadline arrives as fmt.Errorf("%w: ...", ErrSendDeadline),
// circuit.ErrOpen as "%w for another 2s" — so matching them with == or
// != silently never fires. Two rules:
//
//  1. A direct ==/!= (or switch-case) comparison against a
//     package-level error variable must be errors.Is. Sentinels from
//     package io are exempt: io.EOF is documented to be returned
//     unwrapped and == is its idiom.
//
//  2. fmt.Errorf with an error-typed argument but no %w verb in the
//     format drops the chain: errors.Is stops working downstream. A
//     deliberate chain break carries an escape comment.
package sentinelerr

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"

	"selfserv/internal/analysis/framework"
)

// Analyzer is the sentinelerr check.
var Analyzer = &framework.Analyzer{
	Name: "sentinelerr",
	Doc: "check that sentinel errors are matched with errors.Is and wrapped with %w\n\n" +
		"Direct ==/!=/switch-case comparison against a package-level error " +
		"variable never matches a wrapped error; fmt.Errorf without %w " +
		"breaks the errors.Is chain.",
	Run: run,
}

func run(pass *framework.Pass) error {
	info := pass.TypesInfo
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				if n.Op != token.EQL && n.Op != token.NEQ {
					return true
				}
				if isNil(info, n.X) || isNil(info, n.Y) {
					return true
				}
				for _, side := range []ast.Expr{n.X, n.Y} {
					if s := sentinelVar(info, side); s != nil {
						pass.Reportf(n.Pos(),
							"%s compared with %s: sentinel errors arrive wrapped — use errors.Is(err, %s)",
							s.Name(), n.Op, s.Name())
						break
					}
				}
			case *ast.SwitchStmt:
				if n.Tag == nil || !isErrorType(info.Types[n.Tag].Type) {
					return true
				}
				for _, cs := range n.Body.List {
					cc, ok := cs.(*ast.CaseClause)
					if !ok {
						continue
					}
					for _, v := range cc.List {
						if s := sentinelVar(info, v); s != nil {
							pass.Reportf(v.Pos(),
								"switch-case on sentinel %s compares with ==: use errors.Is(err, %s)",
								s.Name(), s.Name())
						}
					}
				}
			case *ast.CallExpr:
				checkErrorf(pass, n)
			}
			return true
		})
	}
	return nil
}

// sentinelVar resolves e to a package-level error-typed variable — a
// sentinel. Package io is exempt (io.EOF is returned unwrapped by
// contract).
func sentinelVar(info *types.Info, e ast.Expr) *types.Var {
	var id *ast.Ident
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return nil
	}
	v, ok := info.Uses[id].(*types.Var)
	if !ok || v.Pkg() == nil || v.Pkg().Path() == "io" {
		return nil
	}
	if v.Parent() != v.Pkg().Scope() {
		return nil // not package-level
	}
	if !isErrorType(v.Type()) {
		return nil
	}
	return v
}

// isErrorType matches the error interface itself (sentinels are
// declared `var ErrX = errors.New(...)`, statically typed error).
func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	iface, ok := t.Underlying().(*types.Interface)
	if !ok {
		return false
	}
	errorIface := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	return types.Identical(iface, errorIface)
}

// checkErrorf flags fmt.Errorf calls that take an error argument but do
// not wrap it with %w.
func checkErrorf(pass *framework.Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "fmt" || fn.Name() != "Errorf" {
		return
	}
	if len(call.Args) < 2 {
		return
	}
	tv, ok := pass.TypesInfo.Types[call.Args[0]]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return
	}
	format := constant.StringVal(tv.Value)
	if strings.Contains(format, "%w") {
		return
	}
	errorT := types.Universe.Lookup("error").Type()
	for _, arg := range call.Args[1:] {
		at := pass.TypesInfo.Types[arg].Type
		if at == nil {
			continue
		}
		if types.AssignableTo(at, errorT) && !isNilType(at) {
			pass.Reportf(call.Pos(),
				"fmt.Errorf formats an error without %%w: downstream errors.Is/errors.As stop matching — wrap with %%w (or escape-comment a deliberate chain break)")
			return
		}
	}
}

func isNil(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.IsNil()
}

func isNilType(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Kind() == types.UntypedNil
}
