// Package framework is a minimal, dependency-free re-implementation of
// the golang.org/x/tools/go/analysis core: enough Analyzer/Pass/
// Diagnostic surface for selfservvet's repo-specific checkers, plus a
// loader (load.go) that type-checks module packages offline via
// `go list -export` and the gc export-data importer, and a driver
// (run.go) that applies analyzers and filters `//selfservvet:ignore`
// escape comments.
//
// The API deliberately mirrors go/analysis field-for-field so the
// analyzers port to the real framework mechanically if the module ever
// grows a golang.org/x/tools dependency; the build environment for this
// repo is offline-first, so the module stays stdlib-only instead
// (ROADMAP "dependency-free" stance, docs/static-analysis.md).
package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check. Mirrors analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// `//selfservvet:ignore <name>` escape comments. Lowercase, no
	// spaces.
	Name string

	// Doc is the help text: first line is the one-line summary.
	Doc string

	// Run applies the analyzer to one package, reporting findings via
	// pass.Report/Reportf. The return error is for operational failures
	// (a finding is never an error).
	Run func(*Pass) error
}

func (a *Analyzer) String() string { return a.Name }

// Pass carries one package's parsed-and-typed representation to an
// analyzer. Mirrors the analysis.Pass fields the suite needs.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	report func(Diagnostic)
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf emits a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}
