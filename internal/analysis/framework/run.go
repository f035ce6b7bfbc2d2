package framework

import (
	"fmt"
	"go/token"
	"regexp"
	"sort"
	"strings"
)

// Finding is one resolved diagnostic: position made concrete, analyzer
// attached, escape comments already applied.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s (%s)", f.Pos, f.Message, f.Analyzer)
}

// IgnorePrefix starts an escape comment. The full syntax is
//
//	//selfservvet:ignore <analyzer>[,<analyzer>...] -- <reason>
//
// placed on the flagged line or on the line directly above it. The
// reason is mandatory: an ignore without one is itself reported (the
// escape hatch documents WHY an invariant is waived, or it is noise).
const IgnorePrefix = "selfservvet:ignore"

var ignoreRe = regexp.MustCompile(`^selfservvet:ignore\s+([\w,\s]+?)\s+--\s+(\S.*)$`)

// ignoreIndex records, per file line, which analyzers are waived.
type ignoreIndex map[string]map[int]map[string]bool

// buildIgnoreIndex scans a package's comments for escape directives.
// Malformed directives (no analyzer list or no reason) are returned as
// findings so they fail the lint run instead of silently waiving
// nothing.
func buildIgnoreIndex(pkg *Package) (ignoreIndex, []Finding) {
	idx := ignoreIndex{}
	var bad []Finding
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, IgnorePrefix) {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				m := ignoreRe.FindStringSubmatch(text)
				if m == nil {
					bad = append(bad, Finding{
						Analyzer: "selfservvet",
						Pos:      pos,
						Message:  fmt.Sprintf("malformed escape comment: want //%s <analyzer>[,<analyzer>] -- <reason>", IgnorePrefix),
					})
					continue
				}
				lines := idx[pos.Filename]
				if lines == nil {
					lines = map[int]map[string]bool{}
					idx[pos.Filename] = lines
				}
				for _, name := range strings.Split(m[1], ",") {
					name = strings.TrimSpace(name)
					if name == "" {
						continue
					}
					// The directive waives its own line and the next:
					// inline form covers the former, standalone form the
					// latter.
					for _, line := range []int{pos.Line, pos.Line + 1} {
						if lines[line] == nil {
							lines[line] = map[string]bool{}
						}
						lines[line][name] = true
					}
				}
			}
		}
	}
	return idx, bad
}

func (idx ignoreIndex) ignored(f Finding) bool {
	lines, ok := idx[f.Pos.Filename]
	if !ok {
		return false
	}
	return lines[f.Pos.Line][f.Analyzer]
}

// Run applies every analyzer to every package, resolves positions,
// filters escape-commented findings, deduplicates across test-variant
// recompiles, and returns the remainder sorted by position.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Finding, error) {
	var all []Finding
	seen := map[string]bool{}
	add := func(f Finding) {
		key := f.Pos.String() + "\x00" + f.Analyzer + "\x00" + f.Message
		if !seen[key] {
			seen[key] = true
			all = append(all, f)
		}
	}
	for _, pkg := range pkgs {
		idx, bad := buildIgnoreIndex(pkg)
		for _, f := range bad {
			add(f)
		}
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
			}
			var diags []Diagnostic
			pass.report = func(d Diagnostic) { diags = append(diags, d) }
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.ImportPath, err)
			}
			for _, d := range diags {
				f := Finding{Analyzer: a.Name, Pos: pkg.Fset.Position(d.Pos), Message: d.Message}
				if !idx.ignored(f) {
					add(f)
				}
			}
		}
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return all, nil
}
