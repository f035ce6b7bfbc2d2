// Package lockorder enforces the repo's documented lock hierarchy
// (internal/engine/shard.go, docs/engine.md): a shard mutex is acquired
// strictly before an instance mutex, and no code path ever holds two
// locks of the same level.
//
// Mutex fields opt in with a `lockorder:<level>` annotation in the
// field's comment, where <level> is one of the named levels below (or a
// bare integer for future hierarchies). Acquiring a lock whose level is
// less than or equal to the level of any annotated lock already held is
// a violation.
//
// Beyond the engine's shard/instance pair, the control-plane locks are
// annotated too: "platform" (core.Platform.mu, level 0 — outermost,
// never held across engine calls), "directory" (engine.Directory.mu,
// level 3 — serializes copy-on-write rebuilds only; the read path is
// an atomic snapshot load), "hostapi" (admin-server bookkeeping, level
// 4), "controlplane" (controlplane.ControlPlane.mu, level 5 — guards
// the fleet and the version allocator, never held across admin
// pushes), and "journal" (journal.Journal's per-shard mutex,
// level 6 — the durability leaf: commit points append while holding an
// instance lock, so the journal ranks below every other repo mutex and
// may never acquire one). None of these may nest with another lock of
// the same level, and any cross-level acquisition must follow
// increasing rank.
package lockorder

import (
	"fmt"
	"go/ast"
	"go/types"
	"regexp"
	"strconv"

	"selfserv/internal/analysis/framework"
	"selfserv/internal/analysis/locks"
)

// Analyzer is the lockorder check.
var Analyzer = &framework.Analyzer{
	Name: "lockorder",
	Doc: "check the shard-before-instance lock hierarchy\n\n" +
		"Mutex fields annotated `lockorder:<level>` (platform 0, shard 1, " +
		"instance 2, directory 3, hostapi 4, controlplane 5, journal 6, " +
		"or a bare integer) must be acquired in strictly increasing level " +
		"order, and never two of the same level.",
	Run: run,
}

// Named levels of the repo-wide hierarchy; lower acquires first.
var namedLevels = map[string]int{
	"platform":     0,
	"shard":        1,
	"instance":     2,
	"directory":    3,
	"hostapi":      4,
	"controlplane": 5,
	"journal":      6,
}

var annotationRe = regexp.MustCompile(`lockorder:\s*([A-Za-z0-9_]+)`)

type level struct {
	rank int
	name string
}

func run(pass *framework.Pass) error {
	levels := map[*types.Var]level{}
	for _, mf := range locks.MutexFields(pass.TypesInfo, pass.Files) {
		m := annotationRe.FindStringSubmatch(mf.Comment)
		if m == nil {
			continue
		}
		name := m[1]
		rank, ok := namedLevels[name]
		if !ok {
			var err error
			rank, err = strconv.Atoi(name)
			if err != nil {
				pass.Reportf(mf.Decl.Pos(),
					"unknown lockorder level %q (known: platform, shard, instance, directory, hostapi, controlplane, journal, or an integer)", name)
				continue
			}
		}
		levels[mf.Field] = level{rank: rank, name: name}
	}
	if len(levels) == 0 {
		return nil
	}

	check := func(body *ast.BlockStmt) {
		w := &locks.Walker{
			Info: pass.TypesInfo,
			OnAcquire: func(op locks.Op, held []locks.Held) {
				acq, ok := levels[op.Field]
				if !ok {
					return
				}
				for _, h := range held {
					have, ok := levels[h.Field]
					if !ok {
						continue
					}
					if have.rank >= acq.rank {
						pass.Reportf(op.Call.Pos(),
							"acquiring %s (lockorder:%s) while holding %s (lockorder:%s): %s",
							op.Key, acq.name, h.Key, have.name, orderHint(have, acq))
					}
				}
			},
		}
		w.Walk(body)
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok {
				check(fn.Body)
			}
		}
	}
	return nil
}

func orderHint(held, acq level) string {
	if held.rank == acq.rank {
		return fmt.Sprintf("never hold two level-%d (%s) locks at once", acq.rank, acq.name)
	}
	return "locks must be acquired in increasing level order (shard before instance)"
}
