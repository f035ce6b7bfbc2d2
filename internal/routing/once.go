package routing

import (
	"slices"

	"selfserv/internal/expr"
	"selfserv/internal/message"
)

// onceStates returns the states that fire at most once per execution
// (docs/engine.md, "Instance lifecycle", rules 1–4): a state is once when
// it has clauses, none empty, every source of them is the wrapper (start
// is sent once) or a once state that names it in exactly one target, and
// every clause excludes each source of the state outside it. The proof
// visits the states in topological order from the wrapper, so each is
// judged on what its senders have proven; a state of a cycle, never
// reached that way, is never proven.
func (p *Plan) onceStates() map[string]bool {
	pf := proof{
		plan:   p,
		posts:  map[string][]Target{message.WrapperID: p.Start},
		named:  map[[2]string]int{},
		namers: map[string]int{},
		rank:   map[string]int{},
		once:   map[string]bool{message.WrapperID: true},
		guards: map[string]expr.Node{},
	}
	for id, tbl := range p.Tables {
		pf.posts[id] = tbl.Postprocessings
	}
	unheard := map[string]int{} // state: the targets naming it whose senders are not yet in order
	for from, ts := range pf.posts {
		for _, t := range ts {
			if pf.named[[2]string{from, t.To}]++; pf.named[[2]string{from, t.To}] == 1 {
				pf.namers[t.To]++
			}
			unheard[t.To]++
		}
	}
	order := []string{message.WrapperID}
	for i := 0; i < len(order); i++ {
		for _, t := range pf.posts[order[i]] {
			if unheard[t.To]--; unheard[t.To] == 0 && p.Tables[t.To] != nil {
				pf.rank[t.To] = len(order)
				order = append(order, t.To)
			}
		}
	}
	pf.excl = make([]byte, len(order)*len(order))
	for _, x := range order[1:] {
		if pf.firesOnce(x) {
			pf.once[x] = true
		}
	}
	delete(pf.once, message.WrapperID)
	return pf.once
}

// proof is what onceStates has derived so far about one plan.
type proof struct {
	plan   *Plan
	posts  map[string][]Target  // sender, $wrapper included: its targets
	named  map[[2]string]int    // (sender, state): the sender's targets that name the state
	namers map[string]int       // state: the senders that name it
	rank   map[string]int       // state: its place in topological order from the wrapper, from 1
	once   map[string]bool      // $wrapper and the states proven once
	excl   []byte               // by pair of ranks, the lower the row: 0 not yet judged, 1 may both fire, 2 never both fire
	guards map[string]expr.Node // guards parsed so far; nil for one that does not parse
}

// guard is cond parsed, once per proof.
func (pf *proof) guard(cond string) expr.Node {
	if _, ok := pf.guards[cond]; !ok {
		pf.guards[cond], _ = expr.Parse(cond)
	}
	return pf.guards[cond]
}

// fed reports whether src sends state id at most one notification.
func (pf *proof) fed(src, id string) bool {
	return pf.once[src] && pf.named[[2]string{src, id}] == 1
}

// firesOnce is rules 1–4 for state id.
func (pf *proof) firesOnce(id string) bool {
	pre := pf.plan.Tables[id].Preconditions
	for _, c := range pre {
		for _, d := range pre {
			for _, t := range d.Sources {
				if !pf.fed(t, id) || !slices.Contains(c.Sources, t) && !pf.excludes(c.Sources, t) {
					return false
				}
			}
		}
	}
	return len(pre) > 0 && !slices.ContainsFunc(pre, func(c Clause) bool { return len(c.Sources) == 0 })
}

// excludes reports whether one of srcs is proven never to fire with t.
func (pf *proof) excludes(srcs []string, t string) bool {
	return slices.ContainsFunc(srcs, func(s string) bool { return pf.exclusive(s, t) })
}

// exclusive reports whether states x and y are proven never both to
// fire, by one of three rules:
//   - a sender decides both: a once sender (or the wrapper) that every
//     clause of x and of y needs names them under guards that cannot
//     both hold on its one bag;
//   - both decide on one bag: x and y have one clause each over the same
//     sources, each of which sends both of them, and nothing else, one
//     notification with the same actions, and the two clause guards
//     cannot both hold;
//   - one inherits an exclusion: each clause of x needs a source proven
//     exclusive with y, or each clause of y one proven exclusive with x.
//
// A pair is judged when firesOnce first asks, cheap rules first, and
// kept. The wrapper, an event and a state of a cycle exclude nothing.
func (pf *proof) exclusive(x, y string) bool {
	i, j := pf.rank[x], pf.rank[y]
	if i == 0 || j == 0 || i == j {
		return false
	}
	k := min(i, j)*(len(pf.rank)+1) + max(i, j)
	if pf.excl[k] == 0 {
		px, py := pf.plan.Tables[x].Preconditions, pf.plan.Tables[y].Preconditions
		pf.excl[k] = 1
		if pf.senderDecides(x, y, px, py) || pf.bagDecides(x, y, px, py) || pf.inherits(px, y) || pf.inherits(py, x) {
			pf.excl[k] = 2
		}
	}
	return pf.excl[k] == 2
}

// senderDecides is the first rule of exclusive.
func (pf *proof) senderDecides(x, y string, px, py []Clause) bool {
	return len(px) > 0 && slices.ContainsFunc(px[0].Sources, func(s string) bool {
		return pf.once[s] && needs(px, s) && needs(py, s) && pf.exclusiveTargets(pf.posts[s], x, y)
	})
}

// bagDecides is the second rule of exclusive.
func (pf *proof) bagDecides(x, y string, px, py []Clause) bool {
	if len(px) != 1 || len(py) != 1 || !slices.Equal(px[0].Sources, py[0].Sources) ||
		pf.namers[x] != len(px[0].Sources) || pf.namers[y] != pf.namers[x] {
		return false
	}
	for _, s := range px[0].Sources {
		if !pf.fed(s, x) || !pf.fed(s, y) || actionsTo(pf.posts[s], x) != actionsTo(pf.posts[s], y) {
			return false
		}
	}
	return expr.Exclusive(pf.guard(px[0].Condition), pf.guard(py[0].Condition))
}

// inherits reports whether each of clauses pre needs a source proven
// exclusive with y.
func (pf *proof) inherits(pre []Clause, y string) bool {
	return !slices.ContainsFunc(pre, func(c Clause) bool { return !pf.excludes(c.Sources, y) })
}

// exclusiveTargets reports whether no target of ts naming x can hold
// with one naming y.
func (pf *proof) exclusiveTargets(ts []Target, x, y string) bool {
	for _, a := range ts {
		for _, b := range ts {
			if a.To == x && b.To == y && !expr.Exclusive(pf.guard(a.Condition), pf.guard(b.Condition)) {
				return false
			}
		}
	}
	return true
}

// needs reports whether every clause of pre needs source s.
func needs(pre []Clause, s string) bool {
	return !slices.ContainsFunc(pre, func(c Clause) bool { return !slices.Contains(c.Sources, s) })
}

// actionsTo keys the actions of the first of ts that names to.
func actionsTo(ts []Target, to string) string {
	for _, t := range ts {
		if t.To == to {
			return actionsKey(t.Actions)
		}
	}
	return ""
}
