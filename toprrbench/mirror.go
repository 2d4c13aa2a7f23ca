package main

import (
	"fmt"

	"toprr/internal/vec"
	"toprr/pkg/toprr"
)

// mirror replays the benchmark's own op log with the store's semantics
// (insert appends, delete moves the last option into the freed slot,
// update replaces in place), one generation per batch. The benchmark is
// the only writer, so the mirror knows the dataset at every generation
// it publishes: it resolves slot choices to concrete indices before a
// batch is sent, and it keeps the elite subset of every generation for
// the verifier.
type mirror struct {
	pts     []vec.Vector
	gen     uint64
	churned vec.Vector // the live elite the schedule inserted, if any
	elites  []eliteSet // ascending by gen
}

// eliteSet is the elite subset valid from generation gen on.
type eliteSet struct {
	gen uint64
	pts []vec.Vector
}

func newMirror(pts []vec.Vector, gen uint64) *mirror {
	m := &mirror{pts: append([]vec.Vector(nil), pts...), gen: gen}
	m.snapElites()
	return m
}

func (m *mirror) snapElites() {
	var el []vec.Vector
	for _, p := range m.pts {
		if isElite(p) {
			el = append(el, p)
		}
	}
	m.elites = append(m.elites, eliteSet{gen: m.gen, pts: el})
}

// eliteIndex returns the index into m.elites of the elite subset of
// generation gen.
func (m *mirror) eliteIndex(gen uint64) int {
	i := len(m.elites) - 1
	for i > 0 && m.elites[i].gen > gen {
		i--
	}
	return i
}

// massSlot resolves a seeded choice value to a slot holding a mass
// option.
func (m *mirror) massSlot(choice int) int {
	n := len(m.pts)
	for i := 0; i < n; i++ {
		s := (choice + i) % n
		if !isElite(m.pts[s]) {
			return s
		}
	}
	panic("toprrbench: no mass option left") // the schedule never deletes that many
}

// applyBatch resolves a scheduled batch into concrete ops, applies them
// to the mirror as one generation, and returns them for sending.
func (m *mirror) applyBatch(specs []opSpec) []opSpec {
	out := make([]opSpec, len(specs))
	elitesMoved := false
	for i, s := range specs {
		switch s.Op {
		case "insert":
			m.pts = append(m.pts, s.Point)
			if isElite(s.Point) {
				m.churned = s.Point
				elitesMoved = true
			}
		case "delete":
			if s.Index < 0 {
				// The schedule deletes only after an elite insert.
				s.Index = m.find(m.churned)
				m.churned = nil
				elitesMoved = true
			} else {
				s.Index = m.massSlot(s.Index)
			}
			last := len(m.pts) - 1
			m.pts[s.Index] = m.pts[last]
			m.pts = m.pts[:last]
		case "update":
			s.Index = m.massSlot(s.Index)
			m.pts[s.Index] = s.Point
		}
		out[i] = s
	}
	m.gen++
	if elitesMoved {
		m.snapElites()
	}
	return out
}

func (m *mirror) find(p vec.Vector) int {
	for i := len(m.pts) - 1; i >= 0; i-- {
		if vecEqual(m.pts[i], p) {
			return i
		}
	}
	panic(fmt.Sprintf("toprrbench: churned elite %v not in the mirror", p))
}

func vecEqual(a, b vec.Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// engineOps converts concrete ops for Engine.Apply.
func engineOps(specs []opSpec) []toprr.Op {
	out := make([]toprr.Op, len(specs))
	for i, s := range specs {
		switch s.Op {
		case "insert":
			out[i] = toprr.Insert(s.Point)
		case "delete":
			out[i] = toprr.Delete(s.Index)
		default:
			out[i] = toprr.Update(s.Index, s.Point)
		}
	}
	return out
}
