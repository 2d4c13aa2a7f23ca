// Package skyband implements the fast pre-filters the paper surveys in
// Section 6.3 for discarding options that can never appear in a top-k
// result for any preference in the target region wR:
//
//   - the k-skyband (dominated by fewer than k options) [34],
//   - k-onion layers (the first k convex-hull layers) [11], and
//   - the r-skyband (r-dominated w.r.t. wR by fewer than k options) [14],
//     which the paper selects as the filter of choice (Figure 8).
//
// The fourth alternative of Section 6.3, the exact UTK filter, needs the
// preference-space partitioning machinery and therefore lives in
// internal/core.
//
// All filters return a superset of the options that can appear in a
// top-k result, which is the only property TopRR correctness needs;
// tolerance choices below are deliberately conservative (an uncertain
// dominance relation keeps the option).
//
// Costs: the k-skyband sweep is O(n log n) plus O(n·|band|) dominance
// tests. The r-skyband scores each option once at every vertex of wR,
// O(n·|V|), to discard options provably r-dominated k times over, then
// sorts and sweeps only the survivors, each r-dominance test costing
// O(|V|·d); see RSkyband.
package skyband

import (
	"sort"

	"toprr/internal/lp"
	"toprr/internal/topk"
	"toprr/internal/vec"
)

// domEps is the strictness margin for (r-)dominance: a pair closer than
// this is treated as incomparable, which can only enlarge the filter
// output (safe direction).
const domEps = 1e-12

// Dominates reports whether p dominates q: p is no smaller in every
// attribute and strictly larger in at least one.
func Dominates(p, q vec.Vector) bool {
	strict := false
	for j, x := range p {
		if x < q[j]-domEps {
			return false
		}
		if x > q[j]+domEps {
			strict = true
		}
	}
	return strict
}

// RDom decides r-dominance with respect to a preference region wR: p
// r-dominates q when S_w(p) >= S_w(q) for every w in wR, strictly for
// some w (Section 6.3, after [14]). Since scores are linear in w, the
// extreme score difference over a convex wR is attained at a vertex, so
// the test needs only wR's defining vertices.
type RDom struct {
	verts    []vec.Vector // vertex set of wR
	centroid vec.Vector   // centroid of verts: the sweep's sort direction
}

// NewRDomVerts builds an r-dominance tester for a convex wR given its
// defining vertices (at least one).
func NewRDomVerts(verts []vec.Vector) *RDom {
	return &RDom{verts: verts, centroid: vec.Centroid(verts)}
}

// minDiff returns the minimum of S_w(p) - S_w(q) over wR.
func (r *RDom) minDiff(p, q vec.Vector) float64 {
	var min float64
	for i, v := range r.verts {
		if d := topk.ScorePoint(v, p) - topk.ScorePoint(v, q); i == 0 || d < min {
			min = d
		}
	}
	return min
}

// scoreRange returns the least and greatest of S_v(p) over the vertices
// v of wR, through the same ScorePoint values minDiff compares.
func (r *RDom) scoreRange(p vec.Vector) (lo, hi float64) {
	for i, v := range r.verts {
		s := topk.ScorePoint(v, p)
		if i == 0 || s < lo {
			lo = s
		}
		if i == 0 || s > hi {
			hi = s
		}
	}
	return lo, hi
}

// RDominates reports whether p r-dominates q over wR. The test demands
// a strictly positive margin everywhere, so boundary ties count as
// incomparable — the conservative (superset-safe) direction.
func (r *RDom) RDominates(p, q vec.Vector) bool {
	return r.minDiff(p, q) >= domEps
}

// CentroidScore returns S_c(p) at the centroid of wR, the sort key that
// makes the r-skyband sweep correct: every r-dominator of p scores
// strictly higher at the centroid.
func (r *RDom) CentroidScore(p vec.Vector) float64 {
	return topk.ScorePoint(r.centroid, p)
}

// bandSweep runs the sort-filter-skyline style sweep shared by KSkyband
// and RSkyband: options are processed in decreasing order of sortKey and
// kept while fewer than k already-kept options dominate them. Keeping
// the window restricted to kept options is exact because both dominance
// relations are transitive strict partial orders, and every dominator of
// an option sorts strictly before it.
func bandSweep(pts []vec.Vector, k int, sortKey func(vec.Vector) float64, dom func(p, q vec.Vector) bool) []int {
	order := make([]int, len(pts))
	for i := range order {
		order[i] = i
	}
	return bandSweepOver(pts, order, k, sortKey, dom)
}

// bandSweepOver is bandSweep restricted to the given candidate indices
// (order is not modified). Restricting the sweep is exact whenever every
// option outside the candidate set is dominated by at least k options:
// such options are never kept by the full sweep, and the sweep only
// ever compares against kept options, so dropping them from the input
// changes nothing.
func bandSweepOver(pts []vec.Vector, order []int, k int, sortKey func(vec.Vector) float64, dom func(p, q vec.Vector) bool) []int {
	type keyed struct {
		key float64
		idx int
	}
	byKey := make([]keyed, len(order))
	for t, i := range order {
		byKey[t] = keyed{sortKey(pts[i]), i}
	}
	sort.Slice(byKey, func(a, b int) bool {
		if byKey[a].key != byKey[b].key {
			return byKey[a].key > byKey[b].key
		}
		return byKey[a].idx < byKey[b].idx
	})
	var kept []int
	for _, c := range byKey {
		count := 0
		for _, kidx := range kept {
			if dom(pts[kidx], pts[c.idx]) {
				count++
				if count >= k {
					break
				}
			}
		}
		if count < k {
			kept = append(kept, c.idx)
		}
	}
	sort.Ints(kept)
	return kept
}

// KSkyband returns the indices of options dominated by fewer than k
// others — a superset of every possible top-k result for any weight
// vector in the whole preference space.
func KSkyband(pts []vec.Vector, k int) []int {
	return bandSweep(pts, k, func(p vec.Vector) float64 { return p.Sum() }, Dominates)
}

// RSkyband returns the indices of options r-dominated (w.r.t. wR) by
// fewer than k others — a superset of every possible top-k result for
// any w in wR. This is the paper's filter of choice (Figure 8).
//
// The sweep runs only over the options the O(n·|V|) bound pass
// (boundSurvivors) keeps, which by bandSweepOver's restriction argument
// leaves the result unchanged.
func RSkyband(pts []vec.Vector, k int, rd *RDom) []int {
	return bandSweepOver(pts, rd.boundSurvivors(pts, k), k, rd.CentroidScore, rd.RDominates)
}

// boundSurvivors returns, in ascending order, the options of pts that
// the bound pass cannot discard. Let lo(p) and hi(p) be p's least and
// greatest score over the vertices of wR, and τ the k-th largest lo
// over pts. An option p with τ - hi(p) >= domEps is r-dominated by each
// of the k options q with lo(q) >= τ: at every vertex v,
// S_v(q) - S_v(p) >= τ - hi(p) holds for the rounded differences too,
// because floating-point subtraction rounds monotonically in both
// operands, so RDominates(q, p) sees the same ScorePoint values and
// succeeds. No such q is p itself, since lo(p) <= hi(p) < τ. Every
// discarded option therefore has at least k r-dominators.
//
// One pass suffices: top tracks the k largest lo values seen so far,
// so top[0] is a running lower bound on τ and an option discarded
// against it would be discarded against τ as well. The options kept on
// the way are re-checked once τ is final, making the survivor set
// independent of scan order. The pass is skipped when it could discard
// nothing: with at most k options, or with k < 1.
func (r *RDom) boundSurvivors(pts []vec.Vector, k int) []int {
	if len(pts) <= k || k < 1 {
		all := make([]int, len(pts))
		for i := range all {
			all[i] = i
		}
		return all
	}
	type bounded struct {
		idx int
		hi  float64
	}
	top := make([]float64, 0, k) // k largest lo values so far, ascending
	var kept []bounded
	for i, p := range pts {
		lo, hi := r.scoreRange(p)
		if len(top) == k && top[0]-hi >= domEps {
			continue
		}
		kept = append(kept, bounded{i, hi})
		switch {
		case len(top) < k:
			top = append(top, lo)
			for j := len(top) - 1; j > 0 && top[j] < top[j-1]; j-- {
				top[j], top[j-1] = top[j-1], top[j]
			}
		case lo > top[0]:
			j := 0
			for ; j+1 < k && top[j+1] < lo; j++ {
				top[j] = top[j+1]
			}
			top[j] = lo
		}
	}
	tau := top[0]
	out := make([]int, 0, len(kept))
	for _, b := range kept {
		if tau-b.hi < domEps {
			out = append(out, b.idx)
		}
	}
	return out
}

// RSkybandSubset is RSkyband restricted to the candidate indices cand
// (each an index into pts; slots outside cand may be nil). The output
// equals RSkyband over the full dataset exactly when every option
// outside cand is r-dominated by at least k options — the certificate
// the sketch gate establishes before calling this. cand is not
// modified.
func RSkybandSubset(pts []vec.Vector, cand []int, k int, rd *RDom) []int {
	return bandSweepOver(pts, cand, k, rd.CentroidScore, rd.RDominates)
}

// OnionLayers returns the indices of options on the first k layers of
// the convex hull of the dataset (the onion technique [11]). A point is
// on the hull of the remaining set iff it cannot be written as a convex
// combination of the other remaining points, which is decided by an LP
// feasibility probe. Cost grows as O(k · n · LP(n)); the filter is
// included for the Figure 8 comparison, where the paper likewise finds
// it uncompetitive.
func OnionLayers(pts []vec.Vector, k int) []int {
	d := pts[0].Dim()
	remaining := make([]int, len(pts))
	for i := range remaining {
		remaining[i] = i
	}
	var result []int
	for layer := 0; layer < k && len(remaining) > 0; layer++ {
		var hull, rest []int
		for _, i := range remaining {
			if isHullVertex(pts, remaining, i, d) {
				hull = append(hull, i)
			} else {
				rest = append(rest, i)
			}
		}
		if len(hull) == 0 { // numeric degeneracy: keep everything left
			hull, rest = remaining, nil
		}
		result = append(result, hull...)
		remaining = rest
	}
	sort.Ints(result)
	return result
}

// isHullVertex reports whether pts[self] lies outside the convex hull of
// the other points in set, i.e. whether the system
// Σ λ_i q_i = p, Σ λ_i = 1, λ >= 0 is infeasible.
func isHullVertex(pts []vec.Vector, set []int, self, d int) bool {
	others := make([]int, 0, len(set)-1)
	for _, i := range set {
		if i != self {
			others = append(others, i)
		}
	}
	if len(others) <= d { // too few points to contain anything
		return true
	}
	cons := make([]lp.Constraint, 0, d+1)
	for j := 0; j < d; j++ {
		a := vec.New(len(others))
		for t, i := range others {
			a[t] = pts[i][j]
		}
		cons = append(cons, lp.Constraint{A: a, Rel: lp.EQ, B: pts[self][j]})
	}
	ones := vec.New(len(others))
	for t := range ones {
		ones[t] = 1
	}
	cons = append(cons, lp.Constraint{A: ones, Rel: lp.EQ, B: 1})
	_, feasible := lp.Feasible(len(others), cons)
	return !feasible
}
