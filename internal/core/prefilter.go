package core

import (
	"context"

	"toprr/internal/skyband"
	"toprr/internal/vec"
)

// Prefilter is the first pipeline stage of a TopRR solve: it reduces
// the dataset to the candidate options D' that can possibly appear in a
// top-k result somewhere in wR. Implementations must be safe for
// concurrent use; Filter returns indices into the problem's dataset.
//
// Section 6.3 of the paper compares four alternatives; the two that are
// both correct and competitive — the r-skyband and the (slower, but
// minimal-output) UTK filter — plug in via Options.Prefilter.
type Prefilter interface {
	// Name identifies the filter in stats and logs.
	Name() string
	// Filter returns the active candidate set for the problem.
	Filter(ctx context.Context, p Problem) ([]int, error)
}

// SkybandPrefilter is the default prefilter: the r-skyband of Section
// 6.3, computed against the vertices V of wR. It costs one O(n·|V|)
// bound pass over the dataset plus a sweep over the few options that
// pass survives, and reads the scorer's points in place; it may retain
// some options the UTK filter would drop.
type SkybandPrefilter struct{}

// Name implements Prefilter.
func (SkybandPrefilter) Name() string { return "r-skyband" }

// Filter implements Prefilter.
func (SkybandPrefilter) Filter(ctx context.Context, p Problem) ([]int, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rd := skyband.NewRDomVerts(p.WR.VertexPoints())
	return skyband.RSkyband(p.Scorer.Points(), p.K, rd), nil
}

// UTKPrefilter computes the exact candidate set — precisely the options
// appearing in at least one top-k result over wR — by partitioning wR
// into kIPRs with plain TAS (the fourth alternative of Section 6.3).
// Minimal |D'| at roughly twice the cost of the r-skyband; worthwhile
// when the same wR serves many downstream solves.
type UTKPrefilter struct {
	// MaxRegions bounds the internal kIPR partitioning (0 = solver
	// default).
	MaxRegions int
}

// Name implements Prefilter.
func (UTKPrefilter) Name() string { return "utk" }

// Filter implements Prefilter.
func (u UTKPrefilter) Filter(ctx context.Context, p Problem) ([]int, error) {
	return utkFilter(ctx, p, Options{Alg: TAS, MaxRegions: u.MaxRegions})
}

// NoPrefilter keeps the whole dataset active. It exists for ablation
// runs and as the degenerate strategy for tiny datasets where filtering
// costs more than it saves.
type NoPrefilter struct{}

// Name implements Prefilter.
func (NoPrefilter) Name() string { return "none" }

// Filter implements Prefilter.
func (NoPrefilter) Filter(ctx context.Context, p Problem) ([]int, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	active := make([]int, p.Scorer.Len())
	for i := range active {
		active[i] = i
	}
	return active, nil
}

// gatedFilter runs the prefilter stage, letting Options.SketchGate
// shortcut the default r-skyband sweep when it certifies a candidate
// list. The gate engages only for the default prefilter — a certificate
// of "r-dominated by >= k options" speaks to the r-skyband's exact
// semantics, not to UTK's or NoPrefilter's — and only when it holds for
// the solve's dataset generation; in every other case the configured
// prefilter runs untouched. Either path returns the identical candidate
// set, so the gate never changes a solve's output bit.
func gatedFilter(ctx context.Context, p Problem, o Options, pf Prefilter, st *Stats) ([]int, error) {
	g := o.SketchGate
	if g == nil || o.DisableSketchGate {
		return pf.Filter(ctx, p)
	}
	if _, isDefault := pf.(SkybandPrefilter); !isDefault {
		return pf.Filter(ctx, p)
	}
	verts := p.WR.VertexPoints()
	cands, skipped, ok := g(p.Scorer, verts, p.K)
	if !ok {
		return pf.Filter(ctx, p)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	pts := make([]vec.Vector, p.Scorer.Len())
	for _, i := range cands {
		pts[i] = p.Scorer.Point(i)
	}
	rd := skyband.NewRDomVerts(verts)
	st.SketchGated = true
	st.SketchSkips = skipped
	return skyband.RSkybandSubset(pts, cands, p.K, rd), nil
}
