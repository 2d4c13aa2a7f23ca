package core

import (
	"context"

	"toprr/internal/skyband"
	"toprr/internal/vec"
)

// SkybandPrefilter is the first pipeline stage of a TopRR solve: the
// r-skyband of Section 6.3, computed against the vertices V of wR. It
// reduces the dataset to candidate options D' that can possibly appear
// in a top-k result somewhere in wR, at the cost of one O(n·|V|) bound
// pass over the dataset plus a sweep over the few options that pass
// survives, and reads the scorer's points in place. It may retain some
// options the (slower, minimal-output) UTKFilter would drop.
type SkybandPrefilter struct{}

// Filter returns the r-skyband as indices into the problem's dataset.
func (SkybandPrefilter) Filter(ctx context.Context, p Problem) ([]int, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rd := skyband.NewRDomVerts(p.WR.VertexPoints())
	return skyband.RSkyband(p.Scorer.Points(), p.K, rd), nil
}

// gatedFilter runs the prefilter stage, letting Options.SketchGate
// shortcut the r-skyband sweep when it certifies a candidate list. The
// gate engages only when it holds for the solve's dataset generation;
// in every other case the full r-skyband runs. Either path returns the
// identical candidate set, so the gate never changes a solve's output
// bit.
func gatedFilter(ctx context.Context, p Problem, o Options, st *Stats) ([]int, error) {
	g := o.SketchGate
	if g == nil || o.DisableSketchGate {
		return SkybandPrefilter{}.Filter(ctx, p)
	}
	verts := p.WR.VertexPoints()
	cands, skipped, ok := g(p.Scorer, verts, p.K)
	if !ok {
		return SkybandPrefilter{}.Filter(ctx, p)
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
