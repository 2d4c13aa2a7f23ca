package core

import (
	"toprr/internal/skyband"
	"toprr/internal/topk"
)

// FilterSizes reports the candidate-set sizes behind Figure 12 of the
// paper: |D'| after the r-skyband filter alone, and after additionally
// applying the consistent top-λ pruning of Lemma 5 at the root region
// wR itself.
func FilterSizes(p Problem) (rSkyband, withLemma5 int) {
	rd := skyband.NewRDomVerts(p.WR.VertexPoints())
	active := skyband.RSkyband(p.Scorer.Points(), p.K, rd)
	rSkyband = len(active)

	// Root-level Lemma 5: largest λ < k with a common top-λ set at all
	// vertices of wR.
	cache := topk.NewCache(p.Scorer, p.K, active)
	verts := p.WR.VertexPoints()
	results := make([]*topk.Result, len(verts))
	for i, v := range verts {
		results[i] = cache.Get(v)
	}
	lambda := 0
	for l := p.K - 1; l >= 1; l-- {
		same := true
		for _, r := range results[1:] {
			if !samePrefixSet(results[0], r, l) {
				same = false
				break
			}
		}
		if same {
			lambda = l
			break
		}
	}
	return rSkyband, rSkyband - lambda
}
