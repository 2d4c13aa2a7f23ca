package bench

// The patch-on-insert experiment: two identically warmed top-k
// registries take the same pure-insert stream, one through
// AdvanceInsert (splice repair) and one through Advance (drop); the
// table records the options each side scores to be warm again at the
// new generation, per shard count. The counts are deterministic —
// pinned seeds, exact work accounting — so BENCH_patch.json rows are
// gated by cmd/benchrunner -compare: the scored-options ratio must stay
// above the floor, and a dominated insert must drop nothing.

import (
	"context"
	"fmt"
	"math/rand"

	"toprr/internal/dataset"
	"toprr/internal/topk"
	"toprr/internal/vec"
)

// PatchShardGrid is the shard counts the patch experiment sweeps.
var PatchShardGrid = []int{1, 2, 4, 8}

const (
	patchBenchK    = DefaultK
	patchVertices  = 32 // memoized preference vertices warmed per registry
	patchBatches   = 4  // single-insert batches applied to the warm caches
	patchRatioMin  = 5  // scored-options floor enforced by -compare
	patchTableID   = "Patch"
	patchTableHdr  = "shards"
	patchDropsWant = 0
)

// patchWeights draws the pinned set of reduced preference vectors whose
// top-k results the experiment memoizes.
func patchWeights(d int) []vec.Vector {
	rng := rand.New(rand.NewSource(71))
	ws := make([]vec.Vector, patchVertices)
	for i := range ws {
		w := vec.New(d - 1)
		for j := range w {
			w[j] = rng.Float64() / float64(d)
		}
		ws[i] = w
	}
	return ws
}

// warmRegistry populates the whole-dataset (k, nil) configuration with
// every pinned vertex.
func warmRegistry(reg *topk.Registry, ws []vec.Vector) {
	c := reg.Get(patchBenchK, nil)
	for _, w := range ws {
		c.Get(w)
	}
}

// lookupScored replays the vertices against the registry's current
// whole-dataset cache and returns the options scored to serve them —
// zero when every lookup hits — as attributed through a ShardAccum.
func lookupScored(reg *topk.Registry, ws []vec.Vector, shards int) (scored int, keys []string) {
	ctx := context.Background()
	c := reg.Get(patchBenchK, nil)
	keys = make([]string, len(ws))
	acc := topk.NewShardAccum(shards)
	for i, w := range ws {
		r, _, err := c.LookupCtx(ctx, w, acc)
		if err != nil {
			panic("bench: patch lookup failed: " + err.Error())
		}
		keys[i] = r.OrderKey()
	}
	for i := range acc.Scored {
		scored += int(acc.Scored[i].Load())
	}
	return scored, keys
}

// Patch measures patched-advance vs drop-and-recompute lookup cost
// after pure inserts, per shard count, plus the dominated-insert
// invariant (an insert cracking no memoized top-k drops nothing).
func Patch(s Scale) []*Table {
	ds := s.data(dataset.Independent, DefaultN, DefaultD)
	d := DefaultD
	ws := patchWeights(d)
	insRng := rand.New(rand.NewSource(72))

	t := &Table{
		ID: patchTableID,
		Caption: fmt.Sprintf("patch-on-insert vs drop-recompute, IND n=%s d=%d k=%d, %d vertices, %d inserts (options scored to re-warm)",
			humanN(len(ds.Pts)), d, patchBenchK, patchVertices, patchBatches),
		Header: []string{patchTableHdr, "entries", "patch scored", "cold scored", "ratio", "untouched drops"},
	}

	for _, shards := range PatchShardGrid {
		// Two identically warmed registries over the same base points.
		sc0 := topk.NewScorerAt(ds.Pts, 1)
		regPatch := topk.NewShardedRegistry(sc0, shards)
		regCold := topk.NewShardedRegistry(sc0, shards)
		warmRegistry(regPatch, ws)
		warmRegistry(regCold, ws)

		// The same single-insert stream advances both: splice repair on
		// one side, the pre-existing drop path on the other. Patch-side
		// advance work is PatchSummary.Entries scores per insert (each
		// examined entry scores the one inserted option).
		pts := ds.Pts
		patchScored := 0
		rng := rand.New(rand.NewSource(insRng.Int63()))
		for b := 0; b < patchBatches; b++ {
			p := vec.New(d)
			for j := range p {
				p[j] = rng.Float64()
			}
			pts = append(pts[:len(pts):len(pts)], p)
			scn := topk.NewScorerAt(pts, uint64(2+b))
			slot := []int{len(pts) - 1}
			sum := regPatch.AdvanceInsert(scn, slot)
			if sum.Fallback {
				panic("bench: patch advance fell back to drop")
			}
			patchScored += sum.Entries * len(slot)
			regCold.Advance(scn, slot)
		}

		// Re-warming: the patched side should hit everywhere (its extra
		// cost stays the advance-time splices), the cold side rescoreds
		// whatever the drop path discarded.
		postScored, patchKeys := lookupScored(regPatch, ws, shards)
		patchScored += postScored
		coldScored, coldKeys := lookupScored(regCold, ws, shards)
		for i := range patchKeys {
			if patchKeys[i] != coldKeys[i] {
				panic(fmt.Sprintf("bench: patched and recomputed rankings diverge at vertex %d (shards=%d)", i, shards))
			}
		}

		// The dominated-insert invariant: an option no memoized vertex
		// ranks must patch nothing and drop nothing.
		entries := 0
		drops := 0
		{
			evBefore := regPatch.Evictions()
			pts = append(pts[:len(pts):len(pts)], vec.New(d))
			scn := topk.NewScorerAt(pts, uint64(2+patchBatches))
			sum := regPatch.AdvanceInsert(scn, []int{len(pts) - 1})
			entries = sum.Entries
			if sum.Changed() {
				panic("bench: dominated insert patched an entry")
			}
			drops = sum.MergedDropped + (regPatch.Evictions() - evBefore)
			if again, _ := lookupScored(regPatch, ws, shards); again != 0 {
				drops += again // replay should be all hits; count rescoring as drops
			}
		}

		ratio := float64(coldScored) / float64(patchScored)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", shards),
			fmt.Sprintf("%d", entries),
			fmt.Sprintf("%d", patchScored),
			fmt.Sprintf("%d", coldScored),
			fmt.Sprintf("%.1f", ratio),
			fmt.Sprintf("%d", drops),
		})
	}
	return []*Table{t}
}
