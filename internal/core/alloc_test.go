package core

// CI-enforced allocation invariants for the solve hot path (see
// docs/PERFORMANCE.md): warm hyperplane interning and streaming impact
// dedup allocate nothing once their tables reach steady state, and the
// default prefilter allocates a fixed amount whatever the dataset size.

import (
	"context"
	"runtime"
	"testing"

	"toprr/internal/dataset"
	"toprr/internal/geom"
	"toprr/internal/race"
	"toprr/internal/topk"
	"toprr/internal/vec"
)

func skipUnderRace(t *testing.T) {
	t.Helper()
	if race.Enabled {
		t.Skip("alloc counts are inflated under -race")
	}
}

func TestAllocsWarmHyperplaneInterning(t *testing.T) {
	skipUnderRace(t)
	ds := dataset.Generate(dataset.Independent, 200, 4, 5)
	scorer := topk.NewScorer(ds.Pts)
	c := NewShardedHyperplaneCache(scorer, 4)
	for i := 0; i < 40; i++ {
		for j := i + 1; j < 40; j++ {
			hs, ok := computeSplitHyperplane(scorer, i, j)
			c.storeFor(scorer, i, j, hpEntry{hs: hs, ok: ok})
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 40; i++ {
			for j := i + 1; j < 40; j++ {
				if _, ok := c.lookupFor(scorer, i, j); !ok {
					t.Fatal("missing interned pair")
				}
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("warm hyperplane lookups allocate %.1f per run, want 0", allocs)
	}
}

func TestAllocsInsertOnlyHyperplaneAdvance(t *testing.T) {
	skipUnderRace(t)
	ds := dataset.Generate(dataset.Independent, 200, 4, 5)
	scorer := topk.NewScorer(ds.Pts)
	c := NewShardedHyperplaneCache(scorer, 4)
	for i := 0; i < 40; i++ {
		for j := i + 1; j < 40; j++ {
			hs, ok := computeSplitHyperplane(scorer, i, j)
			c.storeFor(scorer, i, j, hpEntry{hs: hs, ok: ok})
		}
	}
	want := c.Len()
	// AllocsPerRun invokes the body runs+1 times; pre-build a scorer and
	// pure-insert dirty list per invocation so the measured path is only
	// the advance itself.
	const runs = 50
	scorers := make([]*topk.Scorer, 0, 2*(runs+2))
	dirties := make([][]int, 0, 2*(runs+2))
	pts := ds.Pts
	for i := 0; i < 2*(runs+2); i++ {
		pts = append(pts[:len(pts):len(pts)], pts[0])
		scorers = append(scorers, topk.NewScorer(pts))
		dirties = append(dirties, []int{len(pts) - 1})
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		// Both entry points must advance a pure insert without allocating:
		// the classified fast path and the generic path fed insert-only
		// dirt.
		c.AdvanceInsert(scorers[next])
		c.Advance(scorers[next+1], dirties[next+1])
		next += 2
	})
	if allocs != 0 {
		t.Fatalf("insert-only hyperplane advance allocates %.1f per run, want 0", allocs)
	}
	if got := c.Len(); got != want {
		t.Fatalf("interned pairs after insert advances = %d, want %d", got, want)
	}
}

func TestAllocsStreamPushDuplicate(t *testing.T) {
	skipUnderRace(t)
	scorer, vall := streamTestInstance(t)
	st := ClipAssembler{}.NewStream(scorer, 5000)
	for _, iv := range vall {
		st.Push(iv)
	}
	// Re-pushing the same vertices hits the dedup fast path: hash, probe,
	// compare — no clone, no key string, no growth.
	allocs := testing.AllocsPerRun(50, func() {
		for _, iv := range vall {
			st.Push(iv)
		}
	})
	if allocs != 0 {
		t.Fatalf("duplicate stream pushes allocate %.1f per run, want 0", allocs)
	}
}

// TestAllocsSkybandPrefilter bounds the default prefilter on IND
// n = 100k by constants that do not grow with n: the bound pass reads
// the scorer's points in place and keeps only the options it cannot
// discard, so neither the object count nor the bytes may scale with the
// dataset (copying it alone would cost 100k objects).
func TestAllocsSkybandPrefilter(t *testing.T) {
	skipUnderRace(t)
	const (
		maxAllocs = 40
		maxBytes  = 64 << 10
		runs      = 5
	)
	ds := dataset.Generate(dataset.Independent, 100000, 4, 7)
	p := NewProblem(ds.Pts, 10, geom.NewBox(vec.Of(0.3, 0.25, 0.2), vec.Of(0.305, 0.255, 0.205)))
	filter := func() {
		if _, err := (SkybandPrefilter{}).Filter(context.Background(), p); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(runs, filter); allocs > maxAllocs {
		t.Fatalf("r-skyband prefilter allocates %.1f objects per run, want <= %d", allocs, maxAllocs)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		filter()
	}
	runtime.ReadMemStats(&after)
	if bytes := (after.TotalAlloc - before.TotalAlloc) / runs; bytes > maxBytes {
		t.Fatalf("r-skyband prefilter allocates %d bytes per run, want <= %d", bytes, maxBytes)
	}
}
