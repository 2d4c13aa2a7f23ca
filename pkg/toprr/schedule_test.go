package toprr_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"toprr/internal/bench"
	"toprr/internal/dataset"
	"toprr/internal/race"
	"toprr/pkg/toprr"
)

// TestDefaultSolveDeterministic: the exact answer is a function of its
// inputs only. Fresh engines solving at default options — one worker
// per shard, capped at GOMAXPROCS, so S > 1 runs the parallel
// partition on any multi-core box — must return bit-identical
// constraints on every run, equal to the sequential Workers: 1 solve.
// The instance is ANTI n=500, k=5 over twelve σ=3% regions; run it
// under several GOMAXPROCS settings to exercise real schedules.
func TestDefaultSolveDeterministic(t *testing.T) {
	runs := 100
	if race.Enabled || testing.Short() {
		runs = 10
	}
	ctx := context.Background()
	pts := dataset.Generate(dataset.Anticorrelated, 500, 3, 5).Pts
	const k = 5
	for seed := int64(0); seed < 12; seed++ {
		wr := bench.RandomRegion(2, 0.03, 1, rand.New(rand.NewSource(seed)))
		for _, alg := range []toprr.Algorithm{toprr.PAC, toprr.TAS, toprr.TASStar} {
			for _, shards := range []int{1, 2, 3, 8} {
				t.Run(fmt.Sprintf("wr%d/%v/S%d", seed, alg, shards), func(t *testing.T) {
					solve := func(opt *toprr.Options) *toprr.Result {
						eng := toprr.NewEngine(pts, toprr.WithShards(shards))
						res, err := eng.Solve(ctx, toprr.Query{K: k, WR: wr, Options: opt})
						if err != nil {
							t.Fatal(err)
						}
						return res
					}
					want := solve(&toprr.Options{Alg: alg, Workers: 1})
					for run := 0; run < runs; run++ {
						got := solve(&toprr.Options{Alg: alg})
						sameConstraints(t, fmt.Sprintf("run %d", run), got, want)
					}
				})
			}
		}
	}
}
