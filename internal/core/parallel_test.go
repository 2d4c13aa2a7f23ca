package core

import (
	"fmt"
	"math/rand"
	"testing"

	"toprr/internal/vec"
)

// TestParallelMatchesSequential verifies that the worker-pool driver
// computes the same oR as the sequential driver: the same constraints
// bit for bit, since every split decision depends on its region alone.
func TestParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for iter := 0; iter < 6; iter++ {
		d := 2 + iter%3
		prob := randomProblem(rng, 120, d, 2+rng.Intn(6))
		seq, err := Solve(prob, Options{Alg: TASStar})
		if err != nil {
			t.Fatal(err)
		}
		par, err := Solve(prob, Options{Alg: TASStar, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		assertSameOutput(t,
			AssembleOutput{Constraints: seq.ORConstraints, OR: seq.OR, Clips: seq.Stats.ImpactClips},
			AssembleOutput{Constraints: par.ORConstraints, OR: par.OR, Clips: par.Stats.ImpactClips},
			fmt.Sprintf("iter %d", iter))
		for probe := 0; probe < 400; probe++ {
			o := vec.New(d)
			for j := range o {
				o[j] = rng.Float64()
			}
			if seq.IsTopRanking(o) != par.IsTopRanking(o) {
				t.Fatalf("iter %d: parallel result differs at %v", iter, o)
			}
		}
		if par.Stats.Regions == 0 || par.Stats.VallSize == 0 {
			t.Fatal("parallel stats not populated")
		}
	}
}

// TestParallelAllAlgorithms smoke-tests the pool with PAC and TAS too.
func TestParallelAllAlgorithms(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	prob := randomProblem(rng, 100, 3, 5)
	base, err := Solve(prob, Options{Alg: TAS})
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []Algorithm{PAC, TAS, TASStar} {
		res, err := Solve(prob, Options{Alg: alg, Workers: 3})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		for probe := 0; probe < 200; probe++ {
			o := vec.Of(rng.Float64(), rng.Float64(), rng.Float64())
			if res.IsTopRanking(o) != base.IsTopRanking(o) {
				t.Fatalf("%v parallel differs at %v", alg, o)
			}
		}
	}
}

// TestParallelBudgetStops ensures the budget valve also fires under the
// worker pool.
func TestParallelBudgetStops(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	prob := randomProblem(rng, 400, 4, 10)
	if _, err := Solve(prob, Options{Alg: TAS, Workers: 4, MaxRegions: 2}); err == nil {
		t.Error("expected MaxRegions error under parallel driver")
	}
}
