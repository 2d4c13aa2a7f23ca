package core

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"testing"

	"toprr/internal/dataset"
	"toprr/internal/geom"
	"toprr/internal/vec"
)

// fig1Dataset is the 2-D running example of the paper (Figure 1).
func fig1Dataset() []vec.Vector {
	return []vec.Vector{
		vec.Of(0.9, 0.4), // p1
		vec.Of(0.7, 0.9), // p2
		vec.Of(0.6, 0.2), // p3
		vec.Of(0.3, 0.8), // p4
		vec.Of(0.2, 0.3), // p5
		vec.Of(0.1, 0.1), // p6
	}
}

func fig1Problem() Problem {
	return NewProblem(fig1Dataset(), 3, PrefBox(vec.Of(0.2), vec.Of(0.8)))
}

// TestFig1Vall checks the paper's analysis of the running example: the
// kIPR boundaries inside wR = [0.2, 0.8] fall at w = 0.4 and w = 2/3, so
// TAS produces Vall = {0.2, 0.4, 2/3, 0.8} exactly (Section 3.3), while
// PAC — which refines down to order-invariant regions — produces a
// superset that additionally contains the p1/p2 order swap at w = 5/7.
func TestFig1Vall(t *testing.T) {
	want := []float64{0.2, 0.4, 2.0 / 3.0, 0.8}

	res, err := Solve(fig1Problem(), Options{Alg: TAS})
	if err != nil {
		t.Fatal(err)
	}
	got := vallCoords(res)
	if len(got) != len(want) {
		t.Fatalf("TAS: Vall = %v, want %v", got, want)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-6 {
			t.Fatalf("TAS: Vall = %v, want %v", got, want)
		}
	}

	pac, err := Solve(fig1Problem(), Options{Alg: PAC})
	if err != nil {
		t.Fatal(err)
	}
	pacGot := vallCoords(pac)
	if len(pacGot) < len(want) {
		t.Fatalf("PAC: Vall = %v, too small", pacGot)
	}
	for _, w := range append(append([]float64(nil), want...), 5.0/7.0) {
		found := false
		for _, g := range pacGot {
			if math.Abs(g-w) < 1e-6 {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("PAC: Vall %v missing expected vertex %v", pacGot, w)
		}
	}
}

func vallCoords(res *Result) []float64 {
	got := make([]float64, 0, len(res.Vall))
	for _, iv := range res.Vall {
		got = append(got, iv.W[0])
	}
	sort.Float64s(got)
	return got
}

// TestFig1KthScores verifies TopK(v) at every vertex of Vall against
// hand-computed values.
func TestFig1KthScores(t *testing.T) {
	res, err := Solve(fig1Problem(), Options{Alg: TAS})
	if err != nil {
		t.Fatal(err)
	}
	want := map[float64]float64{
		0.2:       0.5,        // p1: 0.4 + 0.5*0.2
		0.4:       0.6,        // p1 = p4 tie
		2.0 / 3.0: 7.0 / 15.0, // p3 = p4 tie: 0.2 + 0.4*(2/3)
		0.8:       0.52,       // p3: 0.2 + 0.4*0.8
	}
	for _, iv := range res.Vall {
		found := false
		for w, score := range want {
			if math.Abs(iv.W[0]-w) < 1e-6 {
				if math.Abs(iv.KthScore-score) > 1e-9 {
					t.Errorf("TopK(%v) = %v, want %v", w, iv.KthScore, score)
				}
				found = true
			}
		}
		if !found {
			t.Errorf("unexpected Vall vertex %v", iv.W)
		}
	}
}

// TestFig1RegionMembership checks the gray region of Figure 1(b) through
// membership probes.
func TestFig1RegionMembership(t *testing.T) {
	res, err := Solve(fig1Problem(), Options{Alg: TASStar})
	if err != nil {
		t.Fatal(err)
	}
	if res.OR.IsEmpty() {
		t.Fatal("oR must not be empty")
	}
	// The top corner is always top-ranking.
	if !res.IsTopRanking(vec.Of(1, 1)) {
		t.Error("(1,1) must be in oR")
	}
	// p2 = (0.7, 0.9) is in every top-3 throughout wR (it is in the
	// top-3 set on every kIPR of the example), so it must lie in oR.
	if !res.IsTopRanking(vec.Of(0.7, 0.9)) {
		t.Error("p2 must be in oR")
	}
	// (0.5, 0.5) violates oH(0.4): 0.4*0.5 + 0.6*0.5 = 0.5 < 0.6.
	if res.IsTopRanking(vec.Of(0.5, 0.5)) {
		t.Error("(0.5,0.5) must be outside oR")
	}
	if w := res.WitnessNonTopRanking(vec.Of(0.5, 0.5)); w == nil {
		t.Error("no witness for excluded point")
	}
	// p6 is far from top ranking.
	if res.IsTopRanking(vec.Of(0.1, 0.1)) {
		t.Error("p6 must be outside oR")
	}
}

// TestFig1OH04Binding pins the degeneracy regression this implementation
// guards against: the impact halfspace at the interior transition vertex
// w = 0.4 is binding, so missing it (by accepting [0.2, 2/3] as one
// region) would wrongly enlarge oR. The probe point satisfies the other
// three halfspaces but violates oH(0.4).
func TestFig1OH04Binding(t *testing.T) {
	res, err := Solve(fig1Problem(), Options{Alg: TASStar})
	if err != nil {
		t.Fatal(err)
	}
	probe := vec.Of(0.4429, 0.5143)
	if res.IsTopRanking(probe) {
		t.Fatal("probe violating oH(0.4) must be excluded from oR")
	}
	// Brute-force confirmation: at w = 0.35 the probe ranks below 3.
	if r := Rank(res.Problem.Scorer, vec.Of(0.35), probe); r <= 3 {
		t.Fatalf("probe rank at w=0.35 is %d; test premise broken", r)
	}
}

// randomProblem builds a random TopRR instance for agreement testing.
func randomProblem(rng *rand.Rand, n, d, k int) Problem {
	pts := make([]vec.Vector, n)
	for i := range pts {
		pts[i] = vec.New(d)
		for j := range pts[i] {
			pts[i][j] = rng.Float64()
		}
	}
	m := d - 1
	lo, hi := vec.New(m), vec.New(m)
	for j := 0; j < m; j++ {
		lo[j] = 0.1 + 0.5*rng.Float64()
		hi[j] = lo[j] + 0.05 + 0.1*rng.Float64()
	}
	// Keep the box inside the weight simplex.
	scale := 0.9 / math.Max(1, hi.Sum())
	for j := 0; j < m; j++ {
		lo[j] *= scale
		hi[j] *= scale
	}
	return NewProblem(pts, k, PrefBox(lo, hi))
}

// TestAlgorithmsAgree verifies that PAC, TAS and TAS* compute the same
// oR on randomized instances, compared through membership of sampled
// probe points (both inside and outside).
func TestAlgorithmsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for iter := 0; iter < 12; iter++ {
		d := 2 + iter%3 // dimensions 2..4
		prob := randomProblem(rng, 60, d, 1+rng.Intn(4))
		var results []*Result
		for _, alg := range []Algorithm{PAC, TAS, TASStar} {
			res, err := Solve(prob, Options{Alg: alg, Seed: int64(iter)})
			if err != nil {
				t.Fatalf("iter %d %v: %v", iter, alg, err)
			}
			results = append(results, res)
		}
		for probe := 0; probe < 300; probe++ {
			o := vec.New(d)
			for j := range o {
				o[j] = rng.Float64()
			}
			in0 := results[0].IsTopRanking(o)
			for a := 1; a < 3; a++ {
				if results[a].IsTopRanking(o) != in0 {
					t.Fatalf("iter %d: algorithms disagree on %v (PAC=%v)", iter, o, in0)
				}
			}
		}
	}
}

// TestSoundness checks, against the brute-force rank oracle, that every
// sampled point of oR is top-ranking for every sampled preference.
func TestSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	for iter := 0; iter < 10; iter++ {
		d := 2 + iter%3
		prob := randomProblem(rng, 80, d, 1+rng.Intn(5))
		res, err := Solve(prob, Options{Alg: TASStar})
		if err != nil {
			t.Fatal(err)
		}
		if res.OR.IsEmpty() {
			t.Fatal("oR empty")
		}
		for probe := 0; probe < 20; probe++ {
			o := res.OR.SamplePoint(rng)
			if w := VerifyTopRanking(prob, o, 60, rng); w != nil {
				t.Fatalf("iter %d: point %v of oR ranks below %d at w=%v",
					iter, o, prob.K, w)
			}
		}
	}
}

// TestMaximality checks that points just outside oR have a witness
// preference in wR where they fail to make the top-k: oR misses nothing.
func TestMaximality(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	for iter := 0; iter < 8; iter++ {
		d := 2 + iter%2
		prob := randomProblem(rng, 60, d, 1+rng.Intn(4))
		res, err := Solve(prob, Options{Alg: TASStar})
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range res.OR.Facets() {
			h := f.H.Normalize()
			// Skip the option-space box facets: outside them is outside
			// the domain, not a maximality question.
			if isBoxFacet(h, d) {
				continue
			}
			// Push the facet centroid slightly outside.
			pts := make([]vec.Vector, len(f.VertexIx))
			for i, vi := range f.VertexIx {
				pts[i] = res.OR.Verts[vi].Point
			}
			out := vec.Centroid(pts).AddScaled(-1e-4, h.A)
			inDomain := true
			for _, x := range out {
				if x < 0 || x > 1 {
					inDomain = false
				}
			}
			if !inDomain {
				continue
			}
			if w := res.WitnessNonTopRanking(out); w == nil {
				t.Fatalf("iter %d: no witness for point outside facet %v", iter, h)
			} else if r := Rank(prob.Scorer, w, out); r <= prob.K {
				t.Fatalf("iter %d: witness w=%v does not reject the point (rank %d)", iter, w, r)
			}
		}
	}
}

func isBoxFacet(h geom.Halfspace, d int) bool {
	nonzero := 0
	for _, a := range h.A {
		if math.Abs(a) > 1e-9 {
			nonzero++
		}
	}
	return nonzero == 1
}

// TestOptimizationsPreserveResult runs TAS* with each optimization
// disabled in turn and verifies the answer never changes (Section 6.5's
// premise: the optimizations trade work, not correctness).
func TestOptimizationsPreserveResult(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	for iter := 0; iter < 6; iter++ {
		prob := randomProblem(rng, 70, 3, 2+rng.Intn(4))
		base, err := Solve(prob, Options{Alg: TASStar})
		if err != nil {
			t.Fatal(err)
		}
		variants := []Options{
			{Alg: TASStar, DisableLemma5: true},
			{Alg: TASStar, DisableLemma7: true},
			{Alg: TASStar, DisableKSwitch: true},
			{Alg: TASStar, DisableLemma5: true, DisableLemma7: true, DisableKSwitch: true},
		}
		for vi, opt := range variants {
			res, err := Solve(prob, opt)
			if err != nil {
				t.Fatalf("variant %d: %v", vi, err)
			}
			for probe := 0; probe < 200; probe++ {
				o := vec.New(3)
				for j := range o {
					o[j] = rng.Float64()
				}
				if res.IsTopRanking(o) != base.IsTopRanking(o) {
					t.Fatalf("iter %d variant %d: oR differs at %v", iter, vi, o)
				}
			}
		}
	}
}

// TestLemma7ReducesVall confirms the instrumentation direction of
// Figure 13: enabling Lemma 7 must not increase |Vall|.
func TestLemma7ReducesVall(t *testing.T) {
	rng := rand.New(rand.NewSource(505))
	prob := randomProblem(rng, 200, 3, 10)
	on, err := Solve(prob, Options{Alg: TASStar})
	if err != nil {
		t.Fatal(err)
	}
	off, err := Solve(prob, Options{Alg: TASStar, DisableLemma7: true})
	if err != nil {
		t.Fatal(err)
	}
	// Randomized fallback pair choices allow tiny fluctuations; only a
	// systematic increase indicates a defect.
	if float64(on.Stats.VallSize) > 1.1*float64(off.Stats.VallSize)+5 {
		t.Errorf("Lemma 7 increased |Vall|: %d > %d", on.Stats.VallSize, off.Stats.VallSize)
	}
}

// TestLemma5ReducesProcessedOptions confirms the Figure 12 direction:
// Lemma 5 shrinks the processed option set.
func TestLemma5ReducesProcessedOptions(t *testing.T) {
	rng := rand.New(rand.NewSource(606))
	prob := randomProblem(rng, 200, 3, 10)
	on, err := Solve(prob, Options{Alg: TASStar})
	if err != nil {
		t.Fatal(err)
	}
	if on.Stats.Lemma5Prunes == 0 {
		t.Skip("instance did not trigger Lemma 5; acceptable but uninformative")
	}
	if on.Stats.ProcessedMin >= on.Stats.FilteredOptions {
		t.Errorf("Lemma 5 pruned %d options but ProcessedMin=%d >= |D'|=%d",
			on.Stats.Lemma5Prunes, on.Stats.ProcessedMin, on.Stats.FilteredOptions)
	}
}

// TestK1 exercises the k = 1 special case (Lemma 6): oR is defined by
// the impact halfspaces at wR's own vertices whenever the top-1 is
// constant, and remains correct when it is not.
func TestK1(t *testing.T) {
	rng := rand.New(rand.NewSource(707))
	for iter := 0; iter < 5; iter++ {
		prob := randomProblem(rng, 50, 3, 1)
		res, err := Solve(prob, Options{Alg: TASStar})
		if err != nil {
			t.Fatal(err)
		}
		for probe := 0; probe < 10; probe++ {
			o := res.OR.SamplePoint(rng)
			if w := VerifyTopRanking(prob, o, 50, rng); w != nil {
				t.Fatalf("k=1: point of oR not top-1 at %v", w)
			}
		}
	}
}

// TestWRSinglePoint degenerates wR to (numerically) a point; the answer
// must equal the single impact halfspace.
func TestWRTiny(t *testing.T) {
	pts := fig1Dataset()
	prob := NewProblem(pts, 3, PrefBox(vec.Of(0.5), vec.Of(0.5+1e-7)))
	res, err := Solve(prob, Options{Alg: TASStar})
	if err != nil {
		t.Fatal(err)
	}
	// At w=0.5 the top-3 is p2(0.8), p1(0.65), p4(0.55): threshold 0.55.
	o := vec.Of(0.1, 0.93) // 0.05 + 0.465 = 0.515 < 0.55: outside
	if res.IsTopRanking(o) {
		t.Error("point below the w=0.5 threshold must be outside")
	}
	o2 := vec.Of(0.2, 0.95) // 0.1 + 0.475 = 0.575 > 0.55: inside
	if !res.IsTopRanking(o2) {
		t.Error("point above the w=0.5 threshold must be inside")
	}
}

// TestKEqualsN runs with k equal to the dataset size: every option is in
// the top-k, so oR must be the entire option box.
func TestKEqualsN(t *testing.T) {
	pts := fig1Dataset()
	prob := NewProblem(pts, len(pts), PrefBox(vec.Of(0.3), vec.Of(0.6)))
	res, err := Solve(prob, Options{Alg: TAS})
	if err != nil {
		t.Fatal(err)
	}
	// With k = n, TopK(w) is the minimum score; any option scoring at
	// least the worst option everywhere is top-ranking. The origin
	// scores 0 <= min score, so generally outside; the unit corner is in.
	if !res.IsTopRanking(vec.Of(1, 1)) {
		t.Error("unit corner must be top-ranking")
	}
	if res.IsTopRanking(vec.Of(0, 0)) {
		t.Error("origin cannot outrank the worst option")
	}
}

// TestStatsPopulated sanity-checks the instrumentation counters.
func TestStatsPopulated(t *testing.T) {
	res, err := Solve(fig1Problem(), Options{Alg: TASStar})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.InputOptions != 6 {
		t.Errorf("InputOptions = %d", st.InputOptions)
	}
	if st.FilteredOptions == 0 || st.FilteredOptions > 6 {
		t.Errorf("FilteredOptions = %d", st.FilteredOptions)
	}
	if st.Regions == 0 || st.VallSize == 0 || st.TopKQueries == 0 {
		t.Errorf("counters not populated: %+v", st)
	}
	if st.Elapsed <= 0 {
		t.Error("Elapsed not set")
	}
}

// TestMaxRegionsGuard verifies the safety valve errors out rather than
// looping.
func TestMaxRegionsGuard(t *testing.T) {
	rng := rand.New(rand.NewSource(808))
	prob := randomProblem(rng, 300, 4, 10)
	if _, err := Solve(prob, Options{Alg: TAS, MaxRegions: 2}); err == nil {
		t.Error("expected MaxRegions error")
	}
}

// TestUTKFilterExactness compares the UTK filter against a sampled union
// of top-k results (must be covered) and the r-skyband (must contain the
// filter output).
func TestUTKFilterExactness(t *testing.T) {
	rng := rand.New(rand.NewSource(909))
	pts := make([]vec.Vector, 150)
	for i := range pts {
		pts[i] = vec.Of(rng.Float64(), rng.Float64(), rng.Float64())
	}
	lo, hi := vec.Of(0.2, 0.25), vec.Of(0.3, 0.35)
	wr := PrefBox(lo, hi)
	k := 4
	utk, err := UTKFilter(pts, k, wr)
	if err != nil {
		t.Fatal(err)
	}
	inUTK := make(map[int]bool, len(utk))
	for _, i := range utk {
		inUTK[i] = true
	}
	prob := NewProblem(pts, k, wr)
	for iter := 0; iter < 400; iter++ {
		w := wr.SamplePoint(rng)
		for _, idx := range prob.Scorer.TopK(w, k, nil).Ordered {
			if !inUTK[idx] {
				t.Fatalf("top-%d member %d at %v missing from UTK filter", k, idx, w)
			}
		}
	}
	// UTK is the tightest filter: no larger than the r-skyband.
	sky, err := SkybandPrefilter{}.Filter(context.Background(), prob)
	if err != nil {
		t.Fatal(err)
	}
	if len(utk) > len(sky) {
		t.Errorf("UTK |D'| = %d exceeds r-skyband |D'| = %d", len(utk), len(sky))
	}
}

// TestPrefBoxSimplexClipping ensures wR respects the weight simplex.
func TestPrefBoxSimplexClipping(t *testing.T) {
	wr := PrefBox(vec.Of(0.5, 0.4), vec.Of(0.9, 0.8))
	for _, v := range wr.VertexPoints() {
		if v.Sum() > 1+1e-9 {
			t.Errorf("vertex %v violates the simplex constraint", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for empty region")
		}
	}()
	PrefBox(vec.Of(0.9, 0.9), vec.Of(0.95, 0.95))
}

// TestProblemValidation exercises NewProblem's panics.
func TestProblemValidation(t *testing.T) {
	pts := fig1Dataset()
	for _, fn := range []func(){
		func() { NewProblem(pts, 0, PrefBox(vec.Of(0.2), vec.Of(0.4))) },
		func() { NewProblem(pts, 7, PrefBox(vec.Of(0.2), vec.Of(0.4))) },
		func() { NewProblem(pts, 2, PrefBox(vec.Of(0.2, 0.2), vec.Of(0.3, 0.3))) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

// TestRealisticDatasetSmoke runs TAS* end to end on slices of the
// simulated real datasets.
func TestRealisticDatasetSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second end-to-end run")
	}
	lap := dataset.Laptops()
	prob := NewProblem(lap.Pts, 3, PrefBox(vec.Of(0.7), vec.Of(0.8)))
	res, err := Solve(prob, Options{Alg: TASStar})
	if err != nil {
		t.Fatal(err)
	}
	if res.OR.IsEmpty() {
		t.Fatal("laptop case study oR empty")
	}
	rng := rand.New(rand.NewSource(42))
	o := res.OR.SamplePoint(rng)
	if w := VerifyTopRanking(prob, o, 200, rng); w != nil {
		t.Fatalf("case study point not top-3 at %v", w)
	}
}

func TestAlgorithmString(t *testing.T) {
	if PAC.String() != "PAC" || TAS.String() != "TAS" || TASStar.String() != "TAS*" {
		t.Error("algorithm names wrong")
	}
	if Algorithm(9).String() == "" {
		t.Error("unknown algorithm should still render")
	}
}
