package skyband

import (
	"math/rand"
	"sort"
	"testing"

	"toprr/internal/dataset"
	"toprr/internal/topk"
	"toprr/internal/vec"
)

func TestDominates(t *testing.T) {
	cases := []struct {
		p, q vec.Vector
		want bool
	}{
		{vec.Of(0.5, 0.5), vec.Of(0.4, 0.4), true},
		{vec.Of(0.5, 0.5), vec.Of(0.5, 0.4), true},
		{vec.Of(0.5, 0.5), vec.Of(0.5, 0.5), false}, // equal: no strict edge
		{vec.Of(0.5, 0.3), vec.Of(0.4, 0.4), false}, // incomparable
		{vec.Of(0.4, 0.4), vec.Of(0.5, 0.5), false},
	}
	for i, c := range cases {
		if got := Dominates(c.p, c.q); got != c.want {
			t.Errorf("case %d: Dominates(%v,%v) = %v, want %v", i, c.p, c.q, got, c.want)
		}
	}
}

func TestDominanceTransitive(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for iter := 0; iter < 2000; iter++ {
		a, b, c := randPt(rng, 3), randPt(rng, 3), randPt(rng, 3)
		if Dominates(a, b) && Dominates(b, c) && !Dominates(a, c) {
			t.Fatalf("dominance not transitive: %v %v %v", a, b, c)
		}
		if Dominates(a, b) && Dominates(b, a) {
			t.Fatalf("dominance not antisymmetric: %v %v", a, b)
		}
	}
}

// boxVerts lists the 2^m corners of the axis-aligned box [lo, hi] in
// preference space.
func boxVerts(lo, hi vec.Vector) []vec.Vector {
	m := len(lo)
	out := make([]vec.Vector, 0, 1<<m)
	for mask := 0; mask < 1<<m; mask++ {
		v := vec.New(m)
		for j := range v {
			v[j] = lo[j]
			if mask&(1<<j) != 0 {
				v[j] = hi[j]
			}
		}
		out = append(out, v)
	}
	return out
}

func randPt(rng *rand.Rand, d int) vec.Vector {
	p := vec.New(d)
	for j := range p {
		p[j] = rng.Float64()
	}
	return p
}

// bruteKSkyband counts dominators directly.
func bruteKSkyband(pts []vec.Vector, k int) []int {
	var out []int
	for i, p := range pts {
		count := 0
		for j, q := range pts {
			if i != j && Dominates(q, p) {
				count++
			}
		}
		if count < k {
			out = append(out, i)
		}
	}
	return out
}

func TestKSkybandMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for iter := 0; iter < 20; iter++ {
		n := 50 + rng.Intn(100)
		d := 2 + rng.Intn(3)
		pts := make([]vec.Vector, n)
		for i := range pts {
			pts[i] = randPt(rng, d)
		}
		k := 1 + rng.Intn(4)
		got := KSkyband(pts, k)
		want := bruteKSkyband(pts, k)
		if !equalInts(got, want) {
			t.Fatalf("iter %d (n=%d d=%d k=%d): got %v want %v", iter, n, d, k, got, want)
		}
	}
}

func TestDominanceImpliesRDominance(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	rd := NewRDomVerts(boxVerts(vec.Of(0.1, 0.1), vec.Of(0.4, 0.3)))
	for iter := 0; iter < 3000; iter++ {
		p, q := randPt(rng, 3), randPt(rng, 3)
		// Make strict dominance likely.
		if Dominates(p, q) {
			// Strict dominance with real margins implies r-dominance.
			margin := true
			for j := range p {
				if p[j] < q[j]+1e-9 {
					margin = false
				}
			}
			if margin && !rd.RDominates(p, q) {
				t.Fatalf("strictly dominating %v should r-dominate %v", p, q)
			}
		}
	}
}

// bruteRSkyband verifies against a sampled ground truth: an option is
// excludable only if at least k others beat it at EVERY sampled weight
// vector of wR.
func TestRSkybandIsSupersetOfTopKResults(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	pts := make([]vec.Vector, 300)
	for i := range pts {
		pts[i] = randPt(rng, 3)
	}
	lo, hi := vec.Of(0.3, 0.2), vec.Of(0.45, 0.35)
	k := 5
	band := RSkyband(pts, k, NewRDomVerts(boxVerts(lo, hi)))
	inBand := make(map[int]bool, len(band))
	for _, i := range band {
		inBand[i] = true
	}
	s := topk.NewScorer(pts)
	for iter := 0; iter < 500; iter++ {
		w := vec.Of(lo[0]+rng.Float64()*(hi[0]-lo[0]), lo[1]+rng.Float64()*(hi[1]-lo[1]))
		r := s.TopK(w, k, nil)
		for _, idx := range r.Ordered {
			if !inBand[idx] {
				t.Fatalf("top-%d member %d at w=%v missing from r-skyband", k, idx, w)
			}
		}
	}
}

func TestRSkybandSubsetOfKSkyband(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	pts := make([]vec.Vector, 400)
	for i := range pts {
		pts[i] = randPt(rng, 4)
	}
	k := 3
	rsky := RSkyband(pts, k, NewRDomVerts(boxVerts(vec.Of(0.2, 0.2, 0.2), vec.Of(0.3, 0.3, 0.3))))
	ksky := KSkyband(pts, k)
	inK := make(map[int]bool, len(ksky))
	for _, i := range ksky {
		inK[i] = true
	}
	for _, i := range rsky {
		if !inK[i] {
			t.Fatalf("r-skyband member %d not in k-skyband", i)
		}
	}
	if len(rsky) >= len(ksky) {
		t.Errorf("r-skyband (%d) should be smaller than k-skyband (%d) for a small wR",
			len(rsky), len(ksky))
	}
}

func TestOnionLayersSquare(t *testing.T) {
	// Four corners + center: corners are layer 1, center is layer 2.
	pts := []vec.Vector{
		vec.Of(0, 0), vec.Of(1, 0), vec.Of(0, 1), vec.Of(1, 1), vec.Of(0.5, 0.5),
	}
	l1 := OnionLayers(pts, 1)
	if !equalInts(l1, []int{0, 1, 2, 3}) {
		t.Errorf("layer 1 = %v, want the corners", l1)
	}
	l2 := OnionLayers(pts, 2)
	if !equalInts(l2, []int{0, 1, 2, 3, 4}) {
		t.Errorf("layers 1-2 = %v, want everything", l2)
	}
}

func TestOnionLayersCoverTopK(t *testing.T) {
	// k onion layers must contain the top-k for any weight vector — the
	// guarantee of the onion technique.
	rng := rand.New(rand.NewSource(33))
	pts := make([]vec.Vector, 120)
	for i := range pts {
		pts[i] = randPt(rng, 2)
	}
	k := 3
	onion := OnionLayers(pts, k)
	in := make(map[int]bool, len(onion))
	for _, i := range onion {
		in[i] = true
	}
	s := topk.NewScorer(pts)
	for iter := 0; iter < 200; iter++ {
		w := vec.Of(rng.Float64())
		for _, idx := range s.TopK(w, k, nil).Ordered {
			if !in[idx] {
				t.Fatalf("top-%d member %d at w=%v not covered by %d onion layers", k, idx, w, k)
			}
		}
	}
}

func TestFilterSizesOrdering(t *testing.T) {
	// On an independent dataset with a small wR, the paper's Figure 8
	// ordering must hold: |r-skyband| <= |k-skyband|.
	d := dataset.Generate(dataset.Independent, 3000, 4, 5)
	k := 10
	rd := NewRDomVerts(boxVerts(vec.Of(0.2, 0.2, 0.2), vec.Of(0.25, 0.25, 0.25)))
	rs := RSkyband(d.Pts, k, rd)
	ks := KSkyband(d.Pts, k)
	if len(rs) > len(ks) {
		t.Errorf("r-skyband %d > k-skyband %d", len(rs), len(ks))
	}
	if len(rs) < k {
		t.Errorf("r-skyband %d smaller than k=%d", len(rs), k)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	sa := append([]int(nil), a...)
	sb := append([]int(nil), b...)
	sort.Ints(sa)
	sort.Ints(sb)
	for i := range sa {
		if sa[i] != sb[i] {
			return false
		}
	}
	return true
}
