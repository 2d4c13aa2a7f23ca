package skyband

// Exactness of RSkyband against its definition: an option belongs to the
// r-skyband iff fewer than k other options r-dominate it. The oracle
// counts r-dominators over the whole dataset with RDominates, so any
// option the bound pass or the sweep loses (or keeps wrongly) shows up.

import (
	"fmt"
	"testing"

	"toprr/internal/dataset"
	"toprr/internal/vec"
)

// bruteRSkyband counts each option's r-dominators over all of pts.
func bruteRSkyband(pts []vec.Vector, k int, rd *RDom) []int {
	var out []int
	for i, p := range pts {
		count := 0
		for j, q := range pts {
			if i != j && rd.RDominates(q, p) {
				count++
			}
		}
		if count < k {
			out = append(out, i)
		}
	}
	return out
}

// centredBox returns the corners of the box of side sigma centred at
// 0.2 in every preference coordinate.
func centredBox(m int, sigma float64) []vec.Vector {
	lo, hi := vec.New(m), vec.New(m)
	for j := range lo {
		lo[j] = 0.2 - sigma/2
		hi[j] = lo[j] + sigma
	}
	return boxVerts(lo, hi)
}

// checkAgainstOracle fails unless RSkyband equals the oracle, and
// returns the oracle's answer.
func checkAgainstOracle(t *testing.T, pts []vec.Vector, k int, verts []vec.Vector) []int {
	t.Helper()
	rd := NewRDomVerts(verts)
	got := RSkyband(pts, k, rd)
	want := bruteRSkyband(pts, k, rd)
	if !equalInts(got, want) {
		t.Fatalf("k=%d n=%d: RSkyband = %v, oracle = %v", k, len(pts), got, want)
	}
	return want
}

func TestRSkybandMatchesBruteForce(t *testing.T) {
	dists := []dataset.Distribution{dataset.Independent, dataset.Correlated, dataset.Anticorrelated}
	for _, dist := range dists {
		ds := dataset.Generate(dist, 400, 4, 31)
		for _, sigma := range []float64{0.005, 0.05, 0.2} {
			verts := centredBox(3, sigma)
			for _, k := range []int{1, 10, 40} {
				t.Run(fmt.Sprintf("%v/sigma=%v/k=%d", dist, sigma, k), func(t *testing.T) {
					band := checkAgainstOracle(t, ds.Pts, k, verts)
					// The bound pass alone must keep every band member.
					survives := make(map[int]bool)
					for _, i := range NewRDomVerts(verts).boundSurvivors(ds.Pts, k) {
						survives[i] = true
					}
					for _, i := range band {
						if !survives[i] {
							t.Fatalf("bound pass discarded r-skyband member %d", i)
						}
					}
				})
			}
		}
	}
}

func TestRSkybandFewerOptionsThanK(t *testing.T) {
	pts := []vec.Vector{vec.Of(0.9, 0.9, 0.9), vec.Of(0.1, 0.1, 0.1), vec.Of(0.5, 0.4, 0.3)}
	verts := boxVerts(vec.Of(0.2, 0.2), vec.Of(0.3, 0.3))
	for _, k := range []int{3, 4, 8} {
		if band := checkAgainstOracle(t, pts, k, verts); len(band) != len(pts) {
			t.Fatalf("k=%d >= n: band %v, want every option", k, band)
		}
	}
}

func TestRSkybandDuplicateOptions(t *testing.T) {
	// Copies of an option never r-dominate each other, so each copy
	// counts only the strictly better options.
	base := dataset.Generate(dataset.Independent, 60, 3, 5).Pts
	var pts []vec.Vector
	for i, p := range base {
		pts = append(pts, p)
		for c := 0; c < i%4; c++ {
			pts = append(pts, p.Clone())
		}
	}
	verts := boxVerts(vec.Of(0.25, 0.3), vec.Of(0.3, 0.35))
	for k := 1; k <= 6; k++ {
		checkAgainstOracle(t, pts, k, verts)
	}
}

func TestRSkybandEqualCentroidScores(t *testing.T) {
	// Options on the lines a + b = s all score s/2 at the centroid 0.5
	// of wR = [0.4, 0.6] — exactly, as every coordinate is a multiple of
	// 1/8 — so the sweep's sort key ties within each line and only the
	// index tie-break orders them.
	var pts []vec.Vector
	for _, s := range []int{10, 8, 6} { // s in eighths
		for a := 0; a <= 8; a++ {
			if b := s - a; b >= 0 && b <= 8 {
				pts = append(pts, vec.Of(float64(a)/8, float64(b)/8))
			}
		}
	}
	verts := []vec.Vector{vec.Of(0.4), vec.Of(0.6)}
	rd := NewRDomVerts(verts)
	for _, p := range pts[1:3] {
		if rd.CentroidScore(p) != rd.CentroidScore(pts[0]) {
			t.Fatalf("test setup: centroid scores differ")
		}
	}
	for k := 1; k <= 5; k++ {
		checkAgainstOracle(t, pts, k, verts)
	}
}

func FuzzRSkyband(f *testing.F) {
	f.Add([]byte{0, 0, 0, 255, 255, 255, 128, 64, 32, 128, 64, 32}, uint8(1), uint8(50), uint8(60), uint8(10))
	f.Add([]byte("the r-skyband keeps every option with fewer than k r-dominators"), uint8(3), uint8(0), uint8(0), uint8(255))
	f.Add([]byte{200, 10, 90, 10, 200, 90, 100, 100, 100, 90, 90, 90, 200, 200, 5}, uint8(7), uint8(100), uint8(20), uint8(1))
	f.Fuzz(func(t *testing.T, raw []byte, kb, lo0, lo1, side uint8) {
		const d, maxN = 3, 64
		var pts []vec.Vector
		for i := 0; i+d <= len(raw) && len(pts) < maxN; i += d {
			pts = append(pts, vec.Of(float64(raw[i])/255, float64(raw[i+1])/255, float64(raw[i+2])/255))
		}
		if len(pts) == 0 {
			return
		}
		k := 1 + int(kb)%8
		s := 0.5 * (float64(side) + 1) / 256
		lo := vec.Of(0.5*float64(lo0)/255, 0.5*float64(lo1)/255)
		checkAgainstOracle(t, pts, k, boxVerts(lo, vec.Of(lo[0]+s, lo[1]+s)))
	})
}
