package topk

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"toprr/internal/vec"
)

// fuzzPts decodes byte triples into options of [0,1]^3 on a 1/255 grid,
// so duplicate options and exact score ties are common.
func fuzzPts(raw []byte, maxN int) []vec.Vector {
	var pts []vec.Vector
	for i := 0; i+3 <= len(raw) && len(pts) < maxN; i += 3 {
		pts = append(pts, vec.Of(float64(raw[i])/255, float64(raw[i+1])/255, float64(raw[i+2])/255))
	}
	return pts
}

// sameResult fails the test unless got equals want bit for bit.
func sameResult(t *testing.T, tag string, got, want *Result) {
	t.Helper()
	if !slices.Equal(got.Ordered, want.Ordered) || got.KthScore != want.KthScore {
		t.Fatalf("%s: got %v (kth %v), want %v (kth %v)", tag, got.Ordered, got.KthScore, want.Ordered, want.KthScore)
	}
}

// FuzzShardedLookup checks the evaluation plane against Scorer.TopK,
// the independent reference: at every shard count in [1, 8], over an
// optional active subset, cold and warm lookups and lookups after an
// insert-only AdvanceInsert (patched or rebound memos, plus cold
// vertices) must return exactly the reference's ordering and k-th
// score.
func FuzzShardedLookup(f *testing.F) {
	f.Add([]byte{0, 0, 0, 255, 255, 255, 128, 64, 32, 128, 64, 32, 64, 128, 32}, []byte{100, 20, 0, 255}, []byte{128, 64, 32}, uint8(1), uint8(0), uint64(0))
	f.Add([]byte("one shard is the S=1 case of the sharded plane"), []byte{0, 0, 255, 0, 85, 85}, []byte{255, 255, 255, 0, 0, 0}, uint8(3), uint8(2), uint64(7))
	f.Add([]byte{10, 200, 90, 200, 10, 90, 90, 90, 90, 10, 200, 90, 200, 10, 90, 50, 50, 50}, []byte{60, 60}, []byte{10, 200, 90}, uint8(2), uint8(7), uint64(3))
	f.Fuzz(func(t *testing.T, raw, wraw, ins []byte, kb, sb uint8, sel uint64) {
		const maxN = 48
		pts := fuzzPts(raw, maxN)
		if len(pts) == 0 {
			return
		}
		n := len(pts)
		shards := 1 + int(sb)%8
		k := 1 + int(kb)%min(n, 8)

		// An optional active subset of at least k slots, in shuffled
		// order (the plane must not assume sorted active sets).
		var active []int
		if sel&1 == 1 {
			rng := rand.New(rand.NewSource(int64(sel >> 1)))
			active = rng.Perm(n)[:k+rng.Intn(n-k+1)]
		}

		// Vertices of the reduced preference space: byte pairs scaled so
		// w0 + w1 <= 1; repeats make warm lookups.
		var ws []vec.Vector
		for i := 0; i+2 <= len(wraw) && len(ws) < 6; i += 2 {
			ws = append(ws, vec.Of(float64(wraw[i])/510, float64(wraw[i+1])/510))
		}
		if len(ws) == 0 {
			ws = append(ws, vec.Of(0.25, 0.25))
		}

		sc := NewScorerAt(pts, 1)
		standalone := NewShardedCache(sc, k, active, shards, 0, nil)
		reg := NewShardedRegistry(sc, shards)
		interned := reg.Get(k, active)
		for _, c := range []*Cache{standalone, interned} {
			for pass, tag := range []string{"cold", "warm"} {
				for _, w := range ws {
					got, _, err := c.LookupCtx(context.Background(), w, nil)
					if err != nil {
						t.Fatal(err)
					}
					sameResult(t, tag, got, sc.TopK(w, k, active))
					if _, hit := c.Lookup(w); pass == 1 && !hit {
						t.Fatalf("%s lookup of a memoized vertex missed", tag)
					}
				}
			}
		}

		inserted := fuzzPts(ins, 8)
		if len(inserted) == 0 {
			return
		}
		slots := make([]int, len(inserted))
		for i := range slots {
			slots[i] = n + i
		}
		sc2 := NewScorerAt(append(slices.Clip(pts), inserted...), 2)
		if sum := reg.AdvanceInsert(sc2, slots); sum.Fallback {
			t.Fatal("pure insert fell back to the drop path")
		}
		next := reg.GetFor(sc2, k, active)
		if next == nil {
			t.Fatal("advanced registry refused its own generation")
		}
		extra := vec.Of(float64(ins[0])/510, float64(ins[len(ins)-1])/510)
		for _, w := range append(ws, extra) {
			got, _, err := next.LookupCtx(context.Background(), w, nil)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, "after insert", got, sc2.TopK(w, k, active))
		}
		// The pinned old object still answers for generation 1.
		for _, w := range ws {
			sameResult(t, "pinned", interned.Get(w), sc.TopK(w, k, active))
		}
	})
}
