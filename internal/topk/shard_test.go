package topk

import (
	"context"
	"math/rand"
	"testing"

	"toprr/internal/vec"
)

func randomPts(rng *rand.Rand, n, d int) []vec.Vector {
	pts := make([]vec.Vector, n)
	for i := range pts {
		pts[i] = vec.New(d)
		for j := range pts[i] {
			pts[i][j] = rng.Float64()
		}
	}
	return pts
}

// TestShardOfPointStable: assignment depends only on contents, so a
// swap-deleted option keeps its shard wherever it lands.
func TestShardOfPointStable(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := vec.Of(rng.Float64(), rng.Float64(), rng.Float64())
	for _, s := range []int{1, 2, 3, 8, 64} {
		a := ShardOfPoint(p, s)
		if a < 0 || a >= s {
			t.Fatalf("shards=%d: assignment %d out of range", s, a)
		}
		if b := ShardOfPoint(p.Clone(), s); b != a {
			t.Fatalf("shards=%d: clone assigned %d, original %d", s, b, a)
		}
	}
	if ShardOfPoint(p, 1) != 0 || ShardOfPoint(p, 0) != 0 {
		t.Error("degenerate shard counts must assign shard 0")
	}
}

// TestShardedLookupMatchesTopK: merged sharded results must be
// bit-identical to the Scorer.TopK oracle — ordering, tie-breaks and
// KthScore included — across random data, duplicate points (forced
// score ties), k values and active subsets.
func TestShardedLookupMatchesTopK(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for iter := 0; iter < 40; iter++ {
		n := 5 + rng.Intn(60)
		d := 2 + rng.Intn(4)
		pts := randomPts(rng, n, d)
		// Duplicate a few points so exact score ties exercise the
		// index tie-break through the merge.
		for c := 0; c < 3 && n > 1; c++ {
			pts[rng.Intn(n)] = pts[rng.Intn(n)].Clone()
		}
		sc := NewScorer(pts)
		k := 1 + rng.Intn(n)

		var active []int
		if rng.Intn(2) == 0 {
			perm := rng.Perm(n)
			m := k + rng.Intn(n-k+1)
			active = append([]int(nil), perm[:m]...)
			if len(active) < k {
				continue
			}
		}

		for _, shards := range []int{1, 2, 3, 8} {
			cache := NewShardedCache(sc, k, active, shards, 0, nil)
			for probe := 0; probe < 5; probe++ {
				w := vec.New(d - 1)
				for j := range w {
					w[j] = rng.Float64() / float64(d)
				}
				want := sc.TopK(w, k, active)
				got, _, err := cache.LookupCtx(context.Background(), w, nil)
				if err != nil {
					t.Fatal(err)
				}
				if got.OrderKey() != want.OrderKey() {
					t.Fatalf("iter %d shards=%d: order %q != %q", iter, shards, got.OrderKey(), want.OrderKey())
				}
				if got.KthScore != want.KthScore {
					t.Fatalf("iter %d shards=%d: kth score %v != %v", iter, shards, got.KthScore, want.KthScore)
				}
				// Second lookup must be a full hit and identical.
				again, hit, err := cache.LookupCtx(context.Background(), w, nil)
				if err != nil || !hit {
					t.Fatalf("iter %d: repeat lookup hit=%v err=%v", iter, hit, err)
				}
				if again.OrderKey() != want.OrderKey() {
					t.Fatal("repeat lookup diverged")
				}
			}
		}
	}
}

// TestShardedLookupCancellation: a cancelled context fails the lookup
// instead of computing.
func TestShardedLookupCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sc := NewScorer(randomPts(rng, 50, 3))
	cache := NewShardedCache(sc, 5, nil, 4, 0, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := cache.LookupCtx(ctx, vec.Of(0.3, 0.3), nil); err == nil {
		t.Fatal("cancelled sharded lookup should error")
	}
	// The cache still works with a live context afterwards.
	if _, _, err := cache.LookupCtx(context.Background(), vec.Of(0.3, 0.3), nil); err != nil {
		t.Fatal(err)
	}
}

// TestShardedAccum: per-shard work attribution counts one partial per
// missing shard and the members it scored.
func TestShardedAccum(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	sc := NewScorer(randomPts(rng, 40, 3))
	const shards = 4
	cache := NewShardedCache(sc, 3, nil, shards, 0, nil)
	acc := NewShardAccum(shards)
	if _, _, err := cache.LookupCtx(context.Background(), vec.Of(0.25, 0.25), acc); err != nil {
		t.Fatal(err)
	}
	partials, scored := 0, int64(0)
	for i := 0; i < shards; i++ {
		partials += int(acc.Partials[i].Load())
		scored += acc.Scored[i].Load()
	}
	if partials != shards {
		t.Errorf("first lookup computed %d partials, want %d", partials, shards)
	}
	if scored != int64(sc.Len()) {
		t.Errorf("scored %d options, want %d", scored, sc.Len())
	}
	// A hit attributes nothing further.
	if _, hit, _ := cache.LookupCtx(context.Background(), vec.Of(0.25, 0.25), acc); !hit {
		t.Fatal("expected hit")
	}
	after := 0
	for i := 0; i < shards; i++ {
		after += int(acc.Partials[i].Load())
	}
	if after != partials {
		t.Error("hit changed the partial attribution")
	}
}

// TestShardedRegistryAdvance: per-shard invalidation keeps the warm
// state of untouched shards — an insert into a whole-dataset
// configuration drops exactly the shards the new option joined, and a
// delete/update drops only the touched shards' partials.
func TestShardedRegistryAdvance(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := randomPts(rng, 64, 3)
	sc1 := NewScorerAt(pts, 1)
	const shards = 4
	reg := NewShardedRegistry(sc1, shards)
	cache := reg.Get(5, nil) // whole-dataset configuration

	// Warm every shard at several vertices.
	for probe := 0; probe < 6; probe++ {
		w := vec.Of(0.1+0.05*float64(probe), 0.2)
		if _, _, err := cache.LookupCtx(context.Background(), w, nil); err != nil {
			t.Fatal(err)
		}
	}
	before := cache.Len()
	if before == 0 {
		t.Fatal("warmup memoized nothing")
	}

	// Insert: only the new option's shard may drop.
	p := vec.Of(rng.Float64(), rng.Float64(), rng.Float64())
	pts2 := append(append([]vec.Vector(nil), pts...), p)
	sc2 := NewScorerAt(pts2, 2)
	oldCache := cache
	reg.Advance(sc2, []int{len(pts)})
	if reg.Len() != 1 {
		t.Fatalf("insert dropped the whole-dataset configuration (configs=%d); sharded advance should keep it", reg.Len())
	}
	// The registry swaps in a successor object; in-flight solves keep
	// the old one, which must still answer for the OLD generation.
	wOld := vec.Of(0.22, 0.31)
	gotOld, _, err := oldCache.LookupCtx(context.Background(), wOld, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := sc1.TopK(wOld, 5, nil); gotOld.OrderKey() != want.OrderKey() {
		t.Fatalf("pinned old-generation cache answered %q, want old-gen %q", gotOld.OrderKey(), want.OrderKey())
	}
	cache = reg.Get(5, nil)
	joined := ShardOfPoint(p, shards)
	perShard := make([]int, shards)
	for _, ss := range reg.ShardStats() {
		perShard[ss.Shard] = ss.TopKEntries
	}
	for i, n := range perShard {
		if i == joined {
			if n != 0 {
				t.Errorf("joined shard %d kept %d stale partials", i, n)
			}
		} else if n == 0 {
			t.Errorf("untouched shard %d lost its partials", i)
		}
	}

	// The advanced cache answers exactly for the new generation.
	w := vec.Of(0.3, 0.25)
	got, _, err := cache.LookupCtx(context.Background(), w, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := sc2.TopK(w, 5, nil); got.OrderKey() != want.OrderKey() {
		t.Fatalf("post-insert lookup %q != oracle %q", got.OrderKey(), want.OrderKey())
	}

	// Update slot 0: drops the shards owning its old and new contents.
	pts3 := append([]vec.Vector(nil), pts2...)
	oldShard := ShardOfPoint(pts3[0], shards)
	repl := vec.Of(rng.Float64(), rng.Float64(), rng.Float64())
	newShard := ShardOfPoint(repl, shards)
	pts3[0] = repl
	sc3 := NewScorerAt(pts3, 3)
	reg.Advance(sc3, []int{0})
	if reg.Len() != 1 {
		t.Fatal("update dropped the configuration; sharded advance should keep it")
	}
	cache = reg.Get(5, nil)
	for _, ss := range reg.ShardStats() {
		touched := ss.Shard == oldShard || ss.Shard == newShard
		if touched && ss.TopKEntries != 0 {
			t.Errorf("touched shard %d kept %d stale partials", ss.Shard, ss.TopKEntries)
		}
	}
	got, _, err = cache.LookupCtx(context.Background(), w, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := sc3.TopK(w, 5, nil); got.OrderKey() != want.OrderKey() {
		t.Fatalf("post-update lookup %q != oracle %q", got.OrderKey(), want.OrderKey())
	}
}

// TestShardedRegistryDropsInvalidConfigs: a configuration whose
// explicit active set loses a slot to truncation, or whose dataset
// shrinks below k, is dropped rather than served wrong.
func TestShardedRegistryDropsInvalidConfigs(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	pts := randomPts(rng, 10, 3)
	sc1 := NewScorerAt(pts, 1)
	reg := NewShardedRegistry(sc1, 3)

	last := len(pts) - 1
	c := reg.Get(2, []int{0, 3, last})
	if _, _, err := c.LookupCtx(context.Background(), vec.Of(0.3, 0.3), nil); err != nil {
		t.Fatal(err)
	}

	// Delete the last option: slot `last` is truncated away, so the
	// explicit config referencing it must go.
	pts2 := append([]vec.Vector(nil), pts[:last]...)
	sc2 := NewScorerAt(pts2, 2)
	reg.Advance(sc2, []int{last})
	if reg.Len() != 0 {
		t.Fatalf("config referencing a truncated slot survived (configs=%d)", reg.Len())
	}
}
