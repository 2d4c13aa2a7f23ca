package topk

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"toprr/internal/vec"
)

// fakePartialer scripts a RemotePartialer for the remote-plane tests:
// it owns a shard set and answers by computing the true partial (so
// soundness holds) unless told to fail, stall or corrupt.
type fakePartialer struct {
	sc      *Scorer
	members [][]int
	owns    map[int]bool

	calls   atomic.Int64
	shipped atomic.Int64  // Partial calls carrying an explicit member list
	fail    error         // non-nil: every Partial errors
	delay   time.Duration // stall before answering
	corrupt bool          // return structurally-unsound answers
	wrongK  bool          // return one slot short
}

func (f *fakePartialer) Owns(shard int) bool { return f.owns[shard] }

func (f *fakePartialer) Partial(ctx context.Context, gen uint64, shard, k int, w vec.Vector, members []int) ([]int, []float64, error) {
	f.calls.Add(1)
	over := f.members[shard]
	if members != nil {
		f.shipped.Add(1)
		over = members
	}
	if f.fail != nil {
		return nil, nil, f.fail
	}
	if f.delay > 0 {
		select {
		case <-time.After(f.delay):
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		}
	}
	idx, scores := PartialTopK(f.sc, over, w, k)
	if f.corrupt && len(idx) > 1 {
		// Reverse both slices: scores now ascend, breaking the
		// (score desc, index asc) contract detectably.
		for i, j := 0, len(idx)-1; i < j; i, j = i+1, j-1 {
			idx[i], idx[j] = idx[j], idx[i]
			scores[i], scores[j] = scores[j], scores[i]
		}
	}
	if f.wrongK && len(idx) > 0 {
		idx, scores = idx[:len(idx)-1], scores[:len(scores)-1]
	}
	return idx, scores, nil
}

// remoteFixture builds a sharded cache with a remote plane over a fake
// partialer owning half the shards.
func remoteFixture(t *testing.T, hedge time.Duration) (*Cache, *fakePartialer, *RemotePlane, *Scorer) {
	t.Helper()
	rng := rand.New(rand.NewSource(51))
	pts := randomPts(rng, 160, 3)
	sc := NewScorer(pts)
	const shards = 4
	assign := ShardAssignment(sc, shards)
	members := make([][]int, shards)
	for slot, sh := range assign {
		members[sh] = append(members[sh], slot)
	}
	f := &fakePartialer{sc: sc, members: members, owns: map[int]bool{0: true, 2: true}}
	rp := NewRemotePlane(f, hedge, shards)
	c := NewShardedCache(sc, 5, nil, shards, 0, assign)
	c.SetRemote(rp)
	return c, f, rp, sc
}

// TestRemotePlaneServesPartials: remote-owned shards route to the
// partialer, results stay bit-identical to the Scorer.TopK oracle, and
// the plane's counters attribute the remote work.
func TestRemotePlaneServesPartials(t *testing.T) {
	c, f, rp, sc := remoteFixture(t, 0)
	rng := rand.New(rand.NewSource(52))
	for probe := 0; probe < 10; probe++ {
		w := vec.New(2)
		w[0], w[1] = rng.Float64()/3, rng.Float64()/3
		got, _, err := c.LookupCtx(context.Background(), w, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := sc.TopK(w, 5, nil)
		if got.OrderKey() != want.OrderKey() || got.KthScore != want.KthScore {
			t.Fatalf("probe %d: remote-backed lookup diverged from oracle", probe)
		}
	}
	if f.calls.Load() == 0 {
		t.Fatal("remote partialer never called")
	}
	if f.shipped.Load() != 0 {
		t.Fatal("whole-dataset requests shipped member lists")
	}
	st := rp.Stats()
	if st.Partials == 0 || st.Fallbacks != 0 || st.Hedged != 0 {
		t.Fatalf("stats = %+v, want remote partials and no fallbacks", st)
	}
	per := rp.ShardRemotes()
	if per[1] != 0 || per[3] != 0 {
		t.Fatal("unowned shards counted remote partials")
	}
	if per[0]+per[2] != st.Partials {
		t.Fatalf("per-shard remotes %v do not sum to %d", per, st.Partials)
	}
}

// TestRemotePlaneFallsBackOnError: a failing partialer costs nothing
// but latency — every lookup still matches the oracle, with fallbacks
// counted.
func TestRemotePlaneFallsBackOnError(t *testing.T) {
	c, f, rp, sc := remoteFixture(t, 0)
	f.fail = errors.New("boom")
	w := vec.Vector{0.2, 0.3}
	got, _, err := c.LookupCtx(context.Background(), w, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := sc.TopK(w, 5, nil)
	if got.OrderKey() != want.OrderKey() {
		t.Fatal("fallback lookup diverged from oracle")
	}
	if st := rp.Stats(); st.Fallbacks == 0 || st.Partials != 0 {
		t.Fatalf("stats = %+v, want fallbacks only", st)
	}
}

// TestRemotePlaneHedgesSlowWorker: a stalling worker trips the hedge
// timer; the shard computes locally (exact result), the straggler is
// discarded, and the hedge is counted.
func TestRemotePlaneHedgesSlowWorker(t *testing.T) {
	c, f, rp, sc := remoteFixture(t, 10*time.Millisecond)
	f.delay = 2 * time.Second
	w := vec.Vector{0.25, 0.25}
	start := time.Now()
	got, _, err := c.LookupCtx(context.Background(), w, nil)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("lookup waited %v for the straggler; hedge did not fire", elapsed)
	}
	if got.OrderKey() != sc.TopK(w, 5, nil).OrderKey() {
		t.Fatal("hedged lookup diverged from oracle")
	}
	if st := rp.Stats(); st.Hedged == 0 {
		t.Fatalf("stats = %+v, want hedged dispatches", st)
	}
}

// TestRemotePlaneRejectsUnsoundAnswers: structurally-invalid remote
// answers (wrong order, wrong length) are discarded — the shard falls
// back locally and the merge never sees them.
func TestRemotePlaneRejectsUnsoundAnswers(t *testing.T) {
	for _, mode := range []string{"corrupt", "short"} {
		c, f, rp, sc := remoteFixture(t, 0)
		if mode == "corrupt" {
			f.corrupt = true
		} else {
			f.wrongK = true
		}
		w := vec.Vector{0.15, 0.35}
		got, _, err := c.LookupCtx(context.Background(), w, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got.OrderKey() != sc.TopK(w, 5, nil).OrderKey() {
			t.Fatalf("%s: unsound remote answer leaked into the merge", mode)
		}
		if st := rp.Stats(); st.Fallbacks == 0 {
			t.Fatalf("%s: stats = %+v, want fallbacks", mode, st)
		}
	}
}

// TestSoundPartial: the structural validator accepts exactly the local
// computation's shape and rejects each perturbation.
func TestSoundPartial(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	pts := randomPts(rng, 60, 3)
	sc := NewScorer(pts)
	assign := ShardAssignment(sc, 2)
	var members []int
	for slot, sh := range assign {
		if sh == 0 {
			members = append(members, slot)
		}
	}
	w := vec.Vector{0.3, 0.3}
	idx, scores := PartialTopK(sc, members, w, 5)
	if !soundPartial(idx, scores, members, 5) {
		t.Fatal("true partial rejected")
	}
	if soundPartial(idx[:len(idx)-1], scores[:len(scores)-1], members, 5) {
		t.Error("short partial accepted")
	}
	if len(idx) > 1 {
		// Reverse both slices so the scores ascend — a structural
		// violation of the (score desc, index asc) contract.
		ridx := append([]int(nil), idx...)
		rsc := append([]float64(nil), scores...)
		for i, j := 0, len(ridx)-1; i < j; i, j = i+1, j-1 {
			ridx[i], ridx[j] = ridx[j], ridx[i]
			rsc[i], rsc[j] = rsc[j], rsc[i]
		}
		if soundPartial(ridx, rsc, members, 5) {
			t.Error("disordered partial accepted")
		}
	}
	alien := append([]int(nil), idx...)
	alien[0] = -1
	if soundPartial(alien, scores, members, 5) {
		t.Error("non-member index accepted")
	}
	nan := append([]float64(nil), scores...)
	nan[0] = math.NaN()
	if soundPartial(idx, nan, members, 5) {
		t.Error("NaN score accepted")
	}
}

// TestRemotePlaneShipsActiveSets: active-set configurations — the shape
// every prefiltered solve root has — route remotely by shipping each
// shard's member slots with the request; results stay bit-identical to
// the local subset computation.
func TestRemotePlaneShipsActiveSets(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	pts := randomPts(rng, 120, 3)
	sc := NewScorer(pts)
	const shards = 4
	assign := ShardAssignment(sc, shards)
	members := make([][]int, shards)
	for slot, sh := range assign {
		members[sh] = append(members[sh], slot)
	}
	f := &fakePartialer{sc: sc, members: members, owns: map[int]bool{0: true, 1: true, 2: true, 3: true}}
	rp := NewRemotePlane(f, 0, shards)

	active := make([]int, 0, 60)
	for i := 0; i < 60; i++ {
		active = append(active, i*2)
	}
	c := NewShardedCache(sc, 5, active, shards, 0, assign)
	c.SetRemote(rp)
	w := vec.Vector{0.2, 0.2}
	got, _, err := c.LookupCtx(context.Background(), w, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.OrderKey() != sc.TopK(w, 5, active).OrderKey() {
		t.Fatal("active-set lookup diverged")
	}
	if f.calls.Load() == 0 {
		t.Fatal("active-set configuration never routed remotely")
	}
	if f.shipped.Load() != f.calls.Load() {
		t.Fatalf("%d of %d remote calls shipped a member list; active-set requests must carry their subset", f.shipped.Load(), f.calls.Load())
	}
	if st := rp.Stats(); st.Partials == 0 || st.Fallbacks != 0 {
		t.Fatalf("stats = %+v, want remote partials and no fallbacks", st)
	}
}
