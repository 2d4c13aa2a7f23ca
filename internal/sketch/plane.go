package sketch

import (
	"sync"
	"sync/atomic"

	"toprr/internal/topk"
	"toprr/internal/vec"
)

// Plane is an engine's sketch tier: one Sketch per solve-plane shard,
// maintained on the mutation stream and k-way merged on demand. It
// follows the patch plane's successor-object discipline — an advance
// replaces the touched shards' sketches with fresh objects and leaves
// the previous objects untouched, so a reader still holding them (a
// merged sketch served before the advance) keeps a consistent view of
// its generation. Like the top-k registry, the plane serves only its
// current generation: requests carrying any other generation's scorer
// are declined and the caller takes the exact path.
type Plane struct {
	shards int
	cap    int

	mu     sync.RWMutex
	scorer *topk.Scorer // the generation the per-shard sketches summarize
	per    []*Sketch    // one sketch per shard
	merged *Sketch      // memoized MergeAll(per); nil until demanded

	// Cumulative counters (atomic: bumped under read locks).
	gateHits atomic.Int64 // prefilter gates served with a certificate
	gateMiss atomic.Int64 // gates declined (stale generation or no certificate)
	skipped  atomic.Int64 // options certified out of prefilter sweeps, cumulative
	rebuilds atomic.Int64 // shard sketches rebuilt by reshape advances
	patches  atomic.Int64 // shard sketches patched by insert-only advances
}

// NewPlane builds the sketch tier for a dataset snapshot: scans the
// scorer once and streams every option into its shard's sketch (the
// same content-stable assignment as the exact plane), each with
// capacity monitored slots (<= 0 selects DefaultCapacity).
func NewPlane(sc *topk.Scorer, shards, capacity int) *Plane {
	if shards < 1 {
		shards = 1
	}
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	pl := &Plane{shards: shards, cap: capacity, scorer: sc}
	pl.per = buildShards(sc, shards, capacity, nil)
	return pl
}

// buildShards streams the scorer's options into per-shard sketches in
// slot order. only, when non-nil, restricts the build to the listed
// shards (the rest stay nil for the caller to fill).
func buildShards(sc *topk.Scorer, shards, capacity int, only map[int]bool) []*Sketch {
	per := make([]*Sketch, shards)
	for s := 0; s < shards; s++ {
		if only == nil || only[s] {
			per[s] = New(sc.Dim(), capacity)
		}
	}
	for i := 0; i < sc.Len(); i++ {
		p := sc.Point(i)
		s := topk.ShardOfPoint(p, shards)
		if per[s] != nil {
			per[s].Insert(i, p)
		}
	}
	return per
}

// AdvanceInsert moves the plane to a pure-insert generation: the shards
// owning inserted options get successor sketches (clone + tail inserts,
// in the same slot order a rebuild would use, so the successor equals a
// from-scratch build), untouched shards keep their objects by pointer.
// inserted must list the new tail slots in ascending order —
// store.Delta.Inserted's contract.
func (pl *Plane) AdvanceInsert(sc *topk.Scorer, inserted []int) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	next := make([]*Sketch, pl.shards)
	copy(next, pl.per)
	touched := 0
	for _, idx := range inserted {
		p := sc.Point(idx)
		s := topk.ShardOfPoint(p, pl.shards)
		if next[s] == pl.per[s] {
			next[s] = pl.per[s].clone()
			touched++
		}
		next[s].Insert(idx, p)
	}
	pl.patches.Add(int64(touched))
	pl.scorer = sc
	pl.per = next
	pl.merged = nil
}

// Advance moves the plane past a reshape batch: the listed shards
// (store.Delta.ShardsTouched) are rebuilt from the new snapshot —
// space-saving summaries don't support deletion, so a shard that lost
// or changed a member starts over — while untouched shards carry their
// sketches across by pointer. An empty shard list rebuilds everything
// (the conservative reading of "unknown").
func (pl *Plane) Advance(sc *topk.Scorer, shardsTouched []int) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	only := make(map[int]bool, len(shardsTouched))
	for _, s := range shardsTouched {
		if s >= 0 && s < pl.shards {
			only[s] = true
		}
	}
	if len(only) == 0 {
		for s := 0; s < pl.shards; s++ {
			only[s] = true
		}
	}
	next := buildShards(sc, pl.shards, pl.cap, only)
	for s := range next {
		if next[s] == nil {
			next[s] = pl.per[s]
		}
	}
	pl.rebuilds.Add(int64(len(only)))
	pl.scorer = sc
	pl.per = next
	pl.merged = nil
}

// MergedFor returns the k-way merged sketch when the plane's current
// generation matches sc, building and memoizing it on first demand;
// nil for any other generation (the caller falls back to the exact
// plane, exactly like a stale Registry.GetFor).
func (pl *Plane) MergedFor(sc *topk.Scorer) *Sketch {
	pl.mu.RLock()
	if pl.scorer != sc {
		pl.mu.RUnlock()
		return nil
	}
	if m := pl.merged; m != nil {
		pl.mu.RUnlock()
		return m
	}
	per := pl.per
	pl.mu.RUnlock()

	m := MergeAll(per)
	pl.mu.Lock()
	// Recheck under the write lock: an advance may have landed between
	// the locks, in which case the merge above is stale and is discarded
	// without being memoized.
	if pl.scorer == sc {
		if pl.merged == nil {
			pl.merged = m
		}
		m = pl.merged
	} else {
		m = nil
	}
	pl.mu.Unlock()
	return m
}

// Gate is the prefilter hook (core.Options.SketchGate): it certifies,
// from the merged sketch, that every option outside the monitored set
// is r-dominated by at least k options over the query region, and then
// hands the prefilter the monitored slots as the only candidates the
// exact sweep must process. ok is false — and the solve runs the full
// ungated sweep — when the plane serves a different generation or the
// certificate doesn't hold; a gated solve is bit-identical to an
// ungated one either way.
func (pl *Plane) Gate(sc *topk.Scorer, verts []vec.Vector, k int) (cands []int, skipped int, ok bool) {
	m := pl.MergedFor(sc)
	if m == nil {
		pl.gateMiss.Add(1)
		return nil, 0, false
	}
	cands, ok = m.CertifySkyband(verts, k)
	if !ok {
		pl.gateMiss.Add(1)
		return nil, 0, false
	}
	skipped = sc.Len() - len(cands)
	pl.gateHits.Add(1)
	pl.skipped.Add(int64(skipped))
	return cands, skipped, true
}

// PlaneStats is a snapshot of the sketch tier's occupancy and counters.
type PlaneStats struct {
	Shards  int // sketches maintained (one per solve-plane shard)
	Entries int // monitored entries across shards
	Folded  int // members summarized only by thresholds

	GateHits       int // prefilter gates served with a certificate
	GateMisses     int // gates declined (stale generation or no certificate)
	CertifiedSkips int // options certified out of prefilter sweeps, cumulative

	Patches  int // shard sketches patched by insert-only advances
	Rebuilds int // shard sketches rebuilt by reshape advances
}

// Stats snapshots the plane.
func (pl *Plane) Stats() PlaneStats {
	pl.mu.RLock()
	per := pl.per
	pl.mu.RUnlock()
	st := PlaneStats{
		Shards:         len(per),
		GateHits:       int(pl.gateHits.Load()),
		GateMisses:     int(pl.gateMiss.Load()),
		CertifiedSkips: int(pl.skipped.Load()),
		Patches:        int(pl.patches.Load()),
		Rebuilds:       int(pl.rebuilds.Load()),
	}
	for _, s := range per {
		if s != nil {
			st.Entries += s.Len()
			st.Folded += s.Folded()
		}
	}
	return st
}
