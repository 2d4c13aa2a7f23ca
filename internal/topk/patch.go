package topk

// Patch-on-insert: incremental cross-generation cache repair. A
// pure-insert batch cannot change the score, rank or identity of any
// existing option — it can only introduce new options at the tail of
// the dataset. A memoized top-k entry therefore stays correct as-is
// unless an inserted option beats its k-th score, and in that case it
// is repaired exactly by scoring *only the inserted options* at the
// memoized vertex and splicing the winners into the ranked list:
// O(entries × inserts) scalar scores per advance, instead of the
// drop-and-recompute path's O(entries × shard) rescore on the next
// warm-up.
//
// Bit-identity argument: a recompute over the grown dataset sorts all
// options under the (score desc, index asc) comparator. Relative to the
// old generation's sort, the surviving entries keep their exact order
// (their scores and indices are untouched), and each inserted option
// lands at its comparator position — with ties resolving against it
// relative to every pre-existing option, since inserted slots are
// assigned past the old tail and the comparator breaks ties by
// ascending index. Splicing performs precisely that insertion, and
// ScorePoint is bit-identical to the SoA scoring a recompute would use
// (see Scorer.scoreInto), so a patched entry equals the recomputed one
// bit for bit, ties included. The randomized oracle in patch_test.go
// pins this against fresh recomputes.

// PatchSummary reports what one AdvanceInsert did to the registry's
// interned caches. It is the region-delta signal for standing queries:
// when Changed() is false, no memoized top-k admitted any inserted
// option, so every standing result region derived from these caches is
// untouched by the batch.
type PatchSummary struct {
	Configs       int  // patchable (whole-dataset) configurations processed
	Entries       int  // shard partials examined
	Patched       int  // entries changed by splicing an inserted option in
	MergedDropped int  // merged results dropped because a constituent partial changed
	Fallback      bool // delta broke the pure-insert contract; the drop path ran instead
}

// Changed reports whether any memoized entry changed under the patch.
// It is a pure patch-plane observation — NOT a safe suppression signal:
// a Fallback summary dropped memos wholesale with Patched == 0, and an
// advance can drop merged results it cannot vouch for without patching
// anything. Consumers that skip work when "nothing changed"
// (the notification hub) must use MaybeChanged.
func (s PatchSummary) Changed() bool { return s.Patched > 0 }

// MaybeChanged is the conservative region-delta signal: false proves no
// memoized top-k state moved under the advance — no entry was patched,
// no merged result was dropped, and the pure-insert contract held (no
// fallback to the drop path). Only a false MaybeChanged licenses a
// standing-query plane to suppress re-evaluation; the three true cases
// each admit a region change Changed() would miss.
func (s PatchSummary) MaybeChanged() bool {
	return s.Patched > 0 || s.MergedDropped > 0 || s.Fallback
}

// splicePos returns the comparator position of (slot, s) in a ranked
// entry list — the index before which it belongs under the shared
// (score desc, index asc) order. len(idx) means "after the last entry".
func splicePos(idx []int, scores []float64, slot int, s float64) int {
	for i, sc := range scores {
		if s > sc || (s == sc && slot < idx[i]) {
			return i
		}
	}
	return len(idx)
}

// spliceAt inserts (slot, s) at position pos, growing the lists while
// they are below k and dropping the displaced last entry otherwise. The
// slices must be private to the caller.
func spliceAt(idx []int, scores []float64, k, pos, slot int, s float64) ([]int, []float64) {
	if len(idx) < k {
		idx = append(idx, 0)
		scores = append(scores, 0)
	}
	copy(idx[pos+1:], idx[pos:])
	copy(scores[pos+1:], scores[pos:])
	idx[pos] = slot
	scores[pos] = s
	return idx, scores
}

// splicePartial patches one shard's memoized partial for a batch of
// inserted slots routed to that shard. It returns the original partial
// (and false) when no insert cracks it — the carried-forward entry is
// shared by pointer with the old generation, never copied. A partial
// holds min(k, |members|) entries, so while it is below k every insert
// routed to its shard must enter (the partial ranks *all* members), not
// only the ones that beat the current tail.
func splicePartial(p *partial, sc *Scorer, inserted []int, k int) (*partial, bool) {
	var np *partial
	for _, slot := range inserted {
		s := ScorePoint(p.w, sc.Point(slot))
		cur := p
		if np != nil {
			cur = np
		}
		pos := splicePos(cur.idx, cur.scores, slot, s)
		if pos == len(cur.idx) && len(cur.idx) >= k {
			continue
		}
		if np == nil {
			room := len(p.idx) + len(inserted)
			if room > k {
				room = k
			}
			np = &partial{
				idx:    append(make([]int, 0, room), p.idx...),
				scores: append(make([]float64, 0, room), p.scores...),
				w:      p.w,
			}
		}
		np.idx, np.scores = spliceAt(np.idx, np.scores, k, pos, slot, s)
	}
	if np == nil {
		return p, false
	}
	return np, true
}

// patchAdvance builds this whole-dataset cache's successor for a
// pure-insert generation, patching memoized partials in place of
// recomputation. Successor-object pattern as in cloneAdvance: in-flight
// solves pinned to the old generation keep this object untouched.
// byShard routes the inserted slots to their owning shards (indexed by
// shard id); a shard no insert landed in is shared by pointer exactly
// like cloneAdvance's unaffected shards, a shard with inserts gets a
// patched copy of its memo with the inserts appended to its member
// list.
//
// Merged results are carried when provably still exact: a key whose
// partial changed in any patched shard is dropped (the merge is stale),
// and a key absent from a patched shard's memo cannot be vouched for
// and is dropped too — its next lookup re-merges from the patched
// partials, recomputing nothing. Keys verified unchanged in every
// patched shard merge to the identical Result and are kept.
func (c *Cache) patchAdvance(sc *Scorer, byShard [][]int) (*Cache, PatchSummary) {
	var sum PatchSummary
	memos := make([]*shardMemo, len(c.sh.memos))
	var changed map[uint64]bool
	for i, sm := range c.sh.memos {
		ins := byShard[i]
		if len(ins) == 0 {
			sm.mu.Lock()
			sm.scorer = sc
			sm.mu.Unlock()
			memos[i] = sm
			continue
		}
		sm.mu.Lock()
		// Appending in place is safe: the old memo reads only its own
		// length of the shared array, and no memo is ever patched twice
		// (its cache retires from the registry), so at most one
		// successor writes past that length.
		members := append(sm.members, ins...)
		nm := make(map[uint64]*partial, len(sm.m))
		for key, p := range sm.m {
			sum.Entries++
			np, ch := splicePartial(p, sc, ins, c.k)
			if ch {
				sum.Patched++
				if changed == nil {
					changed = make(map[uint64]bool)
				}
				changed[key] = true
			}
			nm[key] = np
		}
		// Counters carry into the successor: the patched memo is the
		// same shard's state repaired, not a cold restart, so ShardStats
		// and Evictions stay monotone when the old object retires.
		memos[i] = &shardMemo{
			scorer:    sc,
			members:   members,
			m:         nm,
			limit:     sm.limit,
			hits:      sm.hits,
			misses:    sm.misses,
			evictions: sm.evictions,
		}
		sm.mu.Unlock()
	}

	c.sh.mergedMu.RLock()
	merged := make(map[uint64]*Result, len(c.sh.merged))
outer:
	for key, r := range c.sh.merged {
		if changed[key] {
			sum.MergedDropped++
			continue
		}
		for i := range memos {
			if len(byShard[i]) == 0 {
				continue
			}
			// Patched memos are private until this cache is published,
			// so reading them lock-free here is safe.
			if _, ok := memos[i].m[key]; !ok {
				sum.MergedDropped++
				continue outer
			}
		}
		merged[key] = r
	}
	c.sh.mergedMu.RUnlock()

	return &Cache{
		scorer: sc,
		k:      c.k,
		sh: &sharded{
			memos:       memos,
			merged:      merged,
			mergedLimit: c.sh.mergedLimit,
		},
	}, sum
}

// AdvanceInsert moves the registry to a new dataset generation produced
// by a pure-insert batch, repairing interned caches instead of the
// dropping Advance performs. inserted must be exactly the new tail
// slots [oldLen, newLen) in ascending order (store.Delta.Inserted
// provides this); any other delta falls back to Advance's drop
// semantics, reported via the summary's Fallback flag.
//
// Explicit-active configurations only rebind — an insert cannot touch
// their members. Whole-dataset configurations are patched partial by
// partial (see splicePartial). The returned summary is the region-delta
// signal described on PatchSummary.
func (r *Registry) AdvanceInsert(sc *Scorer, inserted []int) PatchSummary {
	r.mu.Lock()
	defer r.mu.Unlock()
	oldLen, newLen := r.scorer.Len(), sc.Len()
	ok := len(inserted) > 0 && newLen == oldLen+len(inserted)
	if ok {
		for t, s := range inserted {
			if s != oldLen+t {
				ok = false
				break
			}
		}
	}
	if !ok {
		r.advanceLocked(sc, inserted)
		return PatchSummary{Fallback: true}
	}

	if r.assign != nil {
		// Grow the slot-to-shard map in place (amortized): no existing
		// slot changes hands under a pure insert.
		for _, s := range inserted {
			r.assign = append(r.assign, uint8(ShardOfPoint(sc.Point(s), r.shards)))
		}
	}

	var sum PatchSummary
	var byShard [][]int // inserts routed to their shards, built on first use
	for key, c := range r.m {
		if c.active != nil {
			c.rebind(sc) // inserts cannot touch an explicit active set
			continue
		}
		if byShard == nil {
			byShard = bucketMembers(sc, inserted, r.shards, r.assign)
		}
		sum.Configs++
		next, s := c.patchAdvance(sc, byShard)
		h, m := c.Stats()
		r.retiredHits += h
		r.retiredMisses += m
		sum.Entries += s.Entries
		sum.Patched += s.Patched
		sum.MergedDropped += s.MergedDropped
		r.m[key] = next
	}
	r.scorer = sc
	r.patchInserts += len(inserted)
	r.patchedEntries += sum.Patched
	if !sum.Changed() {
		r.untouchedAdvances++
	}
	return sum
}

// PatchStats reports the cumulative patch-on-insert counters:
// patchedEntries is memo entries changed by AdvanceInsert splices,
// patchInserts the options applied through the patch path, and
// untouchedAdvances the patch advances in which no memoized top-k
// changed — batches proven to leave every standing result region
// unchanged.
func (r *Registry) PatchStats() (patchedEntries, patchInserts, untouchedAdvances int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.patchedEntries, r.patchInserts, r.untouchedAdvances
}
