// Package topk implements linear top-k queries over an option dataset,
// following the scoring model of the paper (Section 3.1): options are
// points in [0,1]^d, a preference is a normalized weight vector, and the
// score of option p under weights w is S_w(p) = Σ_j w[j]·p[j].
//
// Because Σ_j w[j] = 1, the last weight is derived and preferences live
// in the (d-1)-dimensional *preference space* W. All functions in this
// package take such reduced weight vectors.
//
// # Scorers as generation snapshots
//
// A Scorer wraps one immutable option set. The versioned store
// (internal/store) publishes exactly one Scorer per dataset generation,
// and a solve pinned to a generation keeps scoring against that Scorer
// no matter how many successors writers publish — the Scorer's identity
// (its pointer) *is* the generation pin. Code that caches derived
// results therefore keys trust on the Scorer pointer, never on
// generation numbers alone.
//
// # Caches, the registry, and invalidation rules
//
// A Cache memoizes top-k results per preference-space vertex for one
// (k, active-set) configuration. Every memoizing Cache runs on the
// evaluation plane described below, at any shard count S ≥ 1; the only
// other Cache is the pass-through one (NewPassthroughCache) that the
// cache ablation benchmarks use. The Registry interns caches per
// dataset so queries sharing a configuration share the memoized work,
// and moves them across generations under two rules:
//
//   - GetFor hands an interned cache only to a solve pinned to the
//     registry's current generation (checked by Scorer pointer under the
//     registry lock); older pinned solves fall back to solve-local
//     caches, so no result computed against one generation is ever
//     served to another whose options could differ.
//   - Advance(sc, dirty) carries every configuration whose active set no
//     dirty slot touches forward by pointer, rebound to the new Scorer:
//     its active options are bit-identical in both generations, so its
//     memoized results, and all future computations by either side, are
//     identical under both scorers. A touched configuration — any
//     whole-dataset (nil active) one included — is replaced by a
//     successor whose affected shards start empty; the old object keeps
//     its memos for solves pinned to the old generation.
//
// Both the per-cache vertex count and the interned-configuration count
// are bounded (SetLimits); past a limit, work is computed without being
// retained and surfaces as Evictions rather than unbounded memory.
//
// # The evaluation plane
//
// A registry (NewShardedRegistry; NewRegistry is its one-shard case)
// splits every configuration into S stable shards by hashing option
// *contents* (stable under the store's swap-delete), each shard with
// its own memo, lock and slice of the entry budget; lookups merge
// per-shard partial results into exactly Scorer.TopK's result (shard.go
// proves the argument). Advance invalidates per shard: the successor
// cache's affected shards start fresh while unaffected shard memos
// carry forward by pointer. An insert costs one shard of a
// whole-dataset configuration instead of the whole configuration, and
// AdvanceInsert (patch.go) repairs even that shard by splicing the
// inserted options into its memoized partials.
package topk
