package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"sync"

	"toprr/internal/topk"
	"toprr/internal/vec"
	"toprr/pkg/toprr"
)

// Verification. Exact answers (solve responses and /watch region events;
// on read-only runs those for up to maxRefs distinct regions) are
// compared with a reference computed by toprr.Solve with Workers: 1 at
// the answer's generation. The comparison is by region
// membership of seeded probe options that lie clearly inside or clearly
// outside the reference region; a probe's verdict differing is a wrong
// answer. An answer whose membership agrees but whose constraint list
// differs from the reference's is counted separately as a
// representation divergence — the same region written down differently.
//
// Every approximate answer's interval must contain the exact k-th score
// at each vertex.
//
// For the elite market the references are solved over the elite subset
// of the generation: each mass option is dominated by every elite, so
// with k elites or more no mass option is in any top-k and the region
// is the same. Each run checks that claim once against a full-dataset
// reference.

// probeMargin is how far (in normalised slack) a probe must be from the
// reference region's boundary to count.
const probeMargin = 1e-6

type verdict struct {
	checked   int // exact answers compared with a reference
	probes    int // probe verdicts compared
	wrong     int // answers whose membership disagreed with the reference
	divergent int // answers with agreeing membership but different constraints
	approxBad int // approximate answers whose interval missed the exact score
	notes     []string
}

func (v *verdict) note(format string, args ...any) {
	if len(v.notes) < 8 {
		v.notes = append(v.notes, fmt.Sprintf(format, args...))
	}
}

// reference is one solved region with its probe set.
type reference struct {
	cons   []constraintJSON
	probes []vec.Vector
	inside []bool
}

func regionKey(b box) string { return fmt.Sprint(b.Lo, b.Hi) }

func refSolve(pts []vec.Vector, k int, b box) (*toprr.Result, error) {
	return toprr.Solve(context.Background(), toprr.NewProblem(pts, k, b.polytope()),
		toprr.Options{Alg: toprr.TASStar, Workers: 1})
}

func newReference(res *toprr.Result, key string) *reference {
	ref := &reference{}
	for _, h := range res.ORConstraints {
		ref.cons = append(ref.cons, constraintJSON{A: h.A, B: h.B})
	}
	h := fnv.New64a()
	h.Write([]byte(key))
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	d := res.Problem.Scorer.Dim()
	var cands []vec.Vector
	for i := 0; i < 16; i++ {
		cands = append(cands, uniformPoint(rng, d, 0, 1))
	}
	ones := vec.New(d)
	for j := range ones {
		ones[j] = 1
	}
	cands = append(cands, ones)
	if res.OR != nil {
		verts := res.OR.VertexPoints()
		if len(verts) > 0 {
			c := vec.New(d)
			for _, v := range verts {
				for j := range c {
					c[j] += v[j] / float64(len(verts))
				}
			}
			along := func(v vec.Vector, t float64) vec.Vector {
				p := vec.New(d)
				for j := range p {
					p[j] = c[j] + t*(v[j]-c[j])
				}
				return p
			}
			for i := 0; i < 16; i++ {
				v := verts[rng.Intn(len(verts))]
				cands = append(cands, along(v, 0.5), along(v, 1.3), along(v, 0.9+0.2*rng.Float64()))
			}
		}
	}
	for _, p := range cands {
		in, margin := membership(ref.cons, p)
		if margin > probeMargin {
			ref.probes = append(ref.probes, p)
			ref.inside = append(ref.inside, in)
		}
	}
	return ref
}

// membership reports whether o satisfies every constraint a·o >= b and
// the smallest normalised distance to any constraint's boundary.
func membership(cons []constraintJSON, o vec.Vector) (bool, float64) {
	in := true
	margin := math.Inf(1)
	for _, c := range cons {
		s, n := -c.B, 0.0
		for j, a := range c.A {
			s += a * o[j]
			n += a * a
		}
		if n > 0 {
			s /= math.Sqrt(n)
		}
		if s < 0 {
			in = false
		}
		if m := math.Abs(s); m < margin {
			margin = m
		}
	}
	return in, margin
}

// sameConstraints compares two H-representations as sets.
func sameConstraints(a, b []constraintJSON) bool {
	if len(a) != len(b) {
		return false
	}
	sa, sb := sortedCons(a), sortedCons(b)
	for i := range sa {
		if math.Abs(sa[i].B-sb[i].B) > 1e-9 || len(sa[i].A) != len(sb[i].A) {
			return false
		}
		for j := range sa[i].A {
			if math.Abs(sa[i].A[j]-sb[i].A[j]) > 1e-9 {
				return false
			}
		}
	}
	return true
}

func sortedCons(cs []constraintJSON) []constraintJSON {
	out := append([]constraintJSON(nil), cs...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		for t := range a.A {
			if t < len(b.A) && a.A[t] != b.A[t] {
				return a.A[t] < b.A[t]
			}
		}
		return a.B < b.B
	})
	return out
}

// check compares one answer with its reference.
func (v *verdict) check(ref *reference, got resultJSON, what string) {
	v.checked++
	agree := true
	for i, p := range ref.probes {
		v.probes++
		in, _ := membership(got.Constraints, p)
		if in != ref.inside[i] {
			agree = false
		}
	}
	switch {
	case !agree:
		v.wrong++
		v.note("%s: region membership differs from the Workers=1 reference", what)
	case !sameConstraints(got.Constraints, ref.cons):
		v.divergent++
	}
}

// refJob is one reference to solve.
type refJob struct {
	key string
	pts []vec.Vector
	reg box
}

// solveRefs computes references concurrently on up to workers
// goroutines.
func solveRefs(jobs []refJob, k, workers int) (map[string]*reference, error) {
	out := make(map[string]*reference, len(jobs))
	var (
		mu       sync.Mutex
		wg       sync.WaitGroup
		firstErr error
	)
	ch := make(chan refJob)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range ch {
				res, err := refSolve(j.pts, k, j.reg)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("reference solve: %w", err)
				}
				if err == nil {
					out[j.key] = newReference(res, j.key)
				}
				mu.Unlock()
			}
		}()
	}
	for _, j := range jobs {
		ch <- j
	}
	close(ch)
	wg.Wait()
	return out, firstErr
}

// maxRefs caps the reference solves of a read-only run. A run with more
// distinct regions verifies every answer to an evenly spaced subset of
// them, in request order; solving a reference for all of them would
// take longer than the run.
const maxRefs = 256

// verifyStatic checks the answers of a read-only run, one reference per
// distinct region. The dataset never changes, so every answer must
// carry the upload's generation.
func verifyStatic(w workload, in inputs, res *loadResult, gen uint64, workers int) (verdict, error) {
	var v verdict
	var distinct []refJob
	seen := map[string]bool{}
	for _, s := range res.solves {
		if s.gen != gen {
			v.wrong++
			v.note("solve answered at generation %d on a read-only dataset at %d", s.gen, gen)
		}
		if key := regionKey(s.reg); !seen[key] {
			seen[key] = true
			distinct = append(distinct, refJob{key: key, pts: in.pts, reg: s.reg})
		}
	}
	stride := (len(distinct) + maxRefs - 1) / maxRefs
	var jobs []refJob
	for i := 0; i < len(distinct); i += stride {
		jobs = append(jobs, distinct[i])
	}
	refs, err := solveRefs(jobs, w.K, workers)
	if err != nil {
		return v, err
	}
	for _, s := range res.solves {
		if ref, ok := refs[regionKey(s.reg)]; ok {
			v.check(ref, s.res, "solve "+regionKey(s.reg))
		}
	}
	return v, nil
}

// verifyMarket checks the answers of an open-loop elite-market run
// against references rebuilt from the run's op log.
func verifyMarket(w workload, in inputs, res *loadResult, workers int) (verdict, error) {
	var v verdict
	m := res.mirror
	key := func(b box, gen uint64) string {
		// Keyed by the elite set in force, not the generation: mass-only
		// batches leave the reference unchanged.
		return fmt.Sprintf("%s@%d", regionKey(b), m.eliteIndex(gen))
	}
	seen := map[string]bool{}
	var jobs []refJob
	add := func(b box, gen uint64) {
		k := key(b, gen)
		if !seen[k] {
			seen[k] = true
			jobs = append(jobs, refJob{key: k, pts: m.elites[m.eliteIndex(gen)].pts, reg: b})
		}
	}
	for _, s := range res.solves {
		add(s.reg, s.gen)
	}
	for _, ev := range res.events {
		add(in.watch, ev.gen)
	}
	refs, err := solveRefs(jobs, w.K, workers)
	if err != nil {
		return v, err
	}
	for _, s := range res.solves {
		v.check(refs[key(s.reg, s.gen)], s.res, fmt.Sprintf("solve at generation %d", s.gen))
	}
	for _, ev := range res.events {
		v.check(refs[key(in.watch, ev.gen)], ev.res, fmt.Sprintf("watch event at generation %d", ev.gen))
	}

	// Approximate intervals: the exact k-th score at each vertex over the
	// generation's elite subset.
	scorers := map[int]*topk.Scorer{}
	for _, a := range res.approx {
		ei := m.eliteIndex(a.gen)
		sc, ok := scorers[ei]
		if !ok {
			sc = topk.NewScorer(m.elites[ei].pts)
			scorers[ei] = sc
		}
		if len(a.verts) == 0 {
			v.approxBad++
			v.note("approx at generation %d returned no vertices", a.gen)
		}
		for _, vx := range a.verts {
			exact := sc.TopK(vx.W, w.K, nil).KthScore
			if !(vx.Lo <= exact+1e-9 && exact <= vx.Hi+1e-9) {
				v.approxBad++
				v.note("approx at generation %d: [%g, %g] misses exact %g", a.gen, vx.Lo, vx.Hi, exact)
				break
			}
		}
	}

	// The elite reduction, checked once per run at the final generation.
	full, err := refSolve(m.pts, w.K, in.watch)
	if err != nil {
		return v, err
	}
	elite, err := refSolve(m.elites[m.eliteIndex(m.gen)].pts, w.K, in.watch)
	if err != nil {
		return v, err
	}
	var ev verdict
	ev.check(newReference(full, "elite-check"), toResultJSON(elite), "elite-subset reference at the final generation")
	if ev.wrong > 0 {
		v.wrong += ev.wrong
		v.notes = append(v.notes, ev.notes...)
	}
	return v, nil
}

func toResultJSON(res *toprr.Result) resultJSON {
	var out resultJSON
	for _, h := range res.ORConstraints {
		out.Constraints = append(out.Constraints, constraintJSON{A: h.A, B: h.B})
	}
	return out
}
