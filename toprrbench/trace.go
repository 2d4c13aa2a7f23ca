package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"toprr/internal/core"
	"toprr/internal/sketch"
	"toprr/internal/skyband"
	"toprr/internal/topk"
	"toprr/internal/vec"
	"toprr/pkg/toprr"
)

// The traced run replays a workload's inputs in-process through
// pkg/toprr at the workload's concurrency, with the daemon's engine
// defaults, once with spans off and once with spans on. Spans wrap the
// public calls from the benchmark's side: Engine.Solve, Engine.Apply,
// Engine.ApproxRank, subscription delivery, and the Finish of a
// stream-assembler wrapper that delegates to the assembler the engine
// would pick. The prefilter is deliberately not wrapped — the sketch
// gate engages only for the bare SkybandPrefilter type — so it is timed
// by re-running the same skyband call on the same snapshot and region.

// span is one timed call. Times are nanoseconds since the trace began.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 for a root span
	Req    int64  `json:"req"`    // request id shared by a request's spans
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run writes them out. A nil
// tracer records nothing.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

func (t *tracer) add(id, parent, req int64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	t.mu.Unlock()
}

// durations returns the durations of every span named name, in ms.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// tracedAssembler delegates to the assembler the engine would pick and
// records the Finish of its stream as a child of the solve span.
type tracedAssembler struct {
	inner       core.StreamAssembler
	tr          *tracer
	req, parent int64
}

func (a *tracedAssembler) Name() string { return a.inner.Name() }

func (a *tracedAssembler) Assemble(sc *topk.Scorer, vall []core.ImpactVertex, budget int) core.AssembleOutput {
	return a.inner.Assemble(sc, vall, budget)
}

func (a *tracedAssembler) NewStream(sc *topk.Scorer, budget int) core.AssembleStream {
	return &tracedStream{inner: a.inner.NewStream(sc, budget), a: a}
}

type tracedStream struct {
	inner core.AssembleStream
	a     *tracedAssembler
}

func (s *tracedStream) Push(iv core.ImpactVertex) { s.inner.Push(iv) }

func (s *tracedStream) Finish() core.AssembleOutput {
	start := time.Now()
	out := s.inner.Finish()
	s.a.tr.add(s.a.tr.newID(), s.a.parent, s.a.req, "core.AssembleStream.Finish", start, time.Now())
	return out
}

// engineAssembler is the assembler Engine.options installs by default.
func engineAssembler(eng *toprr.Engine) core.StreamAssembler {
	if eng.Shards() > 1 {
		return core.ParallelClipAssembler{Shards: eng.Shards()}
	}
	return core.ClipAssembler{}
}

// replay is one in-process pass over a workload's inputs.
type replay struct {
	tr          *tracer           // nil: spans off
	solveMS     map[int64]float64 // by request id
	applyMS     []float64
	samples     []rerunSample // solves to re-run the prefilter for
	sampleEvery int
	liveMax     int
	watch       toprr.WatchStats
	requests    int
}

func newReplay(tr *tracer, sampleEvery int) *replay {
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	return &replay{tr: tr, solveMS: map[int64]float64{}, sampleEvery: sampleEvery}
}

// solveTimes returns the solve times in ms.
func (r *replay) solveTimes() []float64 {
	out := make([]float64, 0, len(r.solveMS))
	for _, ms := range r.solveMS {
		out = append(out, ms)
	}
	return out
}

// overheadPct compares the solves both passes ran: the median over
// those requests of the spans-on time over the spans-off time, minus
// one, in percent.
func overheadPct(on, off *replay) float64 {
	var ratios []float64
	for req, ms := range on.solveMS {
		if base, ok := off.solveMS[req]; ok && base > 0 {
			ratios = append(ratios, ms/base)
		}
	}
	if len(ratios) == 0 {
		return 0
	}
	return 100 * (median(ratios) - 1)
}

// rerunSample is a solve whose prefilter and per-vertex top-k are
// re-run after the pass.
type rerunSample struct {
	req  int64
	snap toprr.Snapshot
	reg  box
	res  *toprr.Result
}

// maxReruns bounds the solves re-run per pass: a narrow-scan re-run
// costs as much as its solve.
const maxReruns = 24

func (r *replay) solve(ctx context.Context, eng *toprr.Engine, k int, b box, req int64) error {
	q := toprr.Query{K: k, WR: b.polytope()}
	var id int64
	snap := eng.Snapshot()
	if r.tr != nil {
		id = r.tr.newID()
		q.Options = &toprr.Options{Alg: toprr.TASStar,
			Assembler: &tracedAssembler{inner: engineAssembler(eng), tr: r.tr, req: req, parent: id}}
	}
	start := time.Now()
	res, err := eng.SolveAt(ctx, snap, q)
	end := time.Now()
	if err != nil {
		return err
	}
	r.tr.add(id, 0, req, "toprr.Engine.Solve", start, end)
	r.solveMS[req] = float64(end.Sub(start)) / 1e6
	// A sample pins its snapshot. Read-only passes pin the one snapshot
	// they have; a mutating pass keeps every sampleEvery-th solve, so it
	// does not hold old generations alive by the hundred.
	if r.tr != nil && len(r.solveMS)%r.sampleEvery == 0 {
		r.samples = append(r.samples, rerunSample{req: req, snap: snap, reg: b, res: res})
	}
	return nil
}

// replayClosed replays the closed-loop sequence on w.Clients goroutines
// for the given time.
func replayClosed(eng *toprr.Engine, w workload, in inputs, seconds float64, tr *tracer) (*replay, error) {
	var (
		next     atomic.Int64
		mu       sync.Mutex
		wg       sync.WaitGroup
		firstErr error
	)
	out := newReplay(tr, 1)
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	ctx := context.Background()
	for c := 0; c < w.Clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := newReplay(tr, 1)
			for time.Now().Before(deadline) {
				i := next.Add(1) - 1
				if i >= int64(len(in.seq)) {
					break
				}
				if err := local.solve(ctx, eng, w.K, in.seq[i], i+1); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
			}
			mu.Lock()
			for req, ms := range local.solveMS {
				out.solveMS[req] = ms
			}
			out.samples = append(out.samples, local.samples...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	out.requests = len(out.solveMS)
	return out, firstErr
}

// spaced returns up to maxReruns of the samples, evenly spaced in
// request order.
func spaced(samples []rerunSample) []rerunSample {
	sort.Slice(samples, func(i, j int) bool { return samples[i].req < samples[j].req })
	if len(samples) <= maxReruns {
		return samples
	}
	out := make([]rerunSample, maxReruns)
	for i := range out {
		out[i] = samples[i*len(samples)/maxReruns]
	}
	return out
}

// replayOpen replays the open-loop schedule on one goroutine while a
// second drains a standing subscription on the watch region.
func replayOpen(eng *toprr.Engine, w workload, in inputs, seconds float64, tr *tracer) (*replay, error) {
	out := newReplay(tr, int(seconds*w.ExactRate)/maxReruns)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sub, err := eng.Watch(w.K, in.watch.polytope(), toprr.WatchOptions{Ctx: ctx})
	if err != nil {
		return nil, err
	}
	defer sub.Close() // closing twice is harmless; this covers the error returns
	<-sub.Updates()   // the initial event
	before := eng.WatchStats()

	// Delivery spans run from the Apply that published a generation to
	// the receipt of its region event.
	type applied struct {
		id  int64
		end time.Time
	}
	var (
		mu      sync.Mutex
		byGen   = map[toprr.Generation]applied{}
		drained = make(chan struct{})
	)
	go func() {
		defer close(drained)
		for ev := range sub.Updates() {
			at := time.Now()
			mu.Lock()
			a, ok := byGen[ev.Generation]
			mu.Unlock()
			if ok && !ev.Initial {
				tr.add(tr.newID(), a.id, 0, "toprr.Subscription.deliver", a.end, at)
			}
		}
	}()

	m := newMirror(in.pts, uint64(eng.Generation()))
	start := time.Now()
	for n, it := range in.sched {
		if it.due > seconds {
			break
		}
		due := start.Add(time.Duration(it.due * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		req := int64(n + 1)
		switch it.kind {
		case kindOps:
			ops := engineOps(m.applyBatch(it.ops))
			id := tr.newID()
			t0 := time.Now()
			gen, err := eng.Apply(ctx, ops)
			t1 := time.Now()
			if err != nil {
				return nil, err
			}
			tr.add(id, 0, req, "toprr.Engine.Apply", t0, t1)
			mu.Lock()
			byGen[gen] = applied{id: id, end: t1}
			mu.Unlock()
			out.applyMS = append(out.applyMS, float64(t1.Sub(t0))/1e6)
			if n%10 == 0 {
				if live := eng.CacheStats().LiveGenerations; live > out.liveMax {
					out.liveMax = live
				}
			}
		case kindApprox:
			parent := tr.newID()
			t0 := time.Now()
			for _, v := range it.reg.polytope().VertexPoints() {
				s := time.Now()
				if _, err := eng.ApproxRank(v, w.K); err != nil {
					return nil, err
				}
				tr.add(tr.newID(), parent, req, "toprr.Engine.ApproxRank", s, time.Now())
			}
			tr.add(parent, 0, req, "approx", t0, time.Now())
		case kindExact:
			if err := out.solve(ctx, eng, w.K, it.reg, req); err != nil {
				return nil, err
			}
		}
		out.requests++
	}
	if err := eng.WatchSettle(ctx); err != nil {
		return nil, err
	}
	after := eng.WatchStats()
	sub.Close()
	<-drained
	out.watch = toprr.WatchStats{
		Suppressed:  after.Suppressed - before.Suppressed,
		Signals:     after.Signals - before.Signals,
		Evaluations: after.Evaluations - before.Evaluations,
	}
	return out, nil
}

// rerunTimes holds the re-run timings: the prefilter the solve ran —
// the r-skyband sweep, or the sketch-gated sweep over the certified
// candidates when the solve was gated — and topk.PartialTopK at up to
// eight of the solve's Vall vertices, over those candidates and (at two
// of them) over a whole shard.
type rerunTimes struct {
	scanMS         []float64
	partialUS      []float64
	shardPartialMS []float64
	partMS         []float64 // solve minus prefilter minus assemble Finish
}

func rerunAll(eng *toprr.Engine, w workload, samples []rerunSample, tr *tracer) rerunTimes {
	var rt rerunTimes
	finish := map[int64]float64{}
	for _, s := range tr.spans {
		if s.Name == "core.AssembleStream.Finish" {
			finish[s.Req] += float64(s.End-s.Start) / 1e6
		}
	}
	for _, s := range samples {
		sc := s.snap.Scorer
		wr := s.reg.polytope()
		verts := wr.VertexPoints()
		var (
			cands []int
			start time.Time
		)
		if s.res.Stats.SketchGated {
			// The plane is rebuilt from the snapshot outside the timed
			// call; the gate certificate it gives is as valid as the
			// engine's incrementally maintained one.
			pc, _, ok := sketch.NewPlane(sc, eng.Shards(), 0).Gate(sc, verts, w.K)
			if !ok {
				continue
			}
			start = time.Now()
			pts := make([]vec.Vector, sc.Len())
			for _, i := range pc {
				pts[i] = sc.Point(i)
			}
			cands = skyband.RSkybandSubset(pts, pc, w.K, skyband.NewRDomVerts(verts))
		} else {
			start = time.Now()
			var err error
			cands, err = core.SkybandPrefilter{}.Filter(context.Background(), core.Problem{Scorer: sc, K: w.K, WR: wr})
			if err != nil {
				continue
			}
		}
		end := time.Now()
		tr.add(tr.newID(), 0, s.req, "skyband.RSkyband", start, end)
		scan := float64(end.Sub(start)) / 1e6
		rt.scanMS = append(rt.scanMS, scan)
		rt.partMS = append(rt.partMS, float64(s.res.Stats.Elapsed)/1e6-scan-finish[s.req])
		shard0 := shardMembers(sc, eng.Shards())
		step := len(s.res.Vall)/8 + 1
		for i := 0; i < len(s.res.Vall); i += step {
			wv := s.res.Vall[i].W
			t0 := time.Now()
			topk.PartialTopK(sc, cands, wv, w.K)
			t1 := time.Now()
			tr.add(tr.newID(), 0, s.req, "topk.PartialTopK", t0, t1)
			rt.partialUS = append(rt.partialUS, float64(t1.Sub(t0))/1e3)
			if i < 2*step {
				t0 = time.Now()
				topk.PartialTopK(sc, shard0, wv, w.K)
				t1 = time.Now()
				tr.add(tr.newID(), 0, s.req, "topk.PartialTopK.shard", t0, t1)
				rt.shardPartialMS = append(rt.shardPartialMS, float64(t1.Sub(t0))/1e6)
			}
		}
	}
	return rt
}

// shardMembers lists the slots of shard 0: the member set a whole-
// dataset partial top-k scores on a sharded engine — the lookup behind
// standing-query vertex pins and the approximate fallback.
func shardMembers(sc *topk.Scorer, shards int) []int {
	var out []int
	for i := 0; i < sc.Len(); i++ {
		if shards <= 1 || topk.ShardOfPoint(sc.Point(i), shards) == 0 {
			out = append(out, i)
		}
	}
	return out
}

// openReplayEngine builds the engine a replay pass runs on, with the
// options the daemon's registry would give the dataset.
func openReplayEngine(w workload, in inputs, work string) (*toprr.Engine, func(), error) {
	var opts []toprr.EngineOption
	dir := ""
	if w.Durable {
		var err error
		dir, err = os.MkdirTemp(work, "replay-")
		if err != nil {
			return nil, nil, err
		}
		opts = append(opts, toprr.WithPersistenceConfig(toprr.PersistConfig{Dir: dir, Sync: toprr.SyncAlways}))
	}
	eng, err := toprr.OpenEngine(in.pts, opts...)
	if err != nil {
		if dir != "" {
			os.RemoveAll(dir)
		}
		return nil, nil, err
	}
	return eng, func() {
		eng.Close()
		if dir != "" {
			os.RemoveAll(dir)
		}
	}, nil
}

// runReplay runs one replay pass on a fresh engine.
func runReplay(w workload, in inputs, work string, seconds float64, tr *tracer) (*replay, rerunTimes, error) {
	eng, closeEng, err := openReplayEngine(w, in, work)
	if err != nil {
		return nil, rerunTimes{}, err
	}
	defer closeEng()
	// Warm-up solve, as in the daemon's set-up.
	if _, err := eng.Solve(context.Background(), toprr.Query{K: w.K, WR: in.warmup.polytope()}); err != nil {
		return nil, rerunTimes{}, err
	}
	var rp *replay
	if w.Clients > 0 {
		rp, err = replayClosed(eng, w, in, seconds, tr)
	} else {
		rp, err = replayOpen(eng, w, in, seconds, tr)
	}
	if err != nil || tr == nil {
		return rp, rerunTimes{}, err
	}
	return rp, rerunAll(eng, w, spaced(rp.samples), tr), nil
}

// writeSpans dumps the spans as JSON.
func writeSpans(path string, tr *tracer) error {
	data, err := json.Marshal(tr.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes reads a span dump and prints, per span name, the count, the
// total time and the self time: a span's duration minus the part of
// its interval covered by its children.
func selfTimes(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var spans []span
	if err := json.Unmarshal(data, &spans); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	type agg struct {
		n           int
		total, self float64
	}
	by := map[string]*agg{}
	for _, s := range spans {
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
		}
		dur := s.End - s.Start
		a.n++
		a.total += float64(dur) / 1e6
		a.self += float64(dur-covered(s, children[s.ID])) / 1e6
	}
	names := make([]string, 0, len(by))
	for n := range by {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%-32s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, n := range names {
		a := by[n]
		fmt.Printf("%-32s %8d %12.3f %12.3f\n", n, a.n, a.total, a.self)
	}
	return nil
}

// covered returns how much of parent's interval its children cover,
// counting overlapping children once.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, curS, curE int64
	curS, curE = -1, -1
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if curE < s {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	if curE > curS {
		total += curE - curS
	}
	return total
}
