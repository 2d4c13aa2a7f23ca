// Command toprrbench is the end-to-end benchmark of the toprrd serving
// daemon. It starts a real toprrd on loopback, uploads a generated
// dataset through POST /v1/datasets, drives one named workload for a
// fixed time, checks every answer against an independent reference,
// and prints the metrics by name with their units. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run is the traced run and the metrics are the per-layer ones. See
// README.md in this directory for the metric, layer and workload table.
//
//	toprrbench -toprrd toprrd-binary -workload narrow-scan -seed 1 -seconds 20 -trace 0
//	toprrbench -compare old.json new.json
//	toprrbench -selftime spans.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// setupReps is how many times a timed run sets the daemon up; setup_s
// is the median.
const setupReps = 5

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// header identifies what a record measured. Two records compare only
// when their headers are identical.
type header struct {
	GoVersion   string   `json:"go_version"`
	GOMAXPROCS  int      `json:"gomaxprocs"`
	NProc       int      `json:"nproc"`
	Seed        int64    `json:"seed"`
	Seconds     int      `json:"seconds"`
	Trace       int      `json:"trace"`
	Workload    workload `json:"workload"`
	ToprrdFlags []string `json:"toprrd_flags"`
	WALSync     string   `json:"wal_sync"`
}

// record is one run's full output, written under the work directory.
type record struct {
	Header    header            `json:"header"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"` // the result line's metrics
	Extra     map[string]metric `json:"extra"`   // every other printed figure
	Notes     []string          `json:"notes,omitempty"`
}

func (r *record) set(primary bool, name string, value float64, unit string) {
	m := r.Extra
	if primary {
		m = r.Metrics
	}
	m[name] = metric{Value: value, Unit: unit}
}

func main() {
	var (
		wname    = flag.String("workload", "", "workload name: narrow-scan, deep-partition or market-stream")
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Int("seconds", 20, "measured seconds")
		trace    = flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
		bin      = flag.String("toprrd", "", "toprrd binary")
		work     = flag.String("work", ".bench_build", "directory for data directories, records and span dumps")
		compare  = flag.Bool("compare", false, "compare two records given as arguments; refuses differing headers")
		selftime = flag.String("selftime", "", "print per-span self times of a span dump and exit")
	)
	flag.Parse()
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fail(fmt.Errorf("-compare takes two record files"))
		}
		if err := compareRecords(flag.Arg(0), flag.Arg(1)); err != nil {
			fail(err)
		}
		return
	case *selftime != "":
		if err := selfTimes(*selftime); err != nil {
			fail(err)
		}
		return
	}
	w, err := findWorkload(*wname)
	if err != nil {
		fail(err)
	}
	if *bin == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fail(fmt.Errorf("need -toprrd, -seconds >= 1 and -trace 0 or 1"))
	}
	if err := os.MkdirAll(filepath.Join(*work, "records"), 0o755); err != nil {
		fail(err)
	}
	in := genInputs(w, *seed, float64(*seconds))
	rec := &record{
		Header: header{
			GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
			Seed: *seed, Seconds: *seconds, Trace: *trace, Workload: w,
			ToprrdFlags: daemonFlags(w), WALSync: walSync(w),
		},
		Metrics: map[string]metric{}, Extra: map[string]metric{},
	}
	r := runner{bin: *bin, work: *work, w: w, in: in, seconds: float64(*seconds), rec: rec}
	if *trace == 0 {
		err = r.timed()
	} else {
		err = r.traced(filepath.Join(*work, fmt.Sprintf("spans-%s-seed%d.json", w.Name, *seed)))
	}
	if err != nil {
		fail(err)
	}
	printRecord(rec)
	path := filepath.Join(*work, "records", fmt.Sprintf("%s-seed%d-trace%d.json", w.Name, *seed, *trace))
	data, _ := json.MarshalIndent(rec, "", "  ")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fail(err)
	}
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
	fmt.Println(string(line))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "toprrbench:", err)
	os.Exit(1)
}

// printRecord writes the human-readable report: header, then every
// metric by name with its unit.
func printRecord(rec *record) {
	h, _ := json.Marshal(rec.Header)
	fmt.Printf("# header %s\n", h)
	for _, n := range rec.Notes {
		fmt.Printf("# %s\n", n)
	}
	for _, m := range []map[string]metric{rec.Metrics, rec.Extra} {
		names := make([]string, 0, len(m))
		for n := range m {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("%-30s %14.6g %s\n", n, m[n].Value, m[n].Unit)
		}
	}
}

// runner carries one run's settings.
type runner struct {
	bin, work string
	w         workload
	in        inputs
	seconds   float64
	rec       *record
}

// daemonRun is one daemon session driven for a window.
type daemonRun struct {
	res       *loadResult
	setups    []float64 // seconds
	cpu       time.Duration
	hwmKB     int64
	st0, st1  dsStats
	verdict   verdict
	goVersion string
}

// drive sets the daemon up reps times (keeping the last), runs the
// workload for the given seconds, samples /proc and /v1 stats around
// the window, stops the daemon and verifies every answer.
func (r *runner) drive(reps int, seconds float64) (*daemonRun, error) {
	body, err := json.Marshal(struct {
		Name   string      `json:"name"`
		Points interface{} `json:"points"`
	}{datasetName, r.in.pts})
	if err != nil {
		return nil, err
	}
	out := &daemonRun{}
	var s *session
	for i := 0; i < reps; i++ {
		if s != nil {
			s.d.stop()
		}
		var dur time.Duration
		s, dur, err = setup(r.bin, r.work, r.w, r.in, body)
		if err != nil {
			return nil, err
		}
		out.setups = append(out.setups, dur.Seconds())
	}
	stopped := false
	defer func() {
		if !stopped {
			s.d.stop()
		}
	}()
	h, err := s.health()
	if err != nil {
		return nil, err
	}
	out.goVersion = h.GoVersion
	if out.st0, err = s.stats(); err != nil {
		return nil, err
	}
	var ws *watchStream
	if r.w.Clients == 0 {
		if ws, err = s.openWatch(r.w.K, r.in.watch); err != nil {
			return nil, err
		}
	}
	p0, err := readProc(s.d.pid())
	if err != nil {
		return nil, err
	}
	if r.w.Clients > 0 {
		out.res = s.runClosed(r.w, r.in, seconds)
	} else {
		out.res = s.runOpen(r.w, r.in, ws, seconds)
	}
	p1, err := readProc(s.d.pid())
	if err != nil {
		return nil, err
	}
	out.cpu, out.hwmKB = p1.cpu-p0.cpu, p1.hwmKB
	if out.st1, err = s.stats(); err != nil {
		return nil, err
	}
	s.d.stop()
	stopped = true

	workers := runtime.GOMAXPROCS(0)
	if r.w.Clients > 0 {
		out.verdict, err = verifyStatic(r.w, r.in, out.res, s.gen, workers)
	} else {
		out.verdict, err = verifyMarket(r.w, r.in, out.res, workers)
		if err == nil && out.st1.Options != len(out.res.mirror.pts) {
			out.verdict.wrong++
			out.verdict.note("daemon holds %d options, the op-log mirror %d", out.st1.Options, len(out.res.mirror.pts))
		}
	}
	return out, err
}

// score fills the record's correctness fields and notes what was
// checked.
func (r *runner) score(dr *daemonRun) {
	res, v := dr.res, dr.verdict
	r.rec.Header.GoVersion = dr.goVersion
	errs := len(res.errs)
	wrong := v.wrong + v.approxBad
	r.rec.Attempted = res.attempted()
	r.rec.Failed = errs + wrong
	r.rec.Correct = errs == 0 && wrong == 0 && v.checked > 0
	for i, e := range res.errs {
		if i < 4 {
			r.rec.Notes = append(r.rec.Notes, "error: "+e.Error())
		}
	}
	r.rec.Notes = append(r.rec.Notes, v.notes...)
	r.rec.Notes = append(r.rec.Notes, fmt.Sprintf(
		"verified %d exact answers with %d probe verdicts, %d approximate answers; %d solves, %d approx, %d ops batches, %d region events in %.2fs",
		v.checked, v.probes, len(res.approx), len(res.solves), len(res.approx), len(res.applies), len(res.events), res.window.Seconds()))
	r.rec.set(false, "wrong_answers", float64(wrong), "count")
	r.rec.set(false, "error_ratio", ratio(float64(r.rec.Failed), float64(r.rec.Attempted)), "ratio")
	r.rec.set(false, "core.repr_divergent", float64(v.divergent), "count")
}

// percentile reports a latency percentile, noting when fewer than ten
// samples lie beyond it.
func (r *runner) percentile(primary bool, name string, xs []float64, q float64) {
	r.rec.set(primary, name, quantile(xs, q), "ms")
	if b := beyond(len(xs), q); b < 10 {
		r.rec.Notes = append(r.rec.Notes, fmt.Sprintf("%s: only %d of %d samples beyond the percentile", name, b, len(xs)))
	}
}

// timed is the timed run: end-to-end metrics with tracing off.
func (r *runner) timed() error {
	dr, err := r.drive(setupReps, r.seconds)
	if err != nil {
		return err
	}
	r.score(dr)
	res := dr.res
	var solveMS []float64
	for _, s := range res.solves {
		solveMS = append(solveMS, float64(s.lat)/float64(time.Millisecond))
	}
	r.rec.set(true, "setup_s", median(dr.setups), "s")
	r.percentile(true, "solve_p50_ms", solveMS, 0.5)
	r.percentile(true, "solve_p90_ms", solveMS, 0.9)
	r.rec.set(true, "solve_per_s", float64(len(res.solves))/res.window.Seconds(), "1/s")
	r.rec.set(true, "cpu_ms_per_request", ratio(float64(dr.cpu)/float64(time.Millisecond), float64(res.completed())), "ms")
	r.rec.set(true, "peak_rss_mb", float64(dr.hwmKB)/1024, "MiB")
	r.rec.Notes = append(r.rec.Notes, fmt.Sprintf("setups (s): %.4f", dr.setups))
	r.openLoopFigures(false, res)
	return nil
}

// openLoopFigures adds the open-loop latencies: approximate solves,
// ops acks and region events, and how late the sender ran.
func (r *runner) openLoopFigures(primary bool, res *loadResult) {
	if r.w.Clients > 0 {
		if !primary {
			return
		}
		for _, n := range []string{"approx_p50_ms", "approx_p99_ms", "apply_p50_ms", "apply_p95_ms", "event_p50_ms", "event_p75_ms", "gen.lag_p99_ms"} {
			r.rec.set(primary, n, 0, "ms")
		}
		return
	}
	var approxMS, applyMS []float64
	for _, a := range res.approx {
		approxMS = append(approxMS, float64(a.lat)/float64(time.Millisecond))
	}
	for _, a := range res.applies {
		applyMS = append(applyMS, float64(a.lat)/float64(time.Millisecond))
	}
	events := msOf(res.eventLatencies())
	r.percentile(primary, "approx_p50_ms", approxMS, 0.5)
	r.percentile(primary, "approx_p99_ms", approxMS, 0.99)
	r.percentile(primary, "apply_p50_ms", applyMS, 0.5)
	r.percentile(primary, "apply_p95_ms", applyMS, 0.95)
	r.percentile(primary, "event_p50_ms", events, 0.5)
	r.percentile(primary, "event_p75_ms", events, 0.75)
	r.rec.set(primary, "gen.lag_p99_ms", quantile(msOf(res.lags), 0.99), "ms")
}

// traced is the traced run: a daemon pass for the serving-layer figures
// and counters, then the in-process replay with spans off and on.
func (r *runner) traced(spanPath string) error {
	dr, err := r.drive(1, r.seconds)
	if err != nil {
		return err
	}
	r.score(dr)
	res, d0, d1 := dr.res, dr.st0, dr.st1
	var selfMS, kb, cands, regions, vall, misses []float64
	for _, s := range res.solves {
		selfMS = append(selfMS, s.selfMS)
		kb = append(kb, float64(s.bytes)/1024)
		cands = append(cands, float64(s.res.Stats.FilteredOptions))
		regions = append(regions, float64(s.res.Stats.Regions))
		vall = append(vall, float64(s.res.Stats.VallSize))
		misses = append(misses, float64(s.res.Stats.TopKMisses))
	}
	set := func(name string, v float64, unit string) { r.rec.set(true, name, v, unit) }
	set("toprrd.self_ms", median(selfMS), "ms")
	set("toprrd.resp_kb", mean(kb), "KiB")
	hits, miss := float64(d1.TopKHits-d0.TopKHits), float64(d1.TopKMisses-d0.TopKMisses)
	set("toprr.topk_hit_ratio", ratio(hits, hits+miss), "ratio")
	set("toprr.patched_per_insert", ratio(float64(d1.PatchedEntries-d0.PatchedEntries), float64(d1.PatchInserts-d0.PatchInserts)), "ratio")
	set("skyband.candidates", median(cands), "count")
	set("core.regions_per_solve", mean(regions), "count")
	set("core.vall_per_solve", mean(vall), "count")
	set("topk.misses_per_solve", mean(misses), "count")
	gh, gm := float64(d1.SketchHits-d0.SketchHits), float64(d1.SketchMisses-d0.SketchMisses)
	set("sketch.gate_hit_ratio", ratio(gh, gh+gm), "ratio")
	sc, sf := float64(d1.SketchCert-d0.SketchCert), float64(d1.SketchFalls-d0.SketchFalls)
	set("sketch.certified_ratio", ratio(sc, sc+sf), "ratio")
	batches := float64(len(res.applies))
	ops := 0
	for _, it := range r.in.sched {
		if it.kind == kindOps && it.due <= r.seconds {
			ops += len(it.ops)
		}
	}
	set("store.wal_syncs_per_batch", ratio(float64(d1.WALSyncs-d0.WALSyncs), batches), "ratio")
	set("store.wal_bytes_per_op", ratio(float64(d1.WALBytes-d0.WALBytes), float64(ops)), "B")
	r.openLoopFigures(true, res)
	// core.repr_divergent is a per-layer figure: move it to the result.
	r.rec.Metrics["core.repr_divergent"] = r.rec.Extra["core.repr_divergent"]
	delete(r.rec.Extra, "core.repr_divergent")

	// In-process replay: spans off, then on.
	off, _, err := runReplay(r.w, r.in, r.work, r.seconds/4, nil)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	tr := newTracer()
	on, rt, err := runReplay(r.w, r.in, r.work, r.seconds/4, tr)
	if err != nil {
		return fmt.Errorf("traced replay: %w", err)
	}
	set("toprr.solve_ms", median(on.solveTimes()), "ms")
	set("toprr.apply_ms", median(on.applyMS), "ms")
	set("skyband.scan_ms", median(rt.scanMS), "ms")
	set("core.partition_ms", median(rt.partMS), "ms")
	set("core.assemble_ms", median(tr.durations("core.AssembleStream.Finish")), "ms")
	set("topk.partial_us", median(rt.partialUS), "us")
	set("topk.shard_partial_ms", median(rt.shardPartialMS), "ms")
	set("store.live_generations_max", float64(on.liveMax), "count")
	set("watch.evaluations_per_signal", ratio(float64(on.watch.Evaluations), float64(on.watch.Signals)), "ratio")
	set("watch.suppressed_ratio", ratio(float64(on.watch.Suppressed), float64(on.watch.Suppressed+on.watch.Signals)), "ratio")
	set("trace.overhead_pct", overheadPct(on, off), "%")
	r.rec.Notes = append(r.rec.Notes, fmt.Sprintf("replay: %d requests with spans off, %d with spans on, %d spans, %d re-run solves",
		off.requests, on.requests, len(tr.spans), len(rt.scanMS)))
	if err := writeSpans(spanPath, tr); err != nil {
		return err
	}
	r.rec.Notes = append(r.rec.Notes, "spans: "+spanPath)
	return nil
}

// compareRecords prints two records side by side, refusing records
// whose headers differ.
func compareRecords(oldPath, newPath string) error {
	load := func(p string) (*record, error) {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r record
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &r, nil
	}
	a, err := load(oldPath)
	if err != nil {
		return err
	}
	b, err := load(newPath)
	if err != nil {
		return err
	}
	if diff := headerDiff(a.Header, b.Header); len(diff) > 0 {
		return fmt.Errorf("refusing to compare: headers differ in %s", strings.Join(diff, ", "))
	}
	fmt.Printf("%-30s %14s %14s %9s\n", "metric", "old", "new", "change")
	for _, set := range [][2]map[string]metric{{a.Metrics, b.Metrics}, {a.Extra, b.Extra}} {
		names := make([]string, 0, len(set[0]))
		for n := range set[0] {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			o, nw := set[0][n], set[1][n]
			change := "-"
			if o.Value != 0 {
				change = fmt.Sprintf("%+.1f%%", 100*(nw.Value/o.Value-1))
			}
			fmt.Printf("%-30s %14.6g %14.6g %9s %s\n", n, o.Value, nw.Value, change, o.Unit)
		}
	}
	return nil
}

// headerDiff names the header fields that differ.
func headerDiff(a, b header) []string {
	var ma, mb map[string]any
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	_ = json.Unmarshal(ja, &ma)
	_ = json.Unmarshal(jb, &mb)
	var out []string
	for k := range ma {
		x, _ := json.Marshal(ma[k])
		y, _ := json.Marshal(mb[k])
		if string(x) != string(y) {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}
