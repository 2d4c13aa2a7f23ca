package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"toprr/internal/dataset"
	"toprr/internal/geom"
	"toprr/internal/vec"
	"toprr/pkg/toprr"
)

// workload is one named traffic mix. Every field is part of the record
// header, so two records compare only when they were made from the
// same parameters.
type workload struct {
	Name  string  `json:"name"`
	Dist  string  `json:"dist"` // IND, ANTI or ELITE
	N     int     `json:"n"`
	D     int     `json:"d"`
	K     int     `json:"k"`
	Sigma float64 `json:"sigma"` // side of each query box in preference space
	// Pool is the number of distinct query regions requests draw from;
	// 0 makes every region distinct. ZipfS > 0 draws pool ranks
	// Zipf-style (P(rank r) ∝ (r+ZipfV)^-ZipfS), otherwise uniformly.
	Pool  int     `json:"pool"`
	ZipfS float64 `json:"zipf_s,omitempty"`
	ZipfV float64 `json:"zipf_v,omitempty"`
	// Clients > 0 runs that many closed-loop solve clients; 0 runs the
	// open-loop mixed schedule below on one connection plus one /watch
	// stream on a second.
	Clients    int     `json:"clients"`
	Durable    bool    `json:"durable"`
	OpsRate    float64 `json:"ops_per_s,omitempty"`
	ApproxRate float64 `json:"approx_per_s,omitempty"`
	ExactRate  float64 `json:"exact_per_s,omitempty"`
}

// workloads is the benchmark's catalogue; BENCHMARK.json names the same
// three with the reason for each, and README.md tabulates them.
var workloads = []workload{
	{
		Name: "narrow-scan", Dist: "IND", N: 100000, D: 4, K: 10, Sigma: 0.005,
		Pool: 64, ZipfS: 1.1, ZipfV: 8, Clients: 2,
	},
	{
		Name: "deep-partition", Dist: "ANTI", N: 500, D: 4, K: 10, Sigma: 0.015,
		Clients: 1,
	},
	{
		Name: "market-stream", Dist: "ELITE", N: 10000, D: 4, K: 10, Sigma: 0.01,
		Durable: true, OpsRate: 20, ApproxRate: 100, ExactRate: 20,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// Elite-market geometry: every mass option lies in [0, massMax]^d and
// every elite option in [eliteMin, 1]^d, so each mass option is
// dominated by every elite. With at least k elites live, no mass option
// can enter any top-k, which lets the verifier solve its references over
// the elite subset alone.
const (
	massMax      = 0.6
	eliteMin     = 0.7
	initialElite = 32
	// churnLevel is every coordinate of the elite option the schedule
	// inserts and deletes again: high enough that it enters the watched
	// region's top-k and moves the standing region. One fixed point
	// makes every move cost the same re-pin work, whatever the seed.
	churnLevel = 0.95
)

// churnPoint is the elite option the schedule churns.
func churnPoint(d int) vec.Vector {
	p := vec.New(d)
	for j := range p {
		p[j] = churnLevel
	}
	return p
}

// isElite reports whether p is an elite-market elite option.
func isElite(p vec.Vector) bool {
	for _, x := range p {
		if x < eliteMin {
			return false
		}
	}
	return true
}

func uniformPoint(rng *rand.Rand, d int, lo, hi float64) vec.Vector {
	p := vec.New(d)
	for j := range p {
		p[j] = lo + rng.Float64()*(hi-lo)
	}
	return p
}

// genData builds the workload's dataset from the seed.
func genData(w workload, seed int64) []vec.Vector {
	switch w.Dist {
	case "ELITE":
		rng := rand.New(rand.NewSource(seed))
		pts := make([]vec.Vector, 0, w.N)
		for i := 0; i < w.N-initialElite; i++ {
			pts = append(pts, uniformPoint(rng, w.D, 0, massMax))
		}
		for i := 0; i < initialElite; i++ {
			pts = append(pts, uniformPoint(rng, w.D, eliteMin, 1))
		}
		rng.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
		return pts
	default:
		dist, err := dataset.ParseDistribution(w.Dist)
		if err != nil {
			panic(err) // the catalogue names only valid distributions
		}
		return dataset.Generate(dist, w.N, w.D, seed).Pts
	}
}

// box is one axis-aligned query region [Lo, Hi] in the reduced
// preference space.
type box struct {
	Lo, Hi vec.Vector
}

func (b box) polytope() *geom.Polytope { return toprr.PrefBox(b.Lo, b.Hi) }

// regionSource yields query boxes from a Kronecker (additive-recurrence)
// sequence under a seeded random shift. The sequence spreads boxes evenly
// over the feasible part of the preference simplex, so every seed sees
// the same mix of cheap and expensive regions and run-to-run spread
// comes from the system, not from an unlucky draw.
type regionSource struct {
	m     int
	sigma float64
	alpha []float64
	x     []float64
}

func newRegionSource(m int, sigma float64, rng *rand.Rand) *regionSource {
	// phi is the unique positive root of x^(m+1) = x + 1.
	phi := 2.0
	for i := 0; i < 64; i++ {
		phi = math.Pow(1+phi, 1/float64(m+1))
	}
	rs := &regionSource{m: m, sigma: sigma, alpha: make([]float64, m), x: make([]float64, m)}
	for j := range rs.alpha {
		rs.alpha[j] = math.Mod(1/math.Pow(phi, float64(j+1)), 1)
		rs.x[j] = rng.Float64()
	}
	return rs
}

func (rs *regionSource) next() box {
	for {
		lo, hi := vec.New(rs.m), vec.New(rs.m)
		sum := 0.0
		for j := range rs.x {
			rs.x[j] = math.Mod(rs.x[j]+rs.alpha[j], 1)
			lo[j] = rs.x[j] * (1 - rs.sigma)
			hi[j] = lo[j] + rs.sigma
			sum += hi[j]
		}
		if sum <= 1 {
			return box{Lo: lo, Hi: hi}
		}
	}
}

// inputs is everything a run sends, generated from the seed before the
// daemon starts: the dataset, a warm-up region for the set-up solve,
// and the request sequence.
type inputs struct {
	pts    []vec.Vector
	warmup box
	// seq is the closed-loop region sequence (Clients > 0); clients take
	// the next entry in order.
	seq []box
	// sched is the open-loop schedule (Clients == 0).
	sched []item
	watch box // the standing query of the open-loop schedule
}

// maxSeq bounds the precomputed closed-loop sequence; no run at the
// catalogue's sizes gets near it.
const maxSeq = 20000

// itemKind tags an open-loop schedule entry.
type itemKind int

const (
	kindOps itemKind = iota
	kindApprox
	kindExact
)

// item is one open-loop request: when it is due (offset from the start
// of the schedule) and what it carries.
type item struct {
	due  float64 // seconds
	kind itemKind
	ops  []opSpec // kindOps
	reg  box      // kindApprox, kindExact
}

// opSpec is one dataset mutation in the benchmark's own terms. Index -1
// on a delete means "wherever the last inserted elite sits now"; other
// scheduled delete and update indices are seeded choice values. The
// op-log mirror resolves both to slots when the schedule runs.
type opSpec struct {
	Op    string    `json:"op"`
	Index int       `json:"index,omitempty"`
	Point []float64 `json:"point,omitempty"`
}

// dataSeed generates every workload's dataset. The dataset is fixed;
// the run's seed draws the query regions and the op schedule. Solve
// cost varies far more between two ANTI samples than between two
// well-spread region sets over one sample, so a seeded dataset would
// bury a change under run-to-run spread.
const dataSeed = 7

// centreBox is the σ-box around the centre of the preference simplex.
func centreBox(m int, sigma float64) box {
	b := box{Lo: vec.New(m), Hi: vec.New(m)}
	for j := 0; j < m; j++ {
		b.Lo[j] = 1/float64(m+1) - sigma/2
		b.Hi[j] = b.Lo[j] + sigma
	}
	return b
}

func genInputs(w workload, seed int64, seconds float64) inputs {
	// The set-up solve and the standing query use the centre box for
	// every seed. Solve cost varies a lot between regions: a seeded
	// set-up region would turn into setup_s spread, and a seeded watched
	// region into spread in the re-pin work each region move costs,
	// which scales with the region's Vall.
	in := inputs{pts: genData(w, dataSeed), warmup: centreBox(w.D-1, w.Sigma)}
	rng := rand.New(rand.NewSource(seed))
	rs := newRegionSource(w.D-1, w.Sigma, rng)
	var pool []box
	for i := 0; i < w.Pool; i++ {
		pool = append(pool, rs.next())
	}
	var zipf *rand.Zipf
	if w.Pool > 0 && w.ZipfS > 0 {
		zipf = rand.NewZipf(rng, w.ZipfS, w.ZipfV, uint64(w.Pool-1))
	}
	pick := func() box {
		switch {
		case w.Pool == 0:
			return rs.next()
		case w.ZipfS > 0:
			return pool[zipf.Uint64()]
		default:
			return pool[rng.Intn(len(pool))]
		}
	}
	if w.Clients > 0 {
		in.seq = make([]box, maxSeq)
		for i := range in.seq {
			in.seq[i] = pick()
		}
		return in
	}
	in.watch = in.warmup
	in.sched = genSchedule(w, rng, seconds, pick)
	return in
}

// genSchedule lays out the open-loop mixed schedule, interleaved by due
// time. Ops batches and approximate solves arrive as Poisson processes
// at their rates: random arrivals keep them from locking into phase
// with the watch hub's work, which would make collisions — and tail
// latencies — depend on alignment. Exact solves arrive evenly, so every
// run offers the same number.
//
// Of every forty batches, thirty-three insert one to three mass options
// and two reshape (delete one mass option, update another), which
// forces a non-insert cache advance. The other five churn the elite:
// they alternately insert the churn elite (churnPoint), which enters
// the watched region's top-k and raises its k-th score, and delete it
// again. At 20 batches a second the watched region moves about 2.5
// times a second while the elite count stays at 32 or 33.
func genSchedule(w workload, rng *rand.Rand, seconds float64, pick func() box) []item {
	var sched []item
	arrivals := func(rate float64) []float64 {
		var out []float64
		for t := rng.ExpFloat64() / rate; t < seconds; t += rng.ExpFloat64() / rate {
			out = append(out, t)
		}
		return out
	}
	for i, due := range arrivals(w.OpsRate) {
		var ops []opSpec
		switch {
		case i%8 == 1 && (i/8)%2 == 0:
			ops = []opSpec{{Op: "insert", Point: churnPoint(w.D)}}
		case i%8 == 1:
			ops = []opSpec{{Op: "delete", Index: -1}}
		case i%20 == 3:
			// Slot indices are resolved against the mirror at run time
			// (it knows which slots hold mass); here only the new point
			// and a seeded choice value are drawn.
			ops = []opSpec{
				{Op: "delete", Index: rng.Intn(1 << 30)},
				{Op: "update", Index: rng.Intn(1 << 30), Point: uniformPoint(rng, w.D, 0, massMax)},
			}
		default:
			for j := 1 + rng.Intn(3); j > 0; j-- {
				ops = append(ops, opSpec{Op: "insert", Point: uniformPoint(rng, w.D, 0, massMax)})
			}
		}
		sched = append(sched, item{due: due, kind: kindOps, ops: ops})
	}
	for _, due := range arrivals(w.ApproxRate) {
		sched = append(sched, item{due: due, kind: kindApprox, reg: pick()})
	}
	for i := 0; float64(i) < seconds*w.ExactRate; i++ {
		sched = append(sched, item{due: (float64(i) + 0.5) / w.ExactRate, kind: kindExact, reg: pick()})
	}
	sort.SliceStable(sched, func(i, j int) bool { return sched[i].due < sched[j].due })
	return sched
}
