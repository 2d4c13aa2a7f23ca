package bench

// The fabric experiment: the same query set solved three ways per shard
// count — on a plain in-process sharded engine, on a coordinator
// scattering each shard's partial to a loopback worker over pipelined
// connections, and on the same coordinator in serial-RPC referee mode
// (one in-flight request per worker) — so BENCH_fabric.json records
// what scatter–gather costs against in-process solving and what
// pipelining buys against one-at-a-time RPC. Rows are gated by
// cmd/benchrunner -compare on the fabric's absolute contracts: zero
// exactness violations at every S, scattering that actually happens at
// S > 1 (and never at S = 1), and pipelined RPC strictly faster than
// the serial referee summed over the shard grid.

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"toprr/internal/dataset"
	"toprr/internal/fabric"
	"toprr/internal/geom"
	"toprr/pkg/toprr"
)

// fabricBenchHedge keeps the hedge timer out of the measurement: a
// loopback worker answers in microseconds, so a generous hedge never
// fires and both remote modes pay their true wire cost — the serial
// referee must not be rescued by hedged local dispatches.
const fabricBenchHedge = time.Second

// fabricWorkerBench is one in-process loopback worker: the same Server
// and EngineBackend cmd/toprr-worker runs, on an ephemeral port.
type fabricWorkerBench struct {
	addr string
	srv  *fabric.Server
}

func startFabricWorkerBench() (*fabricWorkerBench, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := fabric.NewServer(fabric.NewEngineBackend(fabric.BackendConfig{}))
	go srv.Serve(ln) //nolint:errcheck
	return &fabricWorkerBench{addr: ln.Addr().String(), srv: srv}, nil
}

// fabricRemoteEngine builds a coordinator over one worker owning every
// shard, synced so the first timed solve scatters instead of pinning.
func fabricRemoteEngine(ds *dataset.Dataset, shards int, w *fabricWorkerBench, name string, serial bool) (*toprr.Engine, error) {
	owned := make([]int, shards)
	for i := range owned {
		owned[i] = i
	}
	cfg := toprr.RemoteShards{
		Workers: map[string][]int{w.addr: owned},
		Dataset: name,
		Hedge:   fabricBenchHedge,
		Serial:  serial,
	}
	if serial {
		cfg.Conns = 1 // the referee: exactly one in-flight request
	}
	engine := toprr.NewEngine(ds.Pts, toprr.WithShards(shards), toprr.WithRemoteShards(cfg))
	if err := engine.SyncRemote(context.Background()); err != nil {
		engine.Close()
		return nil, err
	}
	return engine, nil
}

// fabricSolvePass solves every region on one engine, returning the
// total wall time, each result's region fingerprint, and the summed
// constraint count (the exactness comparators).
func fabricSolvePass(engine *toprr.Engine, regions []*geom.Polytope, opts *toprr.Options) (time.Duration, []uint64, int, error) {
	ctx := context.Background()
	prints := make([]uint64, 0, len(regions))
	lens := 0
	start := time.Now()
	for _, wr := range regions {
		res, err := engine.Solve(ctx, toprr.Query{K: DefaultK, WR: wr, Options: opts})
		if err != nil {
			return 0, nil, 0, err
		}
		prints = append(prints, toprr.RegionFingerprint(res))
		lens += len(res.ORConstraints)
	}
	return time.Since(start), prints, lens, nil
}

// The RPC micro-measurement isolates the transport: a fixed batch of
// partial round trips issued with fixed concurrency against a small
// worker-resident dataset, where the round-trip latency — not the
// per-partial scoring work — dominates. Pipelined and serial clients
// run the identical batch; the pipelined/serial contrast there is the
// gated "pipelining beats one-at-a-time RPC" contract, robust where
// end-to-end solve wall time (mostly local compute) is not.
const (
	fabricRPCBatch = 96 // partial round trips per timed batch
	fabricRPCConc  = 8  // goroutines issuing them
	fabricRPCReps  = 7  // timed batches; the minimum is reported
	fabricRPCN     = 64 // worker-resident points (scale-independent)
)

// fabricRPCTime syncs a small dataset to the worker and times the
// standard batch of partial round trips fabricRPCReps times, returning
// the fastest batch's ns per round trip — the minimum, because the
// contrast under test is structural (what the transport can do), and
// scheduler noise on a small machine only ever adds time.
func fabricRPCTime(addr, name string, shards int, flat []float64, serial bool) (int64, error) {
	conns := 0 // pipelined default
	if serial {
		conns = 1
	}
	cl := fabric.NewClient(fabric.ClientConfig{Addr: addr, Dataset: name, Serial: serial, Conns: conns})
	defer cl.Close()
	ctx := context.Background()
	if err := cl.Sync(ctx, fabric.SyncMsg{Gen: 1, Shards: uint32(shards), Dim: uint32(DefaultD), Pts: flat}); err != nil {
		return 0, err
	}
	vertex := func(i int) []float64 {
		w := make([]float64, DefaultD-1)
		for j := range w {
			w[j] = 0.15 + float64(i)*1e-4
		}
		return w
	}
	// Warm every connection (dial + handshake) outside the timing.
	for i := 0; i < 4; i++ {
		if _, _, err := cl.Partial(ctx, 1, i%shards, DefaultK, vertex(-1), nil); err != nil {
			return 0, err
		}
	}
	per := fabricRPCBatch / fabricRPCConc
	var best time.Duration
	for rep := 0; rep < fabricRPCReps; rep++ {
		errs := make(chan error, fabricRPCConc)
		start := time.Now()
		var wg sync.WaitGroup
		for g := 0; g < fabricRPCConc; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < per; i++ {
					// Distinct vertices per rep keep the worker memo cold.
					req := rep*fabricRPCBatch + g*per + i
					if _, _, err := cl.Partial(ctx, 1, req%shards, DefaultK, vertex(req), nil); err != nil {
						errs <- err
						return
					}
				}
			}(g)
		}
		wg.Wait()
		elapsed := time.Since(start)
		select {
		case err := <-errs:
			return 0, err
		default:
		}
		if rep == 0 || elapsed < best {
			best = elapsed
		}
	}
	return best.Nanoseconds() / int64(fabricRPCBatch), nil
}

// Fabric measures the distributed solve fabric per shard count. The
// violations column counts remote results whose region fingerprint or
// constraint count diverged from the in-process solve of the same query
// — the bit-identity contract says it must read 0 everywhere. At S=1
// the one-shard plane has nothing to scatter, so the remote columns
// record pure local solving over an idle fabric (zero partials, zero
// violations by construction).
func Fabric(s Scale) []*Table {
	ds := s.data(dataset.Independent, DefaultN, DefaultD)
	regions := s.Regions(DefaultD-1, DefaultSigma, 1, 8484)
	rpcDS := dataset.Generate(dataset.Independent, fabricRPCN, DefaultD, 11)
	rpcFlat := make([]float64, 0, fabricRPCN*DefaultD)
	for _, p := range rpcDS.Pts {
		rpcFlat = append(rpcFlat, p...)
	}
	t := &Table{
		ID: "Fabric",
		Caption: fmt.Sprintf("scatter–gather solve fabric vs in-process, IND n=%s d=%d k=%d, loopback worker, %d regions",
			humanN(len(ds.Pts)), DefaultD, DefaultK, len(regions)),
		Header: []string{"shards", "in-proc ns", "pipelined ns", "serial ns", "violations", "remote partials", "wire bytes", "max inflight", "rpc pipelined ns", "rpc serial ns"},
	}
	for si, shards := range ShardGrid {
		opts := s.options(toprr.TASStar)
		local := toprr.NewEngine(ds.Pts, toprr.WithShards(shards))
		localDur, want, wantLens, err := fabricSolvePass(local, regions, &opts)
		if err != nil {
			panic("bench: fabric local solve failed: " + err.Error())
		}

		violations := 0
		var pipeDur, serialDur time.Duration
		var partials, wireBytes, depth int64
		var rpcPipe, rpcSerial int64
		for _, mode := range []struct {
			serial bool
			dur    *time.Duration
			rpc    *int64
		}{{false, &pipeDur, &rpcPipe}, {true, &serialDur, &rpcSerial}} {
			worker, err := startFabricWorkerBench()
			if err != nil {
				panic("bench: fabric worker listen failed: " + err.Error())
			}
			name := fmt.Sprintf("bench-%d-%d-%v", si, shards, mode.serial)
			engine, err := fabricRemoteEngine(ds, shards, worker, name, mode.serial)
			if err != nil {
				panic("bench: fabric coordinator failed: " + err.Error())
			}
			dur, got, gotLens, err := fabricSolvePass(engine, regions, &opts)
			if err != nil {
				panic("bench: fabric remote solve failed: " + err.Error())
			}
			*mode.dur = dur
			if gotLens != wantLens {
				violations++
			}
			for i := range got {
				if got[i] != want[i] {
					violations++
				}
			}
			fs := engine.FabricStats()
			if !mode.serial {
				partials = fs.RemotePartials
				wireBytes = fs.BytesOut + fs.BytesIn
				depth = fs.MaxInflight
			}
			engine.Close()
			rpcNS, err := fabricRPCTime(worker.addr, name+"-rpc", shards, rpcFlat, mode.serial)
			if err != nil {
				panic("bench: fabric rpc measurement failed: " + err.Error())
			}
			*mode.rpc = rpcNS
			worker.srv.Close()
		}
		local.Close()

		n := int64(len(regions))
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", shards),
			fmt.Sprintf("%d", localDur.Nanoseconds()/n),
			fmt.Sprintf("%d", pipeDur.Nanoseconds()/n),
			fmt.Sprintf("%d", serialDur.Nanoseconds()/n),
			fmt.Sprintf("%d", violations),
			fmt.Sprintf("%d", partials),
			fmt.Sprintf("%d", wireBytes),
			fmt.Sprintf("%d", depth),
			fmt.Sprintf("%d", rpcPipe),
			fmt.Sprintf("%d", rpcSerial),
		})
	}
	return []*Table{t}
}
