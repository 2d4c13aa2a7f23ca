package toprr_test

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"toprr/internal/fabric"
	"toprr/pkg/toprr"
)

// startWorker boots an in-process fabric worker on a loopback port and
// returns its address plus an idempotent kill function. The backend is
// the same EngineBackend cmd/toprr-worker serves, so the tests exercise
// the real wire path end to end.
func startWorker(t *testing.T) (string, func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := fabric.NewServer(fabric.NewEngineBackend(fabric.BackendConfig{}))
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln) //nolint:errcheck
	}()
	var once sync.Once
	kill := func() {
		once.Do(func() {
			srv.Close()
			<-done
		})
	}
	t.Cleanup(kill)
	return ln.Addr().String(), kill
}

// fleetFor spreads all shard indices round-robin over the worker
// addresses, so every worker owns a slice of each solve.
func fleetFor(addrs []string, shards int) map[string][]int {
	m := make(map[string][]int, len(addrs))
	for s := 0; s < shards; s++ {
		a := addrs[s%len(addrs)]
		m[a] = append(m[a], s)
	}
	return m
}

// TestFabricEngineMatchesOracle is the distributed-solve property
// suite: for S in {1, 2, 4, 8} and worker fleets of 0, 1 and 2
// processes, a coordinator engine must produce exactly the unsharded
// oracle's regions — fresh and across interleaved mutation batches —
// because remote partials are the same computation at the same
// generation, and every remote failure falls back to that computation
// locally.
func TestFabricEngineMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	ctx := context.Background()
	for _, nw := range []int{0, 1, 2} {
		addrs := make([]string, 0, nw)
		for i := 0; i < nw; i++ {
			addr, _ := startWorker(t)
			addrs = append(addrs, addr)
		}
		d := 3
		pts := randomMarket(rng, 90+rng.Intn(60), d)
		oracle := toprr.NewEngine(pts, toprr.WithShards(1))

		engines := make(map[int]*toprr.Engine)
		for _, s := range []int{1, 2, 4, 8} {
			opts := []toprr.EngineOption{toprr.WithShards(s)}
			if nw > 0 {
				opts = append(opts, toprr.WithRemoteShards(toprr.RemoteShards{
					Workers: fleetFor(addrs, s),
					// One worker process serves every engine; the
					// handshake dataset keeps their states apart.
					Dataset: fmt.Sprintf("w%d-s%d", nw, s),
				}))
			}
			eng, err := toprr.OpenEngine(pts, opts...)
			if err != nil {
				t.Fatalf("workers=%d shards=%d: %v", nw, s, err)
			}
			t.Cleanup(func() { eng.Close() })
			engines[s] = eng
		}

		syncAll := func() {
			for s, eng := range engines {
				if err := eng.SyncRemote(ctx); err != nil {
					t.Fatalf("workers=%d shards=%d: sync: %v", nw, s, err)
				}
			}
		}
		syncAll()

		check := func(stage string) {
			for q := 0; q < 3; q++ {
				query := randomQuery(rng, d, 1+rng.Intn(5))
				query.Options = oracleOptions()
				want, err := oracle.Solve(ctx, query)
				if err != nil {
					t.Fatalf("workers=%d %s: oracle: %v", nw, stage, err)
				}
				for s, eng := range engines {
					for _, opt := range comparedOptions() {
						query.Options = opt
						got, err := eng.Solve(ctx, query)
						if err != nil {
							t.Fatalf("workers=%d shards=%d %s: %v", nw, s, stage, err)
						}
						if len(got.Vall) != len(want.Vall) {
							t.Fatalf("workers=%d shards=%d %s: |Vall| %d != %d", nw, s, stage, len(got.Vall), len(want.Vall))
						}
						tag := fmt.Sprintf("workers=%d shards=%d %s", nw, s, stage)
						sameConstraints(t, tag, got, want)
						sameRegion(t, tag, rng, d, got, want)
					}
				}
			}
		}
		check("fresh")

		// Interleaved mutations: every engine applies the same batches;
		// the coordinator re-pins its workers and the distributed
		// answers must track the oracle generation for generation.
		for step := 0; step < 2; step++ {
			// n tracks the length each op sees: a batch applies in order.
			n := oracle.Len()
			var ops []toprr.Op
			for o := 0; o < 1+rng.Intn(3); o++ {
				switch rng.Intn(3) {
				case 0:
					ops = append(ops, toprr.Insert(randomPoint(rng, d)))
				case 1:
					ops = append(ops, toprr.Update(rng.Intn(n), randomPoint(rng, d)))
				default:
					if n > 40 {
						ops = append(ops, toprr.Delete(rng.Intn(n)))
						n--
					} else {
						ops = append(ops, toprr.Insert(randomPoint(rng, d)))
					}
				}
			}
			if _, err := oracle.Apply(ctx, ops); err != nil {
				t.Fatal(err)
			}
			for s, eng := range engines {
				if _, err := eng.Apply(ctx, ops); err != nil {
					t.Fatalf("workers=%d shards=%d: %v", nw, s, err)
				}
			}
			syncAll()
			check("after mutations")
		}

		// Accounting: with a fleet, remote partials were actually
		// served, and the engine-level stats agree with the fabric's.
		for s, eng := range engines {
			fs := eng.FabricStats()
			cs := eng.CacheStats()
			if nw == 0 {
				if fs.Workers != 0 || fs.RemotePartials != 0 || cs.RemotePartials != 0 {
					t.Errorf("shards=%d: fabric counters without a fleet: %+v", s, fs)
				}
				continue
			}
			if want := len(fleetFor(addrs, s)); fs.Workers != want {
				t.Errorf("workers=%d shards=%d: FabricStats.Workers = %d, want %d", nw, s, fs.Workers, want)
			}
			if s == 1 {
				// A one-shard solve plane has nothing to scatter: the
				// fabric stays configured but idle.
				if fs.RemotePartials != 0 {
					t.Errorf("shards=1: one-shard plane served %d remote partials", fs.RemotePartials)
				}
				continue
			}
			if fs.RemotePartials == 0 {
				t.Errorf("workers=%d shards=%d: no remote partials served", nw, s)
			}
			if fs.BytesOut == 0 || fs.BytesIn == 0 {
				t.Errorf("workers=%d shards=%d: wire counters flat: %+v", nw, s, fs)
			}
			if cs.RemotePartials != fs.RemotePartials ||
				cs.HedgedDispatches != fs.HedgedDispatches ||
				cs.Fallbacks != fs.Fallbacks ||
				cs.RemoteBytes != fs.BytesOut+fs.BytesIn {
				t.Errorf("workers=%d shards=%d: CacheStats %+v disagrees with FabricStats %+v", nw, s, cs, fs)
			}
			remotes := int64(0)
			for _, ss := range cs.ShardStats {
				remotes += ss.RemotePartials
			}
			if remotes != fs.RemotePartials {
				t.Errorf("workers=%d shards=%d: per-shard remotes sum %d != %d", nw, s, remotes, fs.RemotePartials)
			}
		}
	}
}

// TestFabricWorkerKillFallsBackThenRecovers injects a worker kill
// mid-run: solves keep answering exactly (every shard falls back
// locally), and a restarted — state-empty — worker is re-pinned via the
// not-synced refusal until remote service resumes.
func TestFabricWorkerKillFallsBackThenRecovers(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	ctx := context.Background()
	pts := randomMarket(rng, 120, 3)
	oracle := toprr.NewEngine(pts, toprr.WithShards(1))

	addr, kill := startWorker(t)
	eng, err := toprr.OpenEngine(pts, toprr.WithShards(4), toprr.WithRemoteShards(toprr.RemoteShards{
		Workers: map[string][]int{addr: {0, 1, 2, 3}},
		Dataset: "kill",
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := eng.SyncRemote(ctx); err != nil {
		t.Fatal(err)
	}

	solveCheck := func(stage string) {
		query := randomQuery(rng, 3, 2+rng.Intn(3))
		query.Options = oracleOptions()
		want, err := oracle.Solve(ctx, query)
		if err != nil {
			t.Fatalf("%s: oracle: %v", stage, err)
		}
		for _, opt := range comparedOptions() {
			query.Options = opt
			got, err := eng.Solve(ctx, query)
			if err != nil {
				t.Fatalf("%s: %v", stage, err)
			}
			if len(got.Vall) != len(want.Vall) {
				t.Fatalf("%s: distributed solve diverged from oracle", stage)
			}
			sameConstraints(t, stage, got, want)
			sameRegion(t, stage, rng, 3, got, want)
		}
	}

	solveCheck("warm")
	if eng.FabricStats().RemotePartials == 0 {
		t.Fatal("warm solve served no remote partials")
	}

	kill()
	falls := eng.FabricStats().Fallbacks
	solveCheck("worker down")
	if eng.FabricStats().Fallbacks <= falls {
		t.Fatal("worker kill did not register fallbacks")
	}

	// Restart on the same address with empty state. The coordinator's
	// client still believes the old generation is pushed; the worker's
	// not-synced refusal forces the re-pin, after which remote partials
	// flow again.
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	srv2 := fabric.NewServer(fabric.NewEngineBackend(fabric.BackendConfig{}))
	go srv2.Serve(ln) //nolint:errcheck
	t.Cleanup(func() { srv2.Close() })

	before := eng.FabricStats().RemotePartials
	deadline := time.Now().Add(10 * time.Second)
	for eng.FabricStats().RemotePartials == before {
		if time.Now().After(deadline) {
			t.Fatal("remote service never resumed after worker restart")
		}
		solveCheck("restarted")
	}
}

// slowProxy forwards TCP to upstream, delaying every server-to-client
// chunk: the remote worker stays correct but slow, which is exactly the
// straggler the hedge timer exists for.
func slowProxy(t *testing.T, upstream string, delay time.Duration) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			u, err := net.Dial("tcp", upstream)
			if err != nil {
				c.Close()
				continue
			}
			go func() {
				io.Copy(u, c) //nolint:errcheck
				u.Close()
			}()
			go func() {
				buf := make([]byte, 4096)
				for {
					n, rerr := u.Read(buf)
					if n > 0 {
						time.Sleep(delay)
						if _, werr := c.Write(buf[:n]); werr != nil {
							break
						}
					}
					if rerr != nil {
						break
					}
				}
				c.Close()
			}()
		}
	}()
	return ln.Addr().String()
}

// TestFabricHedgesSlowWorker: a worker that answers correctly but
// slowly trips the hedge deadline fraction — the shard re-dispatches
// locally, the straggler is discarded, and the result is still exact.
func TestFabricHedgesSlowWorker(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	ctx := context.Background()
	pts := randomMarket(rng, 100, 3)
	oracle := toprr.NewEngine(pts, toprr.WithShards(1))

	addr, _ := startWorker(t)
	slow := slowProxy(t, addr, 150*time.Millisecond)
	eng, err := toprr.OpenEngine(pts, toprr.WithShards(2), toprr.WithRemoteShards(toprr.RemoteShards{
		Workers: map[string][]int{slow: {0, 1}},
		Dataset: "slow",
		Hedge:   5 * time.Millisecond,
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := eng.SyncRemote(ctx); err != nil {
		t.Fatal(err)
	}

	query := randomQuery(rng, 3, 3)
	query.Options = oracleOptions()
	want, err := oracle.Solve(ctx, query)
	if err != nil {
		t.Fatal(err)
	}
	for _, opt := range comparedOptions() {
		query.Options = opt
		got, err := eng.Solve(ctx, query)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Vall) != len(want.Vall) {
			t.Fatalf("hedged solve |Vall| %d != %d", len(got.Vall), len(want.Vall))
		}
		sameConstraints(t, "hedged", got, want)
		sameRegion(t, "hedged", rng, 3, got, want)
	}
	if fs := eng.FabricStats(); fs.HedgedDispatches == 0 {
		t.Fatalf("no hedged dispatches recorded: %+v", fs)
	}
}

// TestFabricStaleGenerationSolvesLocally: a solve pinned to a snapshot
// older than what the workers hold never takes a doomed round trip —
// the generation short-circuit answers it locally, exactly for the
// pinned scorer.
func TestFabricStaleGenerationSolvesLocally(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	ctx := context.Background()
	pts := randomMarket(rng, 110, 3)

	addr, _ := startWorker(t)
	eng, err := toprr.OpenEngine(pts, toprr.WithShards(4), toprr.WithRemoteShards(toprr.RemoteShards{
		Workers: map[string][]int{addr: {0, 1, 2, 3}},
		Dataset: "stale",
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := eng.SyncRemote(ctx); err != nil {
		t.Fatal(err)
	}
	snap := eng.Snapshot()
	pinned := toprr.NewEngine(snap.Scorer.Points(), toprr.WithShards(1))

	var ops []toprr.Op
	for i := 0; i < 5; i++ {
		ops = append(ops, toprr.Insert(randomPoint(rng, 3)))
	}
	if _, err := eng.Apply(ctx, ops); err != nil {
		t.Fatal(err)
	}
	if err := eng.SyncRemote(ctx); err != nil {
		t.Fatal(err)
	}

	remotes := eng.FabricStats().RemotePartials
	query := randomQuery(rng, 3, 2)
	query.Options = oracleOptions()
	want, err := pinned.Solve(ctx, query)
	if err != nil {
		t.Fatal(err)
	}
	for _, opt := range comparedOptions() {
		query.Options = opt
		got, err := eng.SolveAt(ctx, snap, query)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Vall) != len(want.Vall) {
			t.Fatalf("pinned |Vall| %d != %d", len(got.Vall), len(want.Vall))
		}
		sameConstraints(t, "pinned", got, want)
		sameRegion(t, "pinned", rng, 3, got, want)
	}
	// A pinned-old-generation solve runs on a solve-local cache the
	// remote plane is not attached to: no doomed round trips, no remote
	// partials — the workers hold the newer generation.
	if after := eng.FabricStats().RemotePartials; after != remotes {
		t.Fatalf("stale-generation solve took %d wire round trips", after-remotes)
	}

	// The current generation, by contrast, still scatters.
	query.Options = oracleOptions()
	cur, err := eng.Solve(ctx, query)
	if err != nil {
		t.Fatal(err)
	}
	curOracle := toprr.NewEngine(eng.Scorer().Points(), toprr.WithShards(1))
	curWant, err := curOracle.Solve(ctx, query)
	if err != nil {
		t.Fatal(err)
	}
	sameRegion(t, "current", rng, 3, cur, curWant)
	if eng.FabricStats().RemotePartials == remotes {
		t.Fatal("current-generation solve served no remote partials")
	}
}

// TestFabricDrainKeepsSolving: DrainFabric quiesces the pool without
// taking the engine down — later solves answer locally and exactly.
func TestFabricDrainKeepsSolving(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	ctx := context.Background()
	pts := randomMarket(rng, 100, 3)
	oracle := toprr.NewEngine(pts, toprr.WithShards(1))

	addr, _ := startWorker(t)
	eng, err := toprr.OpenEngine(pts, toprr.WithShards(2), toprr.WithRemoteShards(toprr.RemoteShards{
		Workers: map[string][]int{addr: {0, 1}},
		Dataset: "drain",
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := eng.SyncRemote(ctx); err != nil {
		t.Fatal(err)
	}
	if err := eng.DrainFabric(ctx); err != nil {
		t.Fatal(err)
	}

	query := randomQuery(rng, 3, 2)
	query.Options = oracleOptions()
	want, err := oracle.Solve(ctx, query)
	if err != nil {
		t.Fatal(err)
	}
	for _, opt := range comparedOptions() {
		query.Options = opt
		got, err := eng.Solve(ctx, query)
		if err != nil {
			t.Fatal(err)
		}
		sameConstraints(t, "drained", got, want)
		sameRegion(t, "drained", rng, 3, got, want)
	}
	if fs := eng.FabricStats(); fs.RemotePartials != 0 && fs.Fallbacks == 0 {
		t.Fatalf("drained engine neither local-only nor falling back: %+v", fs)
	}
}

// TestFabricExternalWorkers runs the distributed-vs-oracle property
// check against real worker processes — cmd/toprr-worker binaries
// started outside this test and named by TOPRR_FABRIC_WORKERS
// (comma-separated host:port). It skips when the variable is unset, so
// the suite stays hermetic by default; CI's fabric lane builds the
// worker, boots two on localhost and runs this under -race.
func TestFabricExternalWorkers(t *testing.T) {
	spec := os.Getenv("TOPRR_FABRIC_WORKERS")
	if spec == "" {
		t.Skip("TOPRR_FABRIC_WORKERS not set (CI fabric lane only)")
	}
	addrs := strings.Split(spec, ",")
	rng := rand.New(rand.NewSource(37))
	ctx := context.Background()
	d := 3
	pts := randomMarket(rng, 140, d)
	oracle := toprr.NewEngine(pts, toprr.WithShards(1))

	for _, s := range []int{2, 4, 8} {
		eng, err := toprr.OpenEngine(pts, toprr.WithShards(s), toprr.WithRemoteShards(toprr.RemoteShards{
			Workers: fleetFor(addrs, s),
			Dataset: fmt.Sprintf("external-s%d", s),
		}))
		if err != nil {
			t.Fatalf("shards=%d: %v", s, err)
		}
		defer eng.Close()
		if err := eng.SyncRemote(ctx); err != nil {
			t.Fatalf("shards=%d: sync %v: %v", s, addrs, err)
		}

		check := func(stage string) {
			for q := 0; q < 3; q++ {
				query := randomQuery(rng, d, 1+rng.Intn(5))
				query.Options = oracleOptions()
				want, err := oracle.Solve(ctx, query)
				if err != nil {
					t.Fatalf("shards=%d %s: oracle: %v", s, stage, err)
				}
				for _, opt := range comparedOptions() {
					query.Options = opt
					got, err := eng.Solve(ctx, query)
					if err != nil {
						t.Fatalf("shards=%d %s: %v", s, stage, err)
					}
					if len(got.Vall) != len(want.Vall) {
						t.Fatalf("shards=%d %s: distributed solve diverged from oracle", s, stage)
					}
					tag := fmt.Sprintf("external shards=%d %s", s, stage)
					sameConstraints(t, tag, got, want)
					sameRegion(t, tag, rng, d, got, want)
				}
			}
		}
		check("fresh")

		var ops []toprr.Op
		for o := 0; o < 4; o++ {
			ops = append(ops, toprr.Insert(randomPoint(rng, d)))
		}
		for _, e := range []*toprr.Engine{oracle, eng} {
			if _, err := e.Apply(ctx, ops); err != nil {
				t.Fatalf("shards=%d: %v", s, err)
			}
		}
		if err := eng.SyncRemote(ctx); err != nil {
			t.Fatalf("shards=%d: re-sync: %v", s, err)
		}
		check("after mutations")

		if fs := eng.FabricStats(); fs.RemotePartials == 0 {
			t.Errorf("shards=%d: external workers served no remote partials: %+v", s, fs)
		}
		// Carry the mutated points forward so the next shard count's
		// engine and oracle start from the same market.
		pts = oracle.Scorer().Points()
	}
}

// TestWithRemoteShardsValidation: shard indices outside the engine's
// range, doubly-owned shards and empty addresses are rejected at
// OpenEngine time, naming the offender.
func TestWithRemoteShardsValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	pts := randomMarket(rng, 30, 3)
	cases := []struct {
		name    string
		workers map[string][]int
	}{
		{"out of range", map[string][]int{"127.0.0.1:1": {4}}},
		{"negative", map[string][]int{"127.0.0.1:1": {-1}}},
		{"empty addr", map[string][]int{"": {0}}},
	}
	for _, tc := range cases {
		if _, err := toprr.OpenEngine(pts, toprr.WithShards(4), toprr.WithRemoteShards(toprr.RemoteShards{Workers: tc.workers})); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// Duplicate ownership needs two workers claiming one shard; the map
	// literal above cannot express it with one key.
	dup := map[string][]int{"127.0.0.1:1": {0, 1}, "127.0.0.1:2": {1}}
	if _, err := toprr.OpenEngine(pts, toprr.WithShards(4), toprr.WithRemoteShards(toprr.RemoteShards{Workers: dup})); err == nil {
		t.Error("doubly-owned shard accepted")
	}
}
