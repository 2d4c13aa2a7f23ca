package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// datasetName is the tenant the benchmark uploads and queries.
const datasetName = "bench"

// Wire forms of the toprrd responses the benchmark reads.
type constraintJSON struct {
	A []float64 `json:"a"`
	B float64   `json:"b"`
}

type resultJSON struct {
	Constraints []constraintJSON `json:"constraints"`
	Stats       struct {
		FilteredOptions int     `json:"filtered_options"`
		Regions         int     `json:"regions"`
		VallSize        int     `json:"vall_size"`
		TopKMisses      int     `json:"topk_misses"`
		ElapsedMS       float64 `json:"elapsed_ms"`
	} `json:"stats"`
}

type solveResp struct {
	Generation uint64     `json:"generation"`
	Result     resultJSON `json:"result"`
}

type approxVertex struct {
	W         []float64 `json:"w"`
	Lo        float64   `json:"lo"`
	Hi        float64   `json:"hi"`
	Certified bool      `json:"certified"`
}

type approxResp struct {
	Generation uint64         `json:"generation"`
	Vertices   []approxVertex `json:"vertices"`
}

type opsResp struct {
	Generation uint64 `json:"generation"`
	Applied    int    `json:"applied"`
}

type queryJSON struct {
	K  int       `json:"k"`
	Lo []float64 `json:"lo"`
	Hi []float64 `json:"hi"`
}

// Records of what the daemon answered, kept for the verifier and the
// metrics.
type solveRec struct {
	reg    box
	gen    uint64
	lat    time.Duration // from send
	selfMS float64       // round trip minus the response's stats.elapsed_ms
	bytes  int
	res    resultJSON
}

type approxRec struct {
	gen   uint64
	lat   time.Duration
	verts []approxVertex
}

type applyRec struct {
	gen   uint64
	lat   time.Duration // ack time minus due time
	ackAt time.Time
}

type eventRec struct {
	gen     uint64
	at      time.Time
	initial bool
	res     resultJSON
}

// loadResult is one timed window against the daemon.
type loadResult struct {
	solves  []solveRec
	approx  []approxRec
	applies []applyRec
	events  []eventRec
	lags    []time.Duration // open loop: actual send minus due time
	window  time.Duration
	errs    []error
	mirror  *mirror // open loop: the op log the daemon applied
}

func (r *loadResult) attempted() int {
	return len(r.solves) + len(r.approx) + len(r.applies) + len(r.errs)
}

// completed counts answered requests (SSE events excluded).
func (r *loadResult) completed() int { return len(r.solves) + len(r.approx) + len(r.applies) }

// eventLatencies pairs every region event after the initial one with
// the ack of the /v1/ops batch that published its generation. An event
// that outran its ack on the other connection counts as zero.
func (r *loadResult) eventLatencies() []time.Duration {
	ack := make(map[uint64]time.Time, len(r.applies))
	for _, a := range r.applies {
		ack[a.gen] = a.ackAt
	}
	var out []time.Duration
	for _, ev := range r.events {
		if ev.initial {
			continue
		}
		if at, ok := ack[ev.gen]; ok {
			d := ev.at.Sub(at)
			if d < 0 {
				d = 0
			}
			out = append(out, d)
		}
	}
	return out
}

func (s *session) url(path string) string {
	return "http://" + s.d.addr + "/v1/datasets/" + datasetName + path
}

// session is one daemon with the benchmark's dataset uploaded.
type session struct {
	d   *daemon
	gen uint64 // generation right after the upload
}

// setup launches the daemon, uploads the dataset and answers the
// warm-up solve — the span setup_s measures.
func setup(bin, work string, w workload, in inputs, body []byte) (*session, time.Duration, error) {
	start := time.Now()
	d, err := startDaemon(bin, work, w)
	if err != nil {
		return nil, 0, err
	}
	c := newConn()
	defer c.CloseIdleConnections()
	ctx := context.Background()
	var created struct {
		Generation uint64 `json:"generation"`
		Options    int    `json:"options"`
	}
	if _, err := call(ctx, c, "POST", "http://"+d.addr+"/v1/datasets", body, &created); err != nil {
		d.stop()
		return nil, 0, err
	}
	if created.Options != len(in.pts) {
		d.stop()
		return nil, 0, fmt.Errorf("uploaded %d options, daemon holds %d", len(in.pts), created.Options)
	}
	s := &session{d: d, gen: created.Generation}
	q, _ := json.Marshal(queryJSON{K: w.K, Lo: in.warmup.Lo, Hi: in.warmup.Hi})
	if _, err := call(ctx, c, "POST", s.url("/solve"), q, nil); err != nil {
		d.stop()
		return nil, 0, err
	}
	return s, time.Since(start), nil
}

// solveOnce sends one exact solve.
func (s *session) solveOnce(ctx context.Context, c *http.Client, k int, b box) (solveRec, error) {
	q, _ := json.Marshal(queryJSON{K: k, Lo: b.Lo, Hi: b.Hi})
	var resp solveResp
	t := time.Now()
	n, err := call(ctx, c, "POST", s.url("/solve"), q, &resp)
	rt := time.Since(t)
	if err != nil {
		return solveRec{}, err
	}
	return solveRec{
		reg: b, gen: resp.Generation, lat: rt, bytes: n, res: resp.Result,
		selfMS: float64(rt)/float64(time.Millisecond) - resp.Result.Stats.ElapsedMS,
	}, nil
}

// runClosed drives Clients closed-loop solve clients, one connection
// each, taking regions from the seeded sequence in order until the
// window ends.
func (s *session) runClosed(w workload, in inputs, seconds float64) *loadResult {
	res := &loadResult{}
	var (
		next atomic.Int64
		mu   sync.Mutex
		wg   sync.WaitGroup
	)
	ctx := context.Background()
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	for i := 0; i < w.Clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newConn()
			defer c.CloseIdleConnections()
			for time.Now().Before(deadline) {
				i := next.Add(1) - 1
				if i >= int64(len(in.seq)) {
					return
				}
				rec, err := s.solveOnce(ctx, c, w.K, in.seq[i])
				mu.Lock()
				if err != nil {
					res.errs = append(res.errs, err)
				} else {
					res.solves = append(res.solves, rec)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.window = time.Since(start)
	return res
}

// watchStream holds one /watch SSE subscription open and records every
// region event with its arrival time.
type watchStream struct {
	mu     sync.Mutex
	events []eventRec
	err    error
	ready  chan struct{} // closed at the initial event
	done   chan struct{} // closed when the reader exits
	cancel context.CancelFunc
}

func joinFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'g', -1, 64)
	}
	return strings.Join(parts, ",")
}

func (s *session) openWatch(k int, b box) (*watchStream, error) {
	ctx, cancel := context.WithCancel(context.Background())
	ws := &watchStream{ready: make(chan struct{}), done: make(chan struct{}), cancel: cancel}
	u := s.url("/watch") + "?" + url.Values{
		"k": {strconv.Itoa(k)}, "lo": {joinFloats(b.Lo)}, "hi": {joinFloats(b.Hi)},
	}.Encode()
	req, err := http.NewRequestWithContext(ctx, "GET", u, nil)
	if err != nil {
		cancel()
		return nil, err
	}
	c := newConn()
	resp, err := c.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("watch: status %d", resp.StatusCode)
	}
	go func() {
		defer close(ws.done)
		defer c.CloseIdleConnections()
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 64<<20)
		event := ""
		readySent := false
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				event = line[len("event: "):]
			case strings.HasPrefix(line, "data: ") && event == "region":
				at := time.Now()
				var ev struct {
					Generation uint64     `json:"generation"`
					Initial    bool       `json:"initial"`
					Result     resultJSON `json:"result"`
				}
				err := json.Unmarshal([]byte(line[len("data: "):]), &ev)
				ws.mu.Lock()
				if err != nil && ws.err == nil {
					ws.err = fmt.Errorf("watch event: %w", err)
				}
				ws.events = append(ws.events, eventRec{gen: ev.Generation, at: at, initial: ev.Initial, res: ev.Result})
				ws.mu.Unlock()
				if !readySent {
					close(ws.ready)
					readySent = true
				}
			case strings.HasPrefix(line, "data: ") && event == "error":
				ws.mu.Lock()
				if ws.err == nil {
					ws.err = fmt.Errorf("watch error event: %s", line)
				}
				ws.mu.Unlock()
			}
		}
		if !readySent {
			close(ws.ready)
		}
	}()
	select {
	case <-ws.ready:
		return ws, nil
	case <-time.After(60 * time.Second):
		cancel()
		<-ws.done
		return nil, fmt.Errorf("watch: no initial event within 60s")
	}
}

// close ends the stream and returns what it recorded.
func (ws *watchStream) close() ([]eventRec, error) {
	ws.cancel()
	<-ws.done
	ws.mu.Lock()
	defer ws.mu.Unlock()
	return ws.events, ws.err
}

// runOpen replays the open-loop schedule on one connection while a
// second holds the /watch stream. Ops acks and approximate solves are
// timed from their due time, so a stall also delays — and is charged
// to — every request queued behind it. Exact solves are timed from
// their send, like the closed-loop ones: from the due time they would
// mostly measure their wait behind this one connection's WAL fsyncs,
// which apply_* already reports.
func (s *session) runOpen(w workload, in inputs, ws *watchStream, seconds float64) *loadResult {
	res := &loadResult{mirror: newMirror(in.pts, s.gen)}
	c := newConn()
	defer c.CloseIdleConnections()
	ctx := context.Background()
	start := time.Now()
	for _, it := range in.sched {
		if it.due > seconds {
			break
		}
		due := start.Add(time.Duration(it.due * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		res.lags = append(res.lags, time.Since(due))
		switch it.kind {
		case kindOps:
			ops := res.mirror.applyBatch(it.ops)
			body, _ := json.Marshal(struct {
				Ops []opSpec `json:"ops"`
			}{ops})
			var resp opsResp
			_, err := call(ctx, c, "POST", s.url("/ops"), body, &resp)
			now := time.Now()
			if err == nil && (resp.Generation != res.mirror.gen || resp.Applied != len(ops)) {
				err = fmt.Errorf("ops: daemon at generation %d applied %d, mirror expects %d and %d",
					resp.Generation, resp.Applied, res.mirror.gen, len(ops))
			}
			if err != nil {
				res.errs = append(res.errs, err)
				continue
			}
			res.applies = append(res.applies, applyRec{gen: resp.Generation, lat: now.Sub(due), ackAt: now})
		case kindApprox:
			q, _ := json.Marshal(queryJSON{K: w.K, Lo: it.reg.Lo, Hi: it.reg.Hi})
			var resp approxResp
			_, err := call(ctx, c, "POST", s.url("/solve?approx=1"), q, &resp)
			if err != nil {
				res.errs = append(res.errs, err)
				continue
			}
			res.approx = append(res.approx, approxRec{gen: resp.Generation, lat: time.Since(due), verts: resp.Vertices})
		case kindExact:
			rec, err := s.solveOnce(ctx, c, w.K, it.reg)
			if err != nil {
				res.errs = append(res.errs, err)
				continue
			}
			res.solves = append(res.solves, rec)
		}
	}
	res.window = time.Since(start)
	// Give the last batches' events time to arrive before closing.
	time.Sleep(200 * time.Millisecond)
	events, err := ws.close()
	res.events = events
	if err != nil {
		res.errs = append(res.errs, err)
	}
	return res
}

// stats reads the dataset's counters (outside the timed window).
func (s *session) stats() (dsStats, error) {
	c := newConn()
	defer c.CloseIdleConnections()
	var st dsStats
	_, err := call(context.Background(), c, "GET", s.url("/stats"), nil, &st)
	return st, err
}

func (s *session) health() (healthz, error) {
	c := newConn()
	defer c.CloseIdleConnections()
	var h healthz
	_, err := call(context.Background(), c, "GET", "http://"+s.d.addr+"/v1/healthz", nil, &h)
	return h, err
}
