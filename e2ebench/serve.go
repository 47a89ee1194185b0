package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"sync"

	"fdx"
	"fdx/internal/bayesnet"
	"fdx/internal/core"
	"fdx/internal/obs"
	"fdx/internal/serve"
)

// serveConfig sizes the serve-mixed workload. One episode creates one
// session per tenant, streams every tenant's batches through it with a
// discover after every discoverEvery-th batch (and after the last), and
// deletes the sessions. Episodes repeat for the measured seconds; each
// replays the same batches, so every discover reply has one right answer.
type serveConfig struct {
	name            string
	network         string
	tenants         int
	batches         int // per tenant and episode
	rowsPerBatch    int
	discoverEvery   int
	checkpointEvery int
	noise           float64
	// mutate, when set, alters every discover reply before it is checked.
	// Tests use it to show that a wrong reply is counted as a failure.
	mutate func(*serve.DiscoverResponse)
}

// serveInput is the serve workload's generated data: per tenant, the
// batches as JSON request bodies (what the service sees) and as rows (what
// the in-process oracle absorbs).
type serveInput struct {
	names  []string
	truth  []core.FD
	rows   [][][][]string // tenant → batch → row → cell
	bodies [][][]byte     // tenant → batch → POST rows body
}

// setupServeInput samples the network for seed and encodes each tenant's
// share as JSON batches.
func setupServeInput(cfg serveConfig, seed int64) (*serveInput, error) {
	net, err := bayesnet.ByName(cfg.network)
	if err != nil {
		return nil, err
	}
	rel := net.Sample(cfg.tenants*cfg.batches*cfg.rowsPerBatch, cfg.noise, seed)
	in := &serveInput{
		names:  rel.AttrNames(),
		truth:  net.TrueFDs(),
		rows:   make([][][][]string, cfg.tenants),
		bodies: make([][][]byte, cfg.tenants),
	}
	next := 0
	for t := range in.rows {
		in.rows[t] = make([][][]string, cfg.batches)
		in.bodies[t] = make([][]byte, cfg.batches)
		for b := range in.rows[t] {
			rows := make([][]string, cfg.rowsPerBatch)
			for i := range rows {
				rows[i] = rel.Row(next)
				next++
			}
			body, err := json.Marshal(map[string]any{"seq": b + 1, "rows": rows})
			if err != nil {
				return nil, err
			}
			in.rows[t][b] = rows
			in.bodies[t][b] = body
		}
	}
	return in, nil
}

// discoverPoint reports whether a tenant discovers after absorbing its
// b-th batch (1-based).
func (cfg serveConfig) discoverPoint(b int) bool {
	return b%cfg.discoverEvery == 0 || b == cfg.batches
}

// oracle feeds each tenant's batches, in order, to an in-process
// fdx.Accumulator with the options a session created with default
// options runs under, and records the result at every discover point —
// what each discover reply must equal bit for bit.
func oracle(cfg serveConfig, in *serveInput) ([]map[int]*fdx.Result, error) {
	out := make([]map[int]*fdx.Result, cfg.tenants)
	for t := range out {
		out[t] = map[int]*fdx.Result{}
		acc := fdx.NewAccumulator(in.names, fdx.Options{})
		for b, rows := range in.rows[t] {
			rel := fdx.NewRelation("wire", in.names...)
			for _, row := range rows {
				if err := rel.AppendRow(row); err != nil {
					return nil, err
				}
			}
			if err := acc.Add(rel); err != nil {
				return nil, err
			}
			if cfg.discoverPoint(b + 1) {
				res, err := acc.Discover()
				if err != nil {
					return nil, err
				}
				out[t][b+1] = res
			}
		}
	}
	return out, nil
}

// fdxd is an in-process service on a loopback listener.
type fdxd struct {
	sv   *serve.Server
	hs   *http.Server
	url  string
	dir  string
	done chan struct{}
}

// startServer boots a service over a fresh data directory under scratch.
func startServer(cfg serveConfig, scratch string) (*fdxd, error) {
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(scratch, "fdxd-")
	if err != nil {
		return nil, err
	}
	sv, err := serve.New(serve.Config{DataDir: dir, CheckpointEvery: cfg.checkpointEvery, Metrics: fdx.NewMetrics()})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	d := &fdxd{sv: sv, hs: sv.HTTPServer(""), url: "http://" + ln.Addr().String(), dir: dir, done: make(chan struct{})}
	go func() {
		defer close(d.done)
		d.hs.Serve(ln)
	}()
	return d, nil
}

// stop drains the service, closes its listener, waits for the serving
// goroutine to return, and removes the data directory. It returns the
// drain's error: a session the service failed to checkpoint. Calling it
// again is harmless.
func (d *fdxd) stop() error {
	err := d.sv.Drain()
	d.hs.Close()
	<-d.done
	os.RemoveAll(d.dir)
	return err
}

// tenantClient is one tenant's load generator: one HTTP client holding at
// most one connection.
type tenantClient struct {
	tenant string
	http   *http.Client
}

func newTenantClient(t int) *tenantClient {
	return &tenantClient{
		tenant: "t" + strconv.Itoa(t),
		http: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}},
	}
}

// do sends one request and returns the status and body.
func (c *tenantClient) do(ctx context.Context, method, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("X-Fdx-Tenant", c.tenant)
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// expect checks a response status.
func expect(status int, raw []byte, err error, want int) error {
	if err != nil {
		return err
	}
	if status != want {
		return fmt.Errorf("status %d, want %d: %s", status, want, bytes.TrimSpace(raw))
	}
	return nil
}

func sessionID(episode, t int) string { return fmt.Sprintf("e%d-t%d", episode, t) }

// createSessions creates one session per tenant for an episode.
func createSessions(ctx context.Context, d *fdxd, clients []*tenantClient, names []string, episode int) error {
	for t, c := range clients {
		body, err := json.Marshal(map[string]any{"id": sessionID(episode, t), "attributes": names})
		if err != nil {
			return err
		}
		st, raw, err := c.do(ctx, "POST", d.url+"/v1/sessions", body)
		if err := expect(st, raw, err, http.StatusCreated); err != nil {
			return fmt.Errorf("creating session: %w", err)
		}
	}
	return nil
}

// deleteSessions removes an episode's sessions and their files.
func deleteSessions(ctx context.Context, d *fdxd, clients []*tenantClient, episode int) error {
	for t, c := range clients {
		st, raw, err := c.do(ctx, "DELETE", d.url+"/v1/sessions/"+sessionID(episode, t), nil)
		if err := expect(st, raw, err, http.StatusNoContent); err != nil {
			return fmt.Errorf("deleting session: %w", err)
		}
	}
	return nil
}

// clientLog is what one tenant's client measured in one run. Latencies
// are in seconds; a cycle is the batches between two discovers plus the
// discover that reflects them, and its gap is the part of it spent outside
// any request (checking replies and loop glue).
type clientLog struct {
	ingest, discover, cycle, gap []float64
	rows                         int
	rep                          *report
}

// episode streams one tenant's batches through its session, checking every
// acknowledgement and every discover reply against the oracle.
func (l *clientLog) episode(ctx context.Context, cfg serveConfig, d *fdxd, c *tenantClient, id string, bodies [][]byte, want map[int]*fdx.Result) {
	base := d.url + "/v1/sessions/" + id
	cycleStart := now()
	inRequests := 0.0
	for b, body := range bodies {
		t0 := now()
		st, raw, err := c.do(ctx, "POST", base+"/rows", body)
		lat := since(t0)
		if err = expect(st, raw, err, http.StatusOK); err == nil {
			err = checkAck(raw, b+1, (b+1)*cfg.rowsPerBatch)
		}
		l.rep.check(err)
		if err != nil {
			// The stream position is unknown after a failed ingest; stop
			// this episode rather than count every later batch twice.
			return
		}
		l.ingest = append(l.ingest, lat)
		l.rows += cfg.rowsPerBatch
		inRequests += lat
		if !cfg.discoverPoint(b + 1) {
			continue
		}
		t1 := now()
		st, raw, err = c.do(ctx, "POST", base+"/discover", nil)
		lat = since(t1)
		if err = expect(st, raw, err, http.StatusOK); err == nil {
			var reply serve.DiscoverResponse
			if err = json.Unmarshal(raw, &reply); err == nil {
				if cfg.mutate != nil {
					cfg.mutate(&reply)
				}
				err = diffWire(want[b+1], (b+1)*cfg.rowsPerBatch, b+1, &reply)
			}
		}
		l.rep.check(err)
		cycle := since(cycleStart)
		l.discover = append(l.discover, lat)
		l.cycle = append(l.cycle, cycle)
		l.gap = append(l.gap, cycle-inRequests-lat)
		cycleStart, inRequests = now(), 0
	}
}

// checkAck verifies an ingest acknowledgement: the batch was applied and
// the session now holds exactly the batches and rows sent so far.
func checkAck(raw []byte, batches, rows int) error {
	var ack struct {
		Applied bool `json:"applied"`
		Rows    int  `json:"rows"`
		Batches int  `json:"batches"`
	}
	if err := json.Unmarshal(raw, &ack); err != nil {
		return err
	}
	if !ack.Applied || ack.Batches != batches || ack.Rows != rows {
		return fmt.Errorf("ack %+v, want applied batch %d with %d rows", ack, batches, rows)
	}
	return nil
}

// runServe measures the serve-mixed workload: set-up (data, server,
// sessions) several times, the oracle once, then closed-loop episodes for
// the measured seconds with one client goroutine and one connection per
// tenant.
func runServe(ctx context.Context, cfg serveConfig, seed int64, seconds float64, trace bool, scratch string, rep *report) error {
	clients := make([]*tenantClient, cfg.tenants)
	for t := range clients {
		clients[t] = newTenantClient(t)
	}
	defer func() {
		for _, c := range clients {
			c.http.CloseIdleConnections()
		}
	}()

	setups := make([]float64, setupRepeats)
	var (
		in *serveInput
		d  *fdxd
	)
	for i := range setups {
		if d != nil {
			if err := d.stop(); err != nil {
				return err
			}
			d = nil
		}
		in = nil // each set-up starts from a collected heap
		runtime.GC()
		t0 := now()
		var err error
		if in, err = setupServeInput(cfg, seed); err != nil {
			return err
		}
		if d, err = startServer(cfg, scratch); err != nil {
			return err
		}
		if err := createSessions(ctx, d, clients, in.names, 0); err != nil {
			_ = d.stop() // the failed create is the error to report
			return err
		}
		setups[i] = since(t0)
	}
	// Error paths stop the service here; the measured path stops it below
	// and reports a failed drain.
	defer d.stop()
	rep.set("setup_s", median(setups), "s")

	want, err := oracle(cfg, in)
	if err != nil {
		return err
	}
	f1 := 0.0
	for t := range want {
		f1 += edgeF1(want[t][cfg.batches].FDs, in.names, in.truth)
	}
	f1 /= float64(cfg.tenants)
	rep.check(checkF1(cfg.name, seed, f1))
	rep.set("f1", f1, "ratio")

	logs := make([]*clientLog, cfg.tenants)
	for t := range logs {
		logs[t] = &clientLog{rep: newReport()}
	}
	runtime.GC()
	resetPeakRSS()
	a0 := heapAllocs()
	var measured float64
	episodes := 0
	for episode := 0; episode == 0 || measured < seconds; episode++ {
		if episode > 0 {
			if err := createSessions(ctx, d, clients, in.names, episode); err != nil {
				return err
			}
		}
		t0 := now()
		var wg sync.WaitGroup
		for t := range clients {
			wg.Add(1)
			go func(t int, id string) {
				defer wg.Done()
				logs[t].episode(ctx, cfg, d, clients[t], id, in.bodies[t], want[t])
			}(t, sessionID(episode, t))
		}
		wg.Wait()
		measured += since(t0)
		episodes++
		if err := deleteSessions(ctx, d, clients, episode); err != nil {
			return err
		}
	}
	allocs := heapAllocs() - a0

	var ingest, discover, cycle, gap []float64
	rowsPerSec := 0.0
	for _, l := range logs {
		rep.merge(l.rep)
		ingest = append(ingest, l.ingest...)
		discover = append(discover, l.discover...)
		cycle = append(cycle, l.cycle...)
		gap = append(gap, l.gap...)
		if s := sum(l.ingest); s > 0 {
			rowsPerSec += float64(l.rows) / s
		}
	}
	// A shed request already failed its client's status check.
	series := snapshot(d.sv.Metrics())
	shed := series.total(obs.MServeShed, clients)
	if err := d.stop(); err != nil {
		return err
	}
	rep.note("%s: %d episodes, %d ingest and %d discover samples in %.1fs",
		cfg.name, episodes, len(ingest), len(discover), measured)

	rep.set("e2e_s_p50", median(cycle), "s")
	rep.set("ingest_rows_per_s", rowsPerSec, "rows/s")
	rep.set("ingest_p50_ms", median(ingest)*1e3, "ms")
	rep.set("discover_p50_ms", median(discover)*1e3, "ms")
	rep.set("alloc_mb_per_op", float64(allocs)/float64(max(len(ingest), 1))/mb, "MB")
	rep.set("peak_rss_mb", peakRSSMB(), "MB")
	if !trace {
		return nil
	}

	rep.set("ingest_p99_ms", quantile(ingest, 0.99)*1e3, "ms")
	rep.set("discover_p90_ms", quantile(discover, 0.90)*1e3, "ms")
	rep.set("serve.ingest_samples", float64(len(ingest)), "count")
	rep.set("serve.discover_samples", float64(len(discover)), "count")
	ingestBusy := series.meanMS(obs.MServeIngestSeconds, clients)
	discoverBusy := series.meanMS(obs.MServeDiscoverSeconds, clients)
	rep.set("serve.ingest_busy_ms_mean", ingestBusy, "ms")
	rep.set("serve.ingest_front_ms_mean", mean(ingest)*1e3-ingestBusy, "ms")
	rep.set("serve.discover_busy_ms_mean", discoverBusy, "ms")
	rep.set("serve.discover_front_ms_mean", mean(discover)*1e3-discoverBusy, "ms")
	rep.set("core.transform_ms_mean", series.meanMS(obs.StageHist("transform"), clients), "ms")
	rep.set("core.accumulate_ms_mean", series.meanMS(obs.StageHist("accumulate"), clients), "ms")
	rep.set("checkpoint.wal_append_ms_mean", series.meanMS(obs.StageHist("wal-append"), clients), "ms")
	rep.set("checkpoint.save_ms_mean", series.meanMS(obs.StageHist("checkpoint-save"), clients), "ms")
	// Durability work per ingest request (session creation included).
	perIngest := 1 / float64(max(len(ingest), 1))
	rep.set("checkpoint.saves", series.total(obs.MCheckpointSaves, clients)*perIngest, "saves/op")
	rep.set("checkpoint.bytes", series.total(obs.MCheckpointBytes, clients)*perIngest, "bytes/op")
	rep.set("checkpoint.wal_bytes", series.total(obs.MWALBytes, clients)*perIngest, "bytes/op")
	rep.set("serve.shed", shed, "count")

	// The discover job's model stages, as means per discover.
	discovers := series.total(obs.MServeDiscovers, clients)
	perDiscover := func(stages ...string) float64 {
		total := 0.0
		for _, s := range stages {
			total += series.total(obs.StageHist(s)+"_sum", clients)
		}
		return total * 1e3 / max(discovers, 1)
	}
	rep.set("stats.covariance_ms", perDiscover("covariance"), "ms")
	rep.set("core.model_ms", perDiscover("prepare", "fit", "generate"), "ms")
	rep.set("glasso.fit_ms", perDiscover("glasso"), "ms")
	rep.set("ordering.order_ms", perDiscover("ordering"), "ms")
	rep.set("linalg.udu_ms", perDiscover("udu"), "ms")
	rep.set("core.generate_ms", perDiscover("generate"), "ms")
	rep.set("glasso.sweeps", series.total(obs.MGlassoSweeps, clients)/max(discovers, 1), "count")
	rep.set("glasso.blocks", series.last(obs.MGlassoBlocks, clients), "count")
	rep.set("core.fallbacks", series.total(obs.MFallbacks, clients)/max(discovers, 1), "count")

	rep.set("bench.unaccounted_ms", mean(gap)*1e3, "ms")
	// The service's registry is always on; the traced run attaches
	// nothing more to it, so it carries no tracing overhead.
	rep.set("bench.trace_overhead_pct", 0, "%")
	return nil
}

// series is a name-indexed registry snapshot.
type series map[string]float64

func snapshot(reg *fdx.Metrics) series {
	out := series{}
	for _, s := range reg.Snapshot() {
		out[s.Name] = s.Number()
	}
	return out
}

// total sums a series over the unlabeled name and every tenant's label.
func (s series) total(name string, clients []*tenantClient) float64 {
	t := s[name]
	for _, c := range clients {
		t += s[obs.Labeled(name, "tenant", c.tenant)]
	}
	return t
}

// last returns the value of a per-tenant gauge for the last tenant that
// set it.
func (s series) last(name string, clients []*tenantClient) float64 {
	v := s[name]
	for _, c := range clients {
		if x, ok := s[obs.Labeled(name, "tenant", c.tenant)]; ok {
			v = x
		}
	}
	return v
}

// meanMS is a histogram's mean observation across tenants, in ms.
func (s series) meanMS(hist string, clients []*tenantClient) float64 {
	n := s.total(hist+"_count", clients)
	if n < 1 {
		return 0
	}
	return s.total(hist+"_sum", clients) * 1e3 / n
}
