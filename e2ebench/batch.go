package main

import (
	"bytes"
	"context"
	"math/rand"
	"runtime/debug"
	"time"

	"fdx"
	"fdx/internal/core"
	"fdx/internal/dataset"
	"fdx/internal/obs"
	"fdx/internal/stats"
	"fdx/internal/synth"
)

// batchConfig sizes a batch workload: a synth relation from fdxgen's
// generator, discovered from its CSV bytes.
type batchConfig struct {
	name               string
	rows, cols, domain int
	noise              float64
	// mutate, when set, alters every result before it is checked. Tests
	// use it to show that a wrong result is counted as a failure.
	mutate func(*fdx.Result)
}

// batchInput is a batch workload's set-up output: the CSV bytes the
// program sees and the planted truth the checker scores against.
type batchInput struct {
	csv   []byte
	names []string
	truth []core.FD
	rows  int
}

// setupBatch generates the synth relation for seed and encodes it as CSV.
// The generator runs noise-free and addNoise applies its noise step, so
// the same seed always gives the same bytes.
func setupBatch(cfg batchConfig, seed int64) (*batchInput, error) {
	inst := synth.Generate(synth.Config{
		Tuples: cfg.rows, Attributes: cfg.cols, DomainCardinality: cfg.domain,
		Seed: seed,
	})
	addNoise(inst.Relation, inst.TrueFDs, cfg.noise, seed)
	var buf bytes.Buffer
	if err := dataset.WriteCSV(inst.Relation, &buf); err != nil {
		return nil, err
	}
	return &batchInput{
		csv:   buf.Bytes(),
		names: inst.Relation.AttrNames(),
		truth: inst.TrueFDs,
		rows:  inst.Relation.NumRows(),
	}, nil
}

// addNoise is synth.Generate's noise step: every cell of an attribute in a
// planted FD flips, with probability rate, to another value of its domain.
// It visits the attributes in ascending order; synth.Generate visits them
// in map order, so its own noisy output differs from process to process
// for the same seed, and pinned F1 values could not hold.
func addNoise(rel *dataset.Relation, truth []core.FD, rate float64, seed int64) {
	inFD := make([]bool, rel.NumCols())
	for _, fd := range truth {
		inFD[fd.RHS] = true
		for _, a := range fd.LHS {
			inFD[a] = true
		}
	}
	rng := rand.New(rand.NewSource(seed + noiseSeedOffset))
	for a, col := range rel.Columns {
		card := col.Cardinality()
		if !inFD[a] || card < 2 {
			continue
		}
		for i := 0; i < rel.NumRows(); i++ {
			if rng.Float64() < rate {
				cur := col.Code(i)
				next := int32(rng.Intn(card - 1))
				if next >= cur {
					next++
				}
				col.SetCode(i, next)
			}
		}
	}
}

// noiseSeedOffset separates the noise stream from the generator's.
const noiseSeedOffset = 0x5eed

// batchSample is one untraced CSV→FDs operation, split at the layer
// boundary a user sees: load, then discovery.
type batchSample struct {
	e2e, read, discover float64 // seconds
	alloc               uint64  // heap bytes
}

// runUntraced is one CSV→FDs operation through the public API:
// fdx.ReadCSV then fdx.DiscoverContext, with no telemetry attached.
func runUntraced(ctx context.Context, in *batchInput) (batchSample, *fdx.Result, error) {
	a0 := heapAllocs()
	t0 := now()
	rel, err := fdx.ReadCSV("bench", bytes.NewReader(in.csv))
	if err != nil {
		return batchSample{}, nil, err
	}
	read := since(t0)
	res, err := fdx.DiscoverContext(ctx, rel, fdx.Options{})
	if err != nil {
		return batchSample{}, nil, err
	}
	e2e := since(t0)
	return batchSample{e2e: e2e, read: read, discover: e2e - read, alloc: heapAllocs() - a0}, res, nil
}

// chainRun is one traced CSV→FDs operation through the layer chain that
// core.DiscoverContext composes, each layer call wrapped in a benchmark
// span.
type chainRun struct {
	res *fdx.Result
	e2e float64 // seconds
	// layers holds the per-layer figures by metric name, in the units
	// layerMetrics lists.
	layers map[string]float64
}

// runChain performs one CSV→FDs operation as fdx.ReadCSV →
// core.TransformContext → stats.StratifiedCovariance →
// core.DiscoverFromCovarianceContext, under a fresh tracer. The options are
// the zero value, which is what fdx.DiscoverContext passes for
// fdx.Options{}, so the result must match the untraced path bit for bit.
func runChain(ctx context.Context, in *batchInput) (chainRun, error) {
	tr := fdx.NewTracer()
	h := obs.Hooks{Tracer: tr}
	root := h.Start("bench.csv_to_fds")
	defer root.End()
	hr := h.Under(root)

	a0 := heapAllocs()
	rsp := hr.Start("bench.read_csv")
	rel, err := fdx.ReadCSV("bench", bytes.NewReader(in.csv))
	rsp.End()
	if err != nil {
		return chainRun{}, err
	}
	a1 := heapAllocs()
	if err := core.ValidateRelation(rel); err != nil {
		return chainRun{}, err
	}
	names := rel.AttrNames()
	var opts core.Options

	tsp := hr.Start("bench.transform")
	opts.Transform.Obs = hr.Under(tsp)
	dt, err := core.TransformContext(ctx, rel, opts.Transform)
	tsp.End()
	if err != nil {
		return chainRun{}, err
	}
	a2 := heapAllocs()
	samples := dt.Rows()

	csp := hr.Start("bench.covariance")
	s := stats.StratifiedCovariance(dt, len(names))
	csp.End()

	msp := hr.Start("bench.model")
	opts.Obs = hr.Under(msp)
	model, err := core.DiscoverFromCovarianceContext(ctx, s, names, opts)
	msp.End()
	root.End()
	if err != nil {
		return chainRun{}, err
	}

	sweeps, blocks, fallbacks := 0, 0, 0
	for _, sp := range tr.Find("glasso") {
		sweeps += intAttr(sp, "sweeps")
		blocks = intAttr(sp, "blocks")
	}
	for _, sp := range tr.Find("fit") {
		fallbacks += intAttr(sp, "fallbacks")
	}
	layers := map[string]float64{
		"dataset.read_csv_ms":       ms(rsp.Duration()),
		"dataset.read_csv_alloc_mb": float64(a1-a0) / mb,
		"core.transform_ms":         ms(tsp.Duration()),
		"core.transform_alloc_mb":   float64(a2-a1) / mb,
		"core.transform_samples":    float64(samples),
		"stats.covariance_ms":       ms(csp.Duration()),
		"core.model_ms":             ms(msp.Duration()),
		"glasso.fit_ms":             ms(spanTime(tr, "glasso")),
		"glasso.sweeps":             float64(sweeps),
		"glasso.blocks":             float64(blocks),
		"ordering.order_ms":         ms(spanTime(tr, "ordering")),
		"linalg.udu_ms":             ms(spanTime(tr, "udu")),
		"core.generate_ms":          ms(spanTime(tr, "generate")),
		"core.fallbacks":            float64(fallbacks),
		// Traced end-to-end time the four layer spans do not cover: the
		// glue between layer calls.
		"bench.unaccounted_ms": ms(root.Duration() - rsp.Duration() - tsp.Duration() - csp.Duration() - msp.Duration()),
	}
	res := &fdx.Result{Attributes: names, FDs: publicFDs(model.FDs, names), B: denseRows(model.B.At, len(names))}
	return chainRun{res: res, e2e: root.Duration().Seconds(), layers: layers}, nil
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

// denseRows copies a k×k matrix accessor into row slices, the layout of
// fdx.Result.B.
func denseRows(at func(i, j int) float64, k int) [][]float64 {
	out := make([][]float64, k)
	for i := range out {
		out[i] = make([]float64, k)
		for j := range out[i] {
			out[i][j] = at(i, j)
		}
	}
	return out
}

// spanTime sums the durations of every span with the given name.
func spanTime(tr *fdx.Tracer, name string) time.Duration {
	var d time.Duration
	for _, sp := range tr.Find(name) {
		d += sp.Duration()
	}
	return d
}

// intAttr returns a span's integer attribute, or 0 when it has none.
func intAttr(sp *fdx.Span, key string) int {
	for _, a := range sp.Attrs() {
		if a.Key != key {
			continue
		}
		if v, ok := a.Value.(int); ok {
			return v
		}
	}
	return 0
}

// runBatch measures a batch workload. The first operation is a traced
// chain run: it warms the process up and is the reference every later
// result must equal. Then, for the measured seconds, untraced operations
// run back to back; with trace set, traced chain runs alternate with them
// and the report carries the per-layer figures instead.
func runBatch(ctx context.Context, cfg batchConfig, seed int64, seconds float64, trace bool, rep *report) error {
	setups := make([]float64, setupRepeats)
	var in *batchInput
	for i := range setups {
		in = nil // each set-up starts from a released heap
		debug.FreeOSMemory()
		t0 := now()
		var err error
		if in, err = setupBatch(cfg, seed); err != nil {
			return err
		}
		setups[i] = since(t0)
	}
	rep.set("setup_s", median(setups), "s")

	debug.FreeOSMemory()
	ref, err := runChain(ctx, in)
	if err != nil {
		return err
	}
	f1 := edgeF1(ref.res.FDs, in.names, in.truth)
	rep.check(checkF1(cfg.name, seed, f1))
	rep.set("f1", f1, "ratio")

	// verify checks one operation's result against the reference.
	verify := func(res *fdx.Result) {
		if cfg.mutate != nil {
			cfg.mutate(res)
		}
		rep.check(diffResult(ref.res, res))
	}

	// Before each operation, outside the stopwatch, the heap is collected
	// and released to the OS and the kernel's peak-RSS mark restarted, so
	// every operation starts from the same state a fresh process has and
	// its peak resident set is its own.
	var plain []batchSample
	var traced []chainRun
	var rss []float64
	start := now()
	for i := 0; since(start) < seconds || len(plain) < minReps || (trace && len(traced) < minReps); i++ {
		debug.FreeOSMemory()
		resetPeakRSS()
		if trace && i%2 == 1 {
			c, err := runChain(ctx, in)
			if err != nil {
				return err
			}
			verify(c.res)
			traced = append(traced, c)
			continue
		}
		s, res, err := runUntraced(ctx, in)
		if err != nil {
			return err
		}
		rss = append(rss, peakRSSMB())
		verify(res)
		plain = append(plain, s)
	}

	var e2e, read, disc, alloc []float64
	for _, s := range plain {
		e2e = append(e2e, s.e2e)
		read = append(read, s.read)
		disc = append(disc, s.discover)
		alloc = append(alloc, float64(s.alloc))
	}
	rep.set("e2e_s_p50", median(e2e), "s")
	rep.set("ingest_p50_ms", median(read)*1e3, "ms")
	rep.set("discover_p50_ms", median(disc)*1e3, "ms")
	rep.set("ingest_rows_per_s", float64(in.rows*len(read))/sum(read), "rows/s")
	rep.set("alloc_mb_per_op", median(alloc)/mb, "MB")
	rep.set("peak_rss_mb", median(rss), "MB")
	if !trace {
		return nil
	}

	for _, spec := range layerMetrics {
		var xs []float64
		for _, c := range traced {
			if v, ok := c.layers[spec.name]; ok {
				xs = append(xs, v)
			}
		}
		if len(xs) > 0 {
			rep.set(spec.name, median(xs), spec.unit)
		}
	}
	tracedE2E := make([]float64, len(traced))
	for i, c := range traced {
		tracedE2E[i] = c.e2e
	}
	rep.set("bench.trace_overhead_pct", (median(tracedE2E)/median(e2e)-1)*100, "%")
	return nil
}
