// Command e2ebench is the repository's end-to-end, layer-by-layer
// benchmark. It runs one workload per invocation and prints, as the last
// line of its standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// An untraced run (-trace 0) reports the end-to-end figures a user sees;
// a traced run (-trace 1) reports the per-layer figures, read from
// benchmark spans around each layer call and from the telemetry the
// program already emits. Every operation's output is checked, and a
// failed check makes the command exit 1. See README.md for the metrics
// and the layer each one isolates.
//
// Usage, from the repository root:
//
//	bash e2ebench/run.sh --workload batch-tall --seed 1 --seconds 30 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
)

const (
	// setupRepeats is how often a run sets its workload up; setup_s is
	// the median.
	setupRepeats = 3
	// minReps is the fewest measured batch operations a run reports on,
	// however short its seconds.
	minReps = 3
)

// metricSpec names a reported figure and its unit. The two lists below
// are BENCHMARK.json's end_to_end and per_layer lists, in its order.
type metricSpec struct{ name, unit string }

var e2eMetrics = []metricSpec{
	{"setup_s", "s"},
	{"e2e_s_p50", "s"},
	{"ingest_rows_per_s", "rows/s"},
	{"ingest_p50_ms", "ms"},
	{"discover_p50_ms", "ms"},
	{"alloc_mb_per_op", "MB"},
	{"peak_rss_mb", "MB"},
}

// layerMetrics are reported by every traced run; a layer the workload
// never runs reads 0.
var layerMetrics = []metricSpec{
	{"f1", "ratio"},
	{"dataset.read_csv_ms", "ms"},
	{"dataset.read_csv_alloc_mb", "MB"},
	{"core.transform_ms", "ms"},
	{"core.transform_alloc_mb", "MB"},
	{"core.transform_samples", "count"},
	{"stats.covariance_ms", "ms"},
	{"core.model_ms", "ms"},
	{"glasso.fit_ms", "ms"},
	{"glasso.sweeps", "count"},
	{"glasso.blocks", "count"},
	{"ordering.order_ms", "ms"},
	{"linalg.udu_ms", "ms"},
	{"core.generate_ms", "ms"},
	{"core.fallbacks", "count"},
	{"serve.ingest_busy_ms_mean", "ms"},
	{"core.transform_ms_mean", "ms"},
	{"core.accumulate_ms_mean", "ms"},
	{"checkpoint.wal_append_ms_mean", "ms"},
	{"checkpoint.save_ms_mean", "ms"},
	{"checkpoint.saves", "saves/op"},
	{"checkpoint.bytes", "bytes/op"},
	{"checkpoint.wal_bytes", "bytes/op"},
	{"serve.shed", "count"},
	{"serve.ingest_front_ms_mean", "ms"},
	{"serve.discover_busy_ms_mean", "ms"},
	{"serve.discover_front_ms_mean", "ms"},
	{"ingest_p99_ms", "ms"},
	{"discover_p90_ms", "ms"},
	{"serve.ingest_samples", "count"},
	{"serve.discover_samples", "count"},
	{"bench.unaccounted_ms", "ms"},
	{"bench.trace_overhead_pct", "%"},
}

// workload is one benchmark scenario. goroutines and conns are the load
// generator's shape, which may not exceed the CPUs.
type workload struct {
	goroutines, conns int
	run               func(ctx context.Context, seed int64, seconds float64, trace bool, scratch string, rep *report) error
}

func batchWorkload(cfg batchConfig) workload {
	return workload{goroutines: 1, run: func(ctx context.Context, seed int64, seconds float64, trace bool, _ string, rep *report) error {
		return runBatch(ctx, cfg, seed, seconds, trace, rep)
	}}
}

func serveWorkload(cfg serveConfig) workload {
	return workload{goroutines: cfg.tenants, conns: cfg.tenants, run: func(ctx context.Context, seed int64, seconds float64, trace bool, scratch string, rep *report) error {
		return runServe(ctx, cfg, seed, seconds, trace, scratch, rep)
	}}
}

// Workload sizes. The short variants keep the same shape at test scale.
var (
	tallConfig  = batchConfig{name: "batch-tall", rows: 100000, cols: 24, domain: 144, noise: 0.01}
	wideConfig  = batchConfig{name: "batch-wide", rows: 2000, cols: 128, domain: 144, noise: 0.01}
	serveMixed  = serveConfig{name: "serve-mixed", network: "alarm", tenants: 2, batches: 64, rowsPerBatch: 256, discoverEvery: 8, checkpointEvery: 16, noise: 0.01}
	tallShort   = batchConfig{name: "batch-tall-short", rows: 4000, cols: 12, domain: 144, noise: 0.01}
	wideShort   = batchConfig{name: "batch-wide-short", rows: 400, cols: 40, domain: 144, noise: 0.01}
	serveShortC = serveConfig{name: "serve-mixed-short", network: "alarm", tenants: 2, batches: 8, rowsPerBatch: 64, discoverEvery: 4, checkpointEvery: 4, noise: 0.01}
)

func workloads() map[string]workload {
	return map[string]workload{
		tallConfig.name:  batchWorkload(tallConfig),
		wideConfig.name:  batchWorkload(wideConfig),
		serveMixed.name:  serveWorkload(serveMixed),
		tallShort.name:   batchWorkload(tallShort),
		wideShort.name:   batchWorkload(wideShort),
		serveShortC.name: serveWorkload(serveShortC),
	}
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// environment stamps a run with what its figures depend on.
type environment struct {
	Workload        string  `json:"workload"`
	Seed            int64   `json:"seed"`
	Trace           bool    `json:"trace"`
	Seconds         float64 `json:"seconds"`
	GOMAXPROCS      int     `json:"gomaxprocs"`
	NumCPU          int     `json:"num_cpu"`
	GoVersion       string  `json:"go_version"`
	GOOS            string  `json:"goos"`
	GOARCH          string  `json:"goarch"`
	LoadGoroutines  int     `json:"load_goroutines"`
	LoadConnections int     `json:"load_connections"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes one benchmark invocation and returns the exit code: 0 when
// every check passed, 1 when a check failed or the run could not finish,
// 2 on bad usage.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: batch-tall, batch-wide or serve-mixed")
	seed := fs.Int64("seed", 1, "generator seed of the workload's input data")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "0 reports end-to-end figures, 1 per-layer figures from a traced run")
	scratch := fs.String("scratch", ".bench_build", "directory for the service's data files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads()[*name]
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "e2ebench: need -workload batch-tall|batch-wide|serve-mixed, -trace 0|1 and -seconds > 0\n")
		return 2
	}
	env := environment{
		Workload: *name, Seed: *seed, Trace: *trace == 1, Seconds: *seconds,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		LoadGoroutines: w.goroutines, LoadConnections: w.conns,
	}
	if err := writeLine(stdout, map[string]environment{"env": env}); err != nil {
		return 1
	}
	if w.goroutines > env.NumCPU || w.conns > env.NumCPU {
		fmt.Fprintf(stderr, "e2ebench: the load generator's %d goroutines and %d connections exceed the %d CPUs\n",
			w.goroutines, w.conns, env.NumCPU)
		return 1
	}

	rep := newReport()
	if err := w.run(context.Background(), *seed, *seconds, *trace == 1, *scratch, rep); err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	specs := e2eMetrics
	if *trace == 1 {
		specs = layerMetrics
	}
	out, err := rep.result(specs, *trace == 0)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	for _, n := range rep.notes {
		fmt.Fprintln(stderr, "e2ebench:", n)
	}
	for _, f := range rep.failures {
		fmt.Fprintln(stderr, "e2ebench: check failed:", f)
	}
	for _, s := range specs {
		fmt.Fprintf(stderr, "%-32s %14.4f %s\n", s.name, out.Metrics[s.name].Value, s.unit)
	}
	if err := writeLine(stdout, out); err != nil {
		return 1
	}
	if !out.Correct {
		return 1
	}
	return 0
}

// result selects the listed figures for the output line. A required
// figure the run did not produce is a benchmark bug; otherwise a figure
// the workload does not exercise reads 0.
func (r *report) result(specs []metricSpec, required bool) (result, error) {
	out := result{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metric, len(specs)),
	}
	for _, s := range specs {
		m, ok := r.metrics[s.name]
		switch {
		case !ok && required:
			return out, fmt.Errorf("the run did not measure %s", s.name)
		case !ok:
			m = metric{Unit: s.unit}
		case m.Unit != s.unit:
			return out, fmt.Errorf("%s measured in %s, listed in %s", s.name, m.Unit, s.unit)
		}
		out.Metrics[s.name] = m
	}
	if r.attempted == 0 {
		return out, errors.New("no operation was checked")
	}
	return out, nil
}

// writeLine prints v as one JSON line.
func writeLine(w io.Writer, v any) error {
	raw, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", raw)
	return err
}
