package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"

	"fdx"
	"fdx/internal/serve"
)

// runCLI runs one invocation and decodes its last output line.
func runCLI(t *testing.T, args ...string) (int, result, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(append(args, "--scratch", t.TempDir()), &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var out result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil && code == 0 {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return code, out, stderr.String()
}

// TestShortWorkloadsPass runs every workload's short variant, untraced and
// traced, on two seeds: each must pass all of its checks and report every
// listed figure.
func TestShortWorkloadsPass(t *testing.T) {
	for _, name := range []string{tallShort.name, wideShort.name, serveShortC.name} {
		for _, seed := range []int64{1, 2} {
			for _, trace := range []int{0, 1} {
				t.Run(name+"/seed"+strconv.FormatInt(seed, 10)+"/trace"+strconv.Itoa(trace), func(t *testing.T) {
					code, out, stderr := runCLI(t, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
						"--seconds", "0.2", "--trace", strconv.Itoa(trace))
					if code != 0 || !out.Correct || out.Failed != 0 || out.Attempted < minReps {
						t.Fatalf("exit %d, result %+v\n%s", code, out, stderr)
					}
					specs := e2eMetrics
					if trace == 1 {
						specs = layerMetrics
					}
					if len(out.Metrics) != len(specs) {
						t.Errorf("%d figures, want %d", len(out.Metrics), len(specs))
					}
					for _, s := range specs {
						m, ok := out.Metrics[s.name]
						if !ok || m.Unit != s.unit {
							t.Errorf("%s: got %+v, want unit %s", s.name, m, s.unit)
						}
						if trace == 0 && !(m.Value > 0) {
							t.Errorf("end-to-end figure %s = %v, want > 0", s.name, m.Value)
						}
					}
				})
			}
		}
	}
}

// flipLowBit changes a float64 by one unit in the last place.
func flipLowBit(f float64) float64 { return math.Float64frombits(math.Float64bits(f) ^ 1) }

// TestCorruptBatchResultIsCounted shows the batch checker checks: a result
// with one FD dropped, or one B entry off by one bit, fails every measured
// operation and the run as a whole.
func TestCorruptBatchResultIsCounted(t *testing.T) {
	corruptions := map[string]func(*fdx.Result){
		"drop-fd": func(r *fdx.Result) { r.FDs = r.FDs[:len(r.FDs)-1] },
		"flip-b":  func(r *fdx.Result) { r.B[0][1] = flipLowBit(r.B[0][1]) },
	}
	for name, mutate := range corruptions {
		t.Run(name, func(t *testing.T) {
			cfg := tallShort
			cfg.mutate = mutate
			rep := newReport()
			if err := runBatch(context.Background(), cfg, 1, 0.05, true, rep); err != nil {
				t.Fatal(err)
			}
			// Every operation but the F1 check of the reference fails.
			if rep.failed != rep.attempted-1 || rep.failed < 2*minReps {
				t.Fatalf("%d of %d checks failed", rep.failed, rep.attempted)
			}
			if out, err := rep.result(e2eMetrics, true); err != nil || out.Correct {
				t.Fatalf("result %+v, %v: want an incorrect run", out, err)
			}
		})
	}
}

// TestCorruptDiscoverReplyIsCounted shows the service checker checks: a
// discover reply whose B differs in one bit, or whose FD list is reordered
// or renamed, counts as a failed operation.
func TestCorruptDiscoverReplyIsCounted(t *testing.T) {
	corruptions := map[string]func(*serve.DiscoverResponse){
		"flip-b": func(r *serve.DiscoverResponse) { r.B[1][0] = flipLowBit(r.B[1][0]) },
		"rename-rhs": func(r *serve.DiscoverResponse) {
			if len(r.FDs) > 0 {
				r.FDs[0].RHS += "x"
			} else {
				r.FDs = append(r.FDs, serve.WireFD{LHS: []string{"a"}, RHS: "b"})
			}
		},
	}
	for name, mutate := range corruptions {
		t.Run(name, func(t *testing.T) {
			cfg := serveShortC
			cfg.mutate = mutate
			rep := newReport()
			if err := runServe(context.Background(), cfg, 1, 0.05, false, t.TempDir(), rep); err != nil {
				t.Fatal(err)
			}
			// One episode: each tenant discovers batches/discoverEvery times.
			want := cfg.tenants * cfg.batches / cfg.discoverEvery
			if rep.failed < want {
				t.Fatalf("%d of %d checks failed, want at least %d", rep.failed, rep.attempted, want)
			}
			if out, err := rep.result(e2eMetrics, true); err != nil || out.Correct {
				t.Fatalf("result %+v, %v: want an incorrect run", out, err)
			}
		})
	}
}

// TestUnaccountedTimeIsSmall checks that the four layer spans of the
// traced batch chain cover its end-to-end time: what is left is glue, not
// a layer left out.
func TestUnaccountedTimeIsSmall(t *testing.T) {
	rep := newReport()
	if err := runBatch(context.Background(), tallShort, 1, 0.2, true, rep); err != nil {
		t.Fatal(err)
	}
	covered := 0.0
	for _, name := range []string{"dataset.read_csv_ms", "core.transform_ms", "stats.covariance_ms", "core.model_ms"} {
		covered += rep.metrics[name].Value
	}
	if u := rep.metrics["bench.unaccounted_ms"].Value; u > 0.05*covered+1 {
		t.Fatalf("unaccounted %.3f ms of %.3f ms in layers", u, covered)
	}
}

// TestBadUsage checks the exit codes for an unknown workload and a trace
// value other than 0 or 1.
func TestBadUsage(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", tallShort.name, "--trace", "2"},
		{"--workload", tallShort.name, "--seconds", "0"},
	} {
		if code, _, _ := runCLI(t, args...); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}

// TestCheckF1 checks the F1 gate: a pinned seed must match exactly, an
// unpinned one must reach the floor.
func TestCheckF1(t *testing.T) {
	var tab f1Table
	if err := json.Unmarshal(expectedF1JSON, &tab); err != nil {
		t.Fatal(err)
	}
	pinned := tab.Seeds[tallConfig.name]["1"]
	if err := checkF1(tallConfig.name, 1, pinned); err != nil {
		t.Errorf("pinned value rejected: %v", err)
	}
	if err := checkF1(tallConfig.name, 1, pinned-1e-9); err == nil {
		t.Error("a changed F1 at a pinned seed passed")
	}
	floor := tab.Floor[tallConfig.name]
	if err := checkF1(tallConfig.name, -7, floor); err != nil {
		t.Errorf("F1 at the floor rejected: %v", err)
	}
	if err := checkF1(tallConfig.name, -7, floor-0.01); err == nil {
		t.Error("F1 below the floor passed")
	}
	if err := checkF1("no-such-workload", -7, 1); err == nil {
		t.Error("a workload without a floor passed")
	}
}

// TestMetricListsMatchBenchmarkJSON keeps the figures the command prints in
// step with the lists BENCHMARK.json declares.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []entry, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s lists %d metrics, the command %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d] is %s (%s), the command prints %s (%s)", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", bench.EndToEnd, e2eMetrics)
	same("per_layer", bench.PerLayer, layerMetrics)
	ws := workloads()
	for _, w := range bench.Workloads {
		if _, ok := ws[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s is not a command workload", w.Name)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}, {0.99, 3.97}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Error("quantile reordered its input")
	}
}
