package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"testing"
	"time"

	"fdx"
	"fdx/internal/glasso"
	"fdx/internal/linalg"
	"fdx/internal/synth"
)

// kernelsReport is the JSON schema of BENCH_kernels.json: the screened
// Graphical Lasso on wide planted-block covariances, the accumulator's
// absorb throughput, and the steady-state allocation counts the zero-alloc
// kernels pin at zero.
//
// The regression gate (-compare) only judges quantities that are stable
// across machines: same-run speedup ratios (each computed from two
// measurements taken seconds apart on the same CPU) and allocation counts.
// Absolute milliseconds and rows/s are recorded for humans, never gated.
type kernelsReport struct {
	GoMaxProcs int `json:"gomaxprocs"`
	// NumCPU records the machine's core count: together with gomaxprocs it
	// keys whether the parallel-speedup gate applies (a 1-CPU runner can
	// execute workers=8, but the fan-out serializes and the ratio is
	// meaningless).
	NumCPU int  `json:"num_cpu"`
	Simd   bool `json:"simd"`
	Short  bool `json:"short"`
	// Wide measures the covariance-screened block solver on planted
	// block-structured matrices at widths the dense solver cannot touch
	// economically.
	Wide   []wideBench `json:"wide,omitempty"`
	Absorb absorbBench `json:"absorb"`
	Allocs allocsBench `json:"allocs"`
}

// wideBench measures one wide-schema size on a planted block-structured
// covariance (SPD blocks of 64, cross-block entries at most λ in
// magnitude): the historical dense path (NoScreen), the screened
// block-diagonal solve at Workers=1, and the screened solve with the
// block fan-out at Workers=8. All three run a pinned sweep budget so the
// ratios compare identical arithmetic.
type wideBench struct {
	P      int     `json:"p"`
	Lambda float64 `json:"lambda"`
	// Blocks and ScreenedRatio describe what the screening pass found:
	// the connected-component count and the fraction of precision
	// entries proved zero without arithmetic (1 − Σ|block|²/p²).
	Blocks        int     `json:"blocks"`
	ScreenedRatio float64 `json:"screened_ratio"`
	Sweeps        int     `json:"sweeps"`
	DenseMillis   float64 `json:"dense_ms"`
	// ScreenedMillis is the screened solve at Workers=1 — the screening
	// win alone, no parallelism.
	ScreenedMillis float64 `json:"screened_ms"`
	// ParallelMillis is the screened solve at Workers=8.
	ParallelMillis float64 `json:"parallel_ms"`
	// SpeedupVsDense is dense vs screened at Workers=1, both measured in
	// this run — machine-portable, gated against the baseline.
	SpeedupVsDense float64 `json:"speedup_vs_dense"`
	// SpeedupWorkers is screened Workers=1 vs Workers=8 wall clock. On a
	// multi-core run this must clear the absolute floor regardless of
	// what machine recorded the baseline (see compareKernels).
	SpeedupWorkers float64 `json:"speedup_workers"`
}

type absorbBench struct {
	Rows       int     `json:"rows"`
	Attributes int     `json:"attributes"`
	BatchRows  int     `json:"batch_rows"`
	RowsPerSec float64 `json:"rows_per_sec"`
}

// allocsBench holds steady-state allocations per operation, measured with
// testing.AllocsPerRun after warm-up so every sync.Pool is primed.
type allocsBench struct {
	// AxpyDotPerOp is allocations per fused Axpy+Dot pair.
	AxpyDotPerOp float64 `json:"axpy_dot_per_op"`
	// GlassoSweepPerOp is the marginal allocations per additional outer
	// sweep of glasso.Solve (the difference between a long and a short
	// solve divided by the extra sweeps), isolating the sweep loop from
	// per-solve setup.
	GlassoSweepPerOp float64 `json:"glasso_sweep_per_op"`
	// ScreenPerOp is allocations per covariance-screening pass into a
	// retained Partition (glasso.ScreenInto, scratch warm).
	ScreenPerOp float64 `json:"screen_per_op"`
	// ScatterPerOp is allocations per block scatter into a caller-owned
	// dense matrix (linalg.ScatterSym).
	ScatterPerOp float64 `json:"scatter_per_op"`
}

// runKernelBench measures the kernel layer, writes the JSON report to
// outPath, and — when basePath is non-empty — gates against the baseline
// report, returning non-zero on a regression.
func runKernelBench(outPath, basePath string, short bool) int {
	// Load the baseline up front: outPath and basePath may be the same
	// file ("gate against the last committed run, then refresh it"), so
	// the baseline must be read before the report is written.
	var base *kernelsReport
	if basePath != "" {
		var err error
		base, err = loadKernelsReport(basePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fdxbench:", err)
			return 1
		}
	}
	rep := kernelsReport{
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Simd:       linalg.SimdEnabled(),
		Short:      short,
	}

	reps, wps := 3, []int{256, 512, 1024}
	if short {
		reps, wps = 2, []int{256}
	}
	for _, p := range wps {
		rep.Wide = append(rep.Wide, benchWide(p, reps))
	}
	rep.Absorb = benchAbsorb(short)
	rep.Allocs = benchAllocs()

	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "fdxbench:", err)
		return 1
	}
	out = append(out, '\n')
	if err := os.WriteFile(outPath, out, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "fdxbench:", err)
		return 1
	}
	fmt.Printf("kernel benchmark: %s\n%s", outPath, out)

	if base == nil {
		return 0
	}
	failures := compareKernels(&rep, base)
	for _, f := range failures {
		fmt.Fprintln(os.Stderr, "fdxbench: REGRESSION:", f)
	}
	if len(failures) > 0 {
		return 1
	}
	fmt.Printf("compare vs %s: ok\n", basePath)
	return 0
}

// bestOf returns the fastest of reps timed runs of f — the standard defense
// against scheduler noise on shared runners.
func bestOf(reps int, f func()) time.Duration {
	best := time.Duration(0)
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		f()
		d := time.Since(t0)
		if r == 0 || d < best {
			best = d
		}
	}
	return best
}

// benchCovariance builds a deterministic well-conditioned SPD matrix of
// order p: S = GᵀG/p + I/2 for a Gaussian factor G.
func benchCovariance(p int) *linalg.Dense {
	rng := rand.New(rand.NewSource(int64(p) * 7919))
	g := linalg.NewDense(p, p)
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			g.Set(i, j, rng.NormFloat64())
		}
	}
	s := linalg.Mul(g.Transpose(), g)
	s.Scale(1 / float64(p))
	for i := 0; i < p; i++ {
		s.Add(i, i, 0.5)
	}
	s.Symmetrize()
	return s
}

// plantedCovariance builds a deterministic covariance of order p with
// known block structure: SPD diagonal blocks of blockSize (Gaussian
// GᵀG/b plus a diagonal shift large enough to dominate the cross-block
// noise), and cross-block entries uniform in (−λ/2, λ/2) — real sub-
// threshold noise the screening pass must prove irrelevant, not exact
// zeros it could shortcut on.
func plantedCovariance(p, blockSize int, lambda float64) *linalg.Dense {
	rng := rand.New(rand.NewSource(int64(p)*104729 + 17))
	s := linalg.NewDense(p, p)
	for lo := 0; lo < p; lo += blockSize {
		hi := lo + blockSize
		if hi > p {
			hi = p
		}
		b := hi - lo
		g := linalg.NewDense(b, b)
		for i := 0; i < b; i++ {
			for j := 0; j < b; j++ {
				g.Set(i, j, rng.NormFloat64())
			}
		}
		blk := linalg.Mul(g.Transpose(), g)
		blk.Scale(1 / float64(b))
		for i := 0; i < b; i++ {
			for j := 0; j < b; j++ {
				s.Set(lo+i, lo+j, blk.At(i, j))
			}
			// The shift keeps the full matrix SPD: the cross-block noise
			// has spectral norm ≈ 2·(λ/2/√3)·√p ≈ 3.7 at p=1024, λ=0.2.
			s.Add(lo+i, lo+i, 4.5)
		}
	}
	for i := 0; i < p; i++ {
		for j := i + 1; j < p; j++ {
			if i/blockSize != j/blockSize {
				v := (rng.Float64() - 0.5) * lambda
				s.Set(i, j, v)
				s.Set(j, i, v)
			}
		}
	}
	s.Symmetrize()
	return s
}

func benchWide(p, reps int) wideBench {
	const (
		lambda    = 0.2
		blockSize = 64
	)
	s := plantedCovariance(p, blockSize, lambda)
	// A pinned sweep budget with an unreachable tolerance makes every
	// variant run identical arithmetic (3 outer sweeps), so the ratios
	// measure per-sweep cost, not convergence luck. Converged=false is
	// expected and not an error.
	opts := glasso.Options{Lambda: lambda, MaxIter: 3, Tol: 1e-300}

	out := wideBench{P: p, Lambda: lambda}
	run := func(noScreen bool, workers int) func() {
		return func() {
			o := opts
			o.NoScreen = noScreen
			o.Workers = workers
			br, err := glasso.SolveBlocks(s, o)
			if err != nil {
				fmt.Fprintln(os.Stderr, "fdxbench: wide glasso:", err)
				os.Exit(1)
			}
			if !noScreen {
				out.Blocks = br.Part.NumBlocks()
				out.ScreenedRatio = br.Part.ScreenedRatio()
				out.Sweeps = br.Iterations()
			}
		}
	}
	// Warm every variant before timing (heap growth, workspace pools).
	run(true, 1)()
	run(false, 1)()
	run(false, 8)()
	dense := bestOf(reps, run(true, 1))
	screened := bestOf(reps, run(false, 1))
	par8 := bestOf(reps, run(false, 8))
	out.DenseMillis = float64(dense.Microseconds()) / 1e3
	out.ScreenedMillis = float64(screened.Microseconds()) / 1e3
	out.ParallelMillis = float64(par8.Microseconds()) / 1e3
	out.SpeedupVsDense = dense.Seconds() / screened.Seconds()
	out.SpeedupWorkers = screened.Seconds() / par8.Seconds()
	return out
}

func benchAbsorb(short bool) absorbBench {
	rows, batchRows := 100_000, 1024
	if short {
		rows = 10_000
	}
	inst := synth.Generate(synth.Config{
		Seed:              1,
		Tuples:            rows,
		Attributes:        12,
		DomainCardinality: 144,
		NoiseRate:         0.01,
	})
	rel := inst.Relation
	acc := fdx.NewAccumulator(rel.AttrNames(), fdx.Options{Seed: 1, Workers: runtime.GOMAXPROCS(0)})
	total := rel.NumRows() / batchRows
	t0 := time.Now()
	for b := 0; b < total; b++ {
		if err := acc.Add(rel.Slice(b*batchRows, (b+1)*batchRows)); err != nil {
			fmt.Fprintln(os.Stderr, "fdxbench: absorb:", err)
			os.Exit(1)
		}
	}
	sec := time.Since(t0).Seconds()
	return absorbBench{
		Rows:       total * batchRows,
		Attributes: rel.NumCols(),
		BatchRows:  batchRows,
		RowsPerSec: float64(total*batchRows) / sec,
	}
}

func benchAllocs() allocsBench {
	x := make([]float64, 1024)
	y := make([]float64, 1024)
	for i := range x {
		x[i] = float64(i)
		y[i] = float64(1024 - i)
	}
	sink := 0.0
	vecAllocs := testing.AllocsPerRun(10, func() {
		linalg.Axpy(0.5, x, y)
		sink += linalg.Dot(x, y)
	})
	_ = sink

	// Marginal allocations per extra glasso sweep: force exact sweep
	// counts with a tolerance the delta can never reach (except by
	// becoming exactly zero, i.e. the fixed point, which allocates
	// nothing either), then difference a long solve against a short one.
	s := benchCovariance(32)
	solveSweeps := func(maxIter int) (*glasso.Result, error) {
		return glasso.Solve(s, glasso.Options{Lambda: 0.1, MaxIter: maxIter, Tol: 1e-300, Workers: 1})
	}
	resShort, err1 := solveSweeps(2)
	resLong, err2 := solveSweeps(12)
	if err1 != nil || err2 != nil {
		fmt.Fprintln(os.Stderr, "fdxbench: glasso allocs:", err1, err2)
		os.Exit(1)
	}
	extra := resLong.Iterations - resShort.Iterations
	if extra <= 0 {
		extra = 1
	}
	aShort := testing.AllocsPerRun(5, func() {
		if _, err := solveSweeps(2); err != nil {
			fmt.Fprintln(os.Stderr, "fdxbench: glasso allocs:", err)
			os.Exit(1)
		}
	})
	aLong := testing.AllocsPerRun(5, func() {
		if _, err := solveSweeps(12); err != nil {
			fmt.Fprintln(os.Stderr, "fdxbench: glasso allocs:", err)
			os.Exit(1)
		}
	})
	perSweep := (aLong - aShort) / float64(extra)
	if perSweep < 0 {
		perSweep = 0
	}

	// Screening pass into a retained Partition: after the first call
	// sizes the scratch, re-screening the same width allocates nothing.
	sw := plantedCovariance(256, 64, 0.2)
	part := glasso.Screen(sw, 0.2)
	screenAllocs := testing.AllocsPerRun(10, func() { glasso.ScreenInto(part, sw, 0.2) })

	// Block scatter into a caller-owned dense matrix.
	idx := make([]int, 64)
	for i := range idx {
		idx[i] = i * 4
	}
	sub := linalg.NewDense(64, 64)
	linalg.GatherSym(sub, sw, idx)
	dst := linalg.NewDense(256, 256)
	scatterAllocs := testing.AllocsPerRun(10, func() { linalg.ScatterSym(dst, sub, idx) })

	return allocsBench{
		AxpyDotPerOp:     vecAllocs,
		GlassoSweepPerOp: perSweep,
		ScreenPerOp:      screenAllocs,
		ScatterPerOp:     scatterAllocs,
	}
}

func loadKernelsReport(path string) (*kernelsReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep kernelsReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// compareRatioSlack is how much a same-run speedup ratio may shrink versus
// the baseline before the gate fails: 10%.
const compareRatioSlack = 0.9

// compareMinMillis is the floor under the baseline's reference time (the
// dense solve for the screening ratio, the Workers=1 solve for the
// parallel ratio) for a size to participate in the gate: sub-millisecond
// measurements are dominated by timer and scheduler noise, and a ratio of
// two noisy numbers flaps regardless of slack.
const compareMinMillis = 1.0

// minParallelSpeedup is the absolute workers1-vs-workers8 floor a
// multi-core run must clear at its largest reliably-timed wide-glasso
// size — the screened block fan-out is the only remaining parallel path
// in the solver, so that is where serialization would show. Deliberately
// modest: the gate exists to catch the fan-out silently serializing, not
// to demand linear scaling. It applies whenever the CURRENT run is
// multi-core, regardless of what machine recorded the baseline, so a
// parallel regression cannot hide behind a single-core baseline.
const minParallelSpeedup = 1.05

// multiCore reports whether a run had real parallelism available.
func multiCore(r *kernelsReport) bool {
	return r.GoMaxProcs > 1 && (r.NumCPU > 1 || r.NumCPU == 0)
}

// compareKernels gates the fresh report against a baseline. Only
// machine-portable quantities are judged: speedup ratios (with 10% slack
// for noise) and steady-state allocation counts (exact — any increase is a
// regression). Sizes present in only one report — or too small to time
// reliably (see compareMinMillis) — are skipped, so a short CI run can
// gate against a full committed baseline.
func compareKernels(cur, base *kernelsReport) []string {
	var failures []string
	// The screening win (dense vs screened at Workers=1) is a same-run
	// ratio, gated with the usual slack.
	for _, bw := range base.Wide {
		if bw.DenseMillis < compareMinMillis {
			continue
		}
		for _, cw := range cur.Wide {
			if cw.P != bw.P {
				continue
			}
			if cw.SpeedupVsDense < bw.SpeedupVsDense*compareRatioSlack {
				failures = append(failures, fmt.Sprintf(
					"wide p=%d: screened-vs-dense speedup %.2fx fell more than 10%% below baseline %.2fx",
					cw.P, cw.SpeedupVsDense, bw.SpeedupVsDense))
			}
		}
	}
	// Parallel speedup needs real cores behind it before its ratio means
	// anything: workers1-vs-workers8 is gated against the baseline only
	// when BOTH runs were multi-core (keyed by gomaxprocs/num_cpu), so a
	// single-CPU runner neither flaps the gate nor launders a parallel
	// regression into the baseline. A multi-core current run additionally
	// owes an absolute speedup at the largest reliably-timed size — the
	// block fan-out must actually buy wall clock, not just avoid
	// regressing.
	if multiCore(cur) && multiCore(base) {
		for _, bw := range base.Wide {
			if bw.ScreenedMillis < compareMinMillis {
				continue
			}
			for _, cw := range cur.Wide {
				if cw.P != bw.P {
					continue
				}
				if cw.SpeedupWorkers < bw.SpeedupWorkers*compareRatioSlack {
					failures = append(failures, fmt.Sprintf(
						"wide p=%d: parallel speedup %.2fx fell more than 10%% below baseline %.2fx",
						cw.P, cw.SpeedupWorkers, bw.SpeedupWorkers))
				}
			}
		}
	}
	if multiCore(cur) {
		var largest *wideBench
		for i := range cur.Wide {
			if cur.Wide[i].ScreenedMillis >= compareMinMillis {
				largest = &cur.Wide[i]
			}
		}
		if largest != nil && largest.SpeedupWorkers < minParallelSpeedup {
			failures = append(failures, fmt.Sprintf(
				"wide p=%d: parallel speedup %.2fx on a %d-core run, want >= %.2fx",
				largest.P, largest.SpeedupWorkers, cur.GoMaxProcs, minParallelSpeedup))
		}
	}
	type allocGate struct {
		name     string
		cur, old float64
	}
	for _, g := range []allocGate{
		{"axpy_dot_per_op", cur.Allocs.AxpyDotPerOp, base.Allocs.AxpyDotPerOp},
		{"glasso_sweep_per_op", cur.Allocs.GlassoSweepPerOp, base.Allocs.GlassoSweepPerOp},
		{"screen_per_op", cur.Allocs.ScreenPerOp, base.Allocs.ScreenPerOp},
		{"scatter_per_op", cur.Allocs.ScatterPerOp, base.Allocs.ScatterPerOp},
	} {
		if g.cur > g.old {
			failures = append(failures, fmt.Sprintf(
				"allocs %s: %.1f allocs/op, baseline %.1f (alloc counts are gated exactly)",
				g.name, g.cur, g.old))
		}
	}
	return failures
}
