// Package glasso implements sparse inverse covariance estimation with the
// Graphical Lasso (Friedman, Hastie, Tibshirani 2008): block coordinate
// descent over the columns of the covariance estimate, with an inner
// L1-penalized regression solved by coordinate descent.
//
// FDX uses the resulting sparse precision matrix Θ as the undirected
// structure estimate of its tuple-pair model (paper §4.2); the penalty λ is
// the "sparsity" hyper-parameter swept in paper Table 8.
package glasso

import (
	"context"
	"fmt"
	"math"

	"fdx/internal/faults"
	"fdx/internal/fdxerr"
	"fdx/internal/linalg"
	"fdx/internal/obs"
)

// Options configures the Graphical Lasso solver.
type Options struct {
	// Lambda is the L1 penalty on off-diagonal precision entries.
	Lambda float64
	// MaxIter bounds the number of outer sweeps (default 100).
	MaxIter int
	// Tol is the convergence threshold on the mean absolute change of the
	// covariance estimate per sweep (default 1e-5).
	Tol float64
	// InnerMaxIter bounds the lasso coordinate descent iterations per
	// column (default 200).
	InnerMaxIter int
	// InnerTol is the lasso convergence threshold (default 1e-6).
	InnerTol float64
	// Workers is the number of goroutines for the screened-block fan-out
	// in Solve/SolveBlocks (0 or 1 = serial). Blocks are independent
	// problems over disjoint state, so results are bit-for-bit identical
	// at any worker count.
	// The per-column sweep itself is always serial: profiling showed the
	// column fan-out losing to one core at every p (sub-microsecond tasks
	// under channel dispatch), so worker routing at block granularity is
	// the only parallel path — more workers is never slower.
	Workers int
	// NoScreen disables the covariance-thresholding screening pass and
	// solves the whole matrix as one dense block. Screening is exact
	// (see screen.go), so this is a reference/debug escape hatch, not an
	// accuracy knob.
	NoScreen bool
	// Obs carries the optional telemetry sinks: a "glasso" stage span
	// wrapping the solve, one "glasso.block" span per screened block
	// with one "glasso-sweep" span per outer sweep beneath it, and the
	// fdx_glasso_blocks / fdx_glasso_screened_ratio gauges.
	Obs obs.Hooks
}

// defaults fills unset fields. (fdx:numeric-kernel: the exact zero value is
// the "unset" sentinel on option fields, never a computed float.)
func (o *Options) defaults() {
	if o.MaxIter == 0 {
		o.MaxIter = 100
	}
	if o.Tol == 0 {
		o.Tol = 1e-5
	}
	if o.InnerMaxIter == 0 {
		o.InnerMaxIter = 200
	}
	if o.InnerTol == 0 {
		o.InnerTol = 1e-6
	}
}

// Result holds the two estimates produced by the solver.
type Result struct {
	// Covariance is the regularized covariance estimate W ≈ Θ⁻¹.
	Covariance *linalg.Dense
	// Precision is the sparse inverse covariance Θ.
	Precision *linalg.Dense
	// Iterations is the number of outer sweeps performed.
	Iterations int
	// Converged reports whether the solver met its tolerance within
	// MaxIter sweeps; for a screened solve it is the AND across blocks
	// (worst case wins). A false value is not an error: the estimates are
	// the best available iterate, but callers that need a trustworthy Θ
	// should check (FDX surfaces it in its diagnostics and lets its
	// fallback ladder retry with more shrinkage).
	Converged bool
	// Diagnostics lists per-block outcomes when the solve was assembled
	// from screened blocks (one entry per connected component; a single
	// entry when screening found one component). Iterations above is the
	// worst-case block sweep count.
	Diagnostics []BlockDiag
}

// Solve runs the Graphical Lasso on the symmetric covariance estimate s.
func Solve(s *linalg.Dense, opts Options) (*Result, error) {
	return SolveContext(context.Background(), s, opts)
}

// SolveContext is Solve with cancellation: the context is checked once per
// outer sweep and a wrapped ctx.Err() is returned promptly on expiry. The
// solve always routes through the covariance-thresholding screen in
// blocks.go — exact Witten/Mazumder block screening — so the returned
// dense Result is the block-diagonal assembly (exact zeros off-block)
// whenever the thresholded graph disconnects, and bit-identical to the
// historical dense solver whenever it does not.
func SolveContext(ctx context.Context, s *linalg.Dense, opts Options) (*Result, error) {
	br, err := SolveBlocksContext(ctx, s, opts)
	if err != nil {
		return nil, err
	}
	return br.Dense(), nil
}

// solveFrom runs the block coordinate descent starting from the covariance
// estimate w (consumed and returned inside the Result). Scratch comes from
// the workspace pool and every sweep runs serially and allocation-free;
// parallelism lives one level up, across screened blocks (see blocks.go).
func solveFrom(ctx context.Context, s, w *linalg.Dense, opts Options) (*Result, error) {
	opts.defaults()
	k, _ := s.Dims()

	ws := getWorkspace(k)
	defer putWorkspace(ws)
	ws.s, ws.w = s, w

	iters := 0
	converged := false
	for sweep := 0; sweep < opts.MaxIter; sweep++ {
		if err := ctx.Err(); err != nil {
			return nil, fdxerr.Cancelled(err)
		}
		ssp := opts.Obs.Start("glasso-sweep")
		faults.Sleep(faults.SlowStage)
		iters = sweep + 1
		delta := ws.runSweep(opts.Lambda, opts.InnerMaxIter, opts.InnerTol)
		ssp.End()
		opts.Obs.Count(obs.MGlassoSweeps, 1)
		// Fault injection: pretend the tolerance was never met, exhausting
		// MaxIter (silent-non-convergence regression test).
		if delta/float64(k*k) < opts.Tol && !faults.Fire(faults.GlassoNoConverge) {
			converged = true
			break
		}
	}

	theta, err := precisionFrom(w, ws.betas)
	if err != nil {
		return nil, err
	}
	return &Result{Covariance: w, Precision: theta, Iterations: iters, Converged: converged}, nil
}

// precisionFrom recovers Θ from the final W and per-column lasso
// coefficients using the standard partitioned-inverse identities:
// θ_jj = 1/(w_jj − w12ᵀβ_j), θ_{−j,j} = −β_j·θ_jj.
func precisionFrom(w *linalg.Dense, betas [][]float64) (*linalg.Dense, error) {
	k, _ := w.Dims()
	theta := linalg.NewDense(k, k)
	for j := 0; j < k; j++ {
		dot := 0.0
		for a := 0; a < k; a++ {
			if a == j {
				continue
			}
			dot += w.At(a, j) * betas[j][a]
		}
		den := w.At(j, j) - dot
		if den <= 0 {
			return nil, fmt.Errorf("glasso: recovering precision: non-positive partial variance for column %d: %w", j, fdxerr.ErrSingularCovariance)
		}
		tjj := 1 / den
		theta.Set(j, j, tjj)
		for a := 0; a < k; a++ {
			if a == j {
				continue
			}
			theta.Set(a, j, -betas[j][a]*tjj)
		}
	}
	theta.Symmetrize()
	return theta, nil
}

// lassoCD solves min_β ½βᵀQβ − bᵀβ + λ‖β‖₁ by cyclic coordinate descent,
// updating beta in place. Q must be symmetric with positive diagonal.
// grad is caller-provided scratch of len(b) — lassoCD allocates nothing.
// Panics if Q is not p×p or beta/grad are not length p.
// (fdx:numeric-kernel: the exactly-unchanged-coordinate test only skips a
// no-op gradient update; the soft threshold emits exact zeros by design.)
//
// fdx:zero-alloc — verified statically by the hotalloc analyzer and at
// runtime by the AllocsPerRun gate in parallel_test.go.
func lassoCD(q *linalg.Dense, b []float64, lambda float64, beta []float64, maxIter int, tol float64, grad []float64) {
	p := len(b)
	if r, c := q.Dims(); r != p || c != p || len(beta) != p || len(grad) != p {
		panic("glasso: lassoCD operand shapes disagree")
	}
	// grad[i] = (Qβ)_i maintained incrementally.
	for i := 0; i < p; i++ {
		grad[i] = linalg.Dot(q.Row(i), beta)
	}
	for it := 0; it < maxIter; it++ {
		maxChange := 0.0
		for i := 0; i < p; i++ {
			qii := q.At(i, i)
			if qii <= 0 {
				continue
			}
			// Residual gradient excluding β_i's own contribution.
			r := b[i] - (grad[i] - qii*beta[i])
			newBeta := softThreshold(r, lambda) / qii
			d := newBeta - beta[i]
			if d != 0 {
				beta[i] = newBeta
				// Symmetric Q: row i doubles as column i.
				linalg.Axpy(d, q.Row(i), grad)
				if a := math.Abs(d); a > maxChange {
					maxChange = a
				}
			}
		}
		if maxChange < tol {
			return
		}
	}
}

// softThreshold is the lasso shrinkage operator.
//
// fdx:zero-alloc
func softThreshold(x, lambda float64) float64 {
	switch {
	case x > lambda:
		return x - lambda
	case x < -lambda:
		return x + lambda
	default:
		return 0
	}
}
