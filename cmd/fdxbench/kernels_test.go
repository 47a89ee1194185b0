package main

import (
	"strings"
	"testing"
)

func gateReport() *kernelsReport {
	return &kernelsReport{
		Wide: []wideBench{
			{P: 256, DenseMillis: 0.4, ScreenedMillis: 0.1, SpeedupVsDense: 4, SpeedupWorkers: 1.0},
			{P: 512, DenseMillis: 12, ScreenedMillis: 1.5, SpeedupVsDense: 8, SpeedupWorkers: 1.5},
			{P: 1024, DenseMillis: 40, ScreenedMillis: 2.5, SpeedupVsDense: 16, SpeedupWorkers: 2.0},
		},
		Allocs: allocsBench{},
	}
}

func TestCompareKernelsPassesWithinSlack(t *testing.T) {
	base := gateReport()
	cur := gateReport()
	cur.Wide[1].SpeedupVsDense = 7.4 // −7.5%, inside the 10% slack
	cur.Wide[2].SpeedupVsDense = 15
	if failures := compareKernels(cur, base); len(failures) != 0 {
		t.Fatalf("gate failed inside slack: %v", failures)
	}
}

func TestCompareKernelsFlagsRatioRegression(t *testing.T) {
	base := gateReport()
	cur := gateReport()
	cur.Wide[1].SpeedupVsDense = 4
	cur.Wide[2].SpeedupVsDense = 8
	failures := compareKernels(cur, base)
	if len(failures) != 2 {
		t.Fatalf("want 2 failures (wide p=512, wide p=1024), got %v", failures)
	}
	if !strings.Contains(failures[0], "wide p=512") || !strings.Contains(failures[1], "wide p=1024") {
		t.Fatalf("unexpected failure set: %v", failures)
	}
}

func TestCompareKernelsSkipsNoisySizes(t *testing.T) {
	base := gateReport()
	cur := gateReport()
	base.GoMaxProcs, base.NumCPU = 8, 8
	cur.GoMaxProcs, cur.NumCPU = 8, 8
	// Sub-millisecond baseline entries are timer noise and must not gate,
	// however badly their ratios move.
	cur.Wide[0].SpeedupVsDense = 0.5
	cur.Wide[0].SpeedupWorkers = 0.1
	if failures := compareKernels(cur, base); len(failures) != 0 {
		t.Fatalf("gate judged sub-millisecond sizes: %v", failures)
	}
}

func TestCompareKernelsFlagsAllocIncrease(t *testing.T) {
	base := gateReport()
	cur := gateReport()
	cur.Allocs.GlassoSweepPerOp = 2
	failures := compareKernels(cur, base)
	if len(failures) != 1 || !strings.Contains(failures[0], "glasso_sweep_per_op") {
		t.Fatalf("want exactly the alloc failure, got %v", failures)
	}
}

func TestCompareKernelsSkipsMissingSizes(t *testing.T) {
	base := gateReport()
	cur := gateReport()
	// A short CI run omits the largest sizes; the gate only judges sizes
	// present in both reports.
	cur.Wide = cur.Wide[:1]
	if failures := compareKernels(cur, base); len(failures) != 0 {
		t.Fatalf("gate judged sizes absent from the current report: %v", failures)
	}
}

func TestCompareKernelsParallelGateNeedsCoresOnBothSides(t *testing.T) {
	base := gateReport()
	cur := gateReport()
	// Terrible parallel ratio at a well-timed size, but at least one side
	// is single-core: the relative workers gate must stay out of it.
	base.Wide[1].SpeedupWorkers = 3
	cur.Wide[1].SpeedupWorkers = 0.5
	for _, procs := range [][2]int{{1, 1}, {1, 8}, {8, 1}} {
		cur.GoMaxProcs, cur.NumCPU = procs[0], procs[0]
		base.GoMaxProcs, base.NumCPU = procs[1], procs[1]
		for _, f := range compareKernels(cur, base) {
			// The relative (vs-baseline) gate needs cores on both sides.
			// The absolute floor still applies to a multi-core current run
			// — that one may fire in the {8,1} case.
			if strings.Contains(f, "below baseline") && strings.Contains(f, "parallel") {
				t.Fatalf("relative parallel gate ran at cur=%d base=%d cores: %v", procs[0], procs[1], f)
			}
			if procs[0] == 1 && strings.Contains(f, "parallel") {
				t.Fatalf("parallel gate judged a single-core run: %v", f)
			}
		}
	}
}

func TestCompareKernelsParallelGateOnMultiCore(t *testing.T) {
	base := gateReport()
	cur := gateReport()
	base.GoMaxProcs, base.NumCPU = 8, 8
	cur.GoMaxProcs, cur.NumCPU = 8, 8
	base.Wide[1].SpeedupWorkers = 3.0
	base.Wide[2].SpeedupWorkers = 3.0

	// Inside slack and above the absolute floor: clean.
	cur.Wide[1].SpeedupWorkers = 2.8
	cur.Wide[2].SpeedupWorkers = 2.8
	if failures := compareKernels(cur, base); len(failures) != 0 {
		t.Fatalf("multi-core gate failed inside slack: %v", failures)
	}
	// Fan-out silently serialized: both relative gates and the absolute
	// floor at the largest size fire.
	cur.Wide[1].SpeedupWorkers = 1.0
	cur.Wide[2].SpeedupWorkers = 1.0
	failures := compareKernels(cur, base)
	if len(failures) != 3 ||
		!strings.Contains(failures[0], "wide p=512") || !strings.Contains(failures[0], "below baseline") ||
		!strings.Contains(failures[1], "wide p=1024") || !strings.Contains(failures[1], "below baseline") ||
		!strings.Contains(failures[2], "want >= 1.05") {
		t.Fatalf("want relative + absolute parallel failures, got %v", failures)
	}
}

// TestCompareKernelsAbsoluteGateIgnoresBaselineCores pins the fix for
// parallel regressions hiding behind a single-core baseline: a
// multi-core current run owes the absolute wide-section speedup floor
// even when the committed baseline was recorded on one CPU (where every
// relative workers gate is rightly disarmed).
func TestCompareKernelsAbsoluteGateIgnoresBaselineCores(t *testing.T) {
	base := gateReport()
	cur := gateReport()
	base.GoMaxProcs, base.NumCPU = 1, 1
	cur.GoMaxProcs, cur.NumCPU = 8, 8
	base.Wide[2].SpeedupWorkers = 1.0 // recorded serialized — legitimately
	cur.Wide[2].SpeedupWorkers = 1.0  // but an 8-core run may not match it
	failures := compareKernels(cur, base)
	if len(failures) != 1 || !strings.Contains(failures[0], "want >= 1.05") {
		t.Fatalf("want exactly the absolute wide parallel failure, got %v", failures)
	}
	cur.Wide[2].SpeedupWorkers = 1.4
	if failures := compareKernels(cur, base); len(failures) != 0 {
		t.Fatalf("absolute gate fired above the floor: %v", failures)
	}
}

func TestCompareKernelsFlagsScreeningRegression(t *testing.T) {
	base := gateReport()
	cur := gateReport()
	// Screening win collapsed at a reliably-timed size.
	cur.Wide[2].SpeedupVsDense = 2
	failures := compareKernels(cur, base)
	if len(failures) != 1 || !strings.Contains(failures[0], "wide p=1024") {
		t.Fatalf("want exactly the wide screening failure, got %v", failures)
	}
	// The sub-millisecond wide size must not gate.
	cur = gateReport()
	cur.Wide[0].SpeedupVsDense = 0.5
	if failures := compareKernels(cur, base); len(failures) != 0 {
		t.Fatalf("gate judged a sub-millisecond wide size: %v", failures)
	}
}
