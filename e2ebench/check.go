package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"fdx"
	"fdx/internal/core"
	"fdx/internal/metrics"
	"fdx/internal/serve"
)

// diffFDs returns an error naming the first difference between two FD
// lists: count, order, LHS and RHS names, or the bits of Score.
func diffFDs(want, got []fdx.FD) error {
	if len(want) != len(got) {
		return fmt.Errorf("%d FDs, want %d", len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.String() != g.String() {
			return fmt.Errorf("FD %d is %q, want %q", i, g, w)
		}
		if math.Float64bits(w.Score) != math.Float64bits(g.Score) {
			return fmt.Errorf("FD %d (%s) scores %v, want %v", i, g, g.Score, w.Score)
		}
	}
	return nil
}

// diffB returns an error naming the first entry where two autoregression
// matrices differ in any bit.
func diffB(want, got [][]float64) error {
	if len(want) != len(got) {
		return fmt.Errorf("B has %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if len(want[i]) != len(got[i]) {
			return fmt.Errorf("B row %d has %d entries, want %d", i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if math.Float64bits(want[i][j]) != math.Float64bits(got[i][j]) {
				return fmt.Errorf("B[%d][%d] = %v, want %v", i, j, got[i][j], want[i][j])
			}
		}
	}
	return nil
}

// diffResult compares two discovery results on FDs and B.
func diffResult(want, got *fdx.Result) error {
	if err := diffFDs(want.FDs, got.FDs); err != nil {
		return err
	}
	return diffB(want.B, got.B)
}

// diffWire compares a discover reply from the service with the in-process
// oracle result over the same batches: FDs and B bit for bit, plus the
// stream position the reply reports.
func diffWire(want *fdx.Result, rows, batches int, got *serve.DiscoverResponse) error {
	if got.Rows != rows || got.Batches != batches {
		return fmt.Errorf("reply covers %d rows in %d batches, want %d in %d", got.Rows, got.Batches, rows, batches)
	}
	fds := make([]fdx.FD, len(got.FDs))
	for i, w := range got.FDs {
		fds[i] = fdx.FD{LHS: w.LHS, RHS: w.RHS, Score: w.Score}
	}
	if err := diffFDs(want.FDs, fds); err != nil {
		return err
	}
	return diffB(want.B, got.B)
}

// publicFDs renders core FDs over attribute indices as public FDs over
// names, the form fdx.DiscoverContext returns.
func publicFDs(fds []core.FD, names []string) []fdx.FD {
	out := make([]fdx.FD, 0, len(fds))
	for _, fd := range fds {
		p := fdx.FD{RHS: names[fd.RHS], Score: fd.Score}
		for _, x := range fd.LHS {
			p.LHS = append(p.LHS, names[x])
		}
		out = append(out, p)
	}
	return out
}

// edgeF1 scores public FDs against planted ones with the paper's edge F1
// (internal/metrics.Evaluate, directed).
func edgeF1(found []fdx.FD, names []string, truth []core.FD) float64 {
	index := make(map[string]int, len(names))
	for i, n := range names {
		index[n] = i
	}
	idx := make([]core.FD, 0, len(found))
	for _, fd := range found {
		c := core.FD{RHS: index[fd.RHS]}
		for _, l := range fd.LHS {
			c.LHS = append(c.LHS, index[l])
		}
		idx = append(idx, c)
	}
	return metrics.Evaluate(truth, idx, false).F1
}

// expectedF1JSON pins the edge F1 of each workload's discovered FDs per
// generator seed. The pipeline is deterministic, so any change to these
// values is a behaviour change, never noise. Seeds without an entry are
// held to the workload's floor.
//
//go:embed f1.json
var expectedF1JSON []byte

type f1Table struct {
	// Floor is the lowest F1 accepted for a seed without a pinned value.
	Floor map[string]float64 `json:"floor"`
	// Seeds maps workload → seed → pinned F1.
	Seeds map[string]map[string]float64 `json:"seeds"`
}

// checkF1 holds a workload's F1 at the given seed to its pinned value, or
// to the workload's floor when the seed has none.
func checkF1(workload string, seed int64, f1 float64) error {
	var tab f1Table
	if err := json.Unmarshal(expectedF1JSON, &tab); err != nil {
		return fmt.Errorf("f1.json: %w", err)
	}
	if want, ok := tab.Seeds[workload][strconv.FormatInt(seed, 10)]; ok {
		// Pinned values are written to 12 decimals; any larger gap is a
		// changed FD set, not rounding.
		if math.Abs(want-f1) > 1e-12 {
			return fmt.Errorf("f1 %s at seed %d, pinned %s", formatF1(f1), seed, formatF1(want))
		}
		return nil
	}
	floor, ok := tab.Floor[workload]
	if !ok {
		return fmt.Errorf("f1.json has no floor for workload %s", workload)
	}
	if f1 < floor {
		return fmt.Errorf("f1 %s at seed %d is below the floor %s", formatF1(f1), seed, formatF1(floor))
	}
	return nil
}

// formatF1 renders an F1 value to the 12 decimals f1.json pins.
func formatF1(f float64) string { return strconv.FormatFloat(f, 'f', 12, 64) }
