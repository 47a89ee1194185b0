package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one reported figure with its unit, as printed in the result
// line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report accumulates a run's figures and its correctness tally. Every
// checked operation goes through check, so failed/attempted is the
// benchmark's fail rate.
type report struct {
	attempted int
	failed    int
	failures  []string
	notes     []string
	metrics   map[string]metric
}

// note records a line for the run's log.
func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

// set records a figure.
func (r *report) set(name string, value float64, unit string) {
	r.metrics[name] = metric{Value: value, Unit: unit}
}

// check counts one attempted operation and, when err is non-nil, one
// failure. The first few failure messages are kept for the log.
func (r *report) check(err error) {
	r.attempted++
	if err == nil {
		return
	}
	r.failed++
	if len(r.failures) < 8 {
		r.failures = append(r.failures, err.Error())
	}
}

// merge adds another report's tally to r.
func (r *report) merge(o *report) {
	r.attempted += o.attempted
	r.failed += o.failed
	for _, f := range o.failures {
		if len(r.failures) < 8 {
			r.failures = append(r.failures, f)
		}
	}
}

// since returns the seconds elapsed from t0.
func since(t0 time.Time) float64 {
	//fdx:lint-ignore detsource benchmark stopwatch; the reading is only reported, never fed to the pipeline
	return time.Since(t0).Seconds()
}

// now reads the wall clock for a benchmark stopwatch.
func now() time.Time {
	//fdx:lint-ignore detsource benchmark stopwatch; the reading is only reported, never fed to the pipeline
	return time.Now()
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs is not modified). It returns 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// heapAllocSample is the runtime/metrics series of cumulative heap bytes
// allocated by the process.
const heapAllocSample = "/gc/heap/allocs:bytes"

// heapAllocs returns the bytes the Go heap has allocated since the process
// started.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: heapAllocSample}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// resetPeakRSS restarts the kernel's peak-resident-set mark (VmHWM) at
// the current resident set, so a later peakRSSMB covers only what runs in
// between. Where /proc/self/clear_refs is unavailable the mark keeps
// covering the whole process.
func resetPeakRSS() {
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB returns the process's peak resident set size (VmHWM) in MB,
// or 0 where /proc is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb * 1024 / 1e6
	}
	return 0
}

const mb = 1e6
