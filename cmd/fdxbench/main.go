// Command fdxbench regenerates the tables and figures of the FDX paper's
// evaluation section.
//
// Usage:
//
//	fdxbench -exp table4          # one experiment
//	fdxbench -exp all             # the full suite
//	fdxbench -exp all -fast       # reduced sizes for a quick pass
//
// Each experiment prints the same rows/series the paper reports; see
// DESIGN.md for the experiment index and EXPERIMENTS.md for recorded runs.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"fdx/internal/experiments"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment id (table1..table9, figure2..figure7, ablation, all)")
		fast    = flag.Bool("fast", false, "reduced data sizes and timeouts")
		seed    = flag.Int64("seed", 1, "random seed for data generation")
		timeout = flag.Duration("timeout", 0, "per-method timeout (0 = scale default)")
		verbose = flag.Bool("v", false, "log per-method progress to stderr")
		format  = flag.String("format", "text", "output format: text | json")
		stream  = flag.String("stream", "", "run the checkpoint streaming benchmark and write its JSON report to this path")
		srv     = flag.String("serve", "", "run the fdxd service benchmark and write its JSON report to this path")
		kernels = flag.String("kernels", "", "run the numeric-kernel benchmark and write its JSON report to this path")
		compare = flag.String("compare", "", "with -kernels: baseline report to gate against (>10% speedup-ratio regression or any alloc increase exits non-zero)")
		short   = flag.Bool("short", false, "with -kernels: reduced sizes and repetitions for a CI smoke pass")
		shards  = flag.Bool("shards", false, "with -stream: include the shard-merge scaling section")
	)
	flag.Parse()
	if *stream != "" {
		os.Exit(runStreamBench(*stream, *seed, *fast, *shards))
	}
	if *srv != "" {
		os.Exit(runServeBench(*srv, *short))
	}
	if *kernels != "" {
		os.Exit(runKernelBench(*kernels, *compare, *short))
	}
	cfg := experiments.Config{Seed: *seed, Fast: *fast, Timeout: *timeout}
	if *verbose {
		cfg.Log = os.Stderr
	}
	names := []string{*exp}
	if *exp == "all" {
		names = experiments.Names()
	}
	for _, name := range names {
		start := time.Now()
		if *format == "json" {
			out, err := experiments.RunJSON(name, cfg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "fdxbench: %s: %v\n", name, err)
				os.Exit(1)
			}
			fmt.Println(string(out))
			continue
		}
		out, err := experiments.Run(name, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fdxbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("=== %s (completed in %v) ===\n\n%s\n", name, time.Since(start).Round(time.Millisecond), out)
	}
}
