// Command mcbench regenerates the tables and figures of the McCuckoo paper's
// evaluation (Fig. 9–16, Tables I–III) plus the ablations described in
// DESIGN.md, and — in concurrent mode — sweeps wall-clock throughput of the
// sharded table against the one-lock Concurrent table.
//
// Usage:
//
//	mcbench -list
//	mcbench -exp fig9
//	mcbench -exp all -capacity 147456 -runs 5 -seed 1
//	mcbench -mode concurrent -goroutines 1,2,4,8 -shards 4,16 -ops 600000
//	mcbench -mode concurrent -batch 0
//
// Output is plain text: one aligned table per figure, with one column per
// scheme (Cuckoo, McCuckoo, BCHT, B-McCuckoo); concurrent mode prints one
// throughput column per table variant plus per-shard statistics.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"mccuckoo/internal/bench"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "mcbench: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("mcbench", flag.ContinueOnError)
	var cc bench.CLIConfig
	cc.RegisterCommon(fs, 0, "total slots per scheme (default 147456; concurrent mode: 196608)")
	cc.RegisterExperiment(fs)
	var (
		mode       = fs.String("mode", "paper", "benchmark mode: 'paper' (figure reproduction) or 'concurrent' (sharded throughput sweep)")
		exp        = fs.String("exp", "", "experiment id to run, or 'all'")
		list       = fs.Bool("list", false, "list available experiments")
		csvOut     = fs.Bool("csv", false, "emit CSV instead of aligned text")
		goroutines = fs.String("goroutines", "", "concurrent mode: goroutine counts to sweep (default 1,2,4,8)")
		shards     = fs.String("shards", "", "concurrent mode: shard counts to sweep, powers of two (default 4,16)")
		ops        = fs.Int("ops", 0, "concurrent mode: mixed ops replayed per configuration (default 600000)")
		batch      = fs.Int("batch", 64, "concurrent mode: batch size for the sharded batched series (0 disables it)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := cc.Validate(); err != nil {
		return err
	}

	switch *mode {
	case "paper", "":
	case "concurrent":
		return runConcurrent(out, cc.Capacity, *ops, *batch, cc.Seed, *goroutines, *shards, *csvOut)
	default:
		return fmt.Errorf("unknown mode %q (use 'paper' or 'concurrent')", *mode)
	}

	if *list || *exp == "" {
		fmt.Fprintln(out, "available experiments:")
		for _, e := range bench.Experiments {
			fmt.Fprintf(out, "  %-14s %s\n", e.ID, e.Desc)
		}
		fmt.Fprintln(out, "  all            run everything")
		if *exp == "" && !*list {
			return fmt.Errorf("no experiment selected (use -exp)")
		}
		return nil
	}

	o := cc.Options()

	var selected []bench.Experiment
	if *exp == "all" {
		selected = bench.Experiments
	} else {
		e, ok := bench.Find(*exp)
		if !ok {
			return fmt.Errorf("unknown experiment %q (use -list)", *exp)
		}
		selected = []bench.Experiment{e}
	}

	fmt.Fprintf(out, "mcbench: capacity=%d runs=%d maxloop=%d queries=%d seed=%d\n\n",
		o.Capacity, o.Runs, o.MaxLoop, o.Queries, o.Seed)
	for _, e := range selected {
		start := time.Now()
		results, err := e.Run(o)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		for _, r := range results {
			if *csvOut {
				fmt.Fprintf(out, "# %s\n", r.ID)
				if err := r.RenderCSV(out); err != nil {
					return err
				}
				fmt.Fprintln(out)
			} else if err := r.Render(out); err != nil {
				return err
			}
		}
		if !*csvOut {
			fmt.Fprintf(out, "[%s completed in %v]\n\n", e.ID, time.Since(start).Round(time.Millisecond))
		}
	}
	return nil
}

// runConcurrent runs the sharded-vs-global-lock throughput sweep.
func runConcurrent(out io.Writer, capacity, ops, batch int, seed uint64, goroutines, shards string, csvOut bool) error {
	o := bench.DefaultConcurrentOptions()
	o.Seed = seed
	if capacity != 0 {
		o.Capacity = capacity
	}
	if ops != 0 {
		o.Ops = ops
	}
	o.Batch = batch
	var err error
	if o.Goroutines, err = parseIntList(goroutines, o.Goroutines); err != nil {
		return fmt.Errorf("-goroutines: %w", err)
	}
	if o.Shards, err = parseIntList(shards, o.Shards); err != nil {
		return fmt.Errorf("-shards: %w", err)
	}

	fmt.Fprintf(out, "mcbench: mode=concurrent capacity=%d ops=%d batch=%d seed=%d\n\n",
		o.Capacity, o.Ops, o.Batch, o.Seed)
	start := time.Now()
	results, err := bench.ConcurrentSweep(o)
	if err != nil {
		return err
	}
	for _, r := range results {
		if csvOut {
			fmt.Fprintf(out, "# %s\n", r.ID)
			if err := r.RenderCSV(out); err != nil {
				return err
			}
			fmt.Fprintln(out)
		} else if err := r.Render(out); err != nil {
			return err
		}
	}
	if !csvOut {
		fmt.Fprintf(out, "[concurrent sweep completed in %v]\n", time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// parseIntList parses a comma-separated list of positive ints, returning
// def when s is empty.
func parseIntList(s string, def []int) ([]int, error) {
	if s == "" {
		return def, nil
	}
	parts := strings.Split(s, ",")
	vals := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad value %q", p)
		}
		vals = append(vals, v)
	}
	return vals, nil
}
