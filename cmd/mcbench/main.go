// Command mcbench regenerates the tables and figures of the McCuckoo paper's
// evaluation (Fig. 9–16, Tables I–III) plus the ablations described in
// DESIGN.md.
//
// Usage:
//
//	mcbench -list
//	mcbench -exp fig9
//	mcbench -exp all -capacity 147456 -runs 5 -seed 1
//
// Output is plain text: one aligned table per figure, with one column per
// scheme (Cuckoo, McCuckoo, BCHT, B-McCuckoo).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
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
	cc.RegisterCommon(fs, 0, "total slots per scheme (default 147456)")
	cc.RegisterExperiment(fs)
	var (
		exp    = fs.String("exp", "", "experiment id to run, or 'all'")
		list   = fs.Bool("list", false, "list available experiments")
		csvOut = fs.Bool("csv", false, "emit CSV instead of aligned text")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := cc.Validate(); err != nil {
		return err
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
