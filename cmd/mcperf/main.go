// Command mcperf records and checks performance baselines (DESIGN.md §14).
//
// Record a baseline (writes the versioned BENCH schema):
//
//	mcperf record -suite core -out BENCH_core.json
//	mcperf record -suite wire -out BENCH_wire.json -note "post zero-copy framing"
//
// Check the current tree against a committed baseline (ci.sh runs this on
// every pass). Record and check run the same configuration, so every count
// must equal the baseline's; exit status 1 on any count that differs, with a
// one-line verdict per series that also prints its ns/op, unjudged:
//
//	mcperf check -suite core -baseline BENCH_core.json
//
// Show a BENCH file:
//
//	mcperf show BENCH_core.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"mccuckoo/internal/perfgate"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "mcperf: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: mcperf record|check|show [flags] (see -h)")
	}
	switch args[0] {
	case "record":
		return runRecord(args[1:], out)
	case "check":
		return runCheck(args[1:], out)
	case "show":
		return runShow(args[1:], out)
	default:
		return fmt.Errorf("unknown subcommand %q (want record, check, or show)", args[0])
	}
}

func runSuite(name string) (*perfgate.Report, error) {
	suite, ok := perfgate.Suites[name]
	if !ok {
		names := make([]string, 0, len(perfgate.Suites))
		for n := range perfgate.Suites {
			names = append(names, n)
		}
		return nil, fmt.Errorf("unknown suite %q (have: %s)", name, strings.Join(names, ", "))
	}
	return suite(perfgate.DefaultSuiteOptions())
}

func runRecord(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("mcperf record", flag.ContinueOnError)
	suite := fs.String("suite", "", "suite to run: core or wire (required)")
	outPath := fs.String("out", "", "output BENCH file (required)")
	note := fs.String("note", "", "free-form note appended to the report")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *suite == "" || *outPath == "" {
		return fmt.Errorf("record: -suite and -out are required")
	}
	r, err := runSuite(*suite)
	if err != nil {
		return err
	}
	if *note != "" {
		r.Notes = append(r.Notes, *note)
	}
	if err := r.WriteFile(*outPath); err != nil {
		return err
	}
	fmt.Fprintf(out, "recorded %d series to %s (schema v%d, %s, %d CPU / GOMAXPROCS %d)\n",
		len(r.Series), *outPath, r.SchemaVersion, r.Environment.Go,
		r.Environment.CPUs, r.Environment.GOMAXPROCS)
	return nil
}

func runCheck(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("mcperf check", flag.ContinueOnError)
	suite := fs.String("suite", "", "suite to run: core or wire (required)")
	basePath := fs.String("baseline", "", "baseline BENCH file to compare against (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *suite == "" || *basePath == "" {
		return fmt.Errorf("check: -suite and -baseline are required")
	}
	baseline, err := perfgate.Load(*basePath)
	if err != nil {
		return fmt.Errorf("check: %w", err)
	}
	current, err := runSuite(*suite)
	if err != nil {
		return err
	}
	verdicts, err := perfgate.Compare(baseline, current)
	if err != nil {
		return err
	}
	for _, sv := range verdicts {
		fmt.Fprintln(out, sv.Line())
	}
	if bad := perfgate.Failing(verdicts); len(bad) > 0 {
		return fmt.Errorf("check: %d of %d series failed the gate against %s (a change that moves a count on purpose re-records it: REFRESH_BASELINE=1 ./ci.sh)",
			len(bad), len(verdicts), *basePath)
	}
	fmt.Fprintf(out, "perf gate clean: %d series vs %s (recorded %s)\n", len(verdicts), *basePath, baseline.Recorded)
	return nil
}

func runShow(args []string, out io.Writer) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: mcperf show <BENCH file>")
	}
	r, err := perfgate.Load(args[0])
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s: schema v%d, benchmark %q, recorded %s\n", args[0], r.SchemaVersion, r.Benchmark, r.Recorded)
	for _, s := range r.Series {
		fmt.Fprintf(out, "  %-30s", s.Name)
		if s.OffChip != nil {
			fmt.Fprintf(out, " offchip_reads=%v offchip_writes=%v", s.OffChip.Reads, s.OffChip.Writes)
		}
		fmt.Fprintf(out, " allocs=%v  (%d ops)\n", s.AllocsPerOp, s.Ops)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(out, "  note: %s\n", n)
	}
	return nil
}
