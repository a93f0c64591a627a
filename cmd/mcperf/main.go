// Command mcperf records and checks performance baselines (DESIGN.md §14).
//
// Record a baseline (full scale; writes the versioned BENCH schema):
//
//	mcperf record -suite core -out BENCH_core.json
//	mcperf record -suite wire -out BENCH_wire.json -note "post zero-copy framing"
//
// Check the current tree against a committed baseline (ci.sh runs this at
// reduced scale on every pass; exit status 1 on any regression beyond the
// per-scale noise band, with a one-line verdict per series):
//
//	mcperf check -suite core -baseline BENCH_core.json -quick
//
// Show any BENCH file (legacy pre-schema files are described with a
// warning):
//
//	mcperf show BENCH_core.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
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

// suiteFlags registers the flags shared by record and check.
func suiteFlags(fs *flag.FlagSet) (suite *string, quick *bool, ops, reps *int, scales *string, seed *uint64) {
	suite = fs.String("suite", "", "suite to run: core or wire (required)")
	quick = fs.Bool("quick", false, "reduced scale (the ci.sh gate configuration)")
	ops = fs.Int("ops", 0, "override iterations per rep")
	reps = fs.Int("reps", 0, "override rep count (best-of)")
	scales = fs.String("scales", "", "override scales, comma-separated (default 10,100,1000,10000)")
	seed = fs.Uint64("seed", 0, "override base seed (default 1)")
	return
}

func buildOptions(quick bool, ops, reps int, scales string, seed uint64) (perfgate.SuiteOptions, error) {
	o := perfgate.DefaultSuiteOptions()
	if quick {
		o = perfgate.QuickSuiteOptions()
	}
	if ops > 0 {
		o.Ops = ops
	}
	if reps > 0 {
		o.Reps = reps
	}
	if seed != 0 {
		o.Seed = seed
	}
	if scales != "" {
		o.Scales = o.Scales[:0]
		for _, p := range strings.Split(scales, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(p))
			if err != nil {
				return o, fmt.Errorf("-scales: bad value %q", p)
			}
			o.Scales = append(o.Scales, v)
		}
	}
	return o, nil
}

func runSuite(name string, o perfgate.SuiteOptions) (*perfgate.Report, error) {
	suite, ok := perfgate.Suites[name]
	if !ok {
		names := make([]string, 0, len(perfgate.Suites))
		for n := range perfgate.Suites {
			names = append(names, n)
		}
		return nil, fmt.Errorf("unknown suite %q (have: %s)", name, strings.Join(names, ", "))
	}
	return suite(o)
}

func runRecord(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("mcperf record", flag.ContinueOnError)
	suite, quick, ops, reps, scales, seed := suiteFlags(fs)
	outPath := fs.String("out", "", "output BENCH file (required)")
	note := fs.String("note", "", "free-form note appended to the report")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *suite == "" || *outPath == "" {
		return fmt.Errorf("record: -suite and -out are required")
	}
	o, err := buildOptions(*quick, *ops, *reps, *scales, *seed)
	if err != nil {
		return err
	}
	r, err := runSuite(*suite, o)
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
	suite, quick, ops, reps, scales, seed := suiteFlags(fs)
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
	o, err := buildOptions(*quick, *ops, *reps, *scales, *seed)
	if err != nil {
		return err
	}
	current, err := runSuite(*suite, o)
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
		return fmt.Errorf("check: %d of %d series failed the gate against %s (refresh deliberately with REFRESH_BASELINE=1 ./ci.sh)",
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
	var legacy *perfgate.LegacyError
	if err != nil {
		le, ok := err.(*perfgate.LegacyError)
		if !ok {
			return err
		}
		legacy = le
	}
	fmt.Fprintf(out, "%s: schema v%d, benchmark %q, recorded %s\n", args[0], r.SchemaVersion, r.Benchmark, r.Recorded)
	if legacy != nil {
		fmt.Fprintf(out, "warning: %v\n", legacy)
		return nil
	}
	for _, s := range r.Series {
		fmt.Fprintf(out, "  %-32s %10.1f ns/op  %8.3f allocs/op  (n=%d, %d x %d ops)\n",
			s.Name, s.NsPerOp, s.AllocsPerOp, s.Scale, s.Reps, s.Ops)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(out, "  note: %s\n", n)
	}
	return nil
}
