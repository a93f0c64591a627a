package perfgate

import (
	"errors"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// fixtureReport builds a synthetic baseline.
func fixtureReport(series ...Series) *Report {
	r := NewReport("fixture", "test", "a synthetic baseline")
	r.Series = append(r.Series, series...)
	return r
}

// meteredSeries builds a Table/Blocked-shaped series, unmeteredSeries a
// lock-layer or wire one.
func meteredSeries(name string, reads, writes, allocs float64) Series {
	return Series{Name: name, Ops: 1000, OffChip: &OffChip{reads, writes}, AllocsPerOp: allocs, NsPerOp: 50}
}

func unmeteredSeries(name string, allocs float64) Series {
	return Series{Name: name, Ops: 1000, AllocsPerOp: allocs, NsPerOp: 50}
}

func verdictOf(t *testing.T, vs []SeriesVerdict, name string) SeriesVerdict {
	t.Helper()
	for _, sv := range vs {
		if sv.Name == name {
			return sv
		}
	}
	t.Fatalf("no verdict for series %q", name)
	return SeriesVerdict{}
}

// TestCompareVerdicts exercises every classification on synthetic fixtures:
// identical counts, an off-chip count moved by 0.0001 in either direction
// (the extra bucket read the gate exists to catch, and a saving that was
// not re-recorded), a series that lost its meter, a missing series and a
// new one. ns/op differs wildly and is never judged.
func TestCompareVerdicts(t *testing.T) {
	base := fixtureReport(
		meteredSeries("t/same", 1.5195, 0.25, 0),
		meteredSeries("t/reads_up", 1.5195, 0, 0),
		meteredSeries("t/writes_down", 1.5195, 0.25, 0),
		meteredSeries("t/unmetered", 1.5195, 0, 0),
		unmeteredSeries("t/missing", 0),
	)
	same := meteredSeries("t/same", 1.5195, 0.25, 0)
	same.NsPerOp = 5000
	cur := fixtureReport(
		same,
		meteredSeries("t/reads_up", 1.5196, 0, 0),
		meteredSeries("t/writes_down", 1.5195, 0.2499, 0),
		unmeteredSeries("t/unmetered", 0),
		unmeteredSeries("t/new", 7),
	)

	vs, err := Compare(base, cur)
	if err != nil {
		t.Fatalf("Compare: %v", err)
	}
	for name, want := range map[string]Verdict{
		"t/same":        VerdictSame,
		"t/reads_up":    VerdictChanged,
		"t/writes_down": VerdictChanged,
		"t/unmetered":   VerdictChanged,
		"t/missing":     VerdictMissing,
		"t/new":         VerdictNew,
	} {
		if got := verdictOf(t, vs, name).Verdict; got != want {
			t.Errorf("%s classified %v, want %v", name, got, want)
		}
	}

	// The gate fails exactly on the changed and missing series.
	var bad []string
	for _, sv := range Failing(vs) {
		bad = append(bad, sv.Name)
	}
	slices.Sort(bad)
	if want := []string{"t/missing", "t/reads_up", "t/unmetered", "t/writes_down"}; !slices.Equal(bad, want) {
		t.Fatalf("Failing = %v, want %v", bad, want)
	}

	if got, want := verdictOf(t, vs, "t/reads_up").Line(),
		"CHANGED   t/reads_up                     offchip_reads=1.5195 offchip_writes=0 allocs=0 -> offchip_reads=1.5196 offchip_writes=0 allocs=0  50.0 ns/op"; got != want {
		t.Errorf("changed line:\n got %q\nwant %q", got, want)
	}
}

// TestCompareZeroAllocPromise: allocations are compared as whole numbers per
// op. A series recorded allocation-free fails as soon as it allocates once
// per op, and so does any other count that gains one allocation; the
// fraction other goroutines add (3.002 vs 3.004 over loopback) is not a
// change.
func TestCompareZeroAllocPromise(t *testing.T) {
	for _, tc := range []struct {
		base, cur float64
		want      Verdict
	}{
		{0, 0.002, VerdictSame},
		{0, 1, VerdictChanged},
		{3.002, 3.004, VerdictSame},
		{3, 4, VerdictChanged},
		{6.022, 5.998, VerdictSame},
	} {
		vs, err := Compare(fixtureReport(unmeteredSeries("wire/rtt/batch_get/n=64", tc.base)),
			fixtureReport(unmeteredSeries("wire/rtt/batch_get/n=64", tc.cur)))
		if err != nil {
			t.Fatalf("Compare: %v", err)
		}
		if got := vs[0].Verdict; got != tc.want {
			t.Errorf("allocs %v -> %v classified %v, want %v", tc.base, tc.cur, got, tc.want)
		}
		if fails := len(Failing(vs)) == 1; fails != (tc.want == VerdictChanged) {
			t.Errorf("allocs %v -> %v: gate fails %v", tc.base, tc.cur, fails)
		}
	}
}

// TestCompareSchemaVersionMismatch: comparing across schema versions is
// refused with a typed error rather than producing nonsense verdicts; a
// version-2 (ns/op) baseline cannot be judged by counts.
func TestCompareSchemaVersionMismatch(t *testing.T) {
	base := fixtureReport(unmeteredSeries("a", 0))
	base.SchemaVersion = 2
	cur := fixtureReport(unmeteredSeries("a", 0))

	_, err := Compare(base, cur)
	var ve *VersionError
	if !errors.As(err, &ve) {
		t.Fatalf("Compare returned %v, want *VersionError", err)
	}
	if ve.BaselineVersion != 2 || ve.CurrentVersion != SchemaVersion {
		t.Fatalf("VersionError carries %d/%d, want 2/%d", ve.BaselineVersion, ve.CurrentVersion, SchemaVersion)
	}
}

// TestReportRoundTrip covers the loader: a report survives a write/load
// round trip with its counts exact, sorted by name, and without ns/op.
func TestReportRoundTrip(t *testing.T) {
	r := fixtureReport(unmeteredSeries("b", 3), meteredSeries("a", 1.5195, 0.0005, 0))
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := r.WriteFile(path); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got.SchemaVersion != SchemaVersion || len(got.Series) != 2 {
		t.Fatalf("round trip lost data: %+v", got)
	}
	// WriteFile sorts by name so committed baselines diff cleanly.
	if got.Series[0].Name != "a" || got.Series[1].Name != "b" {
		t.Fatalf("series not sorted: %+v", got.Series)
	}
	if a := got.Series[0]; a.OffChip == nil || *a.OffChip != (OffChip{1.5195, 0.0005}) || a.NsPerOp != 0 {
		t.Fatalf("series a loaded as %+v (offchip %+v)", a, a.OffChip)
	}
	if b := got.Series[1]; b.OffChip != nil || b.AllocsPerOp != 3 {
		t.Fatalf("series b loaded as %+v", b)
	}
	if got.Environment.CPUs < 1 || got.Environment.GOMAXPROCS < 1 {
		t.Fatalf("environment block not captured: %+v", got.Environment)
	}
	vs, err := Compare(got, r)
	if err != nil || len(Failing(vs)) != 0 {
		t.Fatalf("a loaded report does not match what was written: %v %+v", err, Failing(vs))
	}
}

// TestBaselineNotesMatchSuites checks that each committed baseline carries
// exactly the note its suite stamps, so a re-record keeps the notes.
func TestBaselineNotesMatchSuites(t *testing.T) {
	for suite, note := range map[string]string{"core": coreNote, "wire": wireNote} {
		r, err := Load(filepath.Join("..", "..", "BENCH_"+suite+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(r.Notes, []string{note}) {
			t.Errorf("BENCH_%s.json notes %q, want the %s suite's %q", suite, r.Notes, suite, note)
		}
	}
}

// TestSuitesSmoke runs both suites at a small size: series are produced,
// the metered kinds carry off-chip counts and the lock layer does not, the
// serve path and the span sites honor their zero-alloc promise, and two
// core-suite runs give identical counts, series by series.
func TestSuitesSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("suite smoke is seconds-long; skipped in -short")
	}
	o := SuiteOptions{Scales: []int{10, 100}, Ops: 2000, Reps: 2, WireOps: 50}

	core, err := CoreSuite(o)
	if err != nil {
		t.Fatalf("CoreSuite: %v", err)
	}
	if len(core.Series) != 2*4*2+2+2+6 {
		t.Fatalf("core suite produced %d series", len(core.Series))
	}
	for _, s := range core.Series {
		want := int64(4000) // Ops × Reps
		if strings.HasPrefix(s.Name, "persist/") {
			want = persistOps * 2 // whole saves and loads: persistOps × Reps
		}
		if s.NsPerOp <= 0 || s.Ops != want {
			t.Errorf("series %s: ns/op %f over %d ops", s.Name, s.NsPerOp, s.Ops)
		}
		kind, _, _ := strings.Cut(s.Name, "/")
		if metered := kind == "table" || kind == "blocked"; metered != (s.OffChip != nil) {
			t.Errorf("series %s: off-chip counts %+v", s.Name, s.OffChip)
		}
		if s.OffChip != nil && s.OffChip.Reads <= 0 && !strings.Contains(s.Name, "lookup_miss") {
			t.Errorf("series %s reads nothing off-chip: %+v", s.Name, s.OffChip)
		}
	}
	if !slices.Equal(core.Notes, []string{coreNote}) {
		t.Errorf("core suite notes %q", core.Notes)
	}
	again, err := CoreSuite(o)
	if err != nil {
		t.Fatalf("CoreSuite (second run): %v", err)
	}
	vs, err := Compare(core, again)
	if err != nil {
		t.Fatalf("Compare: %v", err)
	}
	for _, sv := range vs {
		if sv.Verdict != VerdictSame {
			t.Errorf("counts differ between two runs: %s", sv.Line())
		}
	}

	wire, err := WireSuite(o)
	if err != nil {
		t.Fatalf("WireSuite: %v", err)
	}
	if !slices.Equal(wire.Notes, []string{wireNote}) {
		t.Errorf("wire suite notes %q", wire.Notes)
	}
	for _, name := range []string{"wire/serve/get", "wire/serve/put_update", "wire/serve/del_miss",
		"trace/span/disabled", "trace/span/unsampled", "trace/span/sampled"} {
		s, ok := wire.Find(name)
		if !ok {
			t.Fatalf("wire suite missing series %s", name)
		}
		if s.AllocsPerOp != 0 {
			t.Errorf("%s allocates %v/op; it must be allocation-free", name, s.AllocsPerOp)
		}
	}
	for _, name := range []string{"wire/rtt/get", "wire/rtt/echo", "wire/pipe/get"} {
		if s, ok := wire.Find(name); !ok || s.NsPerOp <= 0 || s.OffChip != nil {
			t.Errorf("wire suite series %s: %+v, present %v", name, s, ok)
		}
	}
}
