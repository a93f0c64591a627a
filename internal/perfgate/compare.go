package perfgate

import (
	"fmt"
	"slices"
)

// Verdict classifies one series of a current run against its baseline.
type Verdict int

const (
	// VerdictSame: every count equals the baseline's.
	VerdictSame Verdict = iota
	// VerdictChanged: a count differs from the baseline, in either
	// direction. Fails the gate: a change that moves a count on purpose
	// re-records the baseline in the same diff.
	VerdictChanged
	// VerdictMissing: the baseline series is absent from the current run
	// (a renamed or dropped benchmark). Fails the gate — baselines must be
	// refreshed deliberately (REFRESH_BASELINE=1), not by omission.
	VerdictMissing
	// VerdictNew: the current run has a series the baseline lacks.
	// Informational; recording the next baseline adopts it.
	VerdictNew
)

// String returns the gate log's verdict tag.
func (v Verdict) String() string {
	switch v {
	case VerdictSame:
		return "same"
	case VerdictChanged:
		return "CHANGED"
	case VerdictMissing:
		return "MISSING"
	case VerdictNew:
		return "new"
	default:
		return "unknown"
	}
}

// SeriesVerdict is the comparator's judgement of one series.
type SeriesVerdict struct {
	Name    string
	Verdict Verdict
	// Baseline and Current are the two sides' series; a missing series has
	// no Current and a new one no Baseline.
	Baseline, Current Series
}

// Line renders the one-line-per-series gate summary: the counts (baseline
// -> current where they differ) and the current run's ns/op.
func (sv SeriesVerdict) Line() string {
	switch sv.Verdict {
	case VerdictMissing:
		return fmt.Sprintf("%-9s %s (baseline %s; series absent from this run)", sv.Verdict, sv.Name, sv.Baseline.countsString())
	case VerdictChanged:
		return fmt.Sprintf("%-9s %-30s %s -> %s  %.1f ns/op", sv.Verdict, sv.Name,
			sv.Baseline.countsString(), sv.Current.countsString(), sv.Current.NsPerOp)
	}
	return fmt.Sprintf("%-9s %-30s %s  %.1f ns/op", sv.Verdict, sv.Name, sv.Current.countsString(), sv.Current.NsPerOp)
}

// VersionError reports a schema mismatch between baseline and current run;
// comparison is refused rather than guessed at.
type VersionError struct {
	BaselineVersion, CurrentVersion int
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("perfgate: schema version mismatch: baseline v%d vs current v%d; re-record the baseline (REFRESH_BASELINE=1 ./ci.sh)",
		e.BaselineVersion, e.CurrentVersion)
}

// Compare judges every baseline series against the current run, then lists
// series new in the current run. A series passes only if each of its counts
// equals the baseline's: off-chip reads and writes per op exactly, and
// allocations per op as whole numbers. It returns a *VersionError when the
// schema versions differ.
func Compare(baseline, current *Report) ([]SeriesVerdict, error) {
	if baseline.SchemaVersion != current.SchemaVersion {
		return nil, &VersionError{baseline.SchemaVersion, current.SchemaVersion}
	}
	verdicts := make([]SeriesVerdict, 0, len(baseline.Series)+4)
	for _, b := range baseline.Series {
		sv := SeriesVerdict{Name: b.Name, Baseline: b}
		c, ok := current.Find(b.Name)
		switch {
		case !ok:
			sv.Verdict = VerdictMissing
		case !slices.Equal(b.counts(), c.counts()):
			sv.Verdict, sv.Current = VerdictChanged, c
		default:
			sv.Verdict, sv.Current = VerdictSame, c
		}
		verdicts = append(verdicts, sv)
	}
	for _, c := range current.Series {
		if _, ok := baseline.Find(c.Name); !ok {
			verdicts = append(verdicts, SeriesVerdict{Name: c.Name, Verdict: VerdictNew, Current: c})
		}
	}
	return verdicts, nil
}

// Failing returns the verdicts that fail the gate (changed and missing
// series).
func Failing(verdicts []SeriesVerdict) []SeriesVerdict {
	var bad []SeriesVerdict
	for _, sv := range verdicts {
		if sv.Verdict == VerdictChanged || sv.Verdict == VerdictMissing {
			bad = append(bad, sv)
		}
	}
	return bad
}
