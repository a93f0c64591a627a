// Package perfgate is the performance-regression gate: a seeded benchmark
// suite over the public table kinds, the wire serve path and trace spans, a
// versioned on-disk result schema (the BENCH_*.json files at the repo root),
// and a comparator that fails any series whose counts differ from the
// stored baseline. The counts are the table meter's off-chip reads and
// writes per op, the paper's cost metric, and whole heap allocations per op;
// both repeat exactly for a seed, so the gate gives the same verdict on any
// host. Wall time per op is measured and printed beside each verdict, but
// nothing judges it. DESIGN.md §14 documents the baseline protocol.
package perfgate

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// SchemaVersion is the current BENCH file schema. Version 2 carried ns/op
// and the scale that selected a noise band; version 3 carries counts only.
const SchemaVersion = 3

// Report is one BENCH_*.json artifact: a set of measured series plus the
// environment that recorded it (informational: no count depends on it).
type Report struct {
	SchemaVersion int `json:"schema_version"`
	// Benchmark names the suite ("core", "wire", ...).
	Benchmark string `json:"benchmark"`
	// Recorded is the RFC 3339 date the baseline was captured.
	Recorded string `json:"recorded"`
	// Command reproduces the file.
	Command     string      `json:"command"`
	Environment Environment `json:"environment"`
	Series      []Series    `json:"series"`
	Notes       []string    `json:"notes,omitempty"`
}

// Environment is the machine block: the toolchain, CPU count and GOMAXPROCS
// a report was measured with.
type Environment struct {
	Go         string `json:"go"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	CPU        string `json:"cpu,omitempty"`
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// Series is one measured configuration: counts over every measured op of
// every rep, which the comparator judges exactly, and the fastest rep's
// wall time, which is printed but never judged or written to a file.
type Series struct {
	Name string `json:"name"`
	// Ops is how many operations the counts cover.
	Ops int64 `json:"ops"`
	// OffChip is the table meter's off-chip traffic per op. Only the
	// metered kinds (Table and Blocked) carry it: the lock layer's lookups
	// leave the meter alone (DESIGN.md §8).
	OffChip *OffChip `json:"offchip,omitempty"`
	// AllocsPerOp is heap allocations per op, compared as a whole number:
	// the fraction is allocation by other goroutines (GC, timers) that
	// wanders from run to run.
	AllocsPerOp float64 `json:"allocs_per_op"`
	// NsPerOp is the fastest rep's wall time per op.
	NsPerOp float64 `json:"-"`
}

// OffChip is off-chip bucket and stash accesses per op (internal/memmodel).
type OffChip struct {
	Reads  float64 `json:"reads_per_op"`
	Writes float64 `json:"writes_per_op"`
}

// counts lists the series' judged counts in print order.
func (s Series) counts() []count {
	cs := make([]count, 0, 3)
	if s.OffChip != nil {
		cs = append(cs, count{"offchip_reads", s.OffChip.Reads}, count{"offchip_writes", s.OffChip.Writes})
	}
	return append(cs, count{"allocs", math.Round(s.AllocsPerOp)})
}

type count struct {
	name  string
	value float64
}

// countsString renders the judged counts, e.g. "offchip_reads=1.5 allocs=0".
func (s Series) countsString() string {
	var b strings.Builder
	for i, c := range s.counts() {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%v", c.name, c.value)
	}
	return b.String()
}

// CurrentEnvironment captures the running machine's environment block.
func CurrentEnvironment() Environment {
	return Environment{
		Go:         runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		CPU:        cpuModel(),
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}

// cpuModel best-effort reads the CPU model name (linux only; empty
// elsewhere — the field is omitempty for that reason).
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
		}
	}
	return ""
}

// Find returns the named series.
func (r *Report) Find(name string) (Series, bool) {
	for _, s := range r.Series {
		if s.Name == name {
			return s, true
		}
	}
	return Series{}, false
}

// Sort orders the series by name, so recorded files diff cleanly.
func (r *Report) Sort() {
	sort.Slice(r.Series, func(i, j int) bool { return r.Series[i].Name < r.Series[j].Name })
}

// NewReport stamps a report skeleton for the named suite.
func NewReport(benchmark, command string) *Report {
	return &Report{
		SchemaVersion: SchemaVersion,
		Benchmark:     benchmark,
		Recorded:      time.Now().UTC().Format("2006-01-02"),
		Command:       command,
		Environment:   CurrentEnvironment(),
	}
}

// WriteFile writes the report as indented JSON.
func (r *Report) WriteFile(path string) error {
	r.Sort()
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// Load reads a BENCH report. A file of another schema version loads as far
// as its fields allow; Compare refuses it with a *VersionError.
func Load(path string) (*Report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("perfgate: %s: %w", path, err)
	}
	return &r, nil
}
