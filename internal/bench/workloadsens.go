package bench

import (
	"mccuckoo/internal/metrics"
	"mccuckoo/internal/workload"
)

// ExtWorkloadSensitivity empirically validates the dataset substitution
// documented in DESIGN.md §3: the paper evaluates on DocWords (NYTimes
// DocID‖WordID pairs with Zipf-skewed document popularity); this repository
// defaults to a uniform unique-key stream. Since cuckoo behaviour depends
// only on hashed key positions, the two workloads must produce the same
// curves — this experiment runs the Fig. 9 kick-out sweep under both and
// reports them side by side.
func ExtWorkloadSensitivity(o Options) ([]*Result, error) {
	if err := o.normalize(); err != nil {
		return nil, err
	}
	schemes := []Scheme{SchemeCuckoo, SchemeMcCuckoo}
	kinds := []struct {
		name string
		gen  func(seed uint64, n int) ([]uint64, error)
	}{
		{"uniform", uniqueKeys},
		{"docwords", func(seed uint64, n int) ([]uint64, error) {
			// NYTimes-ish shape: ~300k docs, ~102k-word vocabulary.
			return workload.DocWords(seed, n, 300_000, 102_000)
		}},
	}
	series := make([]*metrics.Series, 0, len(schemes)*len(kinds))
	for _, s := range schemes {
		loads := loadsFor(s, StandardLoads)
		for _, kind := range kinds {
			sr := metrics.NewSeries(s.String() + "/" + kind.name)
			series = append(series, sr)
			for run := 0; run < o.Runs; run++ {
				points, err := insertSweepKeys(s, o, run, loads, tableConfig{}, kind.gen)
				if err != nil {
					return nil, err
				}
				for _, p := range points {
					sr.Add(p.load*100, p.kicks)
				}
			}
		}
	}
	return []*Result{{
		ID: "ext-workload",
		Table: &metrics.Table{
			Title:  "Extension — kick-outs per insertion under uniform vs DocWords-shaped keys",
			XLabel: "load",
			XFmt:   "%.0f%%",
			YFmt:   "%.4f",
			Series: series,
		},
		Notes: []string{"matching columns validate the dataset substitution of DESIGN.md §3: hashed keys erase workload shape"},
	}}, nil
}
