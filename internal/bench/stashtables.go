package bench

import (
	"fmt"

	"mccuckoo/internal/kv"
	"mccuckoo/internal/metrics"
	"mccuckoo/internal/workload"
)

// TableII reproduces "Stash performance for 3-hash 1-slot McCuckoo":
// stash population and negative-lookup stash-visit rate at loads near the
// single-slot limit, for maxloop 200 and 500.
func TableII(o Options) ([]*Result, error) {
	return stashTable(o, "tab2",
		"Table II — stash performance, 3-hash 1-slot McCuckoo",
		SchemeMcCuckoo,
		[]float64{0.88, 0.89, 0.90, 0.91, 0.92, 0.93})
}

// TableIII reproduces "Stash performance for 3-hash 3-slot McCuckoo" at
// loads up to 100%.
func TableIII(o Options) ([]*Result, error) {
	return stashTable(o, "tab3",
		"Table III — stash performance, 3-hash 3-slot McCuckoo",
		SchemeBMcCuckoo,
		[]float64{0.975, 0.98, 0.985, 0.99, 0.995, 1.0})
}

func stashTable(o Options, id, title string, s Scheme, loads []float64) ([]*Result, error) {
	if err := o.normalize(); err != nil {
		return nil, err
	}
	rows := [][]string{{"load", "maxloop", "stash items", "% in all items", "% visits in lookups"}}
	for _, load := range loads {
		for _, maxloop := range []int{200, 500} {
			var items, share, visits metrics.Agg
			for run := 0; run < o.Runs; run++ {
				st, err := stashPoint(s, o, run, load, maxloop)
				if err != nil {
					return nil, err
				}
				items.Add(st.items)
				share.Add(st.share)
				visits.Add(st.visitRate)
			}
			rows = append(rows, []string{
				fmt.Sprintf("%.1f%%", load*100),
				fmt.Sprintf("%d", maxloop),
				fmt.Sprintf("%.1f", items.Mean()),
				fmt.Sprintf("%.4f%%", share.Mean()*100),
				fmt.Sprintf("%.4f%%", visits.Mean()*100),
			})
		}
	}
	return []*Result{{ID: id, Title: title, Rows: rows}}, nil
}

type stashStats struct {
	items     float64 // stash population after the fill
	share     float64 // stash items / all inserted items
	visitRate float64 // negative lookups that probed the stash
}

func stashPoint(s Scheme, o Options, run int, load float64, maxloop int) (stashStats, error) {
	seed := o.runSeed(run)
	tab, err := build(s, o, seed, tableConfig{stash: true, maxLoop: maxloop})
	if err != nil {
		return stashStats{}, err
	}
	target := int(load * float64(tab.Capacity()))
	keys := workload.Unique(seed, target)
	for _, k := range keys {
		if tab.Insert(k, k+1).Status == kv.Failed {
			return stashStats{}, fmt.Errorf("bench: %s failed with unbounded stash", s)
		}
	}
	st := stashStats{
		items: float64(tab.StashLen()),
		share: float64(tab.StashLen()) / float64(target),
	}
	negatives := workload.Negative(seed, o.Queries, keys)
	probesBefore := tab.Stats().StashProbes
	for _, k := range negatives {
		if _, ok := tab.Lookup(k); ok {
			return stashStats{}, fmt.Errorf("bench: phantom hit in stash table")
		}
	}
	st.visitRate = float64(tab.Stats().StashProbes-probesBefore) / float64(len(negatives))
	return st, nil
}
