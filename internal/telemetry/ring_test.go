package telemetry

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestRingConcurrentWritersWholeRecords: writers lap a small ring while a
// reader runs the read loop. Every word of a record a writer adds carries
// the same value, so a record the reader is handed with two different words
// was built from two writes. A torn slot needs a writer to stall mid-record
// while the others lap the ring, which one pass rarely stages; ci.sh runs
// this test 20 times under the race detector.
func TestRingConcurrentWritersWholeRecords(t *testing.T) {
	const (
		writers   = 8
		perWriter = 20_000
		width     = 6
	)
	r := NewRing(16, width)
	var torn, seen atomic.Int64
	check := func(rec []uint64) {
		seen.Add(1)
		for _, w := range rec[1:] {
			if w != rec[0] {
				if torn.Add(1) == 1 {
					t.Errorf("torn record %v", rec)
				}
				return
			}
		}
	}

	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			r.Each(check)
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rec := make([]uint64, width)
			for i := 0; i < perWriter; i++ {
				for j := range rec {
					rec[j] = uint64(w)<<32 | uint64(i+1)
				}
				r.Add(rec)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	reader.Wait()

	// Quiesced, the ring holds its last Cap() records, every one whole.
	before := seen.Load()
	r.Each(check)
	if got := seen.Load() - before; got != int64(r.Cap()) {
		t.Fatalf("quiesced ring reads %d records, want %d", got, r.Cap())
	}
	if n := torn.Load(); n != 0 {
		t.Fatalf("%d of %d records read were torn", n, seen.Load())
	}
}
