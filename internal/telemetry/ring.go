package telemetry

import (
	"runtime"
	"sync/atomic"
)

// Ring is the flight recorder both recorders share: a fixed-size lock-free
// ring holding the last N fixed-width records of uint64 words. The Sink
// keeps its events in one (4 words each), trace.Recorder its spans (8
// words each).
//
// Writers claim a slot with one atomic increment of the cursor and publish
// through the slot's sequence word (seqlock): the writer moves the sequence
// from even to odd with a compare-and-swap, stores the record, and makes it
// even again. Every word is its own atomic, so writers and snapshot readers
// never race, and a reader that sees the sequence odd or changed across its
// loads drops the slot. The compare-and-swap makes writers of one slot take
// turns: a writer that laps the ring while an earlier writer of the same
// slot is still mid-record waits for it instead of interleaving stores with
// it, so no reader ever sees a record built from two writers.
//
// The recorder exists for post-hoc debugging — "what were the last thousand
// operations before the stall / the failure burst" — so it deliberately
// keeps raw per-op records rather than aggregates.
type Ring struct {
	width  int    // words per record
	mask   uint64 // slots - 1
	cursor atomic.Uint64
	// words holds the slots back to back: slot i is its sequence word
	// words[i*(width+1)] followed by its record's width words. A sequence of
	// 0 marks a slot never written; odd, one mid-write.
	words []atomic.Uint64
}

// NewRing creates a ring of slots records of width words each, with slots
// rounded up to a power of two, minimum 16.
func NewRing(slots, width int) *Ring {
	size := 16
	for size < slots {
		size <<= 1
	}
	return &Ring{width: width, mask: uint64(size - 1), words: make([]atomic.Uint64, size*(width+1))}
}

// Cap returns the ring capacity in records.
func (r *Ring) Cap() int { return int(r.mask + 1) }

// slot returns record i's slot: its sequence word, then its record.
func (r *Ring) slot(i uint64) []atomic.Uint64 {
	at := int(i&r.mask) * (r.width + 1)
	return r.words[at : at+r.width+1]
}

// Add records rec, which must hold exactly the ring's record width in
// words. Any number of writers may add concurrently.
//
//mcvet:hotpath
func (r *Ring) Add(rec []uint64) {
	s := r.slot(r.cursor.Add(1) - 1)
	for {
		seq := s[0].Load()
		if seq&1 == 0 && s[0].CompareAndSwap(seq, seq+1) {
			break
		}
		runtime.Gosched() // a writer a full lap behind still holds the slot
	}
	for j, w := range rec {
		s[1+j].Store(w)
	}
	s[0].Add(1) // even: stable
}

// Each calls fn with every whole record, oldest first, skipping slots
// never written or caught mid-write. It visits at most Cap() records, fewer
// when the ring has not filled or writers tore slots during the read. rec
// is reused between calls; fn must copy what it keeps.
func (r *Ring) Each(fn func(rec []uint64)) {
	n := r.cursor.Load()
	start := n - min(n, r.mask+1)
	rec := make([]uint64, r.width)
	for i := start; i < n; i++ {
		s := r.slot(i)
		seq := s[0].Load()
		if seq == 0 || seq&1 != 0 {
			continue // never written, or mid-write
		}
		for j := range rec {
			rec[j] = s[1+j].Load()
		}
		if s[0].Load() != seq {
			continue // torn by a wrap during the read
		}
		fn(rec)
	}
}

// Len returns how many records a read would visit at most: the records
// added, up to Cap().
func (r *Ring) Len() int { return int(min(r.cursor.Load(), r.mask+1)) }
