// Package stash implements the overflow store used when cuckoo insertion
// fails. The paper's baselines keep a tiny stash that is checked on every
// failed lookup (CHS, [22]); McCuckoo instead puts a large stash in off-chip
// memory and pre-screens accesses with counters and per-bucket flags (§III.E).
// Both use this structure; only the pre-screening differs and lives with the
// tables.
//
// The stash is a chained hash directory with 4-entry bucket groups: probing
// one group costs one off-chip read, matching the paper's assumption that a
// whole bucket is retrieved per memory access.
package stash

import (
	"fmt"

	"mccuckoo/internal/hashutil"
	"mccuckoo/internal/kv"
	"mccuckoo/internal/memmodel"
)

// groupSize is the number of entries fetched by one off-chip read.
const groupSize = 4

// Stash is an off-chip overflow store. It is not safe for concurrent use;
// the owning table serializes access.
type Stash struct {
	meter    *memmodel.Meter
	seed     uint64
	dirMask  uint64
	buckets  [][]kv.Entry
	size     int
	maxItems int // 0 means unbounded
}

// New creates a stash with 2^dirBits directory slots. maxItems, if positive,
// caps the number of stored items (modelling a fixed-size on-chip stash for
// the CHS baseline; the paper uses size 4). meter receives the off-chip
// traffic; it must not be nil.
func New(dirBits int, maxItems int, seed uint64, meter *memmodel.Meter) (*Stash, error) {
	if dirBits < 0 || dirBits > 24 {
		return nil, fmt.Errorf("stash: dirBits must be in [0,24], got %d", dirBits)
	}
	if meter == nil {
		return nil, fmt.Errorf("stash: meter must not be nil")
	}
	n := 1 << dirBits
	return &Stash{
		meter:    meter,
		seed:     hashutil.Mix64(seed ^ 0x57a5_57a5),
		dirMask:  uint64(n - 1),
		buckets:  make([][]kv.Entry, n),
		maxItems: maxItems,
	}, nil
}

// Len returns the number of stored items.
func (s *Stash) Len() int { return s.size }

// Full reports whether the stash has reached its capacity limit.
func (s *Stash) Full() bool { return s.maxItems > 0 && s.size >= s.maxItems }

func (s *Stash) slot(key uint64) uint64 {
	return hashutil.BOB64Key(key, s.seed) & s.dirMask
}

// groups returns the number of off-chip reads needed to scan the first n+1
// entries of a chain (n is the index of the last entry examined).
func groups(lastIdx int) int64 {
	return int64(lastIdx/groupSize) + 1
}

// Insert adds key/value, replacing the value if key is already stashed.
// It returns false when the stash is full.
func (s *Stash) Insert(key, value uint64) bool {
	chain := s.buckets[s.slot(key)]
	for i := range chain {
		if chain[i].Key == key {
			s.meter.ReadOff(groups(i))
			chain[i].Value = value
			s.meter.WriteOff(1)
			return true
		}
	}
	if len(chain) > 0 {
		s.meter.ReadOff(groups(len(chain) - 1))
	}
	if s.Full() {
		return false
	}
	s.buckets[s.slot(key)] = append(chain, kv.Entry{Key: key, Value: value})
	s.meter.WriteOff(1)
	s.size++
	return true
}

// Find searches for key without charging memory traffic and reports the
// off-chip reads the probe costs: the groups of the key's chain read up to
// the match, the whole chain on a miss, one read for an empty chain. It is
// the stash's one probe; the McCuckoo tables charge offReads to the meter
// their own probe was handed.
//
//mcvet:hotpath
func (s *Stash) Find(key uint64) (value uint64, ok bool, offReads int64) {
	chain := s.buckets[s.slot(key)]
	for i := range chain {
		if chain[i].Key == key {
			return chain[i].Value, true, groups(i)
		}
	}
	if len(chain) > 0 {
		return 0, false, groups(len(chain) - 1)
	}
	return 0, false, 1 // empty group still costs the probe
}

// Lookup searches for key, charging the probe to the stash's meter.
func (s *Stash) Lookup(key uint64) (uint64, bool) {
	v, ok, offReads := s.Find(key)
	s.meter.ReadOff(offReads)
	return v, ok
}

// Delete removes key, reporting whether it was present.
func (s *Stash) Delete(key uint64) bool {
	slot := s.slot(key)
	chain := s.buckets[slot]
	for i := range chain {
		if chain[i].Key == key {
			s.meter.ReadOff(groups(i))
			chain[i] = chain[len(chain)-1]
			s.buckets[slot] = chain[:len(chain)-1]
			s.meter.WriteOff(1)
			s.size--
			return true
		}
	}
	if len(chain) > 0 {
		s.meter.ReadOff(groups(len(chain) - 1))
	} else {
		s.meter.ReadOff(1)
	}
	return false
}

// Drain removes and returns all entries. Used when reinserting stashed items
// into the main table (stash-flag refresh, §III.F, and the baselines' retry
// when space frees up).
func (s *Stash) Drain() []kv.Entry {
	s.ChargeScan()
	out := s.Entries()
	clear(s.buckets)
	s.size = 0
	return out
}

// ChargeScan charges the off-chip reads of reading every entry back, as
// Drain does, and leaves the stash as it is.
func (s *Stash) ChargeScan() {
	for _, chain := range s.buckets {
		if len(chain) > 0 {
			s.meter.ReadOff(groups(len(chain) - 1))
		}
	}
}

// Entries returns a copy of all entries without mutating the stash and
// without charging memory traffic. Serialization depends on the
// bucket-then-insertion order being stable.
//
//mcvet:deterministic
func (s *Stash) Entries() []kv.Entry {
	out := make([]kv.Entry, 0, s.size)
	for _, chain := range s.buckets {
		out = append(out, chain...)
	}
	return out
}

// Restore repopulates an empty stash from serialized entries without
// charging memory traffic. It fails if the stash is not empty or the
// entries exceed the capacity limit.
func (s *Stash) Restore(entries []kv.Entry) error {
	if s.size != 0 {
		return fmt.Errorf("stash: Restore on non-empty stash (%d items)", s.size)
	}
	if s.maxItems > 0 && len(entries) > s.maxItems {
		return fmt.Errorf("stash: %d entries exceed capacity %d", len(entries), s.maxItems)
	}
	for _, e := range entries {
		slot := s.slot(e.Key)
		s.buckets[slot] = append(s.buckets[slot], e)
	}
	s.size = len(entries)
	return nil
}
