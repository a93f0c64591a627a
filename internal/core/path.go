package core

import (
	"fmt"
	"sync"

	"mccuckoo/internal/hashutil"
	"mccuckoo/internal/kv"
)

// PathMove is one hop of a cuckoo path: the item currently in slot
// FromSlot of (FromTable, FromBucket) gains a copy in slot ToSlot of
// (ToTable, ToBucket) — its own candidate bucket in another subtable — after
// which its From copy becomes redundant and can be overwritten by the
// previous hop's item. The slots are always 0 on a single-slot Table.
type PathMove struct {
	Key        uint64
	FromTable  int
	FromBucket int
	FromSlot   int
	ToTable    int
	ToBucket   int
	ToSlot     int
}

// FindPath searches for a cuckoo path that frees one of key's candidate
// buckets without mutating the table (§III.H: MemC3 introduced cuckoo-path
// insertion but "did not develop efficient method to quickly find one";
// McCuckoo's counters do exactly that — the walk ends at the first bucket
// whose counter is not 1, i.e. free or redundantly occupied).
//
// The returned path is ordered from key's bucket outward: path[0] moves the
// item that currently blocks key, path[len-1] ends in a usable bucket.
// ok is false when no path within MaxLoop hops exists; the caller should
// stash key. FindPath only reads (buckets along the path are read to learn
// victim keys; the traffic is charged), so a concurrent wrapper may run it
// under a read lock.
func (t *Table) FindPath(key uint64) ([]PathMove, bool) {
	var cand [hashutil.MaxD]int
	t.family.Indexes(key, cand[:])

	// The path only makes sense when key itself cannot place: every
	// candidate holds a sole copy. Walk from a random candidate. Paths
	// must be bucket-disjoint or the back-to-front execution would act
	// on stale assumptions, so visited buckets are never re-entered —
	// a built-in loop guard on top of MaxLoop.
	path := make([]PathMove, 0, 8)
	curTable := t.rng.IntN(t.cfg.D)
	curBucket := cand[curTable]
	visited := map[int]bool{t.bucketIndex(curTable, curBucket): true}
	for hop := 0; hop < t.cfg.MaxLoop; hop++ {
		victim := t.readBucket(curTable, curBucket)
		var vcand [hashutil.MaxD]int
		t.family.Indexes(victim, vcand[:])

		// Does the victim have a usable alternative bucket? Usable
		// means counter != 1 (free, tombstone, or redundant copy).
		dest := -1
		for j := 0; j < t.cfg.D; j++ {
			if j == curTable || visited[t.bucketIndex(j, vcand[j])] {
				continue
			}
			if c := t.counterAt(j, vcand[j]); c != 1 {
				dest = j
				break
			}
		}
		if dest >= 0 {
			path = append(path, PathMove{
				Key:       victim,
				FromTable: curTable, FromBucket: curBucket,
				ToTable: dest, ToBucket: vcand[dest],
			})
			return path, true
		}
		// No usable alternative: extend the walk through one of the
		// victim's unvisited candidates, chosen at random.
		var opts [hashutil.MaxD]int
		nOpts := 0
		for j := 0; j < t.cfg.D; j++ {
			if j != curTable && !visited[t.bucketIndex(j, vcand[j])] {
				opts[nOpts] = j
				nOpts++
			}
		}
		if nOpts == 0 {
			return nil, false // walk boxed in by its own trail
		}
		next := opts[t.rng.IntN(nOpts)]
		path = append(path, PathMove{
			Key:       victim,
			FromTable: curTable, FromBucket: curBucket,
			ToTable: next, ToBucket: vcand[next],
		})
		curTable, curBucket = next, vcand[next]
		visited[t.bucketIndex(curTable, curBucket)] = true
	}
	return nil, false
}

// ApplyMove executes one path hop, last hop first. The move copies the
// item into its destination bucket and updates counters; the item briefly
// has one copy more than before — a state McCuckoo represents natively, so
// the table satisfies all invariants between moves and readers never lose
// an item. The destination must be usable (counter != 1), which holds for
// the final hop by construction and for earlier hops because the later
// item's departure left a redundant copy behind.
func (t *Table) ApplyMove(m PathMove) error {
	destCnt := t.counterAt(m.ToTable, m.ToBucket)
	switch {
	case t.isFree(destCnt):
		// Plain copy into an empty bucket.
	case destCnt >= 2:
		// Overwrite a redundant copy of the destination's occupant.
		occKey := t.readBucket(m.ToTable, m.ToBucket)
		t.victimLostCopy(occKey, m.ToTable, destCnt)
	default:
		return fmt.Errorf("core: path move destination (%d,%d) holds a sole copy", m.ToTable, m.ToBucket)
	}
	// Verify the mover is still where the path found it (it must be:
	// the single-writer contract means nothing else mutates).
	src := t.readEntry(m.FromTable, m.FromBucket)
	if src.Key != m.Key {
		return fmt.Errorf("core: path move source changed: want key %#x, found %#x", m.Key, src.Key)
	}
	srcCnt := t.counterAt(m.FromTable, m.FromBucket)
	t.writeBucket(m.ToTable, m.ToBucket, src)
	// The mover now has one more copy; raise the counters of all its
	// copies. Its copies are exactly the buckets the path knows about
	// plus any pre-existing ones — but path moves only ever displace
	// sole copies (counter 1), so the mover's copies are FromBucket and
	// ToBucket.
	if srcCnt != 1 {
		return fmt.Errorf("core: path mover %#x had counter %d, want 1", m.Key, srcCnt)
	}
	t.setCounter(m.FromTable, m.FromBucket, 2)
	t.setCounter(m.ToTable, m.ToBucket, 2)
	t.copiesTotal++
	t.redundantWrites++
	return nil
}

// FinishPath installs key/value into the candidate bucket the path head
// vacated (after every ApplyMove has executed, that bucket holds a
// redundant copy of the head's item). Final stage of the pathwise protocol
// on the success branch.
func (t *Table) FinishPath(key, value uint64, head PathMove, pathLen int) kv.Outcome {
	t.victimLostCopy(head.Key, head.FromTable, 2)
	t.writeBucket(head.FromTable, head.FromBucket, kv.Entry{Key: key, Value: value})
	t.setCounter(head.FromTable, head.FromBucket, 1)
	t.copiesTotal++
	t.size++
	t.stats.Kicks += int64(pathLen)
	return kv.Outcome{Status: kv.Placed, Kicks: pathLen}
}

// pathwiseTable is the staged insertion protocol both table kinds expose.
type pathwiseTable interface {
	TryPlace(key, value uint64) (kv.Outcome, bool)
	FindPath(key uint64) ([]PathMove, bool)
	ApplyMove(m PathMove) error
	StashOverflow(key, value uint64) kv.Outcome
	FinishPath(key, value uint64, head PathMove, pathLen int) kv.Outcome
}

// noLock is the Locker of a table used by one goroutine alone.
type noLock struct{}

func (noLock) Lock()   {}
func (noLock) Unlock() {}

// InsertPathwise inserts key/value into tab with bounded writer critical
// sections: mu (the write side of the lock guarding tab) is held for each
// stage and released between path moves, so readers interleave even during
// long relocation chains (the MemC3 combination §III.H suggests — McCuckoo's
// counters find the path, and its native multi-copy representation keeps
// every intermediate state a valid table, so readers never lose an item
// mid-path). No other mutation of tab may overlap the call: a move applied
// to a table changed under it would fail. A tab that is neither *Table nor
// *BlockedTable is inserted in one critical section.
func InsertPathwise(mu sync.Locker, tab kv.Table, key, value uint64) kv.Outcome {
	if t, ok := tab.(pathwiseTable); ok {
		return pathwise(mu, t, key, value)
	}
	mu.Lock()
	defer mu.Unlock()
	return tab.Insert(key, value)
}

// pathwise runs the staged protocol with mu released between path moves.
func pathwise(mu sync.Locker, t pathwiseTable, key, value uint64) kv.Outcome {
	mu.Lock()
	out, done := t.TryPlace(key, value)
	if done {
		mu.Unlock()
		return out
	}
	// Discovery does no off-chip writes, but it draws from the writer-owned
	// RNG and meter, so it stays inside the first critical section.
	path, found := t.FindPath(key)
	mu.Unlock()
	if !found {
		mu.Lock()
		defer mu.Unlock()
		return t.StashOverflow(key, value)
	}
	for i := len(path) - 1; i >= 0; i-- {
		mu.Lock()
		err := t.ApplyMove(path[i])
		mu.Unlock()
		if err != nil {
			// Unreachable without an overlapping mutation; fail loudly
			// rather than corrupt the table.
			panic(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	return t.FinishPath(key, value, path[0], len(path))
}
