package mccuckoo

import "mccuckoo/internal/shard"

// Batched operations for the single-goroutine kinds, and the lock layer's
// behind Sharded and Concurrent. Table and Blocked execute a batch as a loop
// over the point operations — there is no lock to amortize on them. The
// value of these methods is the uniform BatchStore contract: a consumer
// written against BatchStore drives all four kinds without per-kind
// switches.
//
// Every kind checks a batch's shape with internal/shard's checks before it
// applies any key: mismatched key/value lengths and wrongly sized result
// slices panic, nil out/removed slices discard results, and a nil
// values/found pair on LookupBatchInto is rejected because a lookup with no
// destination answers nothing.

// InsertBatchInto stores every keys[i]/values[i] pair, one Insert at a time,
// writing the outcomes into out, which must be nil (discard outcomes) or
// exactly len(keys) long.
func (s *singleStore) InsertBatchInto(keys, values []uint64, out []InsertResult) {
	shard.CheckInsertBatch(keys, values, out)
	for i, k := range keys {
		r := s.Insert(k, values[i])
		if out != nil {
			out[i] = r
		}
	}
}

// LookupBatchInto answers every key, one Lookup at a time; values[i],
// found[i] answer keys[i], and each must be exactly len(keys) long.
func (s *singleStore) LookupBatchInto(keys []uint64, values []uint64, found []bool) {
	shard.CheckLookupBatch(keys, values, found)
	for i, k := range keys {
		values[i], found[i] = s.Lookup(k)
	}
}

// DeleteBatchInto removes every key, one Delete at a time; removed[i]
// reports whether keys[i] was present. removed must be nil (discard
// results) or exactly len(keys) long.
func (s *singleStore) DeleteBatchInto(keys []uint64, removed []bool) {
	shard.CheckDeleteBatch(keys, removed)
	for i, k := range keys {
		ok := s.Delete(k)
		if removed != nil {
			removed[i] = ok
		}
	}
}

// InsertBatchInto stores every keys[i]/values[i] pair, writing the outcomes
// into out, which must be nil (discard outcomes) or exactly len(keys) long.
// Each touched shard's write lock is taken once, and the call allocates
// nothing of its own in steady state.
func (s *shardedStore) InsertBatchInto(keys, values []uint64, out []InsertResult) {
	s.inner.InsertBatchInto(keys, values, out)
}

// LookupBatchInto answers every key; values[i], found[i] answer keys[i],
// and each must be exactly len(keys) long. Each touched shard's read lock
// is taken once.
func (s *shardedStore) LookupBatchInto(keys []uint64, values []uint64, found []bool) {
	s.inner.LookupBatchInto(keys, values, found)
}

// DeleteBatchInto removes every key; removed[i] reports whether keys[i] was
// present. removed must be nil (discard results) or exactly len(keys)
// long. Each touched shard's write lock is taken once.
func (s *shardedStore) DeleteBatchInto(keys []uint64, removed []bool) {
	s.inner.DeleteBatchInto(keys, removed)
}
