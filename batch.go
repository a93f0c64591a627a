package mccuckoo

// Batched operations for the single-goroutine kinds, and the Into variants
// of the lock layer behind Sharded and Concurrent. Table and Blocked execute
// a batch as a loop over the point operations — there is no lock to
// amortize on them. The value of these methods is the uniform BatchStore
// contract: a consumer written against BatchStore drives all four kinds (and
// the network client) without per-kind switches.
//
// Argument validation matches internal/shard: mismatched key/value lengths
// and wrongly sized result slices panic, nil out/removed slices discard
// results, and a nil values/found pair on LookupBatchInto is rejected
// because a lookup with no destination answers nothing.

// insertBatchInto loops a store's Insert over the batch.
func insertBatchInto(s Store, keys, values []uint64, out []InsertResult) {
	if len(keys) != len(values) {
		panic("mccuckoo: batch insert called with mismatched key/value lengths")
	}
	if out != nil && len(out) != len(keys) {
		panic("mccuckoo: batch result slice has wrong length")
	}
	for i, k := range keys {
		r := s.Insert(k, values[i])
		if out != nil {
			out[i] = r
		}
	}
}

// lookupBatchInto loops a store's Lookup over the batch.
func lookupBatchInto(s Store, keys, values []uint64, found []bool) {
	if len(values) != len(keys) || len(found) != len(keys) {
		panic("mccuckoo: batch lookup result slices have wrong length")
	}
	for i, k := range keys {
		values[i], found[i] = s.Lookup(k)
	}
}

// deleteBatchInto loops a store's Delete over the batch.
func deleteBatchInto(s Store, keys []uint64, removed []bool) {
	if removed != nil && len(removed) != len(keys) {
		panic("mccuckoo: batch result slice has wrong length")
	}
	for i, k := range keys {
		ok := s.Delete(k)
		if removed != nil {
			removed[i] = ok
		}
	}
}

// insertBatch allocates the result slice and loops.
func insertBatch(s Store, keys, values []uint64) []InsertResult {
	out := make([]InsertResult, len(keys))
	insertBatchInto(s, keys, values, out)
	return out
}

// lookupBatch allocates the result slices and loops.
func lookupBatch(s Store, keys []uint64) ([]uint64, []bool) {
	values := make([]uint64, len(keys))
	found := make([]bool, len(keys))
	lookupBatchInto(s, keys, values, found)
	return values, found
}

// deleteBatch allocates the result slice and loops.
func deleteBatch(s Store, keys []uint64) []bool {
	removed := make([]bool, len(keys))
	deleteBatchInto(s, keys, removed)
	return removed
}

// InsertBatch stores every keys[i]/values[i] pair, one Insert at a time.
// Results come back in input order. len(values) must equal len(keys).
func (s *singleStore) InsertBatch(keys, values []uint64) []InsertResult {
	return insertBatch(s, keys, values)
}

// InsertBatchInto is InsertBatch writing outcomes into out, which must be
// nil (discard outcomes) or exactly len(keys) long.
func (s *singleStore) InsertBatchInto(keys, values []uint64, out []InsertResult) {
	insertBatchInto(s, keys, values, out)
}

// LookupBatch answers every key. values[i], found[i] correspond to keys[i].
func (s *singleStore) LookupBatch(keys []uint64) (values []uint64, found []bool) {
	return lookupBatch(s, keys)
}

// LookupBatchInto is LookupBatch writing answers into values and found,
// each of which must be exactly len(keys) long.
func (s *singleStore) LookupBatchInto(keys []uint64, values []uint64, found []bool) {
	lookupBatchInto(s, keys, values, found)
}

// DeleteBatch removes every key. removed[i] reports whether keys[i] was
// present.
func (s *singleStore) DeleteBatch(keys []uint64) (removed []bool) {
	return deleteBatch(s, keys)
}

// DeleteBatchInto is DeleteBatch writing results into removed, which must
// be nil (discard results) or exactly len(keys) long.
func (s *singleStore) DeleteBatchInto(keys []uint64, removed []bool) {
	deleteBatchInto(s, keys, removed)
}

// InsertBatchInto is InsertBatch writing outcomes into out, which must be
// nil (discard outcomes) or exactly len(keys) long. Each touched shard's
// write lock is taken once, and the call allocates nothing of its own in
// steady state.
func (s *shardedStore) InsertBatchInto(keys, values []uint64, out []InsertResult) {
	s.inner.InsertBatchInto(keys, values, out)
}

// LookupBatchInto is LookupBatch writing answers into values and found,
// each of which must be exactly len(keys) long. Each touched shard's read
// lock is taken once.
func (s *shardedStore) LookupBatchInto(keys []uint64, values []uint64, found []bool) {
	s.inner.LookupBatchInto(keys, values, found)
}

// DeleteBatchInto is DeleteBatch writing results into removed, which must
// be nil (discard results) or exactly len(keys) long. Each touched shard's
// write lock is taken once.
func (s *shardedStore) DeleteBatchInto(keys []uint64, removed []bool) {
	s.inner.DeleteBatchInto(keys, removed)
}
