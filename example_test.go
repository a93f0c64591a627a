package mccuckoo_test

import (
	"bytes"
	"errors"
	"fmt"
	"log"

	"mccuckoo"
)

// The basic lifecycle: create a table, insert, look up, delete.
func ExampleNew() {
	table, err := mccuckoo.New(3000, mccuckoo.WithSeed(1))
	if err != nil {
		log.Fatal(err)
	}
	table.Insert(42, 420)
	if v, ok := table.Lookup(42); ok {
		fmt.Println("found:", v)
	}
	fmt.Println("deleted:", table.Delete(42))
	_, ok := table.Lookup(42)
	fmt.Println("still there:", ok)
	// Output:
	// found: 420
	// deleted: true
	// still there: false
}

// The first item inserted into an empty table occupies all three of its
// candidate buckets — the multi-copy idea in one call.
func ExampleTable_Copies() {
	table, err := mccuckoo.New(3000, mccuckoo.WithSeed(1))
	if err != nil {
		log.Fatal(err)
	}
	table.Insert(7, 7)
	fmt.Println("items:", table.Len(), "physical copies:", table.Copies())
	// Output:
	// items: 1 physical copies: 3
}

// Deletion never writes to the main table: only the on-chip counters move.
func ExampleTable_Delete() {
	table, err := mccuckoo.New(3000, mccuckoo.WithSeed(1))
	if err != nil {
		log.Fatal(err)
	}
	for k := uint64(1); k <= 100; k++ {
		table.Insert(k, k)
	}
	before := table.Traffic()
	for k := uint64(1); k <= 50; k++ {
		table.Delete(k)
	}
	after := table.Traffic()
	fmt.Println("off-chip writes during 50 deletions:", after.OffChipWrites-before.OffChipWrites)
	// Output:
	// off-chip writes during 50 deletions: 0
}

// Map adapts the table to arbitrary comparable key types.
func ExampleNewMap() {
	m, err := mccuckoo.NewMap[string, int](3000, mccuckoo.StringHasher, mccuckoo.WithSeed(1))
	if err != nil {
		log.Fatal(err)
	}
	m.Set("cuckoo", 2001)
	m.Set("mccuckoo", 2019)
	if year, ok := m.Get("mccuckoo"); ok {
		fmt.Println("published:", year)
	}
	fmt.Println("terms:", m.Len())
	// Output:
	// published: 2019
	// terms: 2
}

// MultiMap stores several values per key — the paper's multiset indexing
// pattern (§III.H).
func ExampleNewMultiMap() {
	postings, err := mccuckoo.NewMultiMap[string, int](3000, mccuckoo.StringHasher,
		mccuckoo.WithSeed(1))
	if err != nil {
		log.Fatal(err)
	}
	postings.Add("cuckoo", 10)
	postings.Add("cuckoo", 37)
	postings.Add("hash", 10)
	docs := postings.Get("cuckoo")
	fmt.Println("cuckoo appears in", len(docs), "documents")
	fmt.Println("total postings:", postings.Len())
	// Output:
	// cuckoo appears in 2 documents
	// total postings: 3
}

// Snapshots freeze the complete logical state; Load verifies invariants
// before returning the table.
func ExampleLoad() {
	table, err := mccuckoo.New(3000, mccuckoo.WithSeed(1))
	if err != nil {
		log.Fatal(err)
	}
	for k := uint64(1); k <= 500; k++ {
		table.Insert(k, k*2)
	}
	var snapshot bytes.Buffer
	if _, err := table.WriteTo(&snapshot); err != nil {
		log.Fatal(err)
	}
	restored, err := mccuckoo.Load(&snapshot)
	if err != nil {
		log.Fatal(err)
	}
	v, _ := restored.Lookup(123)
	fmt.Println("restored items:", restored.Len(), "lookup(123):", v)
	// Output:
	// restored items: 500 lookup(123): 246
}

// Concurrent provides the one-writer-many-readers mode: lookups proceed in
// parallel while one goroutine mutates.
func ExampleNewConcurrent() {
	inner, err := mccuckoo.New(3000, mccuckoo.WithSeed(1))
	if err != nil {
		log.Fatal(err)
	}
	table := mccuckoo.NewConcurrent(inner)
	table.Insert(1, 100)
	done := make(chan bool)
	go func() {
		_, ok := table.Lookup(1) // safe alongside the writer
		done <- ok
	}()
	table.Insert(2, 200)
	fmt.Println("reader saw key 1:", <-done)
	fmt.Println("items:", table.Len())
	// Output:
	// reader saw key 1: true
	// items: 2
}

// A Sharded table groups a batch's keys by shard, so loading it costs one
// write lock per shard per batch rather than one per key.
func ExampleNewSharded() {
	table, err := mccuckoo.NewSharded(120_000, 16, mccuckoo.WithSeed(42))
	if err != nil {
		log.Fatal(err)
	}
	const batch = 4096
	n := uint64(0.70 * float64(table.Capacity()))
	keys := make([]uint64, 0, batch)
	vals := make([]uint64, 0, batch)
	for k := uint64(1); k <= n; k++ {
		keys = append(keys, k)
		vals = append(vals, k*10)
		if len(keys) == batch || k == n {
			for _, r := range table.InsertBatch(keys, vals) {
				if r.Status == mccuckoo.Failed {
					log.Fatal("batched insert failed")
				}
			}
			keys, vals = keys[:0], vals[:0]
		}
	}
	v, _ := table.Lookup(123)
	st := table.ShardStats()
	fmt.Println("items:", table.Len(), "lookup(123):", v)
	fmt.Printf("write locks: %d for %d batches\n", st.WriteLocks, (n+batch-1)/batch)
	fmt.Printf("shard load: min %.1f%% max %.1f%%\n", st.MinLoad*100, st.MaxLoad*100)
	// Output:
	// items: 84000 lookup(123): 1230
	// write locks: 336 for 21 batches
	// shard load: min 68.9% max 71.6%
}

// A lookup of an absent key reads off-chip only the candidate buckets
// whose counters do not rule the key out. Without the counter pre-screen
// it reads all three.
func ExampleTable_Lookup() {
	for _, opts := range [][]mccuckoo.Option{
		{mccuckoo.WithSeed(42)},
		{mccuckoo.WithSeed(42), mccuckoo.WithoutLookupPrescreen()},
	} {
		table, err := mccuckoo.New(30_000, opts...)
		if err != nil {
			log.Fatal(err)
		}
		n := uint64(0.80 * float64(table.Capacity()))
		for k := uint64(1); k <= n; k++ {
			table.Insert(k, k*10)
		}
		before := table.Traffic()
		for k := n + 1; k <= n+10_000; k++ {
			table.Lookup(k)
		}
		reads := table.Traffic().OffChipReads - before.OffChipReads
		fmt.Printf("%.3f off-chip reads per miss\n", float64(reads)/10_000)
	}
	// Output:
	// 1.830 off-chip reads per miss
	// 3.000 off-chip reads per miss
}

// A snapshot with one flipped bit fails its checksum, and Load rejects it
// with a *CorruptError naming the damaged section.
func ExampleCorruptError() {
	table, err := mccuckoo.New(3000, mccuckoo.WithSeed(1))
	if err != nil {
		log.Fatal(err)
	}
	for k := uint64(1); k <= 500; k++ {
		table.Insert(k, k*2)
	}
	var snapshot bytes.Buffer
	if _, err := table.WriteTo(&snapshot); err != nil {
		log.Fatal(err)
	}
	raw := snapshot.Bytes()
	raw[len(raw)/2] ^= 0x04
	_, err = mccuckoo.Load(bytes.NewReader(raw))
	var ce *mccuckoo.CorruptError
	if errors.As(err, &ce) {
		fmt.Printf("rejected: corrupt %s snapshot, %s section\n", ce.Kind, ce.Section)
	}
	// Output:
	// rejected: corrupt table snapshot, buckets section
}
