package wire

import (
	"errors"
	"strings"
	"testing"

	"mccuckoo/internal/telemetry/trace"
)

// digestRand is a splitmix64 stream for seed-deterministic property tests.
type digestRand struct{ state uint64 }

func (r *digestRand) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// TestDigestXORConsistency is the satellite property test: replicas that
// apply the same entries — in any order, including delete→reinsert cycles
// of the same key — end with equal digests, and replicas whose key state
// differs end with unequal digests (with overwhelming probability).
func TestDigestXORConsistency(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		rng := &digestRand{state: seed * 0x100000001b3}
		const keySpace = 64
		var ents []Entry
		seq := uint64(10)
		// A random schedule heavy on delete→reinsert of the same keys.
		for i := 0; i < 400; i++ {
			seq++
			k := rng.next() % keySpace
			if rng.next()%3 == 0 {
				ents = append(ents, Entry{Seq: seq, Op: OpDel, Key: k})
			} else {
				ents = append(ents, Entry{Seq: seq, Op: OpPut, Key: k, Value: rng.next()})
			}
		}

		a := newReplicated(t, 1<<12)
		b := newReplicated(t, 1<<12)
		a.ApplyPush(ents, nil)
		// b receives the same entries in a shuffled order.
		shuffled := append([]Entry(nil), ents...)
		for i := len(shuffled) - 1; i > 0; i-- {
			j := int(rng.next() % uint64(i+1))
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		}
		b.ApplyPush(shuffled, nil)
		if a.Digest() != b.Digest() {
			t.Fatalf("seed %d: equal entry sets, unequal digests %016x vs %016x", seed, a.Digest(), b.Digest())
		}

		// Delete→reinsert of one key on both sides keeps them equal.
		cycle := []Entry{
			{Seq: seq + 1, Op: OpDel, Key: 3},
			{Seq: seq + 2, Op: OpPut, Key: 3, Value: 999},
		}
		a.ApplyPush(cycle, nil)
		b.ApplyPush([]Entry{cycle[1], cycle[0]}, nil) // reversed: newest still wins
		if a.Digest() != b.Digest() {
			t.Fatalf("seed %d: digests diverged after delete→reinsert cycle", seed)
		}

		// Divergence is visible: one extra write on a only.
		a.ApplyPush([]Entry{{Seq: seq + 9, Op: OpPut, Key: 5, Value: 123456}}, nil)
		if a.Digest() == b.Digest() {
			t.Fatalf("seed %d: unequal states produced equal digests", seed)
		}
	}
}

func TestDigestRangePartitionsAndEnumerates(t *testing.T) {
	r := newReplicated(t, 1<<12)
	var ents []Entry
	for i := uint64(0); i < 200; i++ {
		ents = append(ents, Entry{Seq: 10 + i, Op: OpPut, Key: i * 1000003, Value: i})
	}
	r.ApplyPush(ents, nil)

	// The full range must reproduce the incremental digest and count.
	full, count, keys := r.DigestRange("peer", 0, ^uint64(0), 0)
	if full != r.Digest() {
		t.Fatalf("full-range digest %016x != incremental %016x", full, r.Digest())
	}
	if count != 200 || keys != nil {
		t.Fatalf("count=%d keys=%v, want 200 and no enumeration", count, keys)
	}

	// Two halves must XOR back to the whole, with counts adding up.
	const mid = ^uint64(0) / 2
	dlo, clo, _ := r.DigestRange("peer", 0, mid, 0)
	dhi, chi, _ := r.DigestRange("peer", mid+1, ^uint64(0), 0)
	if dlo^dhi != full || clo+chi != count {
		t.Fatalf("halves do not recompose: %016x^%016x != %016x (counts %d+%d vs %d)",
			dlo, dhi, full, clo, chi, count)
	}

	// Enumeration kicks in at maxKeys and verifies against VGet metas.
	_, _, listed := r.DigestRange("peer", 0, ^uint64(0), 200)
	if len(listed) != 200 {
		t.Fatalf("enumerated %d keys, want 200", len(listed))
	}
	for _, e := range listed {
		state, _, seq := r.VGet(e.Key)
		if state != VStateLive || MetaOf(seq, false) != e.Meta {
			t.Fatalf("key %d: meta %d disagrees with VGet state=%d seq=%d", e.Key, e.Meta, state, seq)
		}
	}
	// One short of the count: too big to enumerate.
	if _, _, over := r.DigestRange("peer", 0, ^uint64(0), 199); over != nil {
		t.Fatal("over-budget range should not enumerate")
	}
}

func TestDigestRangeFilterRestrictsKeys(t *testing.T) {
	r := newReplicated(t, 1<<12)
	r.ApplyPush([]Entry{
		{Seq: 10, Op: OpPut, Key: 2, Value: 20},
		{Seq: 11, Op: OpPut, Key: 3, Value: 30},
		{Seq: 12, Op: OpPut, Key: 4, Value: 40},
	}, nil)
	r.SetDigestFilter(func(peer string, key uint64) bool {
		return peer == "even-owner" && key%2 == 0
	})
	_, count, keys := r.DigestRange("even-owner", 0, ^uint64(0), 16)
	if count != 2 || len(keys) != 2 {
		t.Fatalf("filtered digest saw %d keys (%v), want 2", count, keys)
	}
	if _, count, _ = r.DigestRange("stranger", 0, ^uint64(0), 16); count != 0 {
		t.Fatalf("unknown peer saw %d keys, want 0", count)
	}
	r.SetDigestFilter(nil)
	if _, count, _ = r.DigestRange("stranger", 0, ^uint64(0), 0); count != 3 {
		t.Fatalf("after filter removal: %d keys, want 3", count)
	}
}

func TestServerDigestRoundTrip(t *testing.T) {
	rep := newReplicated(t, 1<<12)
	rep.ApplyPush([]Entry{
		{Seq: 10, Op: OpPut, Key: 1, Value: 10},
		{Seq: 11, Op: OpPut, Key: 2, Value: 20},
		{Seq: 12, Op: OpDel, Key: 1},
	}, nil)
	_, addr, shutdown := startServer(t, rep, nil)
	defer shutdown()
	c := dialClient(t, addr, nil)

	digest, count, keys, err := c.DigestRange(trace.Context{}, "peer", 0, ^uint64(0), 16)
	if err != nil {
		t.Fatal(err)
	}
	wantDigest, wantCount, wantKeys := rep.DigestRange("peer", 0, ^uint64(0), 16)
	if digest != wantDigest || count != wantCount || len(keys) != len(wantKeys) {
		t.Fatalf("wire digest (%016x, %d, %d keys) != local (%016x, %d, %d keys)",
			digest, count, len(keys), wantDigest, wantCount, len(wantKeys))
	}
	// The tombstone is enumerated with its tombstone meta bit.
	var sawTomb bool
	for _, e := range keys {
		if e.Key == 1 && e.Meta == MetaOf(12, true) {
			sawTomb = true
		}
	}
	if !sawTomb {
		t.Fatal("tombstone missing from digest enumeration")
	}
}

func TestServerDigestRequiresReplicatedStore(t *testing.T) {
	_, addr, shutdown := startServer(t, newConcurrentTable(t, 1<<10), nil)
	defer shutdown()
	c := dialClient(t, addr, nil)
	_, _, _, err := c.DigestRange(trace.Context{}, "peer", 0, ^uint64(0), 0)
	var se *ServerError
	if !errors.As(err, &se) || !strings.Contains(se.Msg, "not replicated") {
		t.Fatalf("digest against a plain store: %v, want server error", err)
	}
}
