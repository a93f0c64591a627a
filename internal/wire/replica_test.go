package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"net"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"mccuckoo"
	"mccuckoo/internal/atomicio"
	"mccuckoo/internal/telemetry/trace"
)

func newReplicated(t testing.TB, capacity int) *Replicated {
	t.Helper()
	tab, err := mccuckoo.NewSharded(capacity, 4, mccuckoo.WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	return NewReplicated(tab, ReplicaConfig{})
}

// noValues is a CheckpointWith values step that saves nothing, for tests
// that write the sidecar alone.
func noValues() error { return nil }

func TestReplicatedNewestWriteWins(t *testing.T) {
	r := newReplicated(t, 1<<12)

	// Apply out of order: the higher sequence number must win regardless
	// of arrival order.
	st := r.ApplyPush([]Entry{{Seq: 10, Op: OpPut, Key: 1, Value: 100}}, nil)
	if st[0] != ApplyApplied {
		t.Fatalf("first write: status %d, want applied", st[0])
	}
	st = r.ApplyPush([]Entry{{Seq: 5, Op: OpPut, Key: 1, Value: 55}}, nil)
	if st[0] != ApplyStale {
		t.Fatalf("older write: status %d, want stale", st[0])
	}
	if v, ok := r.Lookup(1); !ok || v != 100 {
		t.Fatalf("lookup after stale write: %d,%v want 100,true", v, ok)
	}
	st = r.ApplyPush([]Entry{{Seq: 11, Op: OpPut, Key: 1, Value: 111}}, nil)
	if st[0] != ApplyApplied {
		t.Fatalf("newer write: status %d, want applied", st[0])
	}
	if v, _ := r.Lookup(1); v != 111 {
		t.Fatalf("lookup: %d, want 111", v)
	}
	if got := r.Applied(); got != 11 {
		t.Fatalf("Applied() = %d, want 11", got)
	}

	// Equal sequence numbers lose too: the first write at a seq is
	// authoritative.
	st = r.ApplyPush([]Entry{{Seq: 11, Op: OpPut, Key: 1, Value: 999}}, nil)
	if st[0] != ApplyStale {
		t.Fatalf("equal-seq write: status %d, want stale", st[0])
	}
}

// TestReplicatedRejectsInvalidSeq pins that a sequence number with bit 63
// set is rejected like Seq 0. Meta words hold seq<<1, so accepting one
// would drop the top bit: the key would record seq 5 and a later write at
// seq 10 would overwrite what was meant as the newest write.
func TestReplicatedRejectsInvalidSeq(t *testing.T) {
	r := newReplicated(t, 1<<12)
	for _, e := range []Entry{
		{Seq: 1<<63 | 5, Op: OpPut, Key: 7, Value: 1},
		{Seq: 1<<64 - 1, Op: OpDel, Key: 7},
		{Seq: 0, Op: OpPut, Key: 7, Value: 1},
		{Seq: 3, Op: 0, Key: 7, Value: 1},
	} {
		if st := r.ApplyPush([]Entry{e}, nil); st[0] != ApplyStale {
			t.Fatalf("invalid entry %+v: status %d, want stale", e, st[0])
		}
	}
	if state, _, _ := r.VGet(7); state != VStateMissing {
		t.Fatalf("VGet after invalid entries: state %d, want missing", state)
	}
	if st := r.ReplicaStats(); st.AppliedSeq != 0 || st.OplogLen != 0 || st.EntriesStale != 4 {
		t.Fatalf("after invalid entries: applied %d, oplog %d, stale %d; want 0, 0, 4", st.AppliedSeq, st.OplogLen, st.EntriesStale)
	}
	if st := r.ApplyPush([]Entry{{Seq: 10, Op: OpPut, Key: 7, Value: 2}}, nil); st[0] != ApplyApplied {
		t.Fatalf("valid write: status %d, want applied", st[0])
	}
	if state, v, seq := r.VGet(7); state != VStateLive || v != 2 || seq != 10 {
		t.Fatalf("VGet: state=%d v=%d seq=%d, want live/2/10", state, v, seq)
	}
}

func TestReplicatedTombstoneBlocksResurrection(t *testing.T) {
	r := newReplicated(t, 1<<12)
	r.ApplyPush([]Entry{{Seq: 1, Op: OpPut, Key: 7, Value: 70}}, nil)
	r.ApplyPush([]Entry{{Seq: 9, Op: OpDel, Key: 7}}, nil)
	if state, _, seq := r.VGet(7); state != VStateTomb || seq != 9 {
		t.Fatalf("VGet after delete: state=%d seq=%d, want tombstone at 9", state, seq)
	}
	// A PUT that raced the delete (older seq) arrives late: it must lose.
	st := r.ApplyPush([]Entry{{Seq: 5, Op: OpPut, Key: 7, Value: 75}}, nil)
	if st[0] != ApplyStale {
		t.Fatalf("stale PUT over tombstone: status %d, want stale", st[0])
	}
	if _, ok := r.Lookup(7); ok {
		t.Fatal("deleted key resurrected by a stale PUT")
	}
	// A genuinely newer PUT revives the key.
	r.ApplyPush([]Entry{{Seq: 12, Op: OpPut, Key: 7, Value: 77}}, nil)
	if v, ok := r.Lookup(7); !ok || v != 77 {
		t.Fatalf("newer PUT after tombstone: %d,%v want 77,true", v, ok)
	}
}

func TestReplicatedLocalWritesAreSequenced(t *testing.T) {
	r := newReplicated(t, 1<<12)
	r.ApplyPush([]Entry{{Seq: 100, Op: OpPut, Key: 1, Value: 10}}, nil)
	// An unversioned local write must supersede everything seen so far.
	r.Insert(1, 20)
	if state, v, seq := r.VGet(1); state != VStateLive || v != 20 || seq <= 100 {
		t.Fatalf("VGet after local insert: state=%d v=%d seq=%d, want live/20/>100", state, v, seq)
	}
	if !r.Delete(1) {
		t.Fatal("Delete missed a present key")
	}
	if state, _, _ := r.VGet(1); state != VStateTomb {
		t.Fatalf("VGet after local delete: state=%d, want tombstone", state)
	}
}

// TestReplicatedRejectsMalformedBatch: a batch whose slices do not fit its
// keys panics before any entry is applied, logged or sequenced.
func TestReplicatedRejectsMalformedBatch(t *testing.T) {
	r := newReplicated(t, 1<<12)
	r.Insert(7, 70)
	keys := []uint64{1, 2, 3}
	for name, call := range map[string]func(){
		"mismatched values": func() { r.InsertBatchInto(keys, []uint64{10, 20}, nil) },
		"short out":         func() { r.InsertBatchInto(keys, []uint64{10, 20, 30}, make([]mccuckoo.InsertResult, 2)) },
		"short removed":     func() { r.DeleteBatchInto([]uint64{7, 1, 2}, make([]bool, 2)) },
	} {
		n, applied, digest := r.Len(), r.Applied(), r.Digest()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: batch accepted", name)
				}
			}()
			call()
		}()
		if r.Len() != n || r.Applied() != applied || r.Digest() != digest {
			t.Errorf("%s: Len %d, Applied %d, Digest %#x after the panic; want %d, %d, %#x",
				name, r.Len(), r.Applied(), r.Digest(), n, applied, digest)
		}
	}
}

func TestReplicatedApplyFailedKeepsSeq(t *testing.T) {
	// A tiny single-slot table with a one-item stash fills up fast; a
	// replicated PUT that loses to capacity must NOT advance the key's
	// sequence number, so a retry can still land it.
	tab, err := mccuckoo.New(8, mccuckoo.WithSeed(3), mccuckoo.WithStashLimit(1))
	if err != nil {
		t.Fatal(err)
	}
	r := NewReplicated(mccuckoo.NewConcurrent(tab), ReplicaConfig{})
	var failedKey uint64
	for k := uint64(1); k < 100; k++ {
		st := r.ApplyPush([]Entry{{Seq: k, Op: OpPut, Key: k, Value: k}}, nil)
		if st[0] == ApplyFailed {
			failedKey = k
			break
		}
	}
	if failedKey == 0 {
		t.Fatal("table absorbed every insert; ApplyFailed never exercised")
	}
	if state, _, _ := r.VGet(failedKey); state != VStateMissing {
		t.Fatalf("failed key state %d, want missing", state)
	}
	// Free a slot, retry with the same seq: it must apply now.
	r.ApplyPush([]Entry{{Seq: 200, Op: OpDel, Key: 1}}, nil)
	st := r.ApplyPush([]Entry{{Seq: failedKey, Op: OpPut, Key: failedKey, Value: 42}}, nil)
	if st[0] != ApplyApplied {
		t.Fatalf("retry after space freed: status %d, want applied", st[0])
	}
}

// TestApplyCountsPerCall: a push whose entries apply, go stale, are
// invalid and fail on a full table moves each apply counter by exactly its
// count, and a stream chunk moves every counter but repair_applied.
func TestApplyCountsPerCall(t *testing.T) {
	tab, err := mccuckoo.New(8, mccuckoo.WithSeed(3), mccuckoo.WithStashLimit(1))
	if err != nil {
		t.Fatal(err)
	}
	r := NewReplicated(mccuckoo.NewConcurrent(tab), ReplicaConfig{})
	r.ApplyPush([]Entry{{Seq: 50, Op: OpPut, Key: 1, Value: 1}, {Seq: 50, Op: OpPut, Key: 2, Value: 2}}, nil)
	mixed := []Entry{
		{Seq: 60, Op: OpPut, Key: 1, Value: 10}, // applied
		{Seq: 40, Op: OpPut, Key: 2, Value: 20}, // stale
		{Seq: 0, Op: OpPut, Key: 3, Value: 30},  // invalid: stale
		{Seq: 61, Op: OpDel, Key: 2},            // applied
	}
	for k := uint64(100); k < 140; k++ { // the table fills: some fail
		mixed = append(mixed, Entry{Seq: 100 + k, Op: OpPut, Key: k, Value: k})
	}
	for _, tc := range []struct {
		name  string
		apply func([]Entry) []int64 // counts per status
		push  bool
	}{
		{"push", func(ents []Entry) []int64 {
			n := make([]int64, ApplyFailed+1)
			for _, st := range r.ApplyPush(ents, nil) {
				n[st]++
			}
			return n
		}, true},
		{"stream", func(ents []Entry) []int64 {
			applied, stale, failed := r.ApplyStream(ents)
			n := make([]int64, ApplyFailed+1)
			n[ApplyApplied], n[ApplyStale], n[ApplyFailed] = int64(applied), int64(stale), int64(failed)
			return n
		}, false},
	} {
		before := r.ReplicaStats()
		n := tc.apply(mixed)
		after := r.ReplicaStats()
		if tc.push && (n[ApplyApplied] < 2 || n[ApplyStale] < 2 || n[ApplyFailed] == 0) {
			t.Fatalf("%s: statuses %v do not mix applied, stale and failed", tc.name, n)
		}
		repair := int64(0)
		if tc.push {
			repair = n[ApplyApplied]
		}
		for _, c := range []struct {
			name          string
			before, after int64
			want          int64
		}{
			{"entries_applied", before.EntriesApplied, after.EntriesApplied, n[ApplyApplied]},
			{"entries_stale", before.EntriesStale, after.EntriesStale, n[ApplyStale]},
			{"apply_failures", before.ApplyFailures, after.ApplyFailures, n[ApplyFailed]},
			{"repair_applied", before.RepairApplied, after.RepairApplied, repair},
		} {
			if got := c.after - c.before; got != c.want {
				t.Errorf("%s: %s moved by %d, want %d", tc.name, c.name, got, c.want)
			}
		}
		// The stream replays the push's entries with higher sequence
		// numbers, so they apply or fail again rather than go stale.
		for i := range mixed {
			if mixed[i].Seq != 0 {
				mixed[i].Seq += 1000
			}
		}
	}
}

func TestReplicatedDigestConvergence(t *testing.T) {
	// Two replicas receiving the same entries in different orders must end
	// with identical digests.
	a := newReplicated(t, 1<<12)
	b := newReplicated(t, 1<<12)
	ents := []Entry{
		{Seq: 1, Op: OpPut, Key: 1, Value: 10},
		{Seq: 2, Op: OpPut, Key: 2, Value: 20},
		{Seq: 3, Op: OpDel, Key: 1},
		{Seq: 4, Op: OpPut, Key: 3, Value: 30},
		{Seq: 5, Op: OpPut, Key: 2, Value: 22},
	}
	a.ApplyStream(ents)
	rev := make([]Entry, len(ents))
	for i, e := range ents {
		rev[len(ents)-1-i] = e
	}
	b.ApplyStream(rev)
	if a.Digest() != b.Digest() {
		t.Fatalf("digests diverged: %016x vs %016x", a.Digest(), b.Digest())
	}
	if a.Digest() == 0 {
		t.Fatal("digest is zero over non-empty state")
	}
	// And the digest must be reconstructible from VGet answers.
	var want uint64
	for _, k := range []uint64{1, 2, 3} {
		state, v, seq := a.VGet(k)
		if state == VStateMissing {
			continue
		}
		want ^= DigestTerm(k, v, MetaOf(seq, state == VStateTomb))
	}
	if want != a.Digest() {
		t.Fatalf("digest from VGets %016x != Digest() %016x", want, a.Digest())
	}
}

func TestReplicatedSidecarRoundTrip(t *testing.T) {
	dir := t.TempDir()
	side := filepath.Join(dir, "table.snap.replica")
	snap := filepath.Join(dir, "table.snap")

	a := newReplicated(t, 1<<12)
	for k := uint64(1); k <= 500; k++ {
		a.ApplyPush([]Entry{{Seq: k, Op: OpPut, Key: k, Value: k * 2}}, nil)
	}
	a.ApplyPush([]Entry{{Seq: 1000, Op: OpDel, Key: 5}}, nil)
	a.SetDrained(400)
	a.SetDrained(300) // the drained point never moves back
	saved := false
	if err := a.CheckpointWith(func() error {
		saved = true
		return a.Inner().(*mccuckoo.Sharded).SaveFile(snap)
	}, side); err != nil {
		t.Fatal(err)
	}
	if !saved {
		t.Fatal("CheckpointWith never called saveValues")
	}

	tab, err := mccuckoo.LoadShardedFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RestoreReplicated(tab, ReplicaConfig{}, side)
	if err != nil {
		t.Fatal(err)
	}
	if b.Applied() != a.Applied() {
		t.Fatalf("restored applied %d, want %d", b.Applied(), a.Applied())
	}
	if b.Digest() != a.Digest() {
		t.Fatalf("restored digest %016x, want %016x", b.Digest(), a.Digest())
	}
	if st := b.ReplicaStats(); st.DrainedSeq != 400 || st.BaseSeq != 1000 {
		t.Fatalf("restored drained point %d and base seq %d, want 400 and the applied 1000", st.DrainedSeq, st.BaseSeq)
	}
	if state, _, seq := b.VGet(5); state != VStateTomb || seq != 1000 {
		t.Fatalf("restored tombstone: state=%d seq=%d", state, seq)
	}
	// The restore marks everything as predating the op log, so a
	// subscriber resuming below the restore point is forced into a full
	// sync.
	sub, _, full := b.subscribe(10)
	b.unsubscribe(sub)
	if !full {
		t.Fatal("resume below the restore point should force a full sync")
	}
}

// TestRestoreTracksKeysTheSidecarLacks: a crash between a checkpoint's two
// files leaves the new values file with the previous sidecar, so a key
// written between the two checkpoints is in the store but not in the
// sidecar. The restored replica tracks it at seededSeq, so VGet, the digest
// and a full dump see it, and any newer write supersedes it.
func TestRestoreTracksKeysTheSidecarLacks(t *testing.T) {
	dir := t.TempDir()
	side, snap := filepath.Join(dir, "table.snap.replica"), filepath.Join(dir, "table.snap")
	a := newReplicated(t, 1<<12)
	saveValues := func() error { return a.Inner().(*mccuckoo.Sharded).SaveFile(snap) }
	a.ApplyPush([]Entry{{Seq: 10, Op: OpPut, Key: 1, Value: 100}}, nil)
	if err := a.CheckpointWith(saveValues, side); err != nil {
		t.Fatal(err)
	}
	// The next checkpoint writes its values file and crashes before the
	// sidecar.
	a.ApplyPush([]Entry{{Seq: 11, Op: OpPut, Key: 2, Value: 200}}, nil)
	if err := saveValues(); err != nil {
		t.Fatal(err)
	}

	tab, err := mccuckoo.LoadShardedFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RestoreReplicated(tab, ReplicaConfig{}, side)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := b.Lookup(2); !ok || v != 200 {
		t.Fatalf("Lookup(2) = %d, %v; want 200, true", v, ok)
	}
	if state, v, seq := b.VGet(2); state != VStateLive || v != 200 || seq != seededSeq {
		t.Fatalf("VGet(2) = state %d, value %d, seq %d; want live, 200, %d", state, v, seq, seededSeq)
	}
	if want := DigestTerm(1, 100, MetaOf(10, false)) ^ DigestTerm(2, 200, MetaOf(seededSeq, false)); b.Digest() != want {
		t.Fatalf("digest %016x, want %016x", b.Digest(), want)
	}
	sub, _, full := b.subscribe(0)
	if !full {
		t.Fatal("a subscription from 0 should take a full dump")
	}
	dumped := make(map[uint64]Entry)
	for ents, _ := b.pull(sub, make([]Entry, 0, 4)); len(ents) > 0; ents, _ = b.pull(sub, ents) {
		for _, e := range ents {
			dumped[e.Key] = e
		}
	}
	b.unsubscribe(sub)
	if e := dumped[2]; e.Op != OpPut || e.Value != 200 || e.Seq != seededSeq || len(dumped) != 2 {
		t.Fatalf("full dump %v, want keys 1 and 2, key 2 as a PUT of 200 at %d", dumped, seededSeq)
	}
	if st := b.ApplyPush([]Entry{{Seq: 12, Op: OpPut, Key: 2, Value: 201}}, nil); st[0] != ApplyApplied {
		t.Fatalf("a newer write to the seeded key: status %d, want applied", st[0])
	}
}

func TestReplicatedSidecarRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	side := filepath.Join(dir, "sidecar")
	a := newReplicated(t, 1<<12)
	a.ApplyPush([]Entry{{Seq: 3, Op: OpPut, Key: 9, Value: 90}}, nil)
	if err := a.CheckpointWith(noValues, side); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(side)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(side, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	store := newReplicated(t, 1<<12).Inner()
	var serr *atomicio.CorruptError
	if b, err := RestoreReplicated(store, ReplicaConfig{}, side); !errors.As(err, &serr) || serr.Kind != "sidecar" || b != nil {
		t.Fatalf("RestoreReplicated on corrupt file: %v, want a sidecar *CorruptError", err)
	}

	// A version-1 file, which has no drained point, is rejected the same
	// way, so the node takes a full resync rather than resuming from its
	// push-inclusive applied sequence.
	v1 := []byte(atomicio.MagicSidecar)
	v1 = binary.LittleEndian.AppendUint32(v1, 1)
	v1 = binary.LittleEndian.AppendUint64(v1, 3) // applied
	v1 = binary.LittleEndian.AppendUint64(v1, 1) // one record
	v1 = binary.LittleEndian.AppendUint64(v1, 9)
	v1 = binary.LittleEndian.AppendUint64(v1, MetaOf(3, false))
	v1 = binary.LittleEndian.AppendUint32(v1, crc32.Checksum(v1, castagnoli))
	if err := os.WriteFile(side, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreReplicated(store, ReplicaConfig{}, side); !errors.As(err, &serr) || serr.Kind != "sidecar" || !strings.Contains(serr.Reason, "version 1") {
		t.Fatalf("RestoreReplicated on a version-1 file: %v, want a sidecar *CorruptError naming version 1", err)
	}
}

// sidecarBody encodes a version-2 sidecar without its trailing CRC: the
// header (count from len(recs)) and one {key, meta} record per pair.
func sidecarBody(applied, drained uint64, recs ...[2]uint64) []byte {
	b := []byte(atomicio.MagicSidecar)
	b = binary.LittleEndian.AppendUint32(b, sidecarVersion)
	b = binary.LittleEndian.AppendUint64(b, applied)
	b = binary.LittleEndian.AppendUint64(b, drained)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(recs)))
	for _, rec := range recs {
		b = binary.LittleEndian.AppendUint64(b, rec[0])
		b = binary.LittleEndian.AppendUint64(b, rec[1])
	}
	return b
}

// writeSidecar writes body plus the CRC32C it needs to a file in dir.
func writeSidecar(t *testing.T, dir string, body []byte) string {
	t.Helper()
	path := filepath.Join(dir, "sidecar")
	file := binary.LittleEndian.AppendUint32(slices.Clip(body), crc32.Checksum(body, castagnoli))
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestLoadSidecarRejectsMalformedRecords: a CRC-valid sidecar whose records
// repeat a key, break ascending key order, carry meta below 2 (sequence
// number 0) or claim more records than the file holds is rejected with a
// sidecar *CorruptError and builds no replica. Repeated keys used to
// load: key 7 live twice and key 9 tombstoned twice gave 2 tombstones and
// a digest of 0, the duplicate terms XORed away.
func TestLoadSidecarRejectsMalformedRecords(t *testing.T) {
	live, tomb := MetaOf(3, false), MetaOf(4, true)
	overflow := sidecarBody(5, 5)
	binary.LittleEndian.PutUint64(overflow[24:32], 1<<60) // count*16 wraps to 0
	for _, tc := range []struct {
		name string
		body []byte
	}{
		{"repeated keys", sidecarBody(5, 5, [2]uint64{7, live}, [2]uint64{7, live}, [2]uint64{9, tomb}, [2]uint64{9, tomb})},
		{"descending keys", sidecarBody(5, 5, [2]uint64{9, tomb}, [2]uint64{7, live})},
		{"live sequence 0", sidecarBody(5, 5, [2]uint64{7, 0}, [2]uint64{9, tomb})},
		{"tombstone sequence 0", sidecarBody(5, 5, [2]uint64{7, live}, [2]uint64{9, 1})},
		{"count overflows", overflow},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newReplicated(t, 1<<12)
			r.ApplyPush([]Entry{{Seq: 2, Op: OpPut, Key: 7, Value: 70}}, nil)
			var serr *atomicio.CorruptError
			if b, err := RestoreReplicated(r.Inner(), ReplicaConfig{}, writeSidecar(t, t.TempDir(), tc.body)); !errors.As(err, &serr) || serr.Kind != "sidecar" || b != nil {
				t.Fatalf("RestoreReplicated: %v, want a sidecar *CorruptError", err)
			}
		})
	}

	// The same records, once each and in order, load.
	src := newReplicated(t, 1<<12)
	src.ApplyPush([]Entry{{Seq: 2, Op: OpPut, Key: 7, Value: 70}}, nil)
	r, err := RestoreReplicated(src.Inner(), ReplicaConfig{}, writeSidecar(t, t.TempDir(), sidecarBody(5, 5, [2]uint64{7, live}, [2]uint64{9, tomb})))
	if err != nil {
		t.Fatal(err)
	}
	if st := r.ReplicaStats(); st.TrackedKeys != 2 || st.Tombstones != 1 {
		t.Fatalf("loaded %d keys and %d tombstones, want 2 and 1", st.TrackedKeys, st.Tombstones)
	}
	if want := DigestTerm(7, 70, live) ^ DigestTerm(9, 0, tomb); r.Digest() != want {
		t.Fatalf("digest %016x, want %016x", r.Digest(), want)
	}
}

// FuzzLoadSidecar feeds RestoreReplicated arbitrary sidecar bodies. The
// harness appends the CRC each body needs, so mutations reach the header and
// record checks instead of stopping at the checksum. A file that loads must
// track exactly its tombstones and the keys the store holds, from a live
// record or seeded, its digest must be the XOR of DigestTerm over VGet of
// each tracked key, and save, load, save must give byte-identical files.
func FuzzLoadSidecar(f *testing.F) {
	tab, err := mccuckoo.NewSharded(1<<10, 2, mccuckoo.WithSeed(3))
	if err != nil {
		f.Fatal(err)
	}
	for k := uint64(1); k <= 16; k++ {
		tab.Insert(k, k*10)
	}

	// A saved sidecar of a replica whose keys the store holds, plus
	// tombstones, and the crafted rejections above.
	src := newReplicated(f, 1<<10)
	for k := uint64(1); k <= 20; k++ {
		src.ApplyPush([]Entry{{Seq: 10 + k, Op: OpPut, Key: k, Value: k}}, nil)
	}
	src.ApplyPush([]Entry{{Seq: 40, Op: OpDel, Key: 3}, {Seq: 41, Op: OpDel, Key: 30}}, nil)
	src.SetDrained(25)
	dir := f.TempDir()
	if err := src.CheckpointWith(noValues, filepath.Join(dir, "seed")); err != nil {
		f.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "seed"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw[:len(raw)-4])
	live, tomb := MetaOf(3, false), MetaOf(4, true)
	f.Add(sidecarBody(0, 0))
	f.Add(sidecarBody(5, 5, [2]uint64{7, live}, [2]uint64{9, tomb}))
	f.Add(sidecarBody(5, 5, [2]uint64{7, live}, [2]uint64{7, live}, [2]uint64{9, tomb}, [2]uint64{9, tomb}))
	f.Add(sidecarBody(5, 5, [2]uint64{9, tomb}, [2]uint64{7, live}))
	f.Add(sidecarBody(5, 5, [2]uint64{7, 0}, [2]uint64{9, 1}))
	f.Add([]byte(atomicio.MagicSidecar))
	f.Add([]byte(atomicio.MagicSharded))

	// Iterations run one at a time in each worker, so they share dir, and
	// a one-record op log keeps each fresh replica small.
	cfg := ReplicaConfig{OplogSize: 1}
	f.Fuzz(func(t *testing.T, body []byte) {
		r, err := RestoreReplicated(tab, cfg, writeSidecar(t, dir, body))
		if err != nil {
			// A body that starts with another format's magic is an intact
			// file of another kind, which is declined, not corrupt.
			otherKind := bytes.HasPrefix(body, []byte(atomicio.MagicTable)) ||
				bytes.HasPrefix(body, []byte(atomicio.MagicSharded))
			var serr *atomicio.CorruptError
			if !(errors.As(err, &serr) && serr.Kind == "sidecar") && !(otherKind && errors.Is(err, atomicio.ErrOtherKind)) {
				t.Fatalf("RestoreReplicated: %v, want nil or a sidecar *CorruptError", err)
			}
			return
		}
		kept := make(map[uint64]bool)
		for off := 32; off < len(body); off += 16 { // the records follow the 32-byte header
			if binary.LittleEndian.Uint64(body[off+8:])&1 == 1 {
				kept[binary.LittleEndian.Uint64(body[off:])] = true
			}
		}
		tab.Range(func(k, _ uint64) bool { kept[k] = true; return true })
		if n := r.ReplicaStats().TrackedKeys; n != len(kept) {
			t.Fatalf("tracks %d keys, the file kept %d", n, len(kept))
		}
		var digest uint64
		for k := range kept {
			state, v, seq := r.VGet(k)
			if state == VStateMissing {
				t.Fatalf("kept key %d reads as missing", k)
			}
			digest ^= DigestTerm(k, v, MetaOf(seq, state == VStateTomb))
		}
		if digest != r.Digest() {
			t.Fatalf("digest %016x, VGets give %016x", r.Digest(), digest)
		}

		first, second := filepath.Join(dir, "first"), filepath.Join(dir, "second")
		if err := r.CheckpointWith(noValues, first); err != nil {
			t.Fatal(err)
		}
		r2, err := RestoreReplicated(tab, cfg, first)
		if err != nil {
			t.Fatalf("reloading a saved sidecar: %v", err)
		}
		if err := r2.CheckpointWith(noValues, second); err != nil {
			t.Fatal(err)
		}
		a, errA := os.ReadFile(first)
		b, errB := os.ReadFile(second)
		if errA != nil || errB != nil || !bytes.Equal(a, b) {
			t.Fatalf("save, load, save changed the file (%v, %v)", errA, errB)
		}
	})
}

func TestOpLogOverrunAndFullSyncDecision(t *testing.T) {
	tab, err := mccuckoo.NewSharded(1<<12, 4, mccuckoo.WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	r := NewReplicated(tab, ReplicaConfig{OplogSize: 8})
	for k := uint64(1); k <= 20; k++ {
		r.ApplyPush([]Entry{{Seq: k, Op: OpPut, Key: k, Value: k}}, nil)
	}
	// Entries 1..12 fell off the 8-deep ring: resuming from below must be
	// a full sync, resuming from the retained window must not.
	sub, head, full := r.subscribe(5)
	if !full || sub.floor != 0 || head != 20 {
		t.Fatalf("resume 5: full=%v floor=%d head=%d, want a full sync (floor 0) at head 20", full, sub.floor, head)
	}
	// The full dump is a catch-up from floor 0: every key, then the
	// retained window again.
	var got []Entry
	for {
		ents, _ := r.pull(sub, make([]Entry, 0, 6))
		if len(ents) == 0 {
			break
		}
		got = append(got, ents...)
	}
	r.unsubscribe(sub)
	if len(got) != 20+8 {
		t.Fatalf("full sync sent %d entries, want 20 keys plus the 8 retained", len(got))
	}
	if st := r.ReplicaStats(); st.FullSyncs != 1 || st.CatchUps != 0 {
		t.Fatalf("full syncs %d catch-ups %d, want 1 and 0", st.FullSyncs, st.CatchUps)
	}

	sub, _, full = r.subscribe(20)
	defer r.unsubscribe(sub)
	if full || sub.floor != noFloor {
		t.Fatalf("resume at head: full=%v floor=%d, want incremental", full, sub.floor)
	}
	// Drain the retained window through the cursor.
	if ents, _ := r.pull(sub, make([]Entry, 0, 32)); len(ents) != 8 || ents[0].Seq != 13 {
		t.Fatalf("pull: %d entries, want the 8 retained from seq 13", len(ents))
	}
}

// TestCatchUpFloorIsLowestEvictedUnsent drives one subscriber through an
// overrun by hand. Its floor must become the lowest sequence number the
// ring evicted before the subscriber was sent it: not the highest evicted,
// which droppedSeqMax tracks, and not one it had already been sent. The
// catch-up then clears the floor, moves the cursor to the oldest retained
// record, and delivers every key's newest state, including a retained
// out-of-order record whose sequence number is below the floor.
func TestCatchUpFloorIsLowestEvictedUnsent(t *testing.T) {
	tab, err := mccuckoo.NewSharded(1<<12, 4, mccuckoo.WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	r := NewReplicated(tab, ReplicaConfig{OplogSize: 8})
	put := func(key, seq uint64) Entry { return Entry{Seq: seq, Op: OpPut, Key: key, Value: key * 10} }
	r.ApplyPush([]Entry{put(1, 5), put(2, 6), put(3, 103), put(4, 104)}, nil)
	sub, _, full := r.subscribe(0)
	defer r.unsubscribe(sub)
	if full {
		t.Fatal("subscription from an intact ring took a full sync")
	}
	if ents, _ := r.pull(sub, make([]Entry, 0, 2)); len(ents) != 2 || ents[1].Seq != 6 {
		t.Fatalf("first pull: %+v, want seqs 5 and 6", ents)
	}

	// Ten more records evict positions 0..5: seqs 5 and 6 were sent, seqs
	// 103, 104, 500 and 30 were not. Key 15 stays in the ring at seq 3.
	burst := []Entry{put(11, 500), put(12, 30), put(13, 700), put(14, 40), put(15, 3),
		put(16, 800), put(17, 900), put(18, 950), put(19, 960), put(20, 970)}
	r.ApplyPush(burst, nil)
	if sub.floor != 30 || r.log.droppedSeqMax != 500 {
		t.Fatalf("floor %d droppedSeqMax %d, want 30 and 500", sub.floor, r.log.droppedSeqMax)
	}

	got := make(map[uint64]Entry)
	ents, _ := r.pull(sub, make([]Entry, 0, 4))
	if sub.floor != noFloor || sub.cursor != r.log.first {
		t.Fatalf("after the catch-up began: floor %d cursor %d, want cleared and %d", sub.floor, sub.cursor, r.log.first)
	}
	for len(ents) > 0 {
		for _, e := range ents {
			if old, ok := got[e.Key]; !ok || e.Seq > old.Seq {
				got[e.Key] = e
			}
		}
		ents, _ = r.pull(sub, make([]Entry, 0, 4))
	}
	for _, e := range append([]Entry{put(3, 103), put(4, 104)}, burst...) {
		if got[e.Key] != e {
			t.Errorf("key %d: got %+v, want %+v", e.Key, got[e.Key], e)
		}
	}
	if _, ok := got[1]; ok {
		t.Error("catch-up resent key 1, which is below the floor and was already sent")
	}
	if st := r.ReplicaStats(); st.CatchUps != 1 || st.FullSyncs != 0 {
		t.Errorf("catch-ups %d full syncs %d, want 1 and 0", st.CatchUps, st.FullSyncs)
	}
}

// TestBatchFormsAgree applies one entry multiset three ways: as one
// ApplyPush batch, which reserves index room for its new keys up front, as
// single-entry pushes, which grow the index one insert at a time, and as
// ApplyStream chunks of random sizes, which reserve while the index is
// small next to them. The entries repeat keys, PUT and DEL them, repeat
// sequence numbers, and include invalid ones. All three replicas must end
// with the same digest, length, VGet of every key, and applied and stale
// counts.
func TestBatchFormsAgree(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		rng := &digestRand{state: seed}
		const n, keySpace = 6000, 4000
		ents := make([]Entry, n)
		for i := range ents {
			ents[i] = Entry{Seq: 1 + rng.next()%3000, Op: OpPut, Key: rng.next() % keySpace, Value: rng.next()}
			switch rng.next() % 16 {
			case 0:
				ents[i].Seq = 0
			case 1:
				ents[i].Op = OpGet
			case 2, 3, 4, 5:
				ents[i].Op, ents[i].Value = OpDel, 0
			}
		}
		var reps [3]*Replicated
		var applied, stale [3]int
		tally := func(w int, st byte) {
			switch st {
			case ApplyApplied:
				applied[w]++
			case ApplyStale:
				stale[w]++
			default:
				t.Fatalf("seed %d: apply failed", seed)
			}
		}
		for w := range reps {
			reps[w] = newReplicated(t, 1<<13)
		}
		for _, st := range reps[0].ApplyPush(ents, nil) {
			tally(0, st)
		}
		for _, e := range ents {
			tally(1, reps[1].ApplyPush([]Entry{e}, nil)[0])
		}
		for lo := 0; lo < n; {
			hi := min(n, lo+1+int(rng.next()%700))
			a, s, f := reps[2].ApplyStream(ents[lo:hi])
			if f != 0 {
				t.Fatalf("seed %d: %d stream entries failed", seed, f)
			}
			applied[2] += a
			stale[2] += s
			lo = hi
		}
		for w, r := range reps {
			st := r.ReplicaStats()
			if applied[w] != applied[0] || stale[w] != stale[0] || st.EntriesApplied != int64(applied[0]) || st.EntriesStale != int64(stale[0]) {
				t.Fatalf("seed %d form %d: applied %d stale %d (stats %d, %d), batch applied %d stale %d",
					seed, w, applied[w], stale[w], st.EntriesApplied, st.EntriesStale, applied[0], stale[0])
			}
			if r.Digest() != reps[0].Digest() || r.Len() != reps[0].Len() || st.TrackedKeys != reps[0].ReplicaStats().TrackedKeys {
				t.Fatalf("seed %d form %d: digest %016x len %d, batch %016x len %d", seed, w, r.Digest(), r.Len(), reps[0].Digest(), reps[0].Len())
			}
		}
		for k := uint64(0); k < keySpace+8; k++ {
			state, v, seq := reps[0].VGet(k)
			for w, r := range reps[1:] {
				if s2, v2, seq2 := r.VGet(k); s2 != state || v2 != v || seq2 != seq {
					t.Fatalf("seed %d key %d: form %d VGet (%d %d %d), batch (%d %d %d)", seed, k, w+1, s2, v2, seq2, state, v, seq)
				}
			}
		}
	}
}

// TestPullDuringReservingBatch has a subscriber pull on its own goroutine
// while batches apply on this one, each with enough new keys to rebuild
// every segment of the index up front. The op-log ring is smaller than a
// batch, so the subscriber is caught up from the index between rebuilds.
// After a final drain it must hold every key's newest state.
func TestPullDuringReservingBatch(t *testing.T) {
	tab, err := mccuckoo.NewSharded(1<<15, 4, mccuckoo.WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	r := NewReplicated(tab, ReplicaConfig{OplogSize: 512})
	sub, _, _ := r.subscribe(0)
	defer r.unsubscribe(sub)
	got := make(map[uint64]Entry)
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		dst := make([]Entry, 0, 256)
		drain := func() {
			for {
				ents, _ := r.pull(sub, dst)
				if len(ents) == 0 {
					return
				}
				for _, e := range ents {
					if old, ok := got[e.Key]; !ok || e.Seq > old.Seq {
						got[e.Key] = e
					}
				}
			}
		}
		for {
			drain()
			select {
			case <-sub.notify:
			case <-stop:
				drain()
				return
			}
		}
	}()
	// Each push brings 2,048 new keys and updates or deletes the previous
	// push's 2,048.
	const pushes, half = 6, 2048
	ents := make([]Entry, 2*half)
	seq := uint64(0)
	for p := range pushes {
		for i := range ents {
			seq++
			key := uint64(p*half+i) * 0x9e3779b97f4a7c15
			ents[i] = Entry{Seq: seq, Op: OpPut, Key: key, Value: seq}
			if i%3 == 0 {
				ents[i].Op, ents[i].Value = OpDel, 0
			}
		}
		r.ApplyPush(ents, nil)
	}
	close(stop)
	<-done
	if st := r.ReplicaStats(); len(got) != st.TrackedKeys || st.CatchUps == 0 {
		t.Fatalf("subscriber holds %d keys, replica tracks %d; %d catch-ups, want some", len(got), st.TrackedKeys, st.CatchUps)
	}
	for k, e := range got {
		state, v, seq := r.VGet(k)
		want := Entry{Seq: seq, Op: OpPut, Key: k, Value: v}
		if state == VStateTomb {
			want.Op = OpDel
		}
		if e != want {
			t.Fatalf("key %#x: subscriber holds %+v, replica %+v", k, e, want)
		}
	}
}

func TestReplicatedSeedsFromPreloadedStore(t *testing.T) {
	tab, err := mccuckoo.NewSharded(1<<12, 4, mccuckoo.WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= 50; k++ {
		tab.Insert(k, k+1000)
	}
	r := NewReplicated(tab, ReplicaConfig{})
	if state, v, seq := r.VGet(25); state != VStateLive || v != 1025 || seq == 0 {
		t.Fatalf("seeded key: state=%d v=%d seq=%d", state, v, seq)
	}
	// Seeded keys are ancient: any replicated write beats them.
	st := r.ApplyPush([]Entry{{Seq: 2, Op: OpPut, Key: 25, Value: 7}}, nil)
	if st[0] != ApplyApplied {
		t.Fatalf("write over seeded key: status %d, want applied", st[0])
	}
	// And a subscriber must take a full sync (the seeds predate any log).
	sub, _, full := r.subscribe(0)
	defer r.unsubscribe(sub)
	if ents, _ := r.pull(sub, make([]Entry, 0, 64)); !full || len(ents) != 50 {
		t.Fatalf("subscribe over seeded store: full=%v dumped %d keys", full, len(ents))
	}
}

// --- wire-level tests for the replication opcodes ---

func TestReplicatePayloadRoundTrip(t *testing.T) {
	ents := []Entry{
		{Seq: 1, Op: OpPut, Key: 2, Value: 3},
		{Seq: ^uint64(0), Op: OpDel, Key: ^uint64(0)},
		{Seq: 1 << 40, Op: OpPut, Key: 0, Value: 1 << 63},
	}
	p := AppendReplicatePayload(nil, 99, ents)
	head, got, ok := ParseReplicatePayload(p, nil)
	if !ok || head != 99 || len(got) != len(ents) {
		t.Fatalf("round trip: ok=%v head=%d n=%d", ok, head, len(got))
	}
	for i := range ents {
		if got[i] != ents[i] {
			t.Fatalf("entry %d: %+v != %+v", i, got[i], ents[i])
		}
	}
	// Malformed: bad op, truncated, trailing garbage, lying count.
	bad := AppendReplicatePayload(nil, 1, []Entry{{Seq: 1, Op: OpStats, Key: 1}})
	if _, _, ok := ParseReplicatePayload(bad, nil); ok {
		t.Fatal("accepted an entry with an invalid op")
	}
	if _, _, ok := ParseReplicatePayload(p[:len(p)-1], nil); ok {
		t.Fatal("accepted a truncated payload")
	}
	if _, _, ok := ParseReplicatePayload(append(p, 0), nil); ok {
		t.Fatal("accepted trailing garbage")
	}
	if _, _, ok := ParseReplicatePayload(p[:replicateHeadLen], nil); ok {
		t.Fatal("accepted a count with no records")
	}
}

func TestSubscribeCodecRoundTrip(t *testing.T) {
	p := AppendSubscribePayload(nil, 12345)
	c := cursor{b: p}
	if got := c.u64(); !c.ok() || got != 12345 {
		t.Fatalf("subscribe payload: %d", got)
	}
	resp := appendU8(appendU64(nil, 777), 1)
	head, full, ok := ParseSubscribeResponse(resp)
	if !ok || head != 777 || !full {
		t.Fatalf("subscribe response: head=%d full=%v ok=%v", head, full, ok)
	}
	if _, _, ok := ParseSubscribeResponse(resp[:5]); ok {
		t.Fatal("accepted a truncated subscribe response")
	}
	if _, _, ok := ParseSubscribeResponse(appendU8(appendU64(nil, 1), 2)); ok {
		t.Fatal("accepted an out-of-range full flag")
	}
}

func TestOpNameCoversReplicationOpcodes(t *testing.T) {
	want := map[byte]string{
		OpVGet: "vget", OpSub: "subscribe", OpReplicate: "replicate",
		OpDigest: "digest",
	}
	for op, name := range want {
		if got := OpName(op); got != name {
			t.Fatalf("OpName(%d) = %q, want %q", op, got, name)
		}
	}
	if OpName(42) != "unknown" {
		t.Fatal("unknown opcodes must map to \"unknown\"")
	}
}

func TestServerVGetAndReplicate(t *testing.T) {
	rep := newReplicated(t, 1<<12)
	_, addr, shutdown := startServer(t, rep, nil)
	defer shutdown()
	c := dialClient(t, addr, nil)

	statuses, err := c.Replicate(trace.Context{}, 2, []Entry{
		{Seq: 1, Op: OpPut, Key: 10, Value: 100},
		{Seq: 2, Op: OpPut, Key: 20, Value: 200},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range statuses {
		if st != ApplyApplied {
			t.Fatalf("entry %d: status %d, want applied", i, st)
		}
	}
	state, v, seq, err := c.VGet(trace.Context{}, 10)
	if err != nil || state != VStateLive || v != 100 || seq != 1 {
		t.Fatalf("VGet: state=%d v=%d seq=%d err=%v", state, v, seq, err)
	}
	// Stale push answers stale, and STATS carries the replica section.
	statuses, err = c.Replicate(trace.Context{}, 2, []Entry{{Seq: 1, Op: OpPut, Key: 10, Value: 1}})
	if err != nil || statuses[0] != ApplyStale {
		t.Fatalf("stale push: statuses=%v err=%v", statuses, err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Replica == nil || st.Replica.AppliedSeq != 2 || st.Replica.DigestHex == "" {
		t.Fatalf("STATS replica section: %+v", st.Replica)
	}
}

func TestServerReplicationOpsNeedReplicatedStore(t *testing.T) {
	tab, err := mccuckoo.NewSharded(1<<10, 4, mccuckoo.WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	_, addr, shutdown := startServer(t, tab, nil)
	defer shutdown()
	c := dialClient(t, addr, nil)
	var se *ServerError
	if _, _, _, err := c.VGet(trace.Context{}, 1); !errors.As(err, &se) {
		t.Fatalf("VGet on plain store: %v, want ServerError", err)
	}
	if _, err := c.Replicate(trace.Context{}, 1, []Entry{{Seq: 1, Op: OpPut, Key: 1}}); !errors.As(err, &se) {
		t.Fatalf("Replicate on plain store: %v, want ServerError", err)
	}
}

// TestServerSubscriptionStream drives the raw subscribe protocol: resume
// from zero against a populated replica, expect a full dump followed by
// live tail entries, with keepalives carrying the head.
func TestServerSubscriptionStream(t *testing.T) {
	tab, err := mccuckoo.NewSharded(1<<12, 4, mccuckoo.WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	// A ring smaller than the history forces the full-dump path.
	rep := NewReplicated(tab, ReplicaConfig{OplogSize: 8})
	for k := uint64(1); k <= 100; k++ {
		rep.ApplyPush([]Entry{{Seq: k, Op: OpPut, Key: k, Value: k * 3}}, nil)
	}
	_, addr, shutdown := startServer(t, rep, func(c *Config) { c.SubKeepalive = 50 * time.Millisecond })
	defer shutdown()

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	sub := AppendFrame(nil, Frame{Type: OpSub, ID: 9, Payload: AppendSubscribePayload(nil, 0)})
	if _, err := nc.Write(sub); err != nil {
		t.Fatal(err)
	}
	var buf []byte
	var f Frame
	read := func() Frame {
		t.Helper()
		nc.SetReadDeadline(time.Now().Add(5 * time.Second))
		f, buf, err = ReadFrame(nc, DefaultMaxPayload, buf)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	f = read()
	if !f.IsResponse() || f.Status() != StatusOK || f.ID != 9 {
		t.Fatalf("handshake: %+v", f)
	}
	head, full, ok := ParseSubscribeResponse(f.Payload)
	if !ok || !full || head != 100 {
		t.Fatalf("handshake payload: head=%d full=%v", head, full)
	}

	// Collect the dump, then a live write must arrive over the stream.
	got := make(map[uint64]uint64)
	collect := func(until int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for len(got) < until && time.Now().Before(deadline) {
			f = read()
			if f.Type != OpReplicate || f.ID != 9 {
				t.Fatalf("stream frame: %+v", f)
			}
			_, ents, ok := ParseReplicatePayload(f.Payload, nil)
			if !ok {
				t.Fatal("malformed stream frame")
			}
			for _, e := range ents {
				if e.Op == OpPut {
					got[e.Key] = e.Value
				}
			}
		}
	}
	collect(100)
	for k := uint64(1); k <= 100; k++ {
		if got[k] != k*3 {
			t.Fatalf("dump missing key %d (got %d)", k, got[k])
		}
	}
	rep.ApplyPush([]Entry{{Seq: 500, Op: OpPut, Key: 777, Value: 7770}}, nil)
	collect(101)
	if got[777] != 7770 {
		t.Fatal("live tail entry never arrived")
	}
}

// TestSubscriptionCatchUpInPlace overruns a live subscription: after it
// has drained (one keepalive read), a single push of 100 out-of-order
// entries goes through an 8-entry ring. The lowest sequence number is
// evicted unsent and another low one stays in the ring. The same
// connection must deliver every key's newest state and then a keepalive,
// with no ERR frame, counted as one catch-up and no full sync.
func TestSubscriptionCatchUpInPlace(t *testing.T) {
	tab, err := mccuckoo.NewSharded(1<<12, 4, mccuckoo.WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	rep := NewReplicated(tab, ReplicaConfig{OplogSize: 8})
	_, addr, shutdown := startServer(t, rep, func(c *Config) { c.SubKeepalive = 20 * time.Millisecond })
	defer shutdown()

	raw := dialRaw(t, addr)
	if err := raw.nc.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	raw.send(Frame{Type: OpSub, ID: 4, Payload: AppendSubscribePayload(nil, 0)})
	if f := raw.recv(); !f.IsResponse() || f.Status() != StatusOK {
		t.Fatalf("handshake: %+v", f)
	}
	// next reads one stream frame; an ERR response fails the test.
	next := func() []Entry {
		t.Helper()
		f := raw.recv()
		if f.IsResponse() || f.Type != OpReplicate || f.ID != 4 {
			t.Fatalf("stream frame: type %#02x response %v payload %q", f.Type, f.IsResponse(), f.Payload)
		}
		_, ents, ok := ParseReplicatePayload(f.Payload, nil)
		if !ok {
			t.Fatal("malformed stream frame")
		}
		return ents
	}
	if ents := next(); len(ents) != 0 {
		t.Fatalf("first frame on an empty replica: %+v, want a keepalive", ents)
	}

	// Keys 1..100 at a permutation of seqs 1000..1099, except key 1, the
	// first record and so evicted, at seq 1 (the lowest) and key 96, one
	// of the 8 retained, at seq 2.
	burst := make([]Entry, 100)
	for i := range burst {
		burst[i] = Entry{Seq: 1000 + uint64(i*37%100), Op: OpPut, Key: uint64(i + 1), Value: uint64(i+1) * 7}
	}
	burst[0].Seq, burst[95].Seq = 1, 2
	rep.ApplyPush(burst, nil)

	got := make(map[uint64]Entry)
	for ents := next(); len(ents) > 0; ents = next() {
		for _, e := range ents {
			if old, ok := got[e.Key]; !ok || e.Seq > old.Seq {
				got[e.Key] = e
			}
		}
	}
	for _, e := range burst {
		if got[e.Key] != e {
			t.Fatalf("key %d before the keepalive: got %+v, want %+v", e.Key, got[e.Key], e)
		}
	}
	if st := rep.ReplicaStats(); st.CatchUps != 1 || st.FullSyncs != 0 {
		t.Fatalf("catch-ups %d full syncs %d, want 1 and 0", st.CatchUps, st.FullSyncs)
	}
}

// --- satellite: version compatibility ---

// TestServerRejectsNewerVersion: a frame claiming a future protocol
// version must be rejected with a typed error and a prompt connection
// close — no hang, no panic, no partial execution.
func TestServerRejectsNewerVersion(t *testing.T) {
	tab, err := mccuckoo.NewSharded(1<<10, 4, mccuckoo.WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	// The decoder itself reports the typed error...
	frame := AppendFrame(nil, Frame{Type: OpPing, ID: 1})
	frame[2] = Version + 1
	var perr *ProtocolError
	if _, _, err := DecodeFrame(frame, DefaultMaxPayload); !errors.As(err, &perr) {
		t.Fatalf("DecodeFrame on newer version: %v, want *ProtocolError", err)
	}
	if !strings.Contains(perr.Reason, "version") {
		t.Fatalf("rejection should name the version: %q", perr.Reason)
	}

	// ...and a live server closes the connection instead of hanging. (The
	// CRC is recomputed so only the version byte is at fault.)
	_, addr, shutdown := startServer(t, tab, nil)
	defer shutdown()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	reframed := AppendFrame(nil, Frame{Type: OpPing, ID: 1})
	reframed[2] = Version + 1
	body := reframed[:len(reframed)-crcLen]
	reframed = appendU32(body, crc32.Checksum(body, castagnoli))
	if _, err := nc.Write(reframed); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	onebyte := make([]byte, 1)
	if _, err := nc.Read(onebyte); err == nil {
		t.Fatal("server answered a newer-version frame instead of closing")
	}
}

// --- satellite: reconnect-on-dead ---

// TestClientFailFastAndReconnectCounter kills the connection mid-pipeline:
// every queued request must fail fast with ErrConnFailed (not wait out its
// timeout), and the next call must redial, bumping Reconnects.
func TestClientFailFastAndReconnectCounter(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	kill := make(chan struct{})
	go func() {
		first := true
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			if first {
				first = false
				go func(nc net.Conn) {
					<-kill
					nc.Close() // kill mid-pipeline, answering nothing
				}(nc)
				continue
			}
			// Replacement connections echo OK to everything.
			go func(nc net.Conn) {
				defer nc.Close()
				var buf []byte
				for {
					f, b, err := ReadFrame(nc, DefaultMaxPayload, buf)
					buf = b
					if err != nil {
						return
					}
					if _, err := nc.Write(respFrame(f.ID, StatusOK, nil)); err != nil {
						return
					}
				}
			}(nc)
		}
	}()

	c, err := Dial(ClientConfig{Addr: ln.Addr().String(), Conns: 1, RequestTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Pipeline requests that will never be answered, then kill the conn.
	const inflight = 4
	errs := make(chan error, inflight)
	for i := 0; i < inflight; i++ {
		go func() { errs <- c.Ping() }()
	}
	time.Sleep(50 * time.Millisecond) // let the pings reach the wire
	close(kill)
	deadline := time.NewTimer(5 * time.Second)
	defer deadline.Stop()
	for i := 0; i < inflight; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, ErrConnFailed) {
				t.Fatalf("pipelined request: %v, want ErrConnFailed", err)
			}
		case <-deadline.C:
			t.Fatal("pipelined requests did not fail fast after the kill")
		}
	}
	if got := c.Reconnects(); got != 0 {
		t.Fatalf("Reconnects before redial: %d, want 0", got)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("ping after reconnect: %v", err)
	}
	if got := c.Reconnects(); got != 1 {
		t.Fatalf("Reconnects after redial: %d, want 1", got)
	}
	var out bytes.Buffer
	if err := c.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "mccuckoo_client_reconnects_total 1") {
		t.Fatalf("prometheus output missing reconnect counter:\n%s", out.String())
	}
}

// TestCheckpointBytesPinned pins the bytes a replicated sharded node
// checkpoints: its sharded snapshot and its sidecar. Both files end with the
// CRC32C of every byte before it, so the CRC32C of a whole file is the same
// constant for every intact file; the test pins each file's length and the
// CRC32C of the bytes before its trailer, which the trailer must repeat. A
// change to how either file is framed must leave these values as they are.
func TestCheckpointBytesPinned(t *testing.T) {
	tab, err := mccuckoo.NewSharded(4096, 4, mccuckoo.WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	r := NewReplicated(tab, ReplicaConfig{})
	const mul = 0x9e3779b97f4a7c15
	for k := uint64(1); k <= 3000; k++ {
		r.Insert(k*mul, k)
	}
	for k := uint64(1); k <= 300; k++ {
		r.Delete(k * mul)
	}
	r.SetDrained(1234)
	dir := t.TempDir()
	snap, side := filepath.Join(dir, "table.snap"), filepath.Join(dir, "table.snap.replica")
	if err := r.CheckpointWith(func() error { return tab.SaveFile(snap) }, side); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		path string
		size int
		crc  uint32
	}{
		{snap, 68090, 0x9379fb95},
		{side, 48036, 0x52afb0b1},
	} {
		raw, err := os.ReadFile(tc.path)
		if err != nil {
			t.Fatal(err)
		}
		if len(raw) != tc.size {
			t.Fatalf("%s: %d bytes, want %d", filepath.Base(tc.path), len(raw), tc.size)
		}
		body, trailer := raw[:len(raw)-4], binary.LittleEndian.Uint32(raw[len(raw)-4:])
		if got := crc32.Checksum(body, castagnoli); got != tc.crc || trailer != tc.crc {
			t.Errorf("%s: CRC32C before the trailer %#08x, trailer %#08x, want %#08x",
				filepath.Base(tc.path), got, trailer, tc.crc)
		}
	}
}
