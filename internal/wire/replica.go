package wire

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"slices"
	"sync"
	"sync/atomic"

	"mccuckoo"
	"mccuckoo/internal/atomicio"
	"mccuckoo/internal/hashutil"
	"mccuckoo/internal/shard"
	"mccuckoo/internal/telemetry"
)

// This file is the server half of the cluster tier (DESIGN.md §11):
// Replicated wraps any concurrency-safe BatchStore with the per-key
// sequence-number bookkeeping that makes multi-copy replication converge —
// newest-write-wins applies, deletion tombstones, an op-log ring feeding
// SUBSCRIBE streams, and an order-independent state digest that lets two
// replicas prove byte-identical convergence over the wire.

// seqLimit bounds valid sequence numbers: meta words hold seq<<1, so a
// sequence number with bit 63 set would lose that bit. applyLocked rejects
// such entries like Seq 0.
const seqLimit = 1 << 63

// seededSeq is the sequence number assigned to keys found in the store
// before any tracked write: older than every real write (real sequence
// numbers are hybrid-clock values), so any replicated entry supersedes
// them.
const seededSeq = 1

// ReplicaConfig configures a Replicated. The zero value is usable.
type ReplicaConfig struct {
	// OplogSize is the op-log ring capacity in entries (default 4096),
	// allocated up front at 24 bytes each: 96 KiB at the default. A live
	// subscriber the ring overtakes catches up in place from the per-key
	// sequence numbers, on the same connection. A new subscription resuming
	// from behind the ring, such as a peer that was down for more writes
	// than this, takes a full state dump.
	OplogSize int
}

// Replicated wraps a BatchStore with multi-copy replication state. All
// mutations — local (the plain BatchStore methods), pushed (REPLICATE
// requests: cluster writes and read-repair), and streamed (op-log
// subscriptions) — funnel through one versioned apply: an entry is applied
// only if its sequence number is strictly newer than the key's current one,
// so replicas that receive the same entries in any order converge to the
// same state. Deletes leave a tombstone carrying the deletion's sequence
// number, which stops a stale PUT from resurrecting the key.
//
// The wrapped store must itself be safe for concurrent use (Sharded, or
// Concurrent around a single-writer kind); Replicated adds its own lock
// only around the versioning bookkeeping, and read-only Store methods pass
// through unlocked.
type Replicated struct {
	inner mccuckoo.BatchStore

	mu sync.RWMutex
	//mcvet:guardedby mu
	seqs seqIndex // key -> meta: seq<<1 | tombstone bit
	//mcvet:guardedby mu
	applied uint64 // highest sequence number applied
	//mcvet:guardedby mu
	localSeq uint64 // last sequence number issued or seen; local writes use localSeq+1
	//mcvet:guardedby mu
	baseSeq uint64 // mutations at or below this predate the op log
	//mcvet:guardedby mu
	drained uint64 // every peer stream had drained into this replica up to here
	//mcvet:guardedby mu
	digest uint64 // XOR of DigestTerm over every tracked key
	//mcvet:guardedby mu
	tombs int
	//mcvet:guardedby mu
	log *opLog
	//mcvet:guardedby mu
	subs []*logSub
	//mcvet:guardedby mu
	appended bool // the log grew since the subscribers were last poked
	// filter restricts DigestRange to keys the requesting peer co-owns
	// with this node (set by the cluster tier; nil means no restriction).
	// Kept ring-agnostic: package wire never imports the ring.
	//mcvet:guardedby mu
	filter func(peer string, key uint64) bool

	applies       [ApplyFailed + 1]atomic.Int64 // entries per apply status, all sources
	repairApplied atomic.Int64
	fullSyncs     atomic.Int64
	catchUps      atomic.Int64
}

var _ mccuckoo.BatchStore = (*Replicated)(nil)

// NewReplicated wraps inner. If inner is non-empty and supports Range (all
// concrete kinds do), its keys are seeded at an ancient sequence number so
// they participate in state dumps and version comparisons. A node restarted
// from its checkpoint builds its replica with RestoreReplicated instead.
func NewReplicated(inner mccuckoo.BatchStore, cfg ReplicaConfig) *Replicated {
	r := newReplica(inner, cfg, inner.Len())
	rng, ok := inner.(interface {
		Range(func(key, value uint64) bool)
	})
	if !ok || inner.Len() == 0 {
		return r
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	meta := uint64(seededSeq) << 1
	rng.Range(func(key, value uint64) bool {
		r.seqs.set(key, meta)
		r.digest ^= DigestTerm(key, value, meta)
		return true
	})
	r.applied, r.localSeq, r.baseSeq, r.drained = seededSeq, seededSeq, seededSeq, seededSeq
	return r
}

// newReplica returns a Replicated over inner with no tracked key and an
// index sized for hint keys.
func newReplica(inner mccuckoo.BatchStore, cfg ReplicaConfig, hint int) *Replicated {
	if cfg.OplogSize <= 0 {
		cfg.OplogSize = 1 << 12
	}
	return &Replicated{
		inner: inner,
		seqs:  newSeqIndex(rand.Uint64(), hint),
		log:   newOpLog(cfg.OplogSize),
	}
}

// Applied returns the highest sequence number applied so far, pushes
// included, so it is not a safe point to resume a subscription from; see
// SetDrained.
func (r *Replicated) Applied() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.applied
}

// SetDrained records the point the replicator resumes its peer
// subscriptions from after a restart (ReplicaStats.DrainedSeq): the
// lowest, over the peers, of the newest sequence number each stream had
// delivered when that stream last drained. The checkpoint persists it. It
// only moves forward, so concurrent callers cannot move it back.
func (r *Replicated) SetDrained(seq uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.drained = max(r.drained, seq)
}

// Digest returns the order-independent state checksum: XOR over every
// tracked key of DigestTerm(key, value, meta). Two replicas tracking the
// same key set hold byte-identical data iff their digests match.
func (r *Replicated) Digest() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.digest
}

// DigestTerm is one key's contribution to the replica digest. Exported so
// a convergence check can compute the expected digest from wire reads.
// value must be 0 for tombstones; meta is seq<<1 with the low bit set for
// tombstones (the encoding VGet reports).
//
//mcvet:deterministic
func DigestTerm(key, value, meta uint64) uint64 {
	return hashutil.Mix64(hashutil.Mix64(hashutil.Mix64(key)^value) ^ meta)
}

// SetDigestFilter installs the ownership filter applied by DigestRange: a
// key contributes to a peer's range digest only when fn(peer, key) is true.
// The cluster tier sets fn to "peer owns key AND this node owns key" so the
// two sides of an anti-entropy exchange digest the same key set; nil
// removes the restriction.
func (r *Replicated) SetDigestFilter(fn func(peer string, key uint64) bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.filter = fn
}

// DigestRange computes the XOR digest over tracked keys in [lo, hi] that
// pass the digest filter for peer, plus their count. When the count is at
// most maxKeys the keys are enumerated as (key, meta) pairs — the
// reconciliation unit for anti-entropy bisection. maxKeys <= 0 disables
// enumeration.
func (r *Replicated) DigestRange(peer string, lo, hi uint64, maxKeys int) (digest, count uint64, keys []DigestEntry) {
	if maxKeys > MaxDigestKeys {
		maxKeys = MaxDigestKeys
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	r.seqs.each(func(k, meta uint64) {
		if k < lo || k > hi || (r.filter != nil && !r.filter(peer, k)) {
			return
		}
		var val uint64
		if meta&1 == 0 {
			if v, ok := r.inner.Lookup(k); ok {
				val = v
			}
		}
		digest ^= DigestTerm(k, val, meta)
		count++
		if maxKeys > 0 && len(keys) < maxKeys {
			keys = append(keys, DigestEntry{Key: k, Meta: meta})
		}
	})
	if uint64(len(keys)) < count {
		// The range overflowed the enumeration budget: the caller must
		// bisect, so a partial listing is only misleading.
		keys = nil
	}
	return digest, count, keys
}

// MetaOf rebuilds the internal meta word from a VGET response, for digest
// computations: seq<<1, low bit set when the state is a tombstone.
func MetaOf(seq uint64, tomb bool) uint64 {
	m := seq << 1
	if tomb {
		m |= 1
	}
	return m
}

// valid reports whether e can apply: a PUT or DEL with a sequence number
// from 1 to below seqLimit.
func (e *Entry) valid() bool {
	return e.Seq != 0 && e.Seq < seqLimit && (e.Op == OpPut || e.Op == OpDel)
}

// applyCounts tallies one call's apply statuses, indexed by status.
// applyLocked counts each entry into its caller's tally, and the caller
// adds the tally to the replica's counters once (finishLocked).
type applyCounts [ApplyFailed + 1]int64

// applyLocked is the single mutation path. It counts the entry's apply
// status into n and returns it, plus the inner store's results for the
// caller-facing unversioned wrappers. An invalid entry is counted and
// answered as stale, never applied.
//
//mcvet:locked
func (r *Replicated) applyLocked(e Entry, n *applyCounts) (status byte, res mccuckoo.InsertResult, removed bool) {
	pos, meta := r.seqs.probe(e.Key)
	seen := meta != 0
	if !e.valid() || (seen && e.Seq <= meta>>1) {
		n[ApplyStale]++
		return ApplyStale, res, false
	}
	var oldTerm uint64
	if seen {
		var oldVal uint64
		if meta&1 == 0 {
			if v, ok := r.inner.Lookup(e.Key); ok {
				oldVal = v
			}
		}
		oldTerm = DigestTerm(e.Key, oldVal, meta)
	}
	newMeta := e.Seq << 1
	var newVal uint64
	switch e.Op {
	case OpPut:
		res = r.inner.Insert(e.Key, e.Value)
		if res.Status == mccuckoo.Failed {
			// The write should have won but the table had no room. The
			// sequence number is NOT advanced, so a later retry (or
			// read-repair) can still land it.
			n[ApplyFailed]++
			return ApplyFailed, res, false
		}
		newVal = e.Value
	case OpDel:
		removed = r.inner.Delete(e.Key)
		newMeta |= 1
	}
	if wasTomb, isTomb := seen && meta&1 == 1, e.Op == OpDel; isTomb && !wasTomb {
		r.tombs++
	} else if wasTomb && !isTomb {
		r.tombs--
	}
	r.seqs.update(pos, e.Key, newMeta)
	r.digest ^= oldTerm ^ DigestTerm(e.Key, newVal, newMeta)
	if e.Seq > r.applied {
		r.applied = e.Seq
	}
	if e.Seq > r.localSeq {
		r.localSeq = e.Seq
	}
	if evicted := r.log.append(opRec{key: e.Key, value: newVal, meta: newMeta}); evicted != 0 {
		// A subscriber whose cursor is now behind the ring had not been
		// sent the evicted record: its floor drops to that sequence.
		for _, sub := range r.subs {
			if sub.cursor < r.log.first {
				sub.floor = min(sub.floor, evicted)
			}
		}
	}
	r.appended = true
	n[ApplyApplied]++
	return ApplyApplied, res, removed
}

// finishLocked adds one call's tally to the replica's counters and pokes
// every subscriber once if the log grew since the last poke. Each mutating
// call runs it once, before it releases the lock, so ReplicaStats never
// sees part of a call.
//
//mcvet:locked
func (r *Replicated) finishLocked(n *applyCounts) {
	for st, c := range n {
		if c != 0 {
			r.applies[st].Add(c)
		}
	}
	if !r.appended {
		return
	}
	r.appended = false
	for _, sub := range r.subs {
		select {
		case sub.notify <- struct{}{}:
		default:
		}
	}
}

// ApplyPush applies pushed entries (a REPLICATE request: a cluster write or
// a read-repair) and returns one apply status per entry.
func (r *Replicated) ApplyPush(ents []Entry, statuses []byte) []byte {
	if cap(statuses) < len(ents) {
		statuses = make([]byte, len(ents))
	}
	statuses = statuses[:len(ents)]
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seqs.reserve(len(ents), func(i int) (uint64, bool) { return ents[i].Key, ents[i].valid() })
	var n applyCounts
	for i, e := range ents {
		statuses[i], _, _ = r.applyLocked(e, &n)
	}
	if n[ApplyApplied] != 0 {
		r.repairApplied.Add(n[ApplyApplied])
	}
	r.finishLocked(&n)
	return statuses
}

// ApplyStream applies entries received from an op-log subscription,
// reporting how many were applied, stale, and failed.
func (r *Replicated) ApplyStream(ents []Entry) (applied, stale, failed int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seqs.reserve(len(ents), func(i int) (uint64, bool) { return ents[i].Key, ents[i].valid() })
	var n applyCounts
	for _, e := range ents {
		r.applyLocked(e, &n)
	}
	r.finishLocked(&n)
	return int(n[ApplyApplied]), int(n[ApplyStale]), int(n[ApplyFailed])
}

// VGet reports a key's replication state: VStateLive with its value and
// last-write sequence number, VStateTomb with the deletion's sequence
// number, or VStateMissing (seq 0) for a key this replica has never seen.
func (r *Replicated) VGet(key uint64) (state byte, value, seq uint64) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	meta, ok := r.seqs.get(key)
	if !ok {
		return VStateMissing, 0, 0
	}
	if meta&1 == 1 {
		return VStateTomb, 0, meta >> 1
	}
	v, found := r.inner.Lookup(key)
	if !found {
		// Every live meta has its value: a failed insert changes neither,
		// and a restore rejects a checkpoint whose records and store
		// differ. Should the store lose a value regardless, report the key
		// missing so read-repair re-fills it.
		return VStateMissing, 0, 0
	}
	return VStateLive, v, meta >> 1
}

// --- op-log subscriptions ---

// logSub is one subscriber's position in the op log. The serving goroutine
// owns it and moves it only in pull, under the read lock; applyLocked
// lowers floor under the write lock, so the mutex orders every access.
// notify (capacity 1) is poked once per mutating call that appended.
type logSub struct {
	cursor uint64
	// floor is the lowest sequence number of a record the ring evicted
	// before this subscriber was sent it, or noFloor when it missed
	// nothing. Floor 0 asks for every key: the full dump of a subscription
	// that starts behind the ring.
	floor uint64
	// keys holds the running catch-up's keys that are still to be sent.
	keys   []uint64
	notify chan struct{}
}

// noFloor is the floor of a subscriber that has missed nothing.
const noFloor = ^uint64(0)

// subscribe registers a subscriber resuming after fromSeq at the oldest
// retained record; head is the replica's current high-water sequence
// number. full reports that fromSeq is behind the ring: entries after it
// may be evicted, and sequence numbers cannot say which, because pushes
// land out of sequence order. The subscriber's floor is then 0, so its
// first pull starts a catch-up over every tracked key, a full dump.
func (r *Replicated) subscribe(fromSeq uint64) (sub *logSub, head uint64, full bool) {
	sub = &logSub{floor: noFloor, notify: make(chan struct{}, 1)}
	r.mu.Lock()
	defer r.mu.Unlock()
	sub.cursor = r.log.first
	if full = fromSeq < max(r.log.droppedSeqMax, r.baseSeq); full {
		r.fullSyncs.Add(1)
		sub.floor = 0
	}
	r.subs = append(r.subs, sub)
	return sub, r.applied, full
}

func (r *Replicated) unsubscribe(sub *logSub) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.subs = slices.DeleteFunc(r.subs, func(s *logSub) bool { return s == sub })
}

// pull fills dst, up to its capacity (at least one entry), with what the
// subscriber is owed next, and returns the replica's head. A subscriber
// whose floor is set first catches up: it is sent, from seqs, the newest
// state of every key whose sequence number is at or above the floor (live
// keys as PUTs, tombstones as DELs), and then resumes from the oldest
// record still in the ring. Every record it was not sent is covered: an
// evicted one's key is at or above the floor, and a retained one, even an
// out-of-order record below the floor, is still in the ring. Entries sent
// twice cost only a stale apply. An empty result means the subscriber has
// been sent everything appended so far.
func (r *Replicated) pull(sub *logSub, dst []Entry) ([]Entry, uint64) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(sub.keys) == 0 && sub.floor != noFloor {
		if sub.floor > 0 {
			r.catchUps.Add(1) // floor 0 is a full dump, counted by subscribe
		}
		r.seqs.each(func(k, meta uint64) {
			if meta>>1 >= sub.floor {
				sub.keys = append(sub.keys, k)
			}
		})
		sub.cursor, sub.floor = r.log.first, noFloor
	}
	dst = dst[:0]
	for len(dst) == 0 && len(sub.keys) > 0 {
		n := min(cap(dst), len(sub.keys))
		for _, k := range sub.keys[:n] {
			meta, _ := r.seqs.get(k)
			if meta&1 == 1 {
				dst = append(dst, Entry{Seq: meta >> 1, Op: OpDel, Key: k})
			} else if v, found := r.inner.Lookup(k); found {
				dst = append(dst, Entry{Seq: meta >> 1, Op: OpPut, Key: k, Value: v})
			}
		}
		if sub.keys = sub.keys[n:]; len(sub.keys) == 0 {
			sub.keys = nil // release the key list
		}
	}
	if len(dst) == 0 {
		dst, sub.cursor = r.log.copySince(sub.cursor, dst)
	}
	return dst, r.applied
}

// --- the BatchStore surface ---

// nextSeqLocked issues a sequence number for an unversioned local write:
// strictly above everything applied or issued before it on this replica.
//
//mcvet:locked
func (r *Replicated) nextSeqLocked() uint64 {
	r.localSeq++
	return r.localSeq
}

func (r *Replicated) Insert(key, value uint64) mccuckoo.InsertResult {
	r.mu.Lock()
	defer r.mu.Unlock()
	var n applyCounts
	_, res, _ := r.applyLocked(Entry{Seq: r.nextSeqLocked(), Op: OpPut, Key: key, Value: value}, &n)
	r.finishLocked(&n)
	return res
}

func (r *Replicated) Delete(key uint64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	var n applyCounts
	_, _, removed := r.applyLocked(Entry{Seq: r.nextSeqLocked(), Op: OpDel, Key: key}, &n)
	r.finishLocked(&n)
	return removed
}

// Lookup passes through: plain reads need no version bookkeeping and the
// wrapped store is concurrency-safe by contract.
func (r *Replicated) Lookup(key uint64) (uint64, bool) { return r.inner.Lookup(key) }

func (r *Replicated) Len() int           { return r.inner.Len() }
func (r *Replicated) Capacity() int      { return r.inner.Capacity() }
func (r *Replicated) LoadRatio() float64 { return r.inner.LoadRatio() }
func (r *Replicated) StashLen() int      { return r.inner.StashLen() }

func (r *Replicated) Stats() mccuckoo.Stats { return r.inner.Stats() }

// InsertBatchInto and DeleteBatchInto check the batch's shape before they
// take the lock, as every BatchStore does, so a malformed batch applies,
// logs and sequences nothing.
func (r *Replicated) InsertBatchInto(keys, values []uint64, out []mccuckoo.InsertResult) {
	shard.CheckInsertBatch(keys, values, out)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seqs.reserve(len(keys), func(i int) (uint64, bool) { return keys[i], true })
	var n applyCounts
	for i, k := range keys {
		_, res, _ := r.applyLocked(Entry{Seq: r.nextSeqLocked(), Op: OpPut, Key: k, Value: values[i]}, &n)
		if out != nil {
			out[i] = res
		}
	}
	r.finishLocked(&n)
}

func (r *Replicated) LookupBatchInto(keys []uint64, values []uint64, found []bool) {
	r.inner.LookupBatchInto(keys, values, found)
}

func (r *Replicated) DeleteBatchInto(keys []uint64, removed []bool) {
	shard.CheckDeleteBatch(keys, removed)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seqs.reserve(len(keys), func(i int) (uint64, bool) { return keys[i], true })
	var n applyCounts
	for i, k := range keys {
		_, _, rm := r.applyLocked(Entry{Seq: r.nextSeqLocked(), Op: OpDel, Key: k}, &n)
		if removed != nil {
			removed[i] = rm
		}
	}
	r.finishLocked(&n)
}

// --- checkpoints ---

// A replicated node checkpoints into one file, written and read through
// internal/atomicio's checksummed stream (§7): the applied and drained
// sequence numbers, the store's sharded container as a frame, and every
// key's meta word, all from one instant. A node restarted from it resumes
// its subscriptions from the drained point. Versions 1 and 2, sidecars
// written after a separate values file, are rejected.
//
//	"MCRS" | u32 version | u64 applied | u64 drained
//	u64 len | the sharded container (Sharded.WriteTo's bytes)
//	u64 count | count × ( u64 key | u64 meta ), keys strictly ascending
//	u32 fileCRC

const checkpointVersion = 3

// Checkpoint writes the replica to path through atomicio.WriteFile, under
// the write lock, so the file's store and bookkeeping describe one instant
// and a crash leaves the previous checkpoint whole. The wrapped store must
// be a Sharded or a Concurrent, which writes a one-shard container.
//
//mcvet:deterministic
func (r *Replicated) Checkpoint(path string) error {
	store, ok := r.inner.(interface {
		SnapshotLen() uint64
		WriteSnapshot(out *atomicio.Writer) (int64, error)
	})
	if !ok {
		return fmt.Errorf("wire: a %T store cannot checkpoint", r.inner)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	recs := make([]seqSlot, 0, r.seqs.n)
	r.seqs.each(func(key, meta uint64) { recs = append(recs, seqSlot{key, meta}) })
	slices.SortFunc(recs, func(a, b seqSlot) int { return cmp.Compare(a.key, b.key) })
	return atomicio.WriteFile(path, func(w io.Writer) (int64, error) {
		s := atomicio.NewWriter(w)
		s.Bytes([]byte(atomicio.MagicCheckpoint))
		s.U32(checkpointVersion)
		s.U64(r.applied)
		s.U64(r.drained)
		s.Frame(store.SnapshotLen(), store.WriteSnapshot)
		s.U64(uint64(len(recs)))
		for _, sl := range recs {
			s.U64(sl.key)
			s.U64(sl.meta)
		}
		return s.Finish()
	})
}

// RestoreReplicated reads the checkpoint at path: the store, as a Sharded
// with opts applied as LoadShardedFile applies them, and the bookkeeping
// saved with it. A file that is damaged, is not a version-3 checkpoint, or
// whose records repeat a key, break ascending key order, carry sequence
// number 0 or one past the applied point, or differ from the store's keys
// is rejected with an *atomicio.CorruptError. An intact file of another
// kind, such as an unreplicated node's snapshot, is declined with an error
// wrapping atomicio.ErrOtherKind.
func RestoreReplicated(path string, cfg ReplicaConfig, opts ...mccuckoo.Option) (*Replicated, error) {
	return atomicio.LoadFile(path, func(s *atomicio.Reader) (*Replicated, error) {
		return readCheckpoint(s, cfg, opts)
	})
}

// readCheckpoint reads the container in place and each record straight
// into the index, sized by the bytes present, never by the record count the
// header claims.
func readCheckpoint(s *atomicio.Reader, cfg ReplicaConfig, opts []mccuckoo.Option) (*Replicated, error) {
	s.Magic("checkpoint", atomicio.MagicCheckpoint)
	if v := s.U32(); s.Err() == nil && v != checkpointVersion {
		s.Failf("unsupported checkpoint version %d (want %d)", v, checkpointVersion)
	}
	applied, drained := s.U64(), s.U64()
	if s.Err() != nil {
		return nil, s.Err()
	}
	// The container is read in place; an intact file of another kind in
	// its frame is still a damaged checkpoint.
	s.Section("frame")
	frame := s.Frame(s.U64())
	store, err := mccuckoo.ReadSharded(frame, opts...)
	if err == nil {
		err = frame.End()
	} else if errors.Is(err, atomicio.ErrOtherKind) {
		s.Failf("store frame: %v", err)
		err = s.Err()
	}
	if err != nil {
		return nil, err
	}
	n := s.U64()
	s.Section("records")
	r := newReplica(store, cfg, s.Alloc(n, 16))
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, prev := uint64(0), uint64(0); i < n && s.Err() == nil; i++ {
		key, meta := s.U64(), s.U64()
		v, held := store.Lookup(key)
		switch {
		case s.Err() != nil:
		case i > 0 && key <= prev:
			s.Failf("record %d: key %d repeats or breaks ascending order", i, key)
		case meta < 2:
			s.Failf("record %d: key %d has sequence number 0", i, key)
		case meta>>1 > applied:
			s.Failf("record %d: key %d has sequence number %d, past the applied %d", i, key, meta>>1, applied)
		case held == (meta&1 == 1):
			s.Failf("record %d: key %d is live in the store or the record only", i, key)
		default: // v is 0 for a tombstone, which the store does not hold
			r.seqs.set(key, meta)
			r.digest ^= DigestTerm(key, v, meta)
			r.tombs += int(meta & 1)
		}
		prev = key
	}
	if live := n - uint64(r.tombs); s.Err() == nil && live != uint64(store.Len()) {
		s.Failf("%d live records, but the store holds %d keys", live, store.Len())
	}
	s.Trailer()
	if s.Err() != nil {
		return nil, s.Err()
	}
	r.applied, r.localSeq, r.baseSeq, r.drained = applied, applied, applied, drained
	return r, nil
}

// --- observability ---

// ReplicaStats is the replication section of the STATS response, present
// when the served store is a Replicated.
type ReplicaStats struct {
	AppliedSeq     uint64 `json:"applied_seq"`
	BaseSeq        uint64 `json:"base_seq"`
	DrainedSeq     uint64 `json:"drained_seq"`
	DigestHex      string `json:"digest_hex"`
	TrackedKeys    int    `json:"tracked_keys"`
	Tombstones     int    `json:"tombstones"`
	OplogLen       int    `json:"oplog_len"`
	OplogDropped   int64  `json:"oplog_dropped"`
	Subscribers    int    `json:"subscribers"`
	EntriesApplied int64  `json:"entries_applied"`
	EntriesStale   int64  `json:"entries_stale"`
	ApplyFailures  int64  `json:"apply_failures"`
	RepairApplied  int64  `json:"repair_applied"`
	FullSyncs      int64  `json:"full_syncs"`
	CatchUps       int64  `json:"catch_ups"`
}

// ReplicaStats snapshots the replication state.
func (r *Replicated) ReplicaStats() ReplicaStats {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return ReplicaStats{
		AppliedSeq:     r.applied,
		BaseSeq:        r.baseSeq,
		DrainedSeq:     r.drained,
		DigestHex:      fmt.Sprintf("%016x", r.digest),
		TrackedKeys:    r.seqs.n,
		Tombstones:     r.tombs,
		OplogLen:       int(r.log.next - r.log.first),
		OplogDropped:   r.log.dropped,
		Subscribers:    len(r.subs),
		EntriesApplied: r.applies[ApplyApplied].Load(),
		EntriesStale:   r.applies[ApplyStale].Load(),
		ApplyFailures:  r.applies[ApplyFailed].Load(),
		RepairApplied:  r.repairApplied.Load(),
		FullSyncs:      r.fullSyncs.Load(),
		CatchUps:       r.catchUps.Load(),
	}
}

// WritePrometheus writes the replica metrics under the mccuckoo_replica_
// prefix, mounted next to the table telemetry and the server counters on a
// node's /metrics.
func (r *Replicated) WritePrometheus(w io.Writer) error {
	st := r.ReplicaStats()
	p := telemetry.NewPromWriter(w)
	p.Simple("mccuckoo_replica_applied_seq", "Highest sequence number applied.", "gauge", int64(st.AppliedSeq))
	p.Simple("mccuckoo_replica_tracked_keys", "Keys with replication bookkeeping (tombstones included).", "gauge", int64(st.TrackedKeys))
	p.Simple("mccuckoo_replica_tombstones", "Deleted keys retained as tombstones.", "gauge", int64(st.Tombstones))
	p.Simple("mccuckoo_replica_oplog_entries", "Entries currently retained in the op-log ring.", "gauge", int64(st.OplogLen))
	p.Simple("mccuckoo_replica_oplog_dropped_total", "Entries evicted from the op-log ring.", "counter", st.OplogDropped)
	p.Simple("mccuckoo_replica_subscribers", "Live op-log subscriptions.", "gauge", int64(st.Subscribers))
	p.Simple("mccuckoo_replica_entries_applied_total", "Entries applied (all sources).", "counter", st.EntriesApplied)
	p.Simple("mccuckoo_replica_entries_stale_total", "Entries ignored as stale.", "counter", st.EntriesStale)
	p.Simple("mccuckoo_replica_apply_failures_total", "Entries that lost to table capacity.", "counter", st.ApplyFailures)
	p.Simple("mccuckoo_replica_repair_applied_total", "Pushed entries (cluster writes and read-repair) applied.", "counter", st.RepairApplied)
	p.Simple("mccuckoo_replica_full_syncs_total", "Subscriptions that required a full state dump.", "counter", st.FullSyncs)
	p.Simple("mccuckoo_replica_catch_ups_total", "Catch-ups sent in place to live subscriptions the op-log ring overtook.", "counter", st.CatchUps)
	return p.Err()
}
