package wire

import (
	"cmp"
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
	subs map[*logSub]struct{}
	//mcvet:guardedby mu
	appended bool // the log grew since the subscribers were last poked
	// filter restricts DigestRange to keys the requesting peer co-owns
	// with this node (set by the cluster tier; nil means no restriction).
	// Kept ring-agnostic: package wire never imports the ring.
	//mcvet:guardedby mu
	filter func(peer string, key uint64) bool

	entriesApplied atomic.Int64
	entriesStale   atomic.Int64
	applyFailures  atomic.Int64
	repairApplied  atomic.Int64
	fullSyncs      atomic.Int64
	catchUps       atomic.Int64
	sidecarDrops   atomic.Int64
}

var _ mccuckoo.BatchStore = (*Replicated)(nil)

// NewReplicated wraps inner. If inner is non-empty and supports Range (all
// concrete kinds do), its keys are seeded at an ancient sequence number so
// they participate in state dumps and version comparisons; LoadSidecar
// afterwards replaces the seeded bookkeeping with the persisted one.
func NewReplicated(inner mccuckoo.BatchStore, cfg ReplicaConfig) *Replicated {
	if cfg.OplogSize <= 0 {
		cfg.OplogSize = 1 << 12
	}
	r := &Replicated{
		inner: inner,
		seqs:  newSeqIndex(rand.Uint64(), inner.Len()),
		log:   newOpLog(cfg.OplogSize),
		subs:  make(map[*logSub]struct{}),
	}
	if rng, ok := inner.(interface {
		Range(func(key, value uint64) bool)
	}); ok && inner.Len() > 0 {
		r.mu.Lock()
		meta := uint64(seededSeq) << 1
		rng.Range(func(key, value uint64) bool {
			r.seqs.set(key, meta)
			r.digest ^= DigestTerm(key, value, meta)
			return true
		})
		r.applied = seededSeq
		r.localSeq = seededSeq
		r.baseSeq = seededSeq
		r.drained = seededSeq
		r.mu.Unlock()
	}
	return r
}

// Inner returns the wrapped store (for checkpointing by the owner).
func (r *Replicated) Inner() mccuckoo.BatchStore { return r.inner }

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
// delivered when that stream last drained. The sidecar persists it. It
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

// applyLocked is the single mutation path. It returns the apply status
// plus the inner store's results for the caller-facing unversioned
// wrappers. An invalid entry (Seq 0, Seq at or above seqLimit, or an op
// other than PUT and DEL) is counted and answered as stale, never applied.
//
//mcvet:locked
func (r *Replicated) applyLocked(e Entry) (status byte, res mccuckoo.InsertResult, removed bool) {
	pos, meta := r.seqs.probe(e.Key)
	seen := meta != 0
	invalid := e.Seq == 0 || e.Seq >= seqLimit || (e.Op != OpPut && e.Op != OpDel)
	if invalid || (seen && e.Seq <= meta>>1) {
		r.entriesStale.Add(1)
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
			r.applyFailures.Add(1)
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
		for sub := range r.subs {
			if sub.cursor < r.log.first {
				sub.floor = min(sub.floor, evicted)
			}
		}
	}
	r.appended = true
	r.entriesApplied.Add(1)
	return ApplyApplied, res, removed
}

// notifyLocked pokes every subscriber once if the log grew since the last
// poke. Each mutating call runs it once, before it releases the lock.
//
//mcvet:locked
func (r *Replicated) notifyLocked() {
	if !r.appended {
		return
	}
	r.appended = false
	for sub := range r.subs {
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
	for i, e := range ents {
		st, _, _ := r.applyLocked(e)
		statuses[i] = st
		if st == ApplyApplied {
			r.repairApplied.Add(1)
		}
	}
	r.notifyLocked()
	return statuses
}

// ApplyStream applies entries received from an op-log subscription,
// reporting how many were applied, stale, and failed.
func (r *Replicated) ApplyStream(ents []Entry) (applied, stale, failed int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, e := range ents {
		switch st, _, _ := r.applyLocked(e); st {
		case ApplyApplied:
			applied++
		case ApplyStale:
			stale++
		case ApplyFailed:
			failed++
		}
	}
	r.notifyLocked()
	return applied, stale, failed
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
		// A live meta without a value means the pair predates sequence
		// tracking and diverged (stale sidecar); report missing so
		// read-repair re-fills it.
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
	r.subs[sub] = struct{}{}
	return sub, r.applied, full
}

func (r *Replicated) unsubscribe(sub *logSub) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.subs, sub)
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
			meta, ok := r.seqs.get(k)
			if !ok {
				continue // untracked by a LoadSidecar since the catch-up began
			}
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
	_, res, _ := r.applyLocked(Entry{Seq: r.nextSeqLocked(), Op: OpPut, Key: key, Value: value})
	r.notifyLocked()
	return res
}

func (r *Replicated) Delete(key uint64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, _, removed := r.applyLocked(Entry{Seq: r.nextSeqLocked(), Op: OpDel, Key: key})
	r.notifyLocked()
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
	for i, k := range keys {
		_, res, _ := r.applyLocked(Entry{Seq: r.nextSeqLocked(), Op: OpPut, Key: k, Value: values[i]})
		if out != nil {
			out[i] = res
		}
	}
	r.notifyLocked()
}

func (r *Replicated) LookupBatchInto(keys []uint64, values []uint64, found []bool) {
	r.inner.LookupBatchInto(keys, values, found)
}

func (r *Replicated) DeleteBatchInto(keys []uint64, removed []bool) {
	shard.CheckDeleteBatch(keys, removed)
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, k := range keys {
		_, _, rm := r.applyLocked(Entry{Seq: r.nextSeqLocked(), Op: OpDel, Key: k})
		if removed != nil {
			removed[i] = rm
		}
	}
	r.notifyLocked()
}

// --- sidecar persistence ---

// The sidecar file persists the replication bookkeeping next to the value
// snapshot: the applied and drained sequence numbers plus every key's meta
// word, written and read through internal/atomicio's checksummed stream
// like every other file here (§7). A node restarted with both files resumes
// its subscriptions from the drained point instead of a full
// resynchronization. Version 1 files lack the drained point and are
// rejected, which makes the node resync fully.
//
//	"MCRS" | u32 version | u64 applied | u64 drained | u64 count
//	count × ( u64 key | u64 meta ), keys strictly ascending
//	u32 fileCRC

const sidecarVersion = 2

// CheckpointWith atomically checkpoints the pair (values, bookkeeping):
// saveValues runs with all mutations excluded, then the sidecar is written
// while the lock is still held, so the two files always describe the same
// state. A crash between the two writes leaves a values file newer than
// the sidecar, which LoadSidecar tolerates (the op-log catch-up replays
// the gap).
func (r *Replicated) CheckpointWith(saveValues func() error, sidecarPath string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := saveValues(); err != nil {
		return err
	}
	return r.saveSidecarLocked(sidecarPath)
}

// saveSidecarLocked writes the sidecar: header, then the (key, meta) pairs
// sorted by key, then the trailer.
//
//mcvet:locked
//mcvet:deterministic
func (r *Replicated) saveSidecarLocked(path string) error {
	recs := make([]seqSlot, 0, r.seqs.n)
	r.seqs.each(func(key, meta uint64) { recs = append(recs, seqSlot{key, meta}) })
	slices.SortFunc(recs, func(a, b seqSlot) int { return cmp.Compare(a.key, b.key) })
	return atomicio.WriteFile(path, func(w io.Writer) (int64, error) {
		s := atomicio.NewWriter(w)
		s.Bytes([]byte(atomicio.MagicSidecar))
		s.U32(sidecarVersion)
		s.U64(r.applied)
		s.U64(r.drained)
		s.U64(uint64(len(recs)))
		for _, sl := range recs {
			s.U64(sl.key)
			s.U64(sl.meta)
		}
		return s.Finish()
	})
}

// sidecar is the content of a sidecar file that passed every check.
type sidecar struct {
	applied, drained uint64
	recs             []seqSlot
}

// readSidecar reads and checks a whole sidecar. The records are appended
// as they are read, so memory grows with the bytes present, never with the
// record count the header claims.
func readSidecar(s *atomicio.Reader) (*sidecar, error) {
	s.Magic("sidecar", atomicio.MagicSidecar)
	if v := s.U32(); s.Err() == nil && v != sidecarVersion {
		s.Failf("unsupported sidecar version %d (want %d)", v, sidecarVersion)
	}
	side := &sidecar{applied: s.U64(), drained: s.U64()}
	n := s.U64()
	s.Section("records")
	for i := uint64(0); i < n && s.Err() == nil; i++ {
		rec := seqSlot{key: s.U64(), meta: s.U64()}
		switch {
		case s.Err() != nil:
		case i > 0 && rec.key <= side.recs[i-1].key:
			s.Failf("record %d: key %d repeats or breaks ascending order", i, rec.key)
		case rec.meta < 2:
			s.Failf("record %d: key %d has sequence number 0", i, rec.key)
		}
		side.recs = append(side.recs, rec)
	}
	s.Trailer()
	return side, s.Err()
}

// LoadSidecar restores the bookkeeping written by CheckpointWith, replacing
// any seeded state. Live keys whose value is absent from the wrapped store
// (a sidecar older than the values snapshot) are dropped from tracking and
// counted, so they read as missing and heal through read-repair and the
// catch-up stream. A file that is damaged, not a version-2 sidecar, or
// whose records are not in strictly ascending key order or carry sequence
// number 0 is rejected with an *atomicio.CorruptError of Kind "sidecar"
// and leaves the state untouched: the whole file is read and checked
// before anything is installed.
func (r *Replicated) LoadSidecar(path string) error {
	side, err := atomicio.LoadFile(path, readSidecar)
	if err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	seqs := newSeqIndex(r.seqs.seed, len(side.recs))
	var digest uint64
	tombs := 0
	drops := int64(0)
	for _, rec := range side.recs {
		var val uint64
		if rec.meta&1 == 0 {
			v, ok := r.inner.Lookup(rec.key)
			if !ok {
				// Stale sidecar: the key was live at sidecar save time but
				// the (newer) values snapshot no longer holds it. Drop it;
				// catch-up replays its newer state.
				drops++
				continue
			}
			val = v
		} else {
			tombs++
		}
		seqs.set(rec.key, rec.meta)
		digest ^= DigestTerm(rec.key, val, rec.meta)
	}
	r.seqs = seqs
	r.digest = digest
	r.tombs = tombs
	if side.applied > r.applied {
		r.applied = side.applied
	}
	if r.applied > r.localSeq {
		r.localSeq = r.applied
	}
	r.baseSeq = r.applied
	r.drained = side.drained
	r.sidecarDrops.Add(drops)
	return nil
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
	SidecarDrops   int64  `json:"sidecar_drops"`
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
		EntriesApplied: r.entriesApplied.Load(),
		EntriesStale:   r.entriesStale.Load(),
		ApplyFailures:  r.applyFailures.Load(),
		RepairApplied:  r.repairApplied.Load(),
		FullSyncs:      r.fullSyncs.Load(),
		CatchUps:       r.catchUps.Load(),
		SidecarDrops:   r.sidecarDrops.Load(),
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
	p.Simple("mccuckoo_replica_sidecar_drops_total", "Sidecar keys dropped for missing values at load.", "counter", st.SidecarDrops)
	return p.Err()
}
