package wire

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand/v2"
	"os"
	"slices"
	"sync"
	"sync/atomic"

	"mccuckoo"
	"mccuckoo/internal/atomicio"
	"mccuckoo/internal/hashutil"
	"mccuckoo/internal/telemetry"
)

// This file is the server half of the cluster tier (DESIGN.md §11):
// Replicated wraps any concurrency-safe BatchStore with the per-key
// sequence-number bookkeeping that makes multi-copy replication converge —
// newest-write-wins applies, deletion tombstones, an op-log ring feeding
// SUBSCRIBE streams, and an order-independent state digest that lets two
// replicas prove byte-identical convergence over the wire.

// Ranger is the iteration capability of the concrete table kinds; a
// Replicated over a Ranger seeds its per-key bookkeeping from preloaded
// data (a -load snapshot) that predates sequence tracking.
type Ranger interface {
	Range(fn func(key, value uint64) bool)
}

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
	if rng, ok := inner.(Ranger); ok && inner.Len() > 0 {
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
	r.notifyLocked(r.log.append(opRec{key: e.Key, value: newVal, meta: newMeta}))
	r.entriesApplied.Add(1)
	return ApplyApplied, res, removed
}

// notifyLocked pokes every subscriber after an append. evicted is the
// sequence number of the record the append pushed off the ring, 0 if none.
// A subscriber whose cursor is now behind the ring had not been sent that
// record, so its catch-up floor drops to the record's sequence number.
//
//mcvet:locked
func (r *Replicated) notifyLocked(evicted uint64) {
	for sub := range r.subs {
		if evicted != 0 && sub.cursor < r.log.first {
			sub.floor = min(sub.floor, evicted)
		}
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
// owns it and moves it only in pull, under the read lock; notifyLocked
// lowers floor under the write lock, so the mutex orders every access.
// notify (capacity 1) is poked on every append.
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
	return res
}

func (r *Replicated) Delete(key uint64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, _, removed := r.applyLocked(Entry{Seq: r.nextSeqLocked(), Op: OpDel, Key: key})
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

func (r *Replicated) InsertBatch(keys, values []uint64) []mccuckoo.InsertResult {
	out := make([]mccuckoo.InsertResult, len(keys))
	r.InsertBatchInto(keys, values, out)
	return out
}

func (r *Replicated) InsertBatchInto(keys, values []uint64, out []mccuckoo.InsertResult) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, k := range keys {
		_, res, _ := r.applyLocked(Entry{Seq: r.nextSeqLocked(), Op: OpPut, Key: k, Value: values[i]})
		if out != nil {
			out[i] = res
		}
	}
}

func (r *Replicated) LookupBatch(keys []uint64) ([]uint64, []bool) {
	return r.inner.LookupBatch(keys)
}

func (r *Replicated) LookupBatchInto(keys []uint64, values []uint64, found []bool) {
	r.inner.LookupBatchInto(keys, values, found)
}

func (r *Replicated) DeleteBatch(keys []uint64) []bool {
	out := make([]bool, len(keys))
	r.DeleteBatchInto(keys, out)
	return out
}

func (r *Replicated) DeleteBatchInto(keys []uint64, removed []bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, k := range keys {
		_, _, rm := r.applyLocked(Entry{Seq: r.nextSeqLocked(), Op: OpDel, Key: k})
		if removed != nil {
			removed[i] = rm
		}
	}
}

// --- sidecar persistence ---

// The sidecar file persists the replication bookkeeping next to the value
// snapshot: the applied and drained sequence numbers plus every key's meta
// word, CRC32C-guarded like every other on-disk artifact here (§7). A node
// restarted with both files resumes its subscriptions from the drained
// point instead of a full resynchronization. Version 1 files lack the
// drained point and are rejected, which makes the node resync fully.

const (
	sidecarMagic   = "MCRS"
	sidecarVersion = 2
	sidecarHeader  = 32
)

// SidecarError is the typed rejection for a corrupt or mismatched sidecar
// file; the caller should fall back to a full resynchronization.
type SidecarError struct{ Reason string }

func (e *SidecarError) Error() string { return "wire: replica sidecar: " + e.Reason }

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

// saveSidecarLocked writes the sidecar: header, sorted (key, meta) pairs,
// trailing CRC32C over everything before it.
//
//mcvet:locked
//mcvet:deterministic
func (r *Replicated) saveSidecarLocked(path string) error {
	recs := make([]seqSlot, 0, r.seqs.len())
	r.seqs.each(func(key, meta uint64) { recs = append(recs, seqSlot{key, meta}) })
	slices.SortFunc(recs, func(a, b seqSlot) int { return cmp.Compare(a.key, b.key) })
	return atomicio.WriteFile(path, func(f *os.File) error {
		crc := crc32.New(castagnoli)
		w := bufio.NewWriter(io.MultiWriter(f, crc))
		var hdr [sidecarHeader]byte
		copy(hdr[0:4], sidecarMagic)
		binary.LittleEndian.PutUint32(hdr[4:8], sidecarVersion)
		binary.LittleEndian.PutUint64(hdr[8:16], r.applied)
		binary.LittleEndian.PutUint64(hdr[16:24], r.drained)
		binary.LittleEndian.PutUint64(hdr[24:32], uint64(len(recs)))
		if _, err := w.Write(hdr[:]); err != nil {
			return err
		}
		var rec [16]byte
		for _, sl := range recs {
			binary.LittleEndian.PutUint64(rec[0:8], sl.key)
			binary.LittleEndian.PutUint64(rec[8:16], sl.meta)
			if _, err := w.Write(rec[:]); err != nil {
				return err
			}
		}
		if err := w.Flush(); err != nil {
			return err
		}
		var tail [4]byte
		binary.LittleEndian.PutUint32(tail[:], crc.Sum32())
		_, err := f.Write(tail[:])
		return err
	})
}

// LoadSidecar restores the bookkeeping written by CheckpointWith, replacing
// any seeded state. Live keys whose value is absent from the wrapped store
// (a sidecar older than the values snapshot) are dropped from tracking and
// counted, so they read as missing and heal through read-repair and the
// catch-up stream. Corrupt files are rejected with a *SidecarError and
// leave the state untouched, as are files whose records are not in
// strictly ascending key order or carry sequence number 0.
func (r *Replicated) LoadSidecar(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if len(raw) < sidecarHeader+4 {
		return &SidecarError{Reason: "truncated file"}
	}
	body, tail := raw[:len(raw)-4], raw[len(raw)-4:]
	if got, want := crc32.Checksum(body, castagnoli), binary.LittleEndian.Uint32(tail); got != want {
		return &SidecarError{Reason: fmt.Sprintf("checksum mismatch: computed %08x, file says %08x", got, want)}
	}
	if string(body[0:4]) != sidecarMagic {
		return &SidecarError{Reason: "bad magic"}
	}
	if v := binary.LittleEndian.Uint32(body[4:8]); v != sidecarVersion {
		return &SidecarError{Reason: fmt.Sprintf("unsupported version %d", v)}
	}
	applied := binary.LittleEndian.Uint64(body[8:16])
	drained := binary.LittleEndian.Uint64(body[16:24])
	count := binary.LittleEndian.Uint64(body[24:32])
	recs := body[sidecarHeader:]
	if len(recs)%16 != 0 || uint64(len(recs)/16) != count {
		return &SidecarError{Reason: "record count disagrees with file size"}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	seqs := newSeqIndex(r.seqs.seed, len(recs)/16)
	var digest uint64
	tombs := 0
	drops := int64(0)
	for off := 0; off < len(recs); off += 16 {
		k := binary.LittleEndian.Uint64(recs[off:])
		meta := binary.LittleEndian.Uint64(recs[off+8:])
		if off > 0 && k <= binary.LittleEndian.Uint64(recs[off-16:]) {
			return &SidecarError{Reason: fmt.Sprintf("record %d: key %d repeats or breaks ascending order", off/16, k)}
		}
		if meta < 2 {
			return &SidecarError{Reason: fmt.Sprintf("record %d: key %d has sequence number 0", off/16, k)}
		}
		var val uint64
		if meta&1 == 0 {
			v, ok := r.inner.Lookup(k)
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
		seqs.set(k, meta)
		digest ^= DigestTerm(k, val, meta)
	}
	r.seqs = seqs
	r.digest = digest
	r.tombs = tombs
	if applied > r.applied {
		r.applied = applied
	}
	if r.applied > r.localSeq {
		r.localSeq = r.applied
	}
	r.baseSeq = r.applied
	r.drained = drained
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
		TrackedKeys:    r.seqs.len(),
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
