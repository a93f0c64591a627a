package wire

// opLog is the server-side replication log: a fixed-capacity ring of the
// most recent sequence-numbered mutations, addressed by a monotonically
// increasing absolute position so a subscriber's cursor survives wraps. A
// cursor never falls behind the retained window unnoticed: evicting a
// record a subscriber has not been sent sets that subscriber's catch-up
// floor (Replicated.notifyLocked), and the catch-up moves the cursor back
// into the window before the next copy.
//
// The log has no lock of its own: every access happens under the owning
// Replicated's mutex.
type opLog struct {
	recs []opRec
	// first and next are absolute positions: the retained window is
	// [first, next), at most len(recs) wide.
	first uint64
	next  uint64
	// droppedSeqMax is the highest sequence number among entries that have
	// fallen off the ring. A new subscription resuming from below it may
	// have missed an evicted entry, and sequence numbers cannot say which,
	// so it starts with a full dump. A live subscription never consults it:
	// its floor records exactly what it missed.
	droppedSeqMax uint64
	dropped       int64
}

// opRec is one op-log record, 24 bytes: the public Entry pads its one-byte
// Op to a 32-byte struct, while meta carries the op in its low bit. meta is
// the per-key index's encoding, seq<<1 with the low bit set for a delete,
// which is lossless because applyLocked rejects sequence numbers at or
// above 1<<63. value is 0 for deletes.
type opRec struct {
	key, value, meta uint64
}

func newOpLog(capacity int) *opLog {
	return &opLog{recs: make([]opRec, capacity)}
}

// append records rec, evicting the oldest retained record when full. It
// returns the evicted record's sequence number, or 0 when nothing was
// evicted (valid sequence numbers start at 1).
func (l *opLog) append(rec opRec) (evicted uint64) {
	if l.next-l.first == uint64(len(l.recs)) {
		evicted = l.recs[l.first%uint64(len(l.recs))].meta >> 1
		l.droppedSeqMax = max(l.droppedSeqMax, evicted)
		l.first++
		l.dropped++
	}
	l.recs[l.next%uint64(len(l.recs))] = rec
	l.next++
	return evicted
}

// copySince copies up to cap(dst) retained entries starting at absolute
// position cursor into dst, returning the filled slice and the advanced
// cursor. cursor must lie in [first, next]; a subscriber whose cursor the
// ring overtook has its floor set, and Replicated.pull catches it up, which
// moves the cursor to first, before it copies again.
func (l *opLog) copySince(cursor uint64, dst []Entry) (_ []Entry, newCursor uint64) {
	dst = dst[:min(l.next-cursor, uint64(cap(dst)))]
	for i := range dst {
		rec := l.recs[(cursor+uint64(i))%uint64(len(l.recs))]
		op := OpPut
		if rec.meta&1 == 1 {
			op = OpDel
		}
		dst[i] = Entry{Seq: rec.meta >> 1, Op: op, Key: rec.key, Value: rec.value}
	}
	return dst, cursor + uint64(len(dst))
}
