package wire

// opLog is the server-side replication log: a fixed-capacity ring of the
// most recent sequence-numbered mutations, addressed by a monotonically
// increasing absolute position so a subscriber's cursor survives wraps (a
// cursor that falls behind the retained window is detected as an overrun,
// not silently skipped).
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
	// fallen off the ring. A subscriber resuming from a sequence number
	// below it cannot be caught up incrementally and needs a full state
	// dump first.
	droppedSeqMax uint64
	dropped       int64
}

// opRec is one op-log record, 24 bytes: the public Entry pads its one-byte
// Op to a 32-byte struct, while meta carries the op in its low bit. meta is
// the seqs-map encoding, seq<<1 with the low bit set for a delete, which
// is lossless because applyLocked rejects sequence numbers at or above
// 1<<63. value is 0 for deletes.
type opRec struct {
	key, value, meta uint64
}

func newOpLog(capacity int) *opLog {
	return &opLog{recs: make([]opRec, capacity)}
}

// append records rec, evicting the oldest retained record when full.
func (l *opLog) append(rec opRec) {
	if l.next-l.first == uint64(len(l.recs)) {
		if seq := l.recs[l.first%uint64(len(l.recs))].meta >> 1; seq > l.droppedSeqMax {
			l.droppedSeqMax = seq
		}
		l.first++
		l.dropped++
	}
	l.recs[l.next%uint64(len(l.recs))] = rec
	l.next++
}

// copySince copies up to cap(dst) retained entries starting at absolute
// position cursor into dst, returning the filled slice and the advanced
// cursor. overrun reports that cursor has fallen behind the retained
// window; the subscriber must resynchronize with a full dump.
func (l *opLog) copySince(cursor uint64, dst []Entry) (_ []Entry, newCursor uint64, overrun bool) {
	if cursor < l.first {
		return dst[:0], cursor, true
	}
	n := int(l.next - cursor)
	if n > cap(dst) {
		n = cap(dst)
	}
	dst = dst[:n]
	for i := range dst {
		rec := l.recs[(cursor+uint64(i))%uint64(len(l.recs))]
		op := OpPut
		if rec.meta&1 == 1 {
			op = OpDel
		}
		dst[i] = Entry{Seq: rec.meta >> 1, Op: op, Key: rec.key, Value: rec.value}
	}
	return dst, cursor + uint64(n), false
}
