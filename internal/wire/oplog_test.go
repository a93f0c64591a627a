package wire

import (
	"testing"
	"unsafe"
)

// TestOpRecSize pins the op-log record at 24 bytes: the ring is allocated
// up front, so its footprint is exactly this times OplogSize.
func TestOpRecSize(t *testing.T) {
	if got := unsafe.Sizeof(opRec{}); got != 24 {
		t.Fatalf("opRec is %d bytes, want 24", got)
	}
}

// TestOpLogDefaultSize pins the default ring: 4,096 records, 96 KiB per
// replica, allocated up front.
func TestOpLogDefaultSize(t *testing.T) {
	r := NewReplicated(newConcurrentTable(t, 1<<10), ReplicaConfig{})
	if n := len(r.log.recs); n != 4096 {
		t.Fatalf("default ring holds %d records, want 4096", n)
	}
	if got := uintptr(cap(r.log.recs)) * unsafe.Sizeof(opRec{}); got != 96<<10 {
		t.Fatalf("default ring is %d bytes, want 96 KiB", got)
	}
}

// recOf packs an entry the way applyLocked does.
func recOf(e Entry) opRec {
	if e.Op == OpDel {
		return opRec{key: e.Key, meta: e.Seq<<1 | 1}
	}
	return opRec{key: e.Key, value: e.Value, meta: e.Seq << 1}
}

// TestOpLogWrapRoundTrip appends PUTs and DELs through several wraps of a
// small ring and checks that copySince returns each one as it went in, that
// append reports each evicted sequence number, and that droppedSeqMax is
// the largest sequence number evicted (not a meta word).
func TestOpLogWrapRoundTrip(t *testing.T) {
	const capacity = 4
	l := newOpLog(capacity)
	var all []Entry
	// Sequence numbers are deliberately not monotonic in append order,
	// as pushes arrive out of order; the largest (1<<63 - 1, the top valid
	// value) is a delete, so its meta word has both bit 63 and bit 0 set.
	seqs := []uint64{5, 9, 7, 1<<63 - 1, 12, 11, 20, 15, 30, 25}
	for i, seq := range seqs {
		e := Entry{Seq: seq, Op: OpPut, Key: uint64(100 + i), Value: uint64(1000 + i)}
		if i%3 == 0 {
			e.Op, e.Value = OpDel, 0
		}
		evicted := l.append(recOf(e))
		all = append(all, e)
		if wantEvicted := uint64(0); len(all) > capacity {
			wantEvicted = all[len(all)-capacity-1].Seq
			if evicted != wantEvicted {
				t.Fatalf("append %d evicted seq %d, want %d", len(all), evicted, wantEvicted)
			}
		} else if evicted != 0 {
			t.Fatalf("append %d into a ring with room evicted seq %d", len(all), evicted)
		}

		first := max(0, len(all)-capacity)
		if l.first != uint64(first) || l.next != uint64(len(all)) {
			t.Fatalf("after %d appends: window [%d, %d), want [%d, %d)", len(all), l.first, l.next, first, len(all))
		}
		var wantDropped uint64
		for _, d := range all[:first] {
			wantDropped = max(wantDropped, d.Seq)
		}
		if l.droppedSeqMax != wantDropped || l.dropped != int64(first) {
			t.Fatalf("after %d appends: droppedSeqMax %d dropped %d, want %d and %d", len(all), l.droppedSeqMax, l.dropped, wantDropped, first)
		}

		got, cur := l.copySince(uint64(first), make([]Entry, 0, capacity))
		if cur != uint64(len(all)) {
			t.Fatalf("copySince(%d): cursor %d, want %d", first, cur, len(all))
		}
		for j, e := range got {
			if want := all[first+j]; e != want {
				t.Fatalf("after %d appends: entry %d is %+v, want %+v", len(all), j, e, want)
			}
		}
	}

	// A short dst pages through the window.
	got, cur := l.copySince(l.first, make([]Entry, 0, 3))
	if len(got) != 3 || cur != l.first+3 || got[0] != all[l.first] {
		t.Fatalf("paged copy: %d entries to cursor %d, first %+v", len(got), cur, got[0])
	}
	if got, cur := l.copySince(l.next, make([]Entry, 0, 3)); len(got) != 0 || cur != l.next {
		t.Fatalf("copy at head: %d entries, cursor %d", len(got), cur)
	}
}
