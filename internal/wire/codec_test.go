package wire

import (
	"slices"
	"testing"
)

// TestCodecCountsCannotWrap: a hostile record count whose product with the
// record size wraps a 32-bit int to the payload length is rejected. Before
// the counts were compared by division, a 32-bit build accepted the BATCH
// payload and panicked sizing the REPLICATE entries.
func TestCodecCountsCannotWrap(t *testing.T) {
	// 2^28 16-byte PUT records and 2^29 8-byte GET records: both products
	// are 2^32, which wraps to the 0 record bytes present.
	for _, tc := range []struct {
		sub   byte
		count uint32
	}{
		{OpPut, 1 << 28},
		{OpGet, 1 << 29},
	} {
		if _, _, _, ok := parseBatchHeader(appendU32(appendU8(nil, tc.sub), tc.count)); ok {
			t.Errorf("BATCH %s claiming %d records in a 5-byte payload accepted", OpName(tc.sub), tc.count)
		}
	}
	// 171,798,692 25-byte records: the product is 2^32+4, which wraps to
	// the 4 record bytes present.
	p := append(appendU32(appendU64(nil, 1), 171_798_692), 0, 0, 0, 0)
	if _, _, ok := ParseReplicatePayload(p, nil); ok {
		t.Error("REPLICATE claiming 171,798,692 records in a 16-byte payload accepted")
	}
}

var payloadSink []byte

// TestAppendReplicatePayloadGrowsOnce: a REPLICATE payload is encoded at
// its final size. Appending 4,096 entries to nil allocates what one
// slices.Grow to that size does (once, or twice under -race, whose
// instrumentation keeps the growth's temporary), and appending them to a
// slice with room allocates nothing.
func TestAppendReplicatePayloadGrowsOnce(t *testing.T) {
	ents := make([]Entry, 4096)
	for i := range ents {
		ents[i] = Entry{Seq: uint64(i + 1), Op: OpPut, Key: uint64(i), Value: uint64(i)}
	}
	once := testing.AllocsPerRun(20, func() { payloadSink = slices.Grow([]byte(nil), ReplicatePayloadLen(len(ents))) })
	if n := testing.AllocsPerRun(20, func() { payloadSink = AppendReplicatePayload(nil, 1, ents) }); n != once {
		t.Errorf("append into nil: %v allocs, want %v", n, once)
	}
	if len(payloadSink) != ReplicatePayloadLen(len(ents)) {
		t.Fatalf("payload is %d bytes, want %d", len(payloadSink), ReplicatePayloadLen(len(ents)))
	}
	room := make([]byte, 3, 3+ReplicatePayloadLen(len(ents)))
	if n := testing.AllocsPerRun(20, func() { payloadSink = AppendReplicatePayload(room, 1, ents) }); n != 0 {
		t.Errorf("append into a slice with room: %v allocs, want 0", n)
	}
}
