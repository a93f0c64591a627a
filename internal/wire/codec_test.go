package wire

import "testing"

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
