package keep

import "testing"

// TestKeepBound pins the keep rule's bound in bytes of backing array,
// whatever the element type.
func TestKeepBound(t *testing.T) {
	for _, tc := range []struct {
		name       string
		kept, want bool
	}{
		{"bytes at 4 KiB", Slice(make([]byte, 7, Bytes)) != nil, true},
		{"bytes past 4 KiB", Slice(make([]byte, 0, Bytes+1)) != nil, false},
		{"u64 at 4 KiB", Slice(make([]uint64, 0, Bytes/8)) != nil, true},
		{"u64 past 4 KiB", Slice(make([]uint64, 0, Bytes/8+1)) != nil, false},
		{"int32 at 4 KiB", Slice(make([]int32, 0, Bytes/4)) != nil, true},
		{"int32 past 4 KiB", Slice(make([]int32, 0, Bytes/4+1)) != nil, false},
	} {
		if tc.kept != tc.want {
			t.Errorf("%s: kept %v, want %v", tc.name, tc.kept, tc.want)
		}
	}
	if b := Slice(make([]byte, 7, 16)); len(b) != 0 || cap(b) != 16 {
		t.Errorf("kept buffer has len %d cap %d, want 0 and 16", len(b), cap(b))
	}
}
