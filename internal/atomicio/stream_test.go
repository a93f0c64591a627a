package atomicio

import (
	"bytes"
	"testing"
)

// TestFrameLengthIsAnnounced: a frame's writer must write exactly the
// length the caller announced, or the save fails; a frame written to its
// announced length reads back in place, checksums and all.
func TestFrameLengthIsAnnounced(t *testing.T) {
	nested := func(f *Writer) (int64, error) { // a nested file of 8 + 4 bytes
		f.U64(7)
		return f.Finish()
	}
	for _, announced := range []uint64{0, 11, 13} {
		w := NewWriter(&bytes.Buffer{})
		w.Frame(announced, nested)
		if _, err := w.Finish(); err == nil {
			t.Errorf("a 12-byte frame announced as %d saved", announced)
		}
	}

	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.U8(1)
	w.Frame(12, nested)
	if n, err := w.Finish(); err != nil || n != 1+8+12+4 || int(n) != buf.Len() {
		t.Fatalf("Finish = %d, %v with %d bytes written; want 25, nil", n, err, buf.Len())
	}
	r := NewReader(&buf)
	if v := r.U8(); v != 1 {
		t.Fatalf("U8 = %d, want 1", v)
	}
	f := r.Frame(r.U64())
	if v := f.U64(); v != 7 {
		t.Fatalf("the frame's U64 = %d, want 7", v)
	}
	f.Trailer()
	if err := f.End(); err != nil {
		t.Fatal(err)
	}
	r.Trailer()
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
}
