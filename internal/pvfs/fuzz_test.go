package pvfs

import (
	"bytes"
	"testing"
)

// FuzzExtentMap drives the extent map with an arbitrary write program and
// checks it against a flat reference buffer.
func FuzzExtentMap(f *testing.F) {
	f.Add([]byte{10, 5, 1, 8, 9, 2})
	f.Add([]byte{0, 255, 3})
	// Partial overwrites splitting an extent on both sides, and a hole
	// between two runs.
	f.Add([]byte{0, 63, 1, 1, 20, 2, 2, 9, 3, 8, 40, 4, 9, 30, 5})
	f.Fuzz(func(t *testing.T, program []byte) {
		const size = 1 << 12
		ref := make([]byte, size)
		covered := make([]bool, size)
		m := extentMap{capture: true}
		for i := 0; i+2 < len(program); i += 3 {
			off := int64(program[i]) * 16
			n := int64(program[i+1]%64) + 1
			if off+n > size {
				n = size - off
			}
			if n <= 0 {
				continue
			}
			fill := program[i+2]
			data := bytes.Repeat([]byte{fill}, int(n))
			m.write(off, n, data)
			copy(ref[off:off+n], data)
			for j := off; j < off+n; j++ {
				covered[j] = true
			}
		}
		if got := m.read(0, size); !bytes.Equal(got, ref) {
			t.Fatal("extent map diverged from reference buffer")
		}
		// Sub-range reads derived from the same program bytes: arbitrary
		// windows (including ones straddling splice boundaries and holes)
		// must match the reference slice byte for byte.
		for i := 0; i+1 < len(program); i += 2 {
			off := int64(program[i]) * 16
			n := int64(program[i+1]) + 1
			if off+n > size {
				n = size - off
			}
			if n <= 0 {
				continue
			}
			if got := m.read(off, n); !bytes.Equal(got, ref[off:off+n]) {
				t.Fatalf("read(%d, %d) diverged from reference", off, n)
			}
			checkVisit(t, &m, off, n, covered)
		}
		var want int64
		for _, c := range covered {
			if c {
				want++
			}
		}
		if m.coverage() != want {
			t.Fatalf("coverage %d, want %d", m.coverage(), want)
		}
	})
}

// checkVisit cross-checks the in-place view against read: over a fully
// covered window the visited pieces tile it in order and concatenate to
// read's bytes; a window with any gap must report a mismatch.
func checkVisit(t *testing.T, m *extentMap, off, n int64, covered []bool) {
	t.Helper()
	full := true
	for _, c := range covered[off : off+n] {
		full = full && c
	}
	var seen []byte
	pos := off
	ok := m.visit(off, n, func(at int64, b []byte) bool {
		if at != pos || len(b) == 0 {
			t.Fatalf("visit(%d, %d) piece at %d len %d, want a non-empty piece at %d",
				off, n, at, len(b), pos)
		}
		pos += int64(len(b))
		seen = append(seen, b...)
		return true
	})
	if ok != full {
		t.Fatalf("visit(%d, %d) = %v, window fully covered = %v", off, n, ok, full)
	}
	if ok && !bytes.Equal(seen, m.read(off, n)) {
		t.Fatalf("visit(%d, %d) diverged from read", off, n)
	}
}
