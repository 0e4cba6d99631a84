package pvfs

import (
	"bytes"
	"slices"
	"testing"
)

// FuzzExtentMap drives the extent map with an arbitrary write program and
// checks it against a flat reference buffer and coverage bitmap. Each write
// fills one fresh buffer and lands, like a striped list-I/O write, as
// server-split subslices of it in a program-chosen order, so the joins of
// memory-contiguous pieces are exercised. A coverage-only map takes the
// same writes; both must agree with the bitmap on coverage, overlap and
// covers, and their spans must be exactly the bitmap's maximal runs.
func FuzzExtentMap(f *testing.F) {
	f.Add([]byte{10, 5, 1, 8, 9, 2})
	f.Add([]byte{0, 255, 3})
	// Partial overwrites splitting an extent on both sides, and a hole
	// between two runs.
	f.Add([]byte{0, 63, 1, 1, 20, 2, 2, 9, 3, 8, 40, 4, 9, 30, 5})
	// Long writes cut into many strip pieces, landing in reverse and in
	// odd/even order over one another.
	f.Add([]byte{0, 200, 0x13, 4, 250, 0x22, 2, 180, 0x31, 30, 7, 0x40})
	f.Fuzz(func(t *testing.T, program []byte) {
		const size = 1 << 12
		ref := make([]byte, size)
		covered := make([]bool, size)
		var overlapped int64
		m := extentMap{capture: true}
		cov := extentMap{}
		for i := 0; i+2 < len(program); i += 3 {
			off := int64(program[i]) * 16
			n := int64(program[i+1]) + 1
			if off+n > size {
				n = size - off
			}
			if n <= 0 {
				continue
			}
			fill, order := program[i+2], program[i+2]>>4
			data := make([]byte, n)
			for j := range data {
				data[j] = fill + byte(j)
			}
			for _, pc := range stripPieces(off, n, int64(order%4)*8+8, order) {
				lo, hi := pc.Offset, pc.Offset+pc.Length
				m.write(lo, pc.Length, data[lo-off:hi-off])
				cov.write(lo, pc.Length, nil)
				for j := lo; j < hi; j++ {
					if covered[j] {
						overlapped++
					}
					covered[j] = true
				}
			}
			copy(ref[off:off+n], data)
			// The pieces rejoined: the write reads back as a view of data.
			if got := m.read(off, n); &got[0] != &data[0] {
				t.Fatalf("write [%d, %d) in %d-byte strips did not rejoin into one extent",
					off, off+n, int64(order%4)*8+8)
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
		checkCoverage(t, "capture", &m, covered, overlapped)
		checkCoverage(t, "coverage-only", &cov, covered, overlapped)
	})
}

// stripPieces cuts [off, off+n) at multiples of strip, as splitByServer
// does, and returns the pieces in an order picked by order: file order,
// reversed, or odd pieces before even ones.
func stripPieces(off, n, strip int64, order byte) []Segment {
	var pcs []Segment
	for end := off + n; off < end; {
		take := min(end-off, strip-off%strip)
		pcs = append(pcs, Segment{Offset: off, Length: take})
		off += take
	}
	switch order % 3 {
	case 1:
		for i, j := 0, len(pcs)-1; i < j; i, j = i+1, j-1 {
			pcs[i], pcs[j] = pcs[j], pcs[i]
		}
	case 2:
		var odd, even []Segment
		for i, pc := range pcs {
			if i%2 == 1 {
				odd = append(odd, pc)
			} else {
				even = append(even, pc)
			}
		}
		pcs = append(odd, even...)
	}
	return pcs
}

// checkCoverage compares a map's coverage bookkeeping with the bitmap:
// distinct and overlapped byte counts, covers at the edge of the written
// prefix, and spans equal to the bitmap's maximal runs.
func checkCoverage(t *testing.T, name string, m *extentMap, covered []bool, overlapped int64) {
	t.Helper()
	var want int64
	var runs []span
	for i, c := range covered {
		if !c {
			continue
		}
		want++
		if k := len(runs); k > 0 && runs[k-1].hi == int64(i) {
			runs[k-1].hi++
		} else {
			runs = append(runs, span{int64(i), int64(i) + 1})
		}
	}
	if m.coverage() != want || m.overlapped != overlapped {
		t.Fatalf("%s: coverage %d overlapped %d, want %d and %d",
			name, m.coverage(), m.overlapped, want, overlapped)
	}
	if !slices.Equal(m.spans, runs) {
		t.Fatalf("%s: spans %v, want the bitmap's runs %v", name, m.spans, runs)
	}
	prefix := int64(0)
	for prefix < int64(len(covered)) && covered[prefix] {
		prefix++
	}
	if !m.covers(0) || !m.covers(prefix) {
		t.Fatalf("%s: covers(%d) false over a written prefix", name, prefix)
	}
	if prefix < int64(len(covered)) && m.covers(prefix+1) {
		t.Fatalf("%s: covers(%d) true over the hole at %d", name, prefix+1, prefix)
	}
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
