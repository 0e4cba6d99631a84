// Package pvfs implements a simulated PVFS2-style parallel file system:
// a configurable set of I/O servers plus a metadata server, round-robin
// striping, native support for noncontiguous list I/O, per-server FCFS
// request queues with an explicit cost model, and optional capture of real
// file bytes so tests can verify that different I/O strategies produce
// identical file images.
//
// As on real PVFS2 (paper §3.1), there is no locking and no atomicity for
// overlapping writes — writers are expected not to overlap, and the file
// tracks overlapping bytes so invariant tests can assert none occurred.
package pvfs

import "sort"

// Segment is one contiguous piece of file data: a file offset, a length,
// and optionally the real bytes (when data capture is enabled).
type Segment struct {
	Offset int64
	Length int64
	Data   []byte // nil unless capturing; if non-nil, len(Data) == Length
}

// extent is a stored, non-overlapping run of the file.
type extent struct {
	off  int64
	n    int64
	data []byte // nil when not capturing
}

func (e extent) end() int64 { return e.off + e.n }

// extentMap maintains sorted, non-overlapping extents with overwrite
// semantics and counts bytes that were ever written more than once.
type extentMap struct {
	exts        []extent
	overlapped  int64 // total bytes written over already-written bytes
	capture     bool
	writes      int64
	bytesStored int64 // current coverage
}

// write records [off, off+n) with optional data, replacing any overlap.
//
// The extents intersecting the write form one contiguous run exts[i:j], and
// because stored extents are sorted and non-overlapping, at most the first
// can leave a remnant on the left and at most the last a remnant on the
// right. The run is therefore replaced by at most three already-ordered
// entries, spliced in place — the slice is never reallocated (beyond
// amortized append growth), which keeps a W-write file at O(W) total
// allocation instead of the O(W²) bytes a copy-per-write rebuild costs.
func (m *extentMap) write(off, n int64, data []byte) {
	if n <= 0 {
		return
	}
	if m.capture && data != nil && int64(len(data)) != n {
		panic("pvfs: data length mismatch")
	}
	m.writes++
	end := off + n

	// Find the run of extents intersecting [off, end).
	i := sort.Search(len(m.exts), func(i int) bool { return m.exts[i].end() > off })
	j := i
	for j < len(m.exts) && m.exts[j].off < end {
		e := m.exts[j]
		ovLo, ovHi := max64(e.off, off), min64(e.end(), end)
		if ovHi > ovLo {
			m.overlapped += ovHi - ovLo
			m.bytesStored -= ovHi - ovLo
		}
		j++
	}
	m.bytesStored += n

	newExt := extent{off: off, n: n}
	if m.capture {
		newExt.data = make([]byte, n)
		if data != nil {
			copy(newExt.data, data)
		}
	}

	var left, right extent
	haveLeft, haveRight := false, false
	if j > i {
		if e := m.exts[i]; e.off < off {
			left = extent{off: e.off, n: off - e.off}
			if m.capture {
				left.data = e.data[:off-e.off]
			}
			haveLeft = true
		}
		if e := m.exts[j-1]; e.end() > end {
			right = extent{off: end, n: e.end() - end}
			if m.capture {
				right.data = e.data[end-e.off:]
			}
			haveRight = true
		}
	}

	repl := 1
	if haveLeft {
		repl++
	}
	if haveRight {
		repl++
	}

	// Splice: resize the replaced run exts[i:j] to repl slots.
	oldLen := len(m.exts)
	switch delta := repl - (j - i); {
	case delta > 0:
		var pad [2]extent
		m.exts = append(m.exts, pad[:delta]...)
		copy(m.exts[j+delta:], m.exts[j:oldLen])
	case delta < 0:
		copy(m.exts[j+delta:], m.exts[j:])
		for k := oldLen + delta; k < oldLen; k++ {
			m.exts[k] = extent{} // release captured data to the GC
		}
		m.exts = m.exts[:oldLen+delta]
	}
	if haveLeft {
		m.exts[i] = left
		i++
	}
	m.exts[i] = newExt
	if haveRight {
		m.exts[i+1] = right
	}
}

// coverage returns the number of distinct bytes ever written.
func (m *extentMap) coverage() int64 { return m.bytesStored }

// contiguousFrom reports whether [0, size) is fully covered.
func (m *extentMap) covers(size int64) bool {
	var pos int64
	for _, e := range m.exts {
		if e.off > pos {
			return false
		}
		if e.end() > pos {
			pos = e.end()
		}
		if pos >= size {
			return true
		}
	}
	return pos >= size
}

// read copies stored bytes for [off, off+n) into a fresh slice, zero-filling
// gaps. Only meaningful with capture enabled.
func (m *extentMap) read(off, n int64) []byte {
	out := make([]byte, n)
	end := off + n
	i := sort.Search(len(m.exts), func(i int) bool { return m.exts[i].end() > off })
	for ; i < len(m.exts) && m.exts[i].off < end; i++ {
		e := m.exts[i]
		lo, hi := max64(e.off, off), min64(e.end(), end)
		if hi <= lo {
			continue
		}
		if e.data != nil {
			copy(out[lo-off:hi-off], e.data[lo-e.off:hi-e.off])
		}
	}
	return out
}

// visit calls fn, in file order, with each stored piece of [off, off+n):
// the piece's file offset and a read-only view of its captured bytes. It
// returns false, stopping early, when fn does or when any byte of the range
// is unwritten or was stored without capture. An empty range visits nothing
// and returns true.
func (m *extentMap) visit(off, n int64, fn func(off int64, b []byte) bool) bool {
	end := off + n
	i := sort.Search(len(m.exts), func(i int) bool { return m.exts[i].end() > off })
	for pos := off; pos < end; i++ {
		if i == len(m.exts) {
			return false
		}
		e := m.exts[i]
		if e.off > pos || e.data == nil {
			return false
		}
		hi := min64(e.end(), end)
		if !fn(pos, e.data[pos-e.off:hi-e.off]) {
			return false
		}
		pos = hi
	}
	return true
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
