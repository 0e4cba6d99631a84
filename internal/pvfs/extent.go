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
//
// A file's bookkeeping is a sorted list of merged coverage spans (pointer
// free, so a fully written file is one span) and, only when capturing, the
// stored bytes themselves. Captured bytes are never copied: a write keeps
// the writer's slice (Segment.Data), so the writer must not modify it once
// the write is issued, and reads (ReadBack, IssueOp.ReadData and
// ReadSegsData) return read-only views of stored bytes wherever one stored
// write covers the range. Stored bytes are never modified in place; an
// overwrite replaces them.
package pvfs

import (
	"slices"
	"sort"
)

// Segment is one contiguous piece of file data: a file offset, a length,
// and optionally the real bytes (when data capture is enabled).
//
// A capturing file system stores Data by reference: once a write carrying
// it is issued, the caller hands the bytes over and must not modify them
// (reading them, or writing the same slice again, is fine).
type Segment struct {
	Offset int64
	Length int64
	Data   []byte // nil unless capturing; if non-nil, len(Data) == Length
}

// span is a maximal written run [lo, hi) of the file: spans are sorted and
// neither overlap nor abut.
type span struct{ lo, hi int64 }

// extent is a stored, non-empty run of captured bytes at file offset off.
type extent struct {
	off  int64
	data []byte // the writer's bytes, or a remnant subslice of them
}

func (e extent) end() int64 { return e.off + int64(len(e.data)) }

// extentMap records which bytes of a file were written, how many were
// written more than once, and (capture only) what they hold, with
// overwrite semantics.
type extentMap struct {
	spans       []span   // coverage: every byte ever written; a window of spanBuf
	spanBuf     []span   // spans' backing array, from its first slot
	exts        []extent // captured bytes, sorted and non-overlapping; capture only
	overlapped  int64    // total bytes written over already-written bytes
	capture     bool
	bytesStored int64 // current coverage
}

// write records [off, off+n). When capturing, data (len n) is kept by
// reference, or nil punches a hole that reads back as zeros — a write whose
// payload was lost.
func (m *extentMap) write(off, n int64, data []byte) {
	if n <= 0 {
		return
	}
	if m.capture && data != nil && int64(len(data)) != n {
		panic("pvfs: data length mismatch")
	}
	m.cover(off, off+n)
	if m.capture {
		m.store(off, off+n, data)
	}
}

// cover merges [lo, hi) into the coverage spans: the spans it overlaps or
// abuts, spans[i:j], collapse with it into one, spliced in place. A new span
// moves the tail up one slot. Collapsing spans moves the head up instead of
// the tail down: on list-I/O traffic the holes that close sit nearer the
// front, and an overlapping copy to higher addresses is several times
// faster than one to lower addresses on x86-64. The slots this frees at the
// front are reused by roomAtBack.
func (m *extentMap) cover(lo, hi int64) {
	spans := m.spans
	i, j := 0, len(spans)
	for i < j { // binary search: i is the first span ending at or after lo
		if h := int(uint(i+j) >> 1); spans[h].hi < lo {
			i = h + 1
		} else {
			j = h
		}
	}
	merged := span{lo, hi}
	for ; j < len(spans) && spans[j].lo <= hi; j++ {
		s := spans[j]
		if ov := min(s.hi, hi) - max(s.lo, lo); ov > 0 {
			m.overlapped += ov
			m.bytesStored -= ov
		}
		merged.lo, merged.hi = min(merged.lo, s.lo), max(merged.hi, s.hi)
	}
	m.bytesStored += hi - lo
	switch d := j - i - 1; {
	case d < 0:
		if len(spans) == cap(spans) {
			spans = m.roomAtBack(spans)
		}
		m.spans = slices.Insert(spans, i, merged)
	case d == 0:
		spans[i] = merged
	default:
		spans[j-1] = merged
		copy(spans[d:j-1], spans[:i])
		m.spans = spans[d:]
	}
}

// roomAtBack returns a full spans with free slots after it: slid down to
// the front of spanBuf when collapses have freed more than half as many
// slots as there are spans, otherwise moved to a buffer twice as large. A
// span list whose size holds steady therefore stops allocating.
func (m *extentMap) roomAtBack(spans []span) []span {
	if cap(m.spanBuf)-len(spans) <= len(spans)/2 {
		m.spanBuf = make([]span, 2*len(spans)+4)
	}
	return m.spanBuf[:copy(m.spanBuf, spans)]
}

// store replaces the captured bytes of [off, end) with data (nil leaves a
// hole). The extents it overlaps form one run exts[i:j]; at most the first
// leaves a remnant on the left and the last one on the right, both
// subslices of the old bytes. Each piece of the replacement joins the one
// before it when it continues it both in the file and in memory, and so do
// the neighbours of a new extent: strip pieces cut from one writer buffer
// reassemble into one extent, whatever order they land in.
func (m *extentMap) store(off, end int64, data []byte) {
	i := m.extentAt(off)
	j := i
	for j < len(m.exts) && m.exts[j].off < end {
		j++
	}
	lo, hi := i, j // the run spliced out
	var run [3]extent
	k := 0
	push := func(e extent) {
		if k > 0 && joins(run[k-1].data, e.data) {
			run[k-1].data = run[k-1].data[:len(run[k-1].data)+len(e.data)]
		} else {
			run[k] = e
			k++
		}
	}
	if i < j && m.exts[i].off < off {
		e := m.exts[i]
		push(extent{e.off, e.data[:off-e.off]})
	} else if data != nil && i > 0 && m.exts[i-1].end() == off {
		lo--
		push(m.exts[lo])
	}
	if data != nil {
		push(extent{off, data})
	}
	if i < j && m.exts[j-1].end() > end {
		e := m.exts[j-1]
		push(extent{end, e.data[end-e.off:]})
	} else if data != nil && j < len(m.exts) && m.exts[j].off == end {
		push(m.exts[j])
		hi++
	}
	m.exts = slices.Replace(m.exts, lo, hi, run[:k]...)
}

// joins reports whether b starts exactly where a ends in memory, within a's
// capacity, so a[:len(a)+len(b)] is a and b joined without a copy.
func joins(a, b []byte) bool {
	return cap(a) >= len(a)+len(b) && len(b) > 0 && &a[:len(a)+1][len(a)] == &b[0]
}

// extentAt returns the index of the first extent ending after off.
func (m *extentMap) extentAt(off int64) int {
	return sort.Search(len(m.exts), func(k int) bool { return m.exts[k].end() > off })
}

// coverage returns the number of distinct bytes ever written.
func (m *extentMap) coverage() int64 { return m.bytesStored }

// covers reports whether [0, size) is fully written.
func (m *extentMap) covers(size int64) bool {
	return size <= 0 || len(m.spans) > 0 && m.spans[0].lo <= 0 && m.spans[0].hi >= size
}

// read returns the stored bytes of [off, off+n). When one extent covers the
// range the result is a read-only view of it (capacity-capped, so an append
// cannot reach stored bytes); otherwise it is a fresh copy with holes — never
// written, dropped, or written without capture — zero-filled.
func (m *extentMap) read(off, n int64) []byte {
	end := off + n
	i := m.extentAt(off)
	if i < len(m.exts) && m.exts[i].off <= off && m.exts[i].end() >= end {
		e := m.exts[i]
		return e.data[off-e.off : end-e.off : end-e.off]
	}
	out := make([]byte, n)
	for ; i < len(m.exts) && m.exts[i].off < end; i++ {
		e := m.exts[i]
		lo, hi := max(e.off, off), min(e.end(), end)
		copy(out[lo-off:hi-off], e.data[lo-e.off:hi-e.off])
	}
	return out
}

// visit calls fn, in file order, with each stored piece of [off, off+n):
// the piece's file offset and a read-only view of its captured bytes. It
// returns false, stopping early, when fn does or when any byte of the range
// is a hole. An empty range visits nothing and returns true.
func (m *extentMap) visit(off, n int64, fn func(off int64, b []byte) bool) bool {
	end := off + n
	i := m.extentAt(off)
	for pos := off; pos < end; i++ {
		if i == len(m.exts) {
			return false
		}
		e := m.exts[i]
		if e.off > pos {
			return false
		}
		hi := min(e.end(), end)
		if !fn(pos, e.data[pos-e.off:hi-e.off]) {
			return false
		}
		pos = hi
	}
	return true
}
