package main

import (
	"bytes"
	"compress/gzip"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"
)

// pbw is a minimal protobuf writer for building synthetic profiles.
type pbw struct{ b []byte }

func (w *pbw) varint(v uint64) {
	for v >= 0x80 {
		w.b = append(w.b, byte(v)|0x80)
		v >>= 7
	}
	w.b = append(w.b, byte(v))
}

func (w *pbw) uint(num int, v uint64) {
	w.varint(uint64(num)<<3 | 0)
	w.varint(v)
}

func (w *pbw) bytes(num int, b []byte) {
	w.varint(uint64(num)<<3 | 2)
	w.varint(uint64(len(b)))
	w.b = append(w.b, b...)
}

func (w *pbw) msg(num int, build func(*pbw)) {
	var inner pbw
	build(&inner)
	w.bytes(num, inner.b)
}

func (w *pbw) packed(num int, vs []uint64) {
	var inner pbw
	for _, v := range vs {
		inner.varint(v)
	}
	w.bytes(num, inner.b)
}

// synthProfile encodes a gzipped CPU profile whose samples have the given
// stacks (each location a list of functions, innermost inlined first) and
// cpu values. Odd samples use unpacked location ids, as encoders may.
func synthProfile(t *testing.T, stacks [][][]string, cpu []int64) []byte {
	t.Helper()
	strs := []string{"", "samples", "count", "cpu", "nanoseconds"}
	strIdx := map[string]uint64{}
	intern := func(s string) uint64 {
		if i, ok := strIdx[s]; ok {
			return i
		}
		strs = append(strs, s)
		strIdx[s] = uint64(len(strs) - 1)
		return strIdx[s]
	}
	var w pbw
	w.msg(1, func(v *pbw) { v.uint(1, 1); v.uint(2, 2) })
	w.msg(1, func(v *pbw) { v.uint(1, 3); v.uint(2, 4) })
	funcID := map[string]uint64{}
	var locID uint64
	for si, stack := range stacks {
		var locs []uint64
		for _, loc := range stack {
			locID++
			id := locID
			locs = append(locs, id)
			w.msg(4, func(l *pbw) {
				l.uint(1, id)
				for _, fn := range loc {
					fid, ok := funcID[fn]
					if !ok {
						fid = uint64(len(funcID) + 1)
						funcID[fn] = fid
						name := intern(fn)
						w.msg(5, func(f *pbw) { f.uint(1, fid); f.uint(2, name) })
					}
					l.msg(4, func(ln *pbw) { ln.uint(1, fid); ln.uint(2, 7) })
				}
			})
		}
		w.msg(2, func(s *pbw) {
			if si%2 == 1 {
				for _, l := range locs {
					s.uint(1, l)
				}
			} else {
				s.packed(1, locs)
			}
			s.packed(2, []uint64{1, uint64(cpu[si])})
		})
	}
	for _, s := range strs {
		w.bytes(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(w.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

func frames(fns ...string) [][]string {
	out := make([][]string, len(fns))
	for i, fn := range fns {
		out[i] = []string{fn}
	}
	return out
}

func TestFoldAttributesSyntheticProfile(t *testing.T) {
	const (
		rbPostRun  = "s3asim/internal/core.(*runtime).rbPostRun"
		resultData = "s3asim/internal/search.(*Workload).ResultData"
	)
	stacks := [][][]string{
		frames("s3asim/internal/des.(*Simulation).Run"),
		// Allocation under an mpi send: the allocator's time is runtime's.
		frames("runtime.memclrNoHeapPointers", "runtime.mallocgc", "s3asim/internal/mpi.(*Rank).Isend.func1"),
		frames("runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"),
		// Content generation under the post-run verifier is payload ...
		frames("math/rand.(*Rand).Read", resultData, rbPostRun),
		// ... but the read traffic it drives is the layers'.
		frames("s3asim/internal/pvfs.(*extentMap).read", "s3asim/internal/romio.(*File).ReadSegs", rbPostRun),
		// A helper package is charged to the layer that called it.
		frames("s3asim/internal/stats.SubRand", "s3asim/internal/search.Generate", "main.run"),
		frames("runtime.futex", "main.run"),
		// contentHash inlined into rbVerify: one location, two lines.
		{{"s3asim/internal/core.contentHash", "s3asim/internal/core.(*runtime).rbVerify"}, {"s3asim/internal/core.(*runtime).master"}},
	}
	cpu := []int64{10, 20, 30, 40, 50, 60, 70, 80}
	p, err := parseProfile(synthProfile(t, stacks, cpu))
	if err != nil {
		t.Fatal(err)
	}
	vi, err := p.valueIndex("cpu")
	if err != nil {
		t.Fatal(err)
	}
	rows, total := p.fold(vi, true)
	want := map[string]int64{"des": 10, "runtime": 50, "payload": 40 + 80, "pvfs": 50, "search": 60, otherLayer: 70}
	if len(rows) != len(want) {
		t.Errorf("rows = %v, want %v", rows, want)
	}
	for k, v := range want {
		if rows[k] != v {
			t.Errorf("row %s = %d, want %d (rows %v)", k, rows[k], v, rows)
		}
	}
	if total != 360 {
		t.Errorf("total = %d, want 360", total)
	}
	if err := checkSum(rows, total); err != nil {
		t.Error(err)
	}

	// Allocation-profile stacks: the allocator rule does not apply, so the
	// mpi send keeps its allocation.
	alloc, _ := p.fold(vi, false)
	if alloc["mpi"] != 20 || alloc["runtime"] != 0 {
		t.Errorf("alloc fold charged mpi %d, runtime %d; want 20, 0", alloc["mpi"], alloc["runtime"])
	}
	// The delta of a profile against itself is zero in every row.
	delta, dt, err := foldDelta(p, p, "cpu")
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range delta {
		if v != 0 {
			t.Errorf("self-delta row %s = %d", k, v)
		}
	}
	if dt != 0 {
		t.Errorf("self-delta total = %d", dt)
	}
}

func TestFoldRealProfiles(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	var sink []byte
	for deadline := time.Now().Add(300 * time.Millisecond); time.Now().Before(deadline); {
		sink = make([]byte, 1<<16)
	}
	pprof.StopCPUProfile()
	runtime.KeepAlive(sink)
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	vi, err := p.valueIndex("cpu")
	if err != nil {
		t.Fatal(err)
	}
	rows, total := p.fold(vi, true)
	if total <= 0 || len(p.samples) == 0 {
		t.Fatalf("empty CPU profile: %d samples, total %d", len(p.samples), total)
	}
	if err := checkSum(rows, total); err != nil {
		t.Error(err)
	}

	snapshot := func() *profile {
		t.Helper()
		runtime.GC()
		b, err := allocProfile()
		if err != nil {
			t.Fatal(err)
		}
		p, err := parseProfile(b)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	before := snapshot()
	sink = make([]byte, 1<<20)
	after := snapshot()
	for _, v := range []string{"alloc_space", "alloc_objects"} {
		rows, total, err := foldDelta(before, after, v)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkSum(rows, total); err != nil {
			t.Error(err)
		}
	}
}
