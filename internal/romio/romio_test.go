package romio

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"s3asim/internal/des"
	"s3asim/internal/mpi"
	"s3asim/internal/pvfs"
)

func testNet() mpi.NetConfig {
	return mpi.NetConfig{
		Latency:      10 * des.Microsecond,
		Bandwidth:    100e6,
		EagerLimit:   16 * 1024,
		ProcsPerNode: 1,
	}
}

func testFS() pvfs.Config {
	return pvfs.Config{
		NumServers:       4,
		StripSize:        64,
		RequestOverhead:  200 * des.Microsecond,
		SegmentOverhead:  20 * des.Microsecond,
		ServiceBandwidth: 100e6,
		SyncBase:         50 * des.Microsecond,
		SyncBandwidth:    100e6,
		MetaOverhead:     50 * des.Microsecond,
		NetLatency:       10 * des.Microsecond,
		CaptureData:      true,
	}
}

// env wires a world, a file system, and an open file.
type env struct {
	sim *des.Simulation
	w   *mpi.World
	fs  *pvfs.FileSystem
	f   *File
}

func newEnv(t *testing.T, ranks int, hints Hints) *env {
	t.Helper()
	sim := des.New()
	w := mpi.NewWorld(sim, ranks, testNet())
	fs := pvfs.New(sim, testFS())
	e := &env{sim: sim, w: w, fs: fs}
	sim.Spawn("open", func(p *des.Proc) {
		e.f = Open(p, w, fs, "out", hints)
	})
	if !sim.RunUntil(des.Second) && e.f == nil {
		t.Fatal("open did not complete")
	}
	return e
}

func pattern(off, n int64) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte((off + int64(i)) % 251)
	}
	return b
}

func TestWriteAtStoresData(t *testing.T) {
	e := newEnv(t, 1, DefaultHints())
	e.w.Spawn(0, "r0", func(r *mpi.Rank) {
		e.f.WriteAt(r, 10, 300, pattern(10, 300))
	})
	if err := e.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if got := e.f.PV().ReadBack(10, 300); !bytes.Equal(got, pattern(10, 300)) {
		t.Fatal("WriteAt image mismatch")
	}
}

// sparseSegs builds interleaved segments with gaps.
func sparseSegs(base int64, count int, size, gap int64) []pvfs.Segment {
	var segs []pvfs.Segment
	off := base
	for i := 0; i < count; i++ {
		segs = append(segs, pvfs.Segment{Offset: off, Length: size, Data: pattern(off, size)})
		off += size + gap
	}
	return segs
}

func TestIndividualMethodsProduceSameImage(t *testing.T) {
	segs := sparseSegs(7, 9, 45, 30)
	var total int64
	for _, s := range segs {
		if s.Offset+s.Length > total {
			total = s.Offset + s.Length
		}
	}
	images := map[Method][]byte{}
	for _, m := range []Method{Posix, ListIO, DataSieve} {
		h := DefaultHints()
		h.IndWriteMethod = m
		e := newEnv(t, 1, h)
		e.w.Spawn(0, "r0", func(r *mpi.Rank) {
			e.f.WriteSegs(r, segs)
		})
		if err := e.sim.Run(); err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		images[m] = e.f.PV().ReadBack(0, total)
		if m != DataSieve && e.f.PV().OverlappedBytes() != 0 {
			t.Fatalf("%v: unexpected overlap", m)
		}
	}
	if !bytes.Equal(images[Posix], images[ListIO]) {
		t.Fatal("posix and list images differ")
	}
	if !bytes.Equal(images[Posix], images[DataSieve]) {
		t.Fatal("posix and sieve images differ")
	}
}

func TestDataSievePreservesExistingBytes(t *testing.T) {
	h := DefaultHints()
	h.IndWriteMethod = DataSieve
	e := newEnv(t, 1, h)
	e.w.Spawn(0, "r0", func(r *mpi.Rank) {
		// Pre-existing data across the extent.
		e.f.WriteAt(r, 0, 200, pattern(0, 200))
		// Sieved sparse overwrite of two pieces.
		e.f.WriteSegs(r, []pvfs.Segment{
			{Offset: 20, Length: 10, Data: bytes.Repeat([]byte{0xAA}, 10)},
			{Offset: 90, Length: 10, Data: bytes.Repeat([]byte{0xBB}, 10)},
		})
	})
	if err := e.sim.Run(); err != nil {
		t.Fatal(err)
	}
	img := e.f.PV().ReadBack(0, 200)
	want := pattern(0, 200)
	copy(want[20:30], bytes.Repeat([]byte{0xAA}, 10))
	copy(want[90:100], bytes.Repeat([]byte{0xBB}, 10))
	if !bytes.Equal(img, want) {
		t.Fatal("data sieving clobbered bytes between segments")
	}
}

func TestDataSieveMultipleWindows(t *testing.T) {
	h := DefaultHints()
	h.IndWriteMethod = DataSieve
	h.SieveBufferSize = 100 // force several windows
	e := newEnv(t, 1, h)
	segs := sparseSegs(0, 12, 30, 25) // extent 0..~660, several windows
	var total int64
	for _, s := range segs {
		total = s.Offset + s.Length
	}
	e.w.Spawn(0, "r0", func(r *mpi.Rank) {
		e.f.WriteSegs(r, segs)
	})
	if err := e.sim.Run(); err != nil {
		t.Fatal(err)
	}
	img := e.f.PV().ReadBack(0, total)
	want := make([]byte, total)
	for _, s := range segs {
		copy(want[s.Offset:s.Offset+s.Length], s.Data)
	}
	if !bytes.Equal(img, want) {
		t.Fatal("multi-window sieve image mismatch")
	}
}

func TestDataSieveSegmentLargerThanBuffer(t *testing.T) {
	h := DefaultHints()
	h.IndWriteMethod = DataSieve
	h.SieveBufferSize = 64
	e := newEnv(t, 1, h)
	data := pattern(5, 300)
	e.w.Spawn(0, "r0", func(r *mpi.Rank) {
		e.f.WriteSegs(r, []pvfs.Segment{{Offset: 5, Length: 300, Data: data}})
	})
	if err := e.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if got := e.f.PV().ReadBack(5, 300); !bytes.Equal(got, data) {
		t.Fatal("oversized segment mishandled by sieve")
	}
}

// TestDataSieveOwnsItsWindow pins the read-modify-write ownership rule: a
// capturing file stores writers' bytes by reference and reads back views of
// them, so the sieve must patch a copy of the window it read, never the
// view. One buffer is written at two file offsets (a writer may hand one
// slice over twice), then sieved writes overlay both copies: after every
// write the image must match a flat reference, and the shared buffer must
// be untouched. Patching the view in place would rewrite the other copy.
func TestDataSieveOwnsItsWindow(t *testing.T) {
	const size, second = 512, 1024
	h := DefaultHints()
	h.IndWriteMethod = DataSieve
	h.SieveBufferSize = 128
	e := newEnv(t, 1, h)
	shared := pattern(0, size)
	ref := make([]byte, second+size)
	copy(ref, shared)
	copy(ref[second:], shared)
	rng := rand.New(rand.NewSource(7))
	e.w.Spawn(0, "r0", func(r *mpi.Rank) {
		e.f.WriteAt(r, 0, size, shared)
		e.f.WriteAt(r, second, size, shared)
		for round := 0; round < 12; round++ {
			// Sparse segments inside one copy, with fresh bytes each.
			base := int64(rng.Intn(2)) * second
			var segs []pvfs.Segment
			for off := base + int64(rng.Intn(40)); off < base+size; {
				n := int64(rng.Intn(24)) + 1
				if off+n > base+size {
					n = base + size - off
				}
				data := make([]byte, n)
				rng.Read(data)
				segs = append(segs, pvfs.Segment{Offset: off, Length: n, Data: data})
				copy(ref[off:], data)
				off += n + int64(rng.Intn(60)) + 1
			}
			e.f.WriteSegs(r, segs)
			if !bytes.Equal(e.f.PV().ReadBack(0, int64(len(ref))), ref) {
				t.Errorf("round %d: image diverged from the reference", round)
				return
			}
			if !bytes.Equal(shared, pattern(0, size)) {
				t.Errorf("round %d: the sieve modified a writer's buffer", round)
				return
			}
		}
	})
	if err := e.sim.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestListIOFasterThanPosixForScatteredSegments(t *testing.T) {
	segs := sparseSegs(0, 16, 40, 40) // spans all 4 servers repeatedly
	run := func(m Method) des.Time {
		h := DefaultHints()
		h.IndWriteMethod = m
		e := newEnv(t, 1, h)
		var took des.Time
		e.w.Spawn(0, "r0", func(r *mpi.Rank) {
			start := r.Now()
			e.f.WriteSegs(r, segs)
			took = r.Now() - start
		})
		if err := e.sim.Run(); err != nil {
			t.Fatal(err)
		}
		return took
	}
	list, posix := run(ListIO), run(Posix)
	if list >= posix {
		t.Fatalf("list (%v) should beat posix (%v) on scattered segments", list, posix)
	}
}

func TestCollectiveWriteImage(t *testing.T) {
	const n = 4
	e := newEnv(t, n, DefaultHints())
	g := e.f.NewGroup([]int{0, 1, 2, 3})
	// Interleaved round-robin segments over [0, 1600).
	const segSize = 50
	total := int64(0)
	perRank := make([][]pvfs.Segment, n)
	for i := 0; i < 32; i++ {
		off := int64(i) * segSize
		perRank[i%n] = append(perRank[i%n],
			pvfs.Segment{Offset: off, Length: segSize, Data: pattern(off, segSize)})
		total = off + segSize
	}
	var releases []des.Time
	for rk := 0; rk < n; rk++ {
		rk := rk
		e.w.Spawn(rk, "r", func(r *mpi.Rank) {
			g.WriteAll(r, perRank[rk])
			releases = append(releases, r.Now())
		})
	}
	if err := e.sim.Run(); err != nil {
		t.Fatal(err)
	}
	want := make([]byte, total)
	for _, segs := range perRank {
		for _, s := range segs {
			copy(want[s.Offset:], s.Data)
		}
	}
	if !bytes.Equal(e.f.PV().ReadBack(0, total), want) {
		t.Fatal("collective image mismatch")
	}
	if e.f.PV().OverlappedBytes() != 0 {
		t.Fatal("collective write overlapped")
	}
	for _, at := range releases[1:] {
		if at != releases[0] {
			t.Fatalf("ranks released at different times: %v", releases)
		}
	}
}

func TestCollectiveMultipleRounds(t *testing.T) {
	const n = 3
	e := newEnv(t, n, DefaultHints())
	g := e.f.NewGroup([]int{0, 1, 2})
	const rounds = 4
	const segSize = 30
	for rk := 0; rk < n; rk++ {
		rk := rk
		e.w.Spawn(rk, "r", func(r *mpi.Rank) {
			for round := 0; round < rounds; round++ {
				off := int64(round*n+rk) * segSize
				g.WriteAll(r, []pvfs.Segment{
					{Offset: off, Length: segSize, Data: pattern(off, segSize)},
				})
			}
		})
	}
	if err := e.sim.Run(); err != nil {
		t.Fatal(err)
	}
	total := int64(rounds * n * segSize)
	if !e.f.PV().FullyCovers(total) {
		t.Fatal("not fully covered after all rounds")
	}
	want := make([]byte, total)
	for i := int64(0); i < total; i++ {
		want[i] = byte(i % 251)
	}
	if !bytes.Equal(e.f.PV().ReadBack(0, total), want) {
		t.Fatal("multi-round collective image mismatch")
	}
}

func TestCollectiveEmptyContributor(t *testing.T) {
	const n = 3
	e := newEnv(t, n, DefaultHints())
	g := e.f.NewGroup([]int{0, 1, 2})
	for rk := 0; rk < n; rk++ {
		rk := rk
		e.w.Spawn(rk, "r", func(r *mpi.Rank) {
			var segs []pvfs.Segment
			if rk == 1 {
				segs = []pvfs.Segment{{Offset: 0, Length: 100, Data: pattern(0, 100)}}
			}
			g.WriteAll(r, segs)
		})
	}
	if err := e.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(e.f.PV().ReadBack(0, 100), pattern(0, 100)) {
		t.Fatal("image mismatch with empty contributors")
	}
}

func TestCollectiveAllEmptyRound(t *testing.T) {
	const n = 2
	e := newEnv(t, n, DefaultHints())
	g := e.f.NewGroup([]int{0, 1})
	done := 0
	for rk := 0; rk < n; rk++ {
		e.w.Spawn(rk, "r", func(r *mpi.Rank) {
			g.WriteAll(r, nil)
			done++
		})
	}
	if err := e.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if done != n {
		t.Fatalf("done = %d, want %d", done, n)
	}
}

func TestCollectiveCBNodesHint(t *testing.T) {
	h := DefaultHints()
	h.CBNodes = 1 // single aggregator
	const n = 4
	e := newEnv(t, n, h)
	g := e.f.NewGroup([]int{0, 1, 2, 3})
	const segSize = 40
	for rk := 0; rk < n; rk++ {
		rk := rk
		e.w.Spawn(rk, "r", func(r *mpi.Rank) {
			off := int64(rk) * segSize
			g.WriteAll(r, []pvfs.Segment{
				{Offset: off, Length: segSize, Data: pattern(off, segSize)},
			})
		})
	}
	if err := e.sim.Run(); err != nil {
		t.Fatal(err)
	}
	total := int64(n * segSize)
	want := make([]byte, total)
	for i := range want {
		want[i] = byte(i % 251)
	}
	if !bytes.Equal(e.f.PV().ReadBack(0, total), want) {
		t.Fatal("single-aggregator image mismatch")
	}
	// With one aggregator and a fully dense extent, the write coalesces into
	// one request per server at most.
	if got := e.fs.Stats().TotalRequests; got > uint64(testFS().NumServers) {
		t.Fatalf("requests = %d, want ≤ %d (coalesced)", got, testFS().NumServers)
	}
}

func TestSyncRuns(t *testing.T) {
	e := newEnv(t, 1, DefaultHints())
	e.w.Spawn(0, "r0", func(r *mpi.Rank) {
		e.f.WriteAt(r, 0, 100, pattern(0, 100))
		before := r.Now()
		e.f.Sync(r)
		if r.Now() == before {
			t.Error("sync should take time")
		}
	})
	if err := e.sim.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCoalesce(t *testing.T) {
	segs := []pvfs.Segment{
		{Offset: 100, Length: 10, Data: bytes.Repeat([]byte{2}, 10)},
		{Offset: 0, Length: 50, Data: bytes.Repeat([]byte{1}, 50)},
		{Offset: 50, Length: 50, Data: bytes.Repeat([]byte{3}, 50)},
		{Offset: 200, Length: 10, Data: bytes.Repeat([]byte{4}, 10)},
	}
	out := coalesce(segs)
	if len(out) != 2 {
		t.Fatalf("coalesced to %d runs, want 2", len(out))
	}
	if out[0].Offset != 0 || out[0].Length != 110 {
		t.Fatalf("run 0 = %+v", out[0])
	}
	if out[1].Offset != 200 || out[1].Length != 10 {
		t.Fatalf("run 1 = %+v", out[1])
	}
	if int64(len(out[0].Data)) != out[0].Length {
		t.Fatalf("run 0 data length %d", len(out[0].Data))
	}
	if out[0].Data[49] != 1 || out[0].Data[50] != 3 || out[0].Data[100] != 2 {
		t.Fatal("coalesced data out of order")
	}
}

// TestCoalesceCopiesEachRunOnce merges many adjacent pieces: the merged
// bytes are the pieces' concatenation, the callers' buffers are left
// untouched, each data run costs one allocation, and data-less runs
// coalesce without allocating beyond the output slice.
func TestCoalesceCopiesEachRunOnce(t *testing.T) {
	const k = 50
	mk := func(withData bool) (segs []pvfs.Segment, want []byte, orig [][]byte) {
		for i := k - 1; i >= 0; i-- { // reverse order: coalesce sorts
			s := pvfs.Segment{Offset: int64(i) * 7, Length: 7}
			if withData {
				s.Data = pattern(s.Offset, 7)
				orig = append(orig, append([]byte(nil), s.Data...))
			}
			segs = append(segs, s)
		}
		return segs, pattern(0, k*7), orig
	}
	segs, want, orig := mk(true)
	out := coalesce(segs)
	if len(out) != 1 || out[0].Offset != 0 || out[0].Length != k*7 {
		t.Fatalf("coalesced to %+v, want one run [0, %d)", out, k*7)
	}
	if !bytes.Equal(out[0].Data, want) {
		t.Fatal("merged data is not the concatenation of the pieces")
	}
	for _, s := range segs {
		if !bytes.Equal(s.Data, orig[k-1-int(s.Offset/7)]) {
			t.Fatalf("input piece at %d was mutated", s.Offset)
		}
	}
	bare, _, _ := mk(false)
	if out := coalesce(bare); len(out) != 1 || out[0].Length != k*7 || out[0].Data != nil {
		t.Fatalf("data-less pieces coalesced to %+v", out)
	}
	// Baseline: the sort alone (sort.Slice boxes its arguments).
	sorting := testing.AllocsPerRun(20, func() {
		sort.Slice(bare, func(i, j int) bool { return bare[i].Offset < bare[j].Offset })
	})
	if a := testing.AllocsPerRun(20, func() { coalesce(bare) }); a != sorting+1 {
		t.Fatalf("coalescing data-less pieces allocates %v times, want %v (sort + output slice)", a, sorting+1)
	}
	if a := testing.AllocsPerRun(20, func() { coalesce(segs) }); a != sorting+2 {
		t.Fatalf("coalescing one data run allocates %v times, want %v (sort + output slice + one run copy)", a, sorting+2)
	}
}

// Property: collective and individual list writes of the same random
// disjoint segment assignment produce identical images.
func TestPropertyCollectiveMatchesIndividual(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const n = 3
		perRank := make([][]pvfs.Segment, n)
		off := int64(0)
		for i := 0; i < 12; i++ {
			length := int64(rng.Intn(90)) + 1
			seg := pvfs.Segment{Offset: off, Length: length, Data: pattern(off, length)}
			owner := rng.Intn(n)
			perRank[owner] = append(perRank[owner], seg)
			off += length
		}
		image := func(collective bool) []byte {
			e := newEnv(t, n, DefaultHints())
			g := e.f.NewGroup([]int{0, 1, 2})
			for rk := 0; rk < n; rk++ {
				rk := rk
				e.w.Spawn(rk, "r", func(r *mpi.Rank) {
					if collective {
						g.WriteAll(r, perRank[rk])
					} else {
						e.f.WriteSegs(r, perRank[rk])
					}
				})
			}
			if err := e.sim.Run(); err != nil {
				t.Error(err)
				return nil
			}
			return e.f.PV().ReadBack(0, off)
		}
		return bytes.Equal(image(true), image(false))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
