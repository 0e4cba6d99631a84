package pvfs

import (
	"strings"
	"testing"

	"s3asim/internal/des"
)

// TestIssueOpSteadyStateAllocs pins the request pipeline's allocation
// budget: once the request pool is warm, a reused IssueOp doing a 4-server
// list write, a contiguous read and a sync allocates nothing — every stage
// is a pooled record's task event, not a closure.
func TestIssueOpSteadyStateAllocs(t *testing.T) {
	sim := des.New()
	cfg := testConfig()
	cfg.CaptureData = false
	fs := New(sim, cfg)
	port := freePort(sim)
	kick := sim.NewSignal()
	// One 50-byte piece per 100-byte strip: four servers.
	segs := []Segment{{0, 50, nil}, {100, 50, nil}, {200, 50, nil}, {300, 50, nil}}
	var op IssueOp
	sim.Spawn("client", func(p *des.Proc) {
		f := fs.Create(p, "out")
		for {
			kick.Wait(p)
			op.InitWriteList(p, f, port, segs)
			op.Step()
			op.InitRead(p, f, port, 0, 400)
			op.Step()
			op.InitSync(p, f, port)
			op.Step()
		}
	})
	const forever = 1000 * des.Hour
	cycle := func() {
		kick.Signal()
		sim.RunUntil(forever)
	}
	sim.RunUntil(forever) // create the file and park on the first kick
	for i := 0; i < 8; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("steady-state IssueOp cycle allocated %.1f/run, want 0", allocs)
	}
	if st := fs.Stats(); st.TotalRequests != 109*12 {
		t.Fatalf("served %d requests, want %d (12 per cycle)", st.TotalRequests, 109*12)
	}
}

// TestReadDataViewAllocs pins the zero-copy read: on a capturing file, a
// read inside one stored write returns a view of the writer's bytes, so
// ReadData allocates nothing.
func TestReadDataViewAllocs(t *testing.T) {
	sim := des.New()
	fs := New(sim, testConfig()) // captures, 100-byte strips
	port := freePort(sim)
	data := make([]byte, 400)
	for i := range data {
		data[i] = byte(i)
	}
	var op IssueOp
	sim.Spawn("client", func(p *des.Proc) {
		f := fs.Create(p, "out")
		f.Write(p, port, 0, 400, data) // four strip pieces, rejoined
		op.InitRead(p, f, port, 150, 200)
		op.Step()
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	got := op.ReadData()
	if len(got) != 200 || &got[0] != &data[150] {
		t.Fatal("read inside one stored write is not a view of the writer's bytes")
	}
	if allocs := testing.AllocsPerRun(100, func() { op.ReadData() }); allocs != 0 {
		t.Fatalf("ReadData inside one stored write allocated %.1f/run, want 0", allocs)
	}
}

// TestExtentMapCoverageWriteAllocs pins the coverage-only write: once the
// span list has grown to the traffic's width, strided pieces landing out of
// order (each round opening holes, then filling them, so the spans merge
// back into one) allocate nothing.
func TestExtentMapCoverageWriteAllocs(t *testing.T) {
	var m extentMap
	var base int64
	round := func() {
		for w := int64(0); w < 4; w++ { // writer w owns pieces w, w+4, ...
			for p := int64(0); p < 16; p++ {
				m.write(base+(p*4+w)*64, 64, nil)
			}
		}
		base += 64 * 64
	}
	round() // grow the span list
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Fatalf("coverage-only write allocated %.1f per 64 pieces, want 0", allocs)
	}
	if len(m.spans) != 1 || m.coverage() != base || m.overlapped != 0 {
		t.Fatalf("spans %d coverage %d overlapped %d: want one span of %d bytes",
			len(m.spans), m.coverage(), m.overlapped, base)
	}
}

// TestIssueOpRearmWhilePendingPanics pins the reuse guard: an IssueOp whose
// server requests are still in flight cannot be re-armed, since its records
// and gate still belong to the previous operation.
func TestIssueOpRearmWhilePendingPanics(t *testing.T) {
	sim := des.New()
	fs := New(sim, testConfig())
	port := freePort(sim)
	var (
		f       *File
		op      IssueOp
		pending int
		got     any
	)
	sim.Spawn("client", func(p *des.Proc) {
		f = fs.Create(p, "out")
		op.InitWriteList(p, f, port, []Segment{{0, 10, make([]byte, 10)}, {100, 10, make([]byte, 10)}})
		op.Step()
	})
	sim.Spawn("meddler", func(p *des.Proc) {
		// After the create and the marshaling sleep, inside service.
		p.Sleep(fs.cfg.MetaOverhead + des.Millisecond/2)
		pending = op.gate.Pending()
		defer func() { got = recover() }()
		op.InitRead(p, f, port, 0, 10)
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if pending != 2 {
		t.Fatalf("gate pending at re-arm = %d, want 2 requests in flight", pending)
	}
	msg, _ := got.(string)
	if !strings.Contains(msg, "re-armed while 2 server request(s)") {
		t.Fatalf("re-arm panic = %v, want the in-flight guard", got)
	}
	if f.Coverage() != 20 {
		t.Fatalf("coverage = %d, want 20: the in-flight write must still land", f.Coverage())
	}
}
