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
