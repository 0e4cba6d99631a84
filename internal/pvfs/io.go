package pvfs

import (
	"fmt"
	"slices"

	"s3asim/internal/causal"
	"s3asim/internal/des"
)

// ackCost is the client-side cost of absorbing a server completion ack.
const ackCost = 2 * des.Microsecond

// opKind discriminates the service cost shape of a server request.
type opKind int

const (
	opWrite opKind = iota
	opRead
	opSync
)

// reqStage names the pipeline stage a serverRequest runs on its next Fire.
type reqStage uint8

const (
	stageSent     reqStage = iota // cleared the client send NIC: cross the wire
	stageArrived                  // reached the server: take locks, then queue
	stageGranted                  // every lock unit granted: queue for service
	stageServed                   // serviced: apply the write, send the ack back
	stageReturned                 // ack crossed the wire: clear the client recv NIC
	stageAcked                    // ack absorbed: retire the request
)

// serverRequest is one request bound for one server's FCFS queue, and the
// staged record that carries it through the pipeline: client send NIC →
// wire → optional lock grant → server queue → wire → client recv NIC. Each
// stage is one tagged task event pushed at the same moment, in the same
// order, as the nested callbacks it replaces. Records (and their segs and
// locks slices) come from the owning FileSystem's free list and return to it
// on the ack stage, so their number is bounded by requests in flight.
type serverRequest struct {
	task   des.Task
	op     *IssueOp
	stage  reqStage
	server int
	kind   opKind
	segs   []Segment // pieces on this server (write/read)
	bytes  int64
	nsegs  int
	locks  []*des.Resource // lock units to serialize through (locked writes)

	cost             des.Time // service time; faults scale it on arrival
	submitAt, doneAt des.Time
}

// getRequest pops a pooled request record (or allocates one) for server.
func (fs *FileSystem) getRequest(server int, kind opKind) *serverRequest {
	var r *serverRequest
	if n := len(fs.reqPool); n > 0 {
		r = fs.reqPool[n-1]
		fs.reqPool = fs.reqPool[:n-1]
	} else {
		r = new(serverRequest)
		r.task.Bind(r)
	}
	r.server, r.kind = server, kind
	return r
}

// putRequest returns a retired record to the free list, dropping its
// payload and operation references but keeping its slices' storage (lock
// resources live as long as the file system, so they need no clearing).
func (fs *FileSystem) putRequest(r *serverRequest) {
	clear(r.segs)
	*r = serverRequest{task: r.task, segs: r.segs[:0], locks: r.locks[:0]}
	fs.reqPool = append(fs.reqPool, r)
}

// groupRequests coalesces pieces into one pooled request per server,
// appended to the empty slice dst in first-touch order, preserving
// per-server piece order.
func (fs *FileSystem) groupRequests(dst []*serverRequest, pieces []serverPiece, kind opKind, contiguous bool) []*serverRequest {
	dst = slices.Grow(dst, len(fs.servers)) // one request per server at most
	byServer := fs.byServer
	for _, pc := range pieces {
		r := byServer[pc.server]
		if r == nil {
			r = fs.getRequest(pc.server, kind)
			byServer[pc.server] = r
			dst = append(dst, r)
		}
		r.segs = append(r.segs, pc.seg)
		r.bytes += pc.seg.Length
		r.nsegs++
	}
	for _, r := range dst {
		byServer[r.server] = nil
		if contiguous {
			// A contiguous client range maps to a regular strided pattern
			// the server handles as a single access: charge one segment.
			r.nsegs = 1
		}
	}
	return dst
}

// IssueOp runs a set of server requests concurrently on behalf of a client
// process, as a resumable operation: per request the client pays
// PerServerIssue on its CPU (serially), the data crosses the client send NIC
// and the wire, queues at the server, is serviced, and an ack returns via
// the client recv NIC.
//
// Arm it with one of the Init* constructors, then call Step until it returns
// true. On a goroutine process one Step call completes the whole operation
// (the blocking File methods are wrappers doing exactly that); an FSM
// process re-enters Step after each park. Both forms run this one code path,
// so their event schedules are identical. An op is reusable once Step has
// returned true; re-arming it while its requests are in flight panics.
type IssueOp struct {
	f    *File
	p    *des.Proc
	port *Port
	reqs []*serverRequest // armed, not yet launched

	issueStart des.Time
	waitStart  des.Time
	gate       des.Gate
	launched   bool
	noop       bool

	// For causal recording, the request whose ack landed last: the client's
	// gate wait is decomposed along that request's pipeline.
	last struct {
		ok                      bool
		at, submit, start, done des.Time
	}

	readOff, readN int64     // capture read-back range (InitRead only)
	readSegs       []Segment // capture read-back segments (InitReadList only)
}

// rearm clears the previous operation's state. Every Init* calls it first.
func (op *IssueOp) rearm() {
	if n := op.gate.Pending(); n > 0 {
		panic(fmt.Sprintf("pvfs: IssueOp re-armed while %d server request(s) of its previous operation are in flight", n))
	}
	op.launched, op.noop = false, false
	op.last.ok = false
	op.readOff, op.readN = 0, 0
	op.readSegs = nil
	op.reqs = op.reqs[:0]
}

// init arms the op over the server requests already grouped into op.reqs.
func (op *IssueOp) init(f *File, p *des.Proc, port *Port) {
	op.f, op.p, op.port = f, p, port
	op.issueStart = f.fs.sim.Now()
	// The client marshals every request serially on its own CPU first.
	p.Sleep(f.fs.cfg.IssueOverhead + des.Time(len(op.reqs))*f.fs.cfg.PerServerIssue)
}

// Step drives the operation; it returns true once every server request has
// been serviced and acknowledged.
func (op *IssueOp) Step() bool {
	if op.noop {
		return true
	}
	f, p := op.f, op.p
	fs := f.fs
	sim := fs.sim
	if p.Yielded() {
		return false // still inside the marshaling sleep armed by init
	}
	if !op.launched {
		op.launched = true
		if c := fs.causal; c != nil {
			// Request marshaling is part of delivering I/O service.
			c.Busy(p.Name(), causal.CatIOService, op.issueStart, sim.Now())
		}
		op.launch()
		op.waitStart = sim.Now()
	}
	for op.gate.Pending() > 0 {
		op.gate.Park(p)
		if p.Yielded() {
			return false
		}
	}
	if c := fs.causal; c != nil && sim.Now() > op.waitStart {
		if op.last.ok {
			// The wait ended when the slowest request's ack cleared the
			// client NIC; bill its pipeline stages.
			c.WaitChain(p.Name(), op.waitStart, sim.Now(), []causal.Segment{
				{At: op.waitStart, Cat: causal.CatTransit},
				{At: op.last.submit, Cat: causal.CatIOQueue},
				{At: op.last.start, Cat: causal.CatIOService},
				{At: op.last.done, Cat: causal.CatTransit},
			})
		} else {
			c.WaitPlain(p.Name(), op.waitStart, sim.Now(), causal.CatTransit)
		}
	}
	return true
}

// launch pushes every server request into the network/storage pipeline and
// arms the completion gate. Runs once, after the marshaling sleep.
func (op *IssueOp) launch() {
	f, port := op.f, op.port
	fs := f.fs
	cfg := &fs.cfg
	op.gate.Init(fs.sim, len(op.reqs))
	for _, r := range op.reqs {
		switch r.kind {
		case opWrite, opRead:
			r.cost = cfg.RequestOverhead + des.Time(r.nsegs)*cfg.SegmentOverhead +
				des.BytesOver(r.bytes, cfg.ServiceBandwidth)
		case opSync:
			srv := fs.servers[r.server]
			d := srv.dirty
			srv.dirty = 0
			r.cost = cfg.SyncBase + des.BytesOver(d, cfg.SyncBandwidth)
			srv.syncs++
		}
		wireBytes := r.bytes
		if r.kind != opWrite {
			wireBytes = 256 // request descriptor only; data flows back for reads
		}
		f.lockUnits(r)
		r.op = op
		r.stage = stageSent
		port.Send.SubmitTask(des.BytesOver(wireBytes, port.Bandwidth), &r.task)
	}
	clear(op.reqs) // the records now belong to the pipeline
	op.reqs = op.reqs[:0]
}

// Fire runs the request's next pipeline stage.
func (r *serverRequest) Fire() {
	op := r.op
	f := op.f
	fs := f.fs
	sim := fs.sim
	cfg := &fs.cfg
	srv := fs.servers[r.server]
	switch r.stage {
	case stageSent:
		r.stage = stageArrived
		sim.AfterTask(cfg.NetLatency, &r.task)
	case stageArrived:
		r.submitAt = sim.Now()
		// Degradation windows scale service time at submission.
		if fs.faults != nil {
			if x := fs.faults.ServiceFactor(r.server); x != 1 {
				r.cost = des.Time(float64(r.cost) * x)
			}
		}
		if len(r.locks) > 0 {
			r.stage = stageGranted
			sim.AtTask(lockGrant(sim, r.locks, srv.res, r.cost, cfg.LockAcquireCost), &r.task)
			return
		}
		r.serve(fs, srv)
	case stageGranted:
		r.serve(fs, srv)
	case stageServed:
		if r.kind == opWrite {
			srv.dirty += r.bytes
			srv.written += r.bytes
			for _, seg := range r.segs {
				data := seg.Data
				if fs.dropWrite != nil && fs.dropWrite(seg.Offset, seg.Length) {
					data = nil // silent loss: coverage recorded, no bytes stored
				}
				f.data.write(seg.Offset, seg.Length, data)
				if seg.Offset+seg.Length > f.size {
					f.size = seg.Offset + seg.Length
				}
			}
		}
		srv.requests++
		srv.segments += uint64(r.nsegs)
		r.stage = stageReturned
		sim.AfterTask(cfg.NetLatency, &r.task)
	case stageReturned:
		back := ackCost
		if r.kind == opRead {
			back += des.BytesOver(r.bytes, op.port.Bandwidth)
		}
		r.stage = stageAcked
		op.port.Recv.SubmitTask(back, &r.task)
	case stageAcked:
		if fs.causal != nil {
			if now := sim.Now(); !op.last.ok || now >= op.last.at {
				op.last.ok, op.last.at = true, now
				op.last.submit, op.last.start, op.last.done = r.submitAt, r.doneAt-r.cost, r.doneAt
			}
		}
		op.gate.Done()
		fs.putRequest(r)
	}
}

// serve queues the request at its server (every lock unit granted) and
// records it in the request trace and metrics.
func (r *serverRequest) serve(fs *FileSystem, srv *server) {
	r.stage = stageServed
	r.doneAt = srv.res.SubmitTask(r.cost, &r.task)
	if fs.traceOn {
		fs.trace = append(fs.trace, RequestRecord{
			Kind:     r.kindName(),
			Server:   r.server,
			Bytes:    r.bytes,
			Segments: r.nsegs,
			Submit:   r.submitAt,
			Start:    r.doneAt - r.cost,
			Done:     r.doneAt,
		})
	}
	fs.recordRequest(r.kindName(), r.bytes, r.doneAt-r.cost-r.submitAt, r.cost)
}

// InitWrite arms op as a contiguous write of n bytes at off. data may be nil
// unless the file system captures real bytes; a capturing file system keeps
// data by reference, so the caller must not modify it afterwards (see
// Segment). A non-positive n is a no-op.
func (op *IssueOp) InitWrite(p *des.Proc, f *File, port *Port, off, n int64, data []byte) {
	op.rearm()
	if n <= 0 {
		op.noop = true
		return
	}
	op.reqs = f.fs.groupRequests(op.reqs, f.splitByServer([]Segment{{Offset: off, Length: n, Data: data}}), opWrite, true)
	op.init(f, p, port)
}

// InitWriteList arms op as a native noncontiguous list-I/O write: all
// segments in one operation, one batched request per touched server, issued
// in parallel. This is the PVFS2 list I/O interface of [Ching et al. 2002]
// that the WW-List strategy exercises. A capturing file system keeps each
// segment's Data by reference (see Segment). An empty segment list is a
// no-op.
func (op *IssueOp) InitWriteList(p *des.Proc, f *File, port *Port, segs []Segment) {
	op.rearm()
	if len(segs) == 0 {
		op.noop = true
		return
	}
	op.reqs = f.fs.groupRequests(op.reqs, f.splitByServer(segs), opWrite, false)
	op.init(f, p, port)
}

// InitRead arms op as a contiguous read. A non-positive n is a no-op.
func (op *IssueOp) InitRead(p *des.Proc, f *File, port *Port, off, n int64) {
	op.rearm()
	if n <= 0 {
		op.noop = true
		return
	}
	op.reqs = f.fs.groupRequests(op.reqs, f.splitByServer([]Segment{{Offset: off, Length: n}}), opRead, true)
	op.init(f, p, port)
	op.readOff, op.readN = off, n
}

// InitReadList arms op as a native noncontiguous list-I/O read: the mirror
// of InitWriteList, one batched request per touched server with the data
// bytes flowing back over the recv NIC. This is the read side of the PVFS2
// list I/O interface that "Noncontiguous I/O through PVFS" benchmarks. An
// empty segment list is a no-op.
func (op *IssueOp) InitReadList(p *des.Proc, f *File, port *Port, segs []Segment) {
	op.rearm()
	if len(segs) == 0 {
		op.noop = true
		return
	}
	op.reqs = f.fs.groupRequests(op.reqs, f.splitByServer(segs), opRead, false)
	op.init(f, p, port)
	op.readSegs = segs
}

// InitSync arms op as a flush of every server's dirty data (MPI_File_sync's
// storage-side effect). Each server charges a base cost plus its dirty bytes
// over the flush bandwidth; concurrent syncs therefore mostly pay the base
// cost.
func (op *IssueOp) InitSync(p *des.Proc, f *File, port *Port) {
	op.rearm()
	op.reqs = slices.Grow(op.reqs, len(f.fs.servers))
	for i := range f.fs.servers {
		op.reqs = append(op.reqs, f.fs.getRequest(i, opSync))
	}
	op.init(f, p, port)
}

// ReadData returns the stored bytes of an InitRead-armed op (zero-filled
// gaps) when the file system captures data, nil otherwise. Valid only after
// Step has returned true. Like File.ReadBack it may return a read-only view
// of stored bytes: copy it into a buffer you own before modifying it.
func (op *IssueOp) ReadData() []byte {
	if op.readN <= 0 || !op.f.fs.cfg.CaptureData {
		return nil
	}
	return op.f.data.read(op.readOff, op.readN)
}

// ReadSegsData returns the stored bytes per segment of an
// InitReadList-armed op (zero-filled gaps) when the file system captures
// data, nil otherwise. Valid only after Step has returned true. Each entry
// may be a read-only view of stored bytes, as with ReadData.
func (op *IssueOp) ReadSegsData() [][]byte {
	if len(op.readSegs) == 0 || !op.f.fs.cfg.CaptureData {
		return nil
	}
	out := make([][]byte, len(op.readSegs))
	for i, s := range op.readSegs {
		out[i] = op.f.data.read(s.Offset, s.Length)
	}
	return out
}

// Write performs a contiguous write of n bytes at off; see
// IssueOp.InitWrite for data's ownership.
func (f *File) Write(p *des.Proc, port *Port, off, n int64, data []byte) {
	var op IssueOp
	op.InitWrite(p, f, port, off, n, data)
	op.Step()
}

// WriteList performs a native noncontiguous list-I/O write; see
// IssueOp.InitWriteList.
func (f *File) WriteList(p *des.Proc, port *Port, segs []Segment) {
	var op IssueOp
	op.InitWriteList(p, f, port, segs)
	op.Step()
}

// Read performs a contiguous read; with capture enabled the stored bytes
// (zero-filled gaps, possibly a read-only view; see ReadData) are returned,
// otherwise nil.
func (f *File) Read(p *des.Proc, port *Port, off, n int64) []byte {
	var op IssueOp
	op.InitRead(p, f, port, off, n)
	op.Step()
	return op.ReadData()
}

// ReadList performs a native noncontiguous list-I/O read; with capture
// enabled the stored bytes per segment are returned (see ReadSegsData),
// otherwise nil.
func (f *File) ReadList(p *des.Proc, port *Port, segs []Segment) [][]byte {
	var op IssueOp
	op.InitReadList(p, f, port, segs)
	op.Step()
	return op.ReadSegsData()
}

// Sync flushes every server's dirty data; see IssueOp.InitSync.
func (f *File) Sync(p *des.Proc, port *Port) {
	var op IssueOp
	op.InitSync(p, f, port)
	op.Step()
}

// lockUnits fills r.locks with the lock resources a write request must
// serialize through, in ascending unit order (none when locking is disabled
// or the request is not a write).
func (f *File) lockUnits(r *serverRequest) {
	gran := f.fs.cfg.LockGranularity
	if gran <= 0 || r.kind != opWrite {
		return
	}
	units := f.units[:0]
	for _, seg := range r.segs {
		for u := seg.Offset / gran; u <= (seg.Offset+seg.Length-1)/gran; u++ {
			units = append(units, u)
		}
	}
	slices.Sort(units)
	units = slices.Compact(units)
	for _, u := range units {
		res, ok := f.locks[u]
		if !ok {
			res = f.fs.sim.NewResource(fmt.Sprintf("%s.lock%d", f.name, u), 1)
			f.locks[u] = res
		}
		r.locks = append(r.locks, res)
	}
	f.units = units
}

// lockGrant reserves every lock unit a write touches (atomically, within
// one simulation event, so lock acquisition cannot deadlock) and returns
// when the last unit is granted, the moment service may start. Each unit is
// held for the request's estimated time-to-completion (current server
// backlog plus service cost) — an approximation of lock-based file systems'
// hold-until-write-completes. Uncontended locks are granted after the
// per-unit acquisition cost (a lock-manager round trip).
func lockGrant(sim *des.Simulation, locks []*des.Resource, srv *des.Resource, cost, acquire des.Time) des.Time {
	hold := cost
	if backlog := srv.FreeAt() - sim.Now(); backlog > 0 {
		hold += backlog
	}
	grant := sim.Now()
	for _, l := range locks {
		if start := l.Submit(hold, nil) - hold; start > grant {
			grant = start
		}
	}
	return grant + acquire*des.Time(len(locks))
}

// ServerStats is a per-server utilization snapshot.
type ServerStats struct {
	Requests     uint64
	Segments     uint64
	BytesWritten int64
	Syncs        uint64
	Busy         des.Time
	QueueWait    des.Time
}

// Stats summarizes all servers.
type Stats struct {
	Servers       []ServerStats
	TotalRequests uint64
	TotalSegments uint64
	TotalBytes    int64
	TotalSyncs    uint64
	TotalBusy     des.Time
}

// Stats returns a snapshot of per-server and aggregate counters.
func (fs *FileSystem) Stats() Stats {
	var out Stats
	for _, s := range fs.servers {
		rs := s.res.Stats()
		st := ServerStats{
			Requests:     s.requests,
			Segments:     s.segments,
			BytesWritten: s.written,
			Syncs:        s.syncs,
			Busy:         rs.BusyTime,
			QueueWait:    rs.QueueWait,
		}
		out.Servers = append(out.Servers, st)
		out.TotalRequests += st.Requests
		out.TotalSegments += st.Segments
		out.TotalBytes += st.BytesWritten
		out.TotalSyncs += st.Syncs
		out.TotalBusy += st.Busy
	}
	return out
}
