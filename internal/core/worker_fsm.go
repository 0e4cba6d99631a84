package core

import (
	"s3asim/internal/causal"
	"s3asim/internal/des"
	"s3asim/internal/mpi"
	"s3asim/internal/pvfs"
	"s3asim/internal/romio"
	"s3asim/internal/search"
)

// Every worker is a resumable state machine for des.SpawnFSM: a blocked
// worker is one struct instead of a parked goroutine stack, which is what
// makes 100k-worker configurations affordable. The control flow of
// Algorithm 2 is flattened into explicit program counters, and every
// blocking composite runs through the resumable op structs of the mpi,
// romio, and pvfs layers. Two machines share this file's workerBase:
// workerFSM runs the original protocol, rworkerFSM (resilient_worker.go) the
// self-healing one. What the two protocols do identically lives in
// workerBase as parameterized sub-machines: the batch write (format, write,
// sync, durability stamp, in-run readback) and the task body (re-read,
// compute, merge, score send).

// workerBase is the state both worker machines share: identity, the phase
// timer, the scratch ops, and the batch-write and task-body sub-machines.
type workerBase struct {
	rt *runtime
	g  *group
	r  *mpi.Rank
	pt *PhaseTimer

	writePC uint8
	taskPC  uint8

	// Scratch ops, one of each kind: a worker runs at most one blocking
	// composite at a time, so each op is reused across the whole run.
	bcast   mpi.BcastOp
	barrier mpi.BarrierOp
	wait    mpi.WaitOp
	waitAll mpi.WaitAllOp
	issue   pvfs.IssueOp
	wsegs   romio.WriteSegsOp
	coll    romio.CollWriteOp
	rsegs   romio.ReadSegsOp
	rcoll   romio.CollReadOp

	pending  []*mpi.Request // in-flight score (and ack/request) sends
	reqSend  *mpi.Request   // the send m.wait waits out (work request, fin)
	mergeAcc map[int]int64  // worker-local merged bytes per query

	// Batch-write sub-machine.
	om     offsetMsg // the offset list being written
	wcoll  bool      // through the collective round (else individual)
	segs   []pvfs.Segment
	rbLeft int  // in-run readback rounds remaining for this batch
	rbColl bool // current readback rounds are collective

	// Task-body sub-machine.
	t          task
	taskBytes  int64
	taskCount  int
	sleepStart des.Time // causal start of an in-flight compute/merge sleep
}

// Batch-write sub-machine counters (startWrite/stepWrite).
const (
	wwFormat    uint8 = iota // result-formatting sleep in flight
	wwRoute                  // dispatch: collective or individual
	wwCollEntry              // two-phase gather barrier
	wwColl                   // collective write in flight
	wwSegs                   // individual noncontiguous write in flight
	wwSync                   // post-write file sync in flight
	wwRead                   // in-run readback: individual read in flight
	wwRColl                  // in-run readback: collective read round in flight
	wwDone                   // nothing (left) to write
)

// Task-body sub-machine counters (startTaskBody/stepTaskBody).
const (
	tkReread  uint8 = iota // query-seg overflow re-read in flight
	tkCompute              // search compute sleep in flight
	tkMerge                // local merge sleep in flight
)

// begin installs the worker's phase timer and enters the setup phase.
func (m *workerBase) begin() {
	rt, r := m.rt, m.r
	m.pt = NewPhaseTimer(rt.sim)
	m.pt.Trace(rt.cfg.Sink, r.Proc().Name())
	rt.timers[r.Rank()] = m.pt
	m.pt.Switch(PhaseSetup)
	m.mergeAcc = make(map[int]int64)
}

// armLoadDatabase starts the input-I/O extension's initial database read
// and reports whether one is in flight: under database segmentation each
// worker reads its 1/W share once; under query segmentation it reads up to
// its memory capacity of the full replica (the remainder is re-read per
// task).
func (m *workerBase) armLoadDatabase() bool {
	cfg := m.rt.cfg
	if cfg.DatabaseBytes <= 0 {
		return false
	}
	m.pt.Switch(PhaseIO)
	if cfg.Segmentation == QuerySeg {
		n := cfg.DatabaseBytes
		if n > cfg.WorkerMemoryBytes {
			n = cfg.WorkerMemoryBytes
		}
		m.rt.dbFile.StartReadAt(&m.issue, m.r, 0, n)
		return true
	}
	share := cfg.DatabaseBytes / int64(m.rt.totalWorkers())
	if share <= 0 {
		return false
	}
	off := (share * int64(m.r.Rank())) % cfg.DatabaseBytes
	m.rt.dbFile.StartReadAt(&m.issue, m.r, off, share)
	return true
}

// retire frees completed sends and drops them from the pending list.
func (m *workerBase) retire() {
	kept := m.pending[:0]
	for _, q := range m.pending {
		if q.Done() {
			m.r.Free(q)
		} else {
			kept = append(kept, q)
		}
	}
	m.pending = kept
}

// freePending frees every pending send once a WaitAll over them returned.
func (m *workerBase) freePending() {
	m.r.FreeAll(m.pending...)
	m.pending = m.pending[:0]
}

// startWrite arms the batch-write sub-machine for this worker's share of
// the offset list in m.om: collective routes it through the group's
// collective round, otherwise it is an individual noncontiguous write.
func (m *workerBase) startWrite(collective bool) {
	cfg := m.rt.cfg
	m.wcoll = collective
	m.segs = m.rt.placementsToSegments(m.om.Placements)
	var segBytes int64
	for _, s := range m.segs {
		segBytes += s.Length
	}
	if segBytes > 0 {
		// Format this worker's share of the results before writing (under
		// WW strategies each worker serializes its own output).
		m.pt.Switch(PhaseIO)
		m.sleepStart = m.rt.sim.Now()
		m.r.Proc().Sleep(des.BytesOver(segBytes, cfg.FormatBandwidth))
		m.writePC = wwFormat
		return
	}
	m.writePC = wwRoute
}

// stepWrite drives the batch write; false means the worker parked.
func (m *workerBase) stepWrite() bool {
	rt, r := m.rt, m.r
	cfg := rt.cfg
	for {
		switch m.writePC {
		case wwFormat:
			if r.Proc().Yielded() {
				return false
			}
			m.billMerge()
			m.writePC = wwRoute
		case wwRoute:
			if m.wcoll {
				// Collective write: every group worker participates, with or
				// without data — the inherent synchronization the paper
				// measures. For two-phase, waiting for the last worker to
				// become ready is billed to data distribution (paper §4);
				// the collective operation itself is I/O. The list-sync
				// collective has no entry synchronization.
				if cfg.CollMethod == romio.TwoPhase {
					m.pt.Switch(PhaseDataDist)
					m.barrier.Init(m.g.collEntry, r)
					m.writePC = wwCollEntry
					continue
				}
				m.startColl()
				continue
			}
			if len(m.segs) == 0 {
				m.writePC = wwDone
				continue
			}
			// Individual noncontiguous write (POSIX or list I/O per hints;
			// adaptive batches carry their hint vector in the offset message).
			m.pt.Switch(PhaseIO)
			if rt.ad != nil {
				m.wsegs.InitHinted(rt.file, r, m.segs, m.om.Hints)
			} else {
				m.wsegs.Init(rt.file, r, m.segs)
			}
			m.writePC = wwSegs
		case wwCollEntry:
			if !m.barrier.Step() {
				return false
			}
			m.startColl()
		case wwColl:
			if !m.coll.Step() {
				return false
			}
			m.afterWrite()
		case wwSegs:
			if !m.wsegs.Step() {
				return false
			}
			m.afterWrite()
		case wwSync:
			if !m.issue.Step() {
				return false
			}
			m.stamped()
		case wwRead:
			if !m.rsegs.Step() {
				return false
			}
			m.verified(m.rsegs.Data())
		case wwRColl:
			if !m.rcoll.Step() {
				return false
			}
			m.verified(m.rcoll.Data())
		case wwDone:
			return true
		}
	}
}

// startColl arms the collective write round.
func (m *workerBase) startColl() {
	m.pt.Switch(PhaseIO)
	if m.rt.ad != nil {
		m.coll.InitHinted(m.g.collGroup, m.r, m.segs, m.om.Hints)
	} else {
		m.coll.Init(m.g.collGroup, m.r, m.segs)
	}
	m.writePC = wwColl
}

// afterWrite follows a completed write with the optional file sync, or
// stamps the batch durable straight away.
func (m *workerBase) afterWrite() {
	if m.rt.cfg.SyncEveryWrite {
		m.rt.file.StartSync(&m.issue, m.r)
		m.writePC = wwSync
		return
	}
	m.stamped()
}

// stamped records the batch's data as durable, then arms the first in-run
// verification read. Readback rounds are collective only after a
// collective write with Readback.Collective set; otherwise they re-read the
// just-written segments individually (nothing to read leaves wwDone).
func (m *workerBase) stamped() {
	rt := m.rt
	rt.stampFlush(m.r.Proc().Name(), m.g, m.om.Batch)
	m.writePC = wwDone
	rb := rt.rb
	if rb == nil || rb.conf.InRunReads == 0 {
		return
	}
	m.rbColl = m.wcoll && rb.conf.Collective
	if !m.rbColl && len(m.segs) == 0 {
		return
	}
	m.rbLeft = rb.conf.InRunReads
	m.startReadback()
}

// verified checks one readback round against the bytes just written and
// arms the next round, if any.
func (m *workerBase) verified(got [][]byte) {
	m.rt.rbVerify(m.r.Proc().Name(), m.segs, got, nil)
	m.rbLeft--
	if m.rbLeft > 0 {
		m.startReadback()
		return
	}
	m.writePC = wwDone
}

// startReadback arms one in-run readback round.
func (m *workerBase) startReadback() {
	m.pt.Switch(PhaseIO)
	if m.rbColl {
		m.rcoll.Init(m.g.collGroup, m.r, m.segs)
		m.writePC = wwRColl
		return
	}
	m.rsegs.Init(m.rt.file, m.r, m.rt.rb.conf.Method, m.segs)
	m.writePC = wwRead
}

// setTask records the (query, fragment) the worker is about to search.
func (m *workerBase) setTask(t task) {
	m.t = t
	m.taskBytes = m.rt.wl.TaskBytes(t.Q, t.F)
	m.taskCount = m.rt.wl.TaskCount(t.Q, t.F)
}

// startTaskBody arms the task-body sub-machine for m.t, once any run-ahead
// gate has opened.
func (m *workerBase) startTaskBody() {
	cfg := m.rt.cfg
	// Query segmentation with a database larger than worker memory must
	// re-read the overflow for every query — §1's "repeated I/O introduced
	// by loading sequence data back and forth between the file system and
	// the main memory".
	if cfg.Segmentation == QuerySeg && cfg.DatabaseBytes > cfg.WorkerMemoryBytes {
		m.pt.Switch(PhaseIO)
		m.rt.dbFile.StartReadAt(&m.issue, m.r,
			cfg.WorkerMemoryBytes, cfg.DatabaseBytes-cfg.WorkerMemoryBytes)
		m.taskPC = tkReread
		return
	}
	m.armCompute()
}

// stepTaskBody models one (query, fragment) search; false means the worker
// parked.
func (m *workerBase) stepTaskBody() bool {
	rt, r := m.rt, m.r
	cfg := rt.cfg
	for {
		switch m.taskPC {
		case tkReread:
			if !m.issue.Step() {
				return false
			}
			m.armCompute()
		case tkCompute:
			if r.Proc().Yielded() {
				return false
			}
			if c := r.World().Causal(); c != nil {
				c.Busy(r.Proc().Name(), causal.CatCompute, m.sleepStart, r.Now())
			}
			// Step 8: merge with previous results for this query.
			if rt.taskStrat(m.t).WorkerWriting() {
				m.pt.Switch(PhaseMerge)
				m.sleepStart = rt.sim.Now()
				r.Proc().Sleep(cfg.mergeTime(m.mergeAcc[m.t.Q], m.taskBytes))
				m.taskPC = tkMerge
				continue
			}
			m.taskSend()
			return true
		case tkMerge:
			if r.Proc().Yielded() {
				return false
			}
			m.billMerge()
			m.mergeAcc[m.t.Q] += m.taskBytes
			m.taskSend()
			return true
		}
	}
}

// armCompute starts the search-compute sleep (step 6), stretched by any
// straggler window the fault plan holds on this rank.
func (m *workerBase) armCompute() {
	rt := m.rt
	cfg := rt.cfg
	m.pt.Switch(PhaseCompute)
	m.sleepStart = rt.sim.Now()
	d := cfg.Compute.TaskTime(m.taskBytes, cfg.ComputeSpeed)
	if rt.faults != nil {
		if f := rt.faults.ComputeFactor(m.r.Rank()); f != 1 {
			d = des.Time(float64(d) * f)
		}
	}
	m.r.Proc().Sleep(d)
	m.taskPC = tkCompute
}

// taskSend ships ordered scores (and the result data itself under MW) —
// step 10, a nonblocking send retired later.
func (m *workerBase) taskSend() {
	cfg := m.rt.cfg
	m.pt.Switch(PhaseGather)
	wire := int64(m.taskCount) * cfg.ScoreEntryBytes
	if m.rt.taskStrat(m.t) == MW {
		wire += m.taskBytes
	}
	m.pending = append(m.pending,
		m.r.Isend(m.g.masterRank, tagScores, wire,
			scoreMsg{Task: m.t, Count: m.taskCount, ResultBytes: m.taskBytes}))
}

// billMerge records a completed merge/format sleep for causal attribution,
// mirroring runtime.mergeSleep.
func (m *workerBase) billMerge() {
	if c := m.rt.cfg.Causal; c != nil {
		c.Busy(m.r.Proc().Name(), causal.CatMerge, m.sleepStart, m.rt.sim.Now())
	}
}

// stampFlush records when a batch's data last became durable: the latest
// write completion among the workers holding its results (the master
// stamps MW batches itself). Report.BatchFlushTimes feeds the §2
// failure-recovery analysis; serving runs also record which process
// completed the write (the tail-attribution anchor).
func (rt *runtime) stampFlush(proc string, g *group, localBatch int) {
	idx := g.batchBase + localBatch
	if now := rt.sim.Now(); now > rt.flushTimes[idx] {
		rt.flushTimes[idx] = now
		rt.serveStampDone(idx, proc)
	}
	if rt.ad != nil {
		rt.adaptStamped(idx, proc)
	}
}

// placementsToSegments converts result placements (already in file order)
// to write segments, coalescing adjacent results — a real implementation
// merges contiguous extents when building its I/O list. Capture runs fill
// every segment's bytes once, in place, from one buffer.
func (rt *runtime) placementsToSegments(placements []search.Result) []pvfs.Segment {
	var segs []pvfs.Segment
	for _, res := range placements {
		if n := len(segs); n > 0 && segs[n-1].Offset+segs[n-1].Length == res.Offset {
			segs[n-1].Length += res.Size
			continue
		}
		segs = append(segs, pvfs.Segment{Offset: res.Offset, Length: res.Size})
	}
	if rt.cfg.CaptureData {
		// The segments tile the placements in order, so the buffer holds
		// each result at its running position and each segment is a
		// capacity-capped window of it.
		var total int64
		for _, res := range placements {
			total += res.Size
		}
		buf := make([]byte, total)
		var at int64
		for _, res := range placements {
			rt.wl.FillResult(res.Query, res.Index, 0, buf[at:at+res.Size])
			at += res.Size
		}
		at = 0
		for i := range segs {
			end := at + segs[i].Length
			segs[i].Data = buf[at:end:end]
			at = end
		}
	}
	return segs
}

// workerFSM runs Algorithm 2 of the original protocol: request work from
// the group master, model the search, merge local results, ship scores (and
// results under MW), and perform its share of the result I/O as offset
// lists arrive. The main loop (pc) and the drain loop (drainPC) are its own
// program counters; the batch write and the task body are workerBase's.
type workerFSM struct {
	workerBase

	pc      uint8
	drainPC uint8

	progress      bool
	drainHandled  bool
	tracksBatches bool
	noMore        bool

	batchesHandled int
	offReq         *mpi.Request // posted receive for offset lists (WW)
	tokReq         *mpi.Request // posted receive for sync tokens (MW+sync)
	replyReq       *mpi.Request

	waitAny mpi.WaitAnyOp
	waitSet []*mpi.Request // scratch for waitAny arming
}

// newWorkerFSM returns the original-protocol worker machine for rank w.
func (rt *runtime) newWorkerFSM(g *group, w int) *workerFSM {
	return &workerFSM{workerBase: workerBase{rt: rt, g: g, r: rt.world.Rank(w)}}
}

// Main program counters (workerFSM.pc), in Algorithm 2 order.
const (
	wfStart       uint8 = iota // first step: timer setup, config broadcast
	wfBcast                    // setup broadcast in flight
	wfLoadDB                   // initial database read in flight
	wfLoopHead                 // top of the main loop: done()/iteration start
	wfSendReq                  // work-request send's wait in flight
	wfReplyCheck               // reply posted: dispatch on its completion
	wfReplyDrain               // drain running while awaiting the reply
	wfReplyWait                // parked on reply (and sync token, MW+sync)
	wfGate                     // WW-Coll: check the batch-completion gate
	wfGateWait                 // WW-Coll: parked awaiting an offset list
	wfGateDrain                // WW-Coll: drain after the gate wait
	wfTask                     // task body running
	wfRetire                   // retire completed sends, then tail drain
	wfLoopDrain                // tail drain running
	wfIdleAny                  // idle: parked on the next master notification
	wfIdleAll                  // idle: draining the last score sends
	wfFinalGather              // final WaitAll over in-flight sends
	wfFinalSync                // end-of-application barrier
)

// Drain sub-machine counters (workerFSM.drainPC).
const (
	drHead    uint8 = iota // check for an arrived offset list
	drWrite                // batch write sub-machine running
	drOffSync              // per-batch barrier after an offset write
	drTokHead              // check for an arrived sync token
	drTokSync              // per-batch barrier after a token
)

// Step advances the worker to its next park. It is the Machine contract's
// entry point: called once per resumption from the kernel run loop.
func (m *workerFSM) Step(p *des.Proc) {
	for m.step() {
	}
}

// step runs the current main state; false means the worker parked (or
// finished at wfFinalSync).
func (m *workerFSM) step() bool {
	rt, r, g := m.rt, m.r, m.g
	boss := g.masterRank
	switch m.pc {
	case wfStart:
		// Step 1: receive input variables (broadcast from the group master).
		m.begin()
		m.bcast.Init(g.team, r, boss, configMsgBytes, nil)
		m.pc = wfBcast
	case wfBcast:
		if !m.bcast.Step() {
			return false
		}
		// Input-I/O extension: load the sequence database.
		if m.armLoadDatabase() {
			m.pc = wfLoadDB
			return true
		}
		m.initState()
		m.pc = wfLoopHead
	case wfLoadDB:
		if !m.issue.Step() {
			return false
		}
		m.initState()
		m.pc = wfLoopHead
	case wfLoopHead:
		if m.done() {
			m.pt.Switch(PhaseGather)
			m.waitAll.Init(r, m.pending)
			m.pc = wfFinalGather
			return true
		}
		m.progress = false
		if m.noMore {
			m.pc = wfRetire
			return true
		}
		// Steps 3–4: request and receive work. The reply receive is
		// blocking (Algorithm 2 step 4), except that MW sync tokens are
		// honored while waiting so a request-blocked worker joins the
		// post-write barrier without first taking another task.
		m.pt.Switch(PhaseDataDist)
		m.reqSend = r.Isend(boss, tagWorkRequest, requestMsgBytes, nil)
		m.wait.Init(r, m.reqSend)
		m.pc = wfSendReq
	case wfSendReq:
		if !m.wait.Step() {
			return false
		}
		r.Free(m.reqSend)
		m.replyReq = r.Irecv(boss, tagWorkReply)
		m.pc = wfReplyCheck
	case wfReplyCheck:
		if m.replyReq.Done() {
			payload := m.replyReq.Message().Payload
			r.Free(m.replyReq)
			if payload == nil {
				m.noMore = true
				m.progress = true
				m.pc = wfRetire
				return true
			}
			m.setTask(payload.(task))
			m.pc = wfGate
			return true
		}
		// Serving masters hold work requests across arrival gaps, so a
		// request-blocked worker must also service offset lists or it
		// would sit on pending writes until the next arrival. Adaptive
		// runs drain here too: an MW batch's post-write notification must
		// be honored before the next task, exactly as MW+sync tokens are.
		if m.tokReq != nil || rt.serve != nil || rt.ad != nil {
			m.startDrain()
			m.pc = wfReplyDrain
			return true
		}
		m.armReplyWait()
		m.pc = wfReplyWait
	case wfReplyDrain:
		if !m.stepDrain() {
			return false
		}
		if m.drainHandled {
			m.pt.Switch(PhaseDataDist)
			m.pc = wfReplyCheck
			return true
		}
		m.armReplyWait()
		m.pc = wfReplyWait
	case wfReplyWait:
		if !m.waitAny.Step() {
			return false
		}
		m.pc = wfReplyCheck
	case wfGate:
		// Under WW-Coll a worker cannot begin an upcoming query until the
		// collective I/O for all earlier batches has completed (§2.3: "the
		// WW-Coll strategy cannot allow worker processes to begin upcoming
		// queries until after the I/O operation"). The wait for the
		// master's offset list bills to data distribution.
		if rt.taskStrat(m.t) == WWColl {
			// Serving runs flush out of order, so the query index no longer
			// implies how many rounds precede this task; the master tells
			// us directly (task.Gate).
			need := (m.t.Q - g.loQ) / rt.cfg.QueriesPerWrite
			if rt.serve != nil {
				need = m.t.Gate
			}
			if m.batchesHandled < need {
				m.pt.Switch(PhaseDataDist)
				m.waitSet = append(m.waitSet[:0], m.offReq)
				m.waitAny.Init(r, m.waitSet)
				m.pc = wfGateWait
				return true
			}
		}
		m.startTaskBody()
		m.pc = wfTask
	case wfGateWait:
		if !m.waitAny.Step() {
			return false
		}
		m.startDrain()
		m.pc = wfGateDrain
	case wfGateDrain:
		if !m.stepDrain() {
			return false
		}
		m.pc = wfGate
	case wfTask:
		if !m.stepTaskBody() {
			return false
		}
		m.progress = true
		m.pc = wfRetire
	case wfRetire:
		// Step 15: retire completed score sends.
		m.pt.Switch(PhaseGather)
		m.retire()
		// Steps 16–19: handle any offset lists (or sync tokens) that have
		// arrived, without blocking — this is what lets individual WW
		// strategies keep computing while I/O instructions are pending.
		m.startDrain()
		m.pc = wfLoopDrain
	case wfLoopDrain:
		if !m.stepDrain() {
			return false
		}
		if m.drainHandled {
			m.progress = true
		}
		if !m.progress && !m.done() {
			m.armIdleWait()
			return true
		}
		m.pc = wfLoopHead
	case wfIdleAny:
		if !m.waitAny.Step() {
			return false
		}
		m.pc = wfLoopHead
	case wfIdleAll:
		if !m.waitAll.Step() {
			return false
		}
		m.freePending()
		m.pc = wfLoopHead
	case wfFinalGather:
		if !m.waitAll.Step() {
			return false
		}
		m.freePending()
		// End-of-application synchronization.
		m.pt.Switch(PhaseSync)
		m.barrier.Init(rt.final, r)
		m.pc = wfFinalSync
	case wfFinalSync:
		if !m.barrier.Step() {
			return false
		}
		m.pt.Finish()
		return false // machine returns unparked: the worker is done
	}
	return true
}

// done is the termination predicate: no more work, no sends in flight, and
// every batch's offset list (or token) handled.
func (m *workerFSM) done() bool {
	if !m.noMore || len(m.pending) > 0 {
		return false
	}
	return !m.tracksBatches || m.batchesHandled == len(m.g.batches)
}

// initState posts the long-lived receives after the database load.
func (m *workerFSM) initState() {
	cfg, r, boss := m.rt.cfg, m.r, m.g.masterRank
	// Adaptive workers always track offset lists: every batch sends one,
	// whichever strategy its controller picked (MW batches send empty lists).
	if m.rt.ad != nil || cfg.Strategy.WorkerWriting() {
		m.offReq = r.Irecv(boss, tagOffsets)
	} else if cfg.QuerySync {
		m.tokReq = r.Irecv(boss, tagSyncToken)
	}
	m.tracksBatches = m.offReq != nil || m.tokReq != nil
}

// armReplyWait parks the worker on the reply, plus the sync-token receive
// under MW+sync and — in serving and adaptive runs — the offset-list
// receive: a serving reply may be an arrival gap away, and an adaptive MW
// batch's notification must wake a request-blocked worker.
func (m *workerFSM) armReplyWait() {
	m.waitSet = append(m.waitSet[:0], m.replyReq)
	if m.tokReq != nil {
		m.waitSet = append(m.waitSet, m.tokReq)
	}
	if (m.rt.serve != nil || m.rt.ad != nil) && m.offReq != nil {
		m.waitSet = append(m.waitSet, m.offReq)
	}
	m.waitAny.Init(m.r, m.waitSet)
}

// armIdleWait blocks a worker with nothing left to compute until the next
// master notification (offset list or token) arrives, without consuming it.
// The paper bills waiting-on-the-master to the data distribution phase.
func (m *workerFSM) armIdleWait() {
	switch {
	case m.offReq != nil:
		m.pt.Switch(PhaseDataDist)
		m.waitSet = append(m.waitSet[:0], m.offReq)
		m.waitAny.Init(m.r, m.waitSet)
		m.pc = wfIdleAny
	case m.tokReq != nil:
		m.pt.Switch(PhaseDataDist)
		m.waitSet = append(m.waitSet[:0], m.tokReq)
		m.waitAny.Init(m.r, m.waitSet)
		m.pc = wfIdleAny
	default:
		m.pt.Switch(PhaseGather)
		m.waitAll.Init(m.r, m.pending)
		m.pc = wfIdleAll
	}
}

// startDrain arms the drain sub-machine.
func (m *workerFSM) startDrain() {
	m.drainPC = drHead
	m.drainHandled = false
}

// stepDrain handles every already-arrived offset list or sync token,
// reposting the receive each time; m.drainHandled reports whether anything
// was handled. Returns false when the worker parked inside a handler.
func (m *workerFSM) stepDrain() bool {
	rt, r := m.rt, m.r
	boss := m.g.masterRank
	for {
		switch m.drainPC {
		case drHead:
			if m.offReq != nil && m.offReq.Done() {
				m.om = m.offReq.Message().Payload.(offsetMsg)
				r.Free(m.offReq)
				m.offReq = r.Irecv(boss, tagOffsets)
				if rt.ad != nil && m.om.Strat == MW {
					// The master already wrote this batch; the (empty)
					// offset list only tracks batch progress.
					m.writePC = wwDone
				} else {
					m.startWrite(rt.batchStrat(m.om) == WWColl)
				}
				m.drainPC = drWrite
				continue
			}
			m.drainPC = drTokHead
		case drWrite:
			if !m.stepWrite() {
				return false
			}
			m.batchesHandled++
			if rt.cfg.QuerySync {
				m.pt.Switch(PhaseSync)
				m.barrier.Init(m.g.querySyn, r)
				m.drainPC = drOffSync
				continue
			}
			m.drainHandled = true
			m.drainPC = drHead
		case drOffSync:
			if !m.barrier.Step() {
				return false
			}
			m.drainHandled = true
			m.drainPC = drHead
		case drTokHead:
			if m.tokReq != nil && m.tokReq.Done() {
				r.Free(m.tokReq)
				m.tokReq = r.Irecv(boss, tagSyncToken)
				m.pt.Switch(PhaseSync)
				m.barrier.Init(m.g.querySyn, r)
				m.drainPC = drTokSync
				continue
			}
			return true
		case drTokSync:
			if !m.barrier.Step() {
				return false
			}
			m.batchesHandled++
			m.drainHandled = true
			m.drainPC = drTokHead
		}
	}
}
