package core

import (
	"fmt"
	"sort"

	"s3asim/internal/des"
	"s3asim/internal/mpi"
	"s3asim/internal/romio"
	"s3asim/internal/search"
)

// This file implements the resilient master side of the self-healing
// protocol (DESIGN.md §9). It and rworkerFSM (resilient_worker.go) run
// instead of master()/workerFSM whenever the configuration carries a fault
// plan (or Resilient is forced), so the original protocol stays
// byte-for-byte untouched — the empty-plan bit-identity guarantee.
//
// Recovery model in one paragraph: workers fail-stop at protocol
// checkpoints only (never inside a barrier, a collective round, or between
// a write and its ack). The master holds a lease per dispatched task and
// per sent batch wave; an out-of-band detector sweep (period DetectInterval)
// observes effected crashes. A dead worker's leased task, and its scored
// results belonging to not-yet-durable batches, are re-dispatched (bounded
// by MaxTaskRetries); recovered placements are re-sent to their new owners
// as higher "waves" of the batch. Request/reply/score messages may be lost
// (fault Drop events) and are covered by the worker's resend loop and the
// task lease; offset/ack/control traffic is modeled reliable. Dynamic
// membership (deaths, restarts) is reflected into the query-sync barrier
// and the WW-Coll collective group; once any collective participant dies,
// the group is tainted and all subsequent batches fall back to individual
// list I/O (WW-List behavior) rather than deadlock.

// Runtime glue shared by rmaster and rworkerFSM.

// noteEnd records one protocol actor's clean exit (the resilient protocol's
// replacement for the global final barrier: the run ends when the event
// calendar drains, and this counter is the audit trail).
func (rt *runtime) noteEnd() { rt.ended++ }

// fail records the first unrecoverable failure; RunWithWorkload surfaces it
// after the simulation drains.
func (rt *runtime) fail(err error) {
	if rt.runErr == nil {
		rt.runErr = err
	}
}

// count bumps a run counter.
func (rt *runtime) count(name string, delta int64) { rt.metrics.Add(name, delta) }

// observeTime records one virtual-time sample.
func (rt *runtime) observeTime(name string, t des.Time) { rt.metrics.ObserveTime(name, t) }

// pointf emits an instantaneous marker on the fault timeline.
func (rt *runtime) pointf(format string, args ...any) {
	if s := rt.cfg.Sink; s != nil {
		s.Point("faults", fmt.Sprintf(format, args...), rt.sim.Now())
	}
}

// rlease is the master's outstanding-task record for one worker.
type rlease struct {
	t        task
	seq      int
	deadline des.Time
	extends  int // lease extensions granted while the worker stayed live
}

// rdebt is one owed write acknowledgement: the offset message sent and when
// to act if the ack has not arrived.
type rdebt struct {
	msg      offsetMsg
	bytes    int64
	deadline des.Time
	dead     bool // owner died; deadline is now the ack grace period
}

// debtKey identifies one owed ack: a rank can owe several waves of the same
// batch at once (an un-acked wave 0 plus a recovery wave it now owns).
type debtKey struct {
	rank, wave int
}

// rbatch tracks one batch's durability in the resilient protocol.
type rbatch struct {
	sent     bool
	durable  bool
	wave     int               // highest wave sent so far
	owed     map[debtKey]rdebt // outstanding acks
	recovery map[task]bool     // re-dispatched tasks this sent batch still needs
}

// rmasterState is the resilient master's bookkeeping.
type rmasterState struct {
	g  *group
	pt *PhaseTimer

	totalTasks int
	processed  int
	nextQ      int
	nextF      int

	remaining map[int]int
	assigned  map[int][]int
	mergeAcc  map[int]int64
	complete  map[int]bool
	taskDone  map[task]bool

	retryQ  []task
	retries map[task]int

	live        map[int]bool
	incarn      map[int]int
	idle        map[int]bool
	syncMember  map[int]bool
	pendingJoin []int

	leases    map[int]*rlease
	lastSeq   map[int]int
	lastReply map[int]workReplyMsg

	batches     []*rbatch
	flushedInit int

	collTainted bool

	workReq  *mpi.Request
	scoreReq *mpi.Request
	ackReq   *mpi.Request
	finReq   *mpi.Request

	sends     []*mpi.Request
	nextSweep des.Time
}

// rmaster is the resilient Algorithm 1: the original task distribution and
// gather/merge/flush flow, wrapped in leases, a failure-detector sweep,
// re-dispatch, ack-tracked durability, and an explicit shutdown handshake
// replacing the global final barrier.
func (rt *runtime) rmaster(r *mpi.Rank, g *group) {
	cfg := rt.cfg
	pt := NewPhaseTimer(rt.sim)
	pt.Trace(cfg.Sink, r.Proc().Name())
	rt.timers[r.Rank()] = pt

	pt.Switch(PhaseSetup)
	rt.openFile(r, g)
	if cfg.Strategy == WWColl {
		g.collGroup = rt.file.NewGroup(g.workers)
	}
	g.team.Bcast(r, g.masterRank, configMsgBytes, "input-variables")

	m := &rmasterState{
		g:          g,
		pt:         pt,
		totalTasks: (g.hiQ - g.loQ) * cfg.Workload.NumFragments,
		nextQ:      g.loQ,
		remaining:  make(map[int]int),
		assigned:   make(map[int][]int),
		mergeAcc:   make(map[int]int64),
		complete:   make(map[int]bool),
		taskDone:   make(map[task]bool),
		retries:    make(map[task]int),
		live:       make(map[int]bool),
		incarn:     make(map[int]int),
		idle:       make(map[int]bool),
		syncMember: make(map[int]bool),
		leases:     make(map[int]*rlease),
		lastSeq:    make(map[int]int),
		lastReply:  make(map[int]workReplyMsg),
	}
	for q := g.loQ; q < g.hiQ; q++ {
		m.remaining[q] = cfg.Workload.NumFragments
		m.assigned[q] = make([]int, cfg.Workload.NumFragments)
	}
	for _, w := range g.workers {
		m.live[w] = true
		m.syncMember[w] = cfg.QuerySync
	}
	m.batches = make([]*rbatch, len(g.batches))
	for i := range m.batches {
		m.batches[i] = &rbatch{owed: make(map[debtKey]rdebt), recovery: make(map[task]bool)}
	}
	m.workReq = r.Irecv(mpi.AnySource, tagWorkRequest)
	m.scoreReq = r.Irecv(mpi.AnySource, tagScores)
	m.ackReq = r.Irecv(mpi.AnySource, tagWriteAck)
	m.nextSweep = r.Now() + cfg.effDetect()

	for !rt.rmDone(m) {
		pt.Switch(PhaseDataDist)
		deadline := rt.rmNextDeadline(m)
		r.WaitAnyUntil([]*mpi.Request{m.workReq, m.scoreReq, m.ackReq}, deadline)
		for rt.rmDrainOne(r, m) {
		}
		if r.Now() >= m.nextSweep {
			rt.rmSweep(r, m)
			m.nextSweep = r.Now() + cfg.effDetect()
		}
		rt.rmExpireLeases(r, m)
		rt.rmExpireAcks(r, m)
		rt.rmFlush(r, m)
		rt.rmRetireSends(r, m)
		rt.rmCheckStuck(r, m)
	}
	rt.rmShutdown(r, m)
	if rt.runErr == nil {
		// Every live worker has finned and every batch is durable — the
		// readback-under-chaos verification point: prove the recovered image
		// content-matches the workload despite crashes, outages, and drops.
		rt.rbPostRun(r, pt, m.g)
	}
	pt.Finish()
	rt.noteEnd()
}

// rmDone reports whether everything is scheduled, processed, and durable —
// or the run has been declared unrecoverable.
func (rt *runtime) rmDone(m *rmasterState) bool {
	if rt.runErr != nil {
		return true
	}
	if m.processed != m.totalTasks {
		return false
	}
	if m.flushedInit != len(m.g.batches) {
		return false
	}
	for _, b := range m.batches {
		if !b.durable {
			return false
		}
	}
	return true
}

// rmNextDeadline picks the earliest of the detector sweep, lease expiries,
// and ack-debt expiries — the master's next forced wake-up. A minimum does
// not depend on visiting order, so the maps are scanned unsorted.
func (rt *runtime) rmNextDeadline(m *rmasterState) des.Time {
	d := m.nextSweep
	for _, l := range m.leases {
		if l.deadline < d {
			d = l.deadline
		}
	}
	for _, b := range m.batches {
		if !b.sent || b.durable {
			continue
		}
		for _, debt := range b.owed {
			if debt.deadline < d {
				d = debt.deadline
			}
		}
	}
	return d
}

// rmDrainOne consumes at most one completed persistent receive, in fixed
// priority order, reposting it. Returns false when nothing was ready.
// Scores drain before work requests: a worker's score precedes its next
// request on the wire, and handling the request first would misread the
// still-queued score as lost and requeue an already-finished task.
func (rt *runtime) rmDrainOne(r *mpi.Rank, m *rmasterState) bool {
	switch {
	case m.scoreReq.Done():
		q := m.scoreReq
		m.scoreReq = r.Irecv(mpi.AnySource, tagScores)
		rt.rmHandleScore(r, m, q.Message())
		r.Free(q)
	case m.ackReq.Done():
		q := m.ackReq
		m.ackReq = r.Irecv(mpi.AnySource, tagWriteAck)
		rt.rmHandleAck(m, q.Message())
		r.Free(q)
	case m.workReq.Done():
		q := m.workReq
		m.workReq = r.Irecv(mpi.AnySource, tagWorkRequest)
		rt.rmHandleWorkReq(r, m, q.Message())
		r.Free(q)
	default:
		return false
	}
	return true
}

// rmHandleWorkReq serves one work request: revival detection, duplicate
// (resent) request replay, lost-score recovery, and task assignment.
func (rt *runtime) rmHandleWorkReq(r *mpi.Rank, m *rmasterState, msg *mpi.Message) {
	w := msg.Source
	rq := msg.Payload.(workReqMsg)
	if rq.Inc < m.incarn[w] {
		// In-flight leftover from an incarnation already superseded; ignore.
		return
	}
	if rq.Inc > m.incarn[w] {
		// A restarted worker whose death we may never have observed:
		// retire the old incarnation's state first, then welcome it back.
		if m.live[w] {
			rt.rmDeclareDead(r, m, w, r.Now())
		}
		m.incarn[w] = rq.Inc
		m.live[w] = true
		delete(m.idle, w)
		m.lastSeq[w] = 0
		delete(m.lastReply, w)
		if rt.cfg.QuerySync && !m.syncMember[w] {
			m.pendingJoin = append(m.pendingJoin, w)
		}
		rt.count("fault.workers_rejoined", 1)
	}
	if !m.live[w] {
		// A message from a dead incarnation still in flight; ignore.
		return
	}
	if rq.Seq == m.lastSeq[w] {
		// Resent request (our reply was lost): replay the same reply and
		// refresh the lease.
		if l := m.leases[w]; l != nil {
			l.deadline = r.Now() + rt.cfg.effLease()
		}
		rt.rmSendReply(r, m, w, m.lastReply[w])
		return
	}
	if l := m.leases[w]; l != nil {
		// New request while a task lease is outstanding: the score was
		// lost in flight. Re-dispatch the leased task.
		delete(m.leases, w)
		if !m.taskDone[l.t] {
			rt.rmRequeue(r, m, l.t)
		}
	}
	delete(m.idle, w)
	rep := workReplyMsg{Seq: rq.Seq, Flushed: m.flushedInit}
	if t, ok := rt.rmAssignNext(m); ok {
		rep.Has = true
		rep.T = t
		m.leases[w] = &rlease{t: t, seq: rq.Seq, deadline: r.Now() + rt.cfg.effLease()}
	} else {
		m.idle[w] = true
	}
	m.lastSeq[w] = rq.Seq
	m.lastReply[w] = rep
	rt.rmSendReply(r, m, w, rep)
}

// rmSendReply ships one work reply (droppable; the worker resends its
// request on timeout).
func (rt *runtime) rmSendReply(r *mpi.Rank, m *rmasterState, w int, rep workReplyMsg) {
	m.sends = append(m.sends, r.Isend(w, tagWorkReply, replyMsgBytes, rep))
}

// rmAssignNext pops the next task: re-dispatches first, then fresh ones.
func (rt *runtime) rmAssignNext(m *rmasterState) (task, bool) {
	for len(m.retryQ) > 0 {
		t := m.retryQ[0]
		m.retryQ = m.retryQ[1:]
		if !m.taskDone[t] {
			return t, true
		}
	}
	if m.nextQ < m.g.hiQ {
		t := task{Q: m.nextQ, F: m.nextF}
		m.nextF++
		if m.nextF == rt.cfg.Workload.NumFragments {
			m.nextF = 0
			m.nextQ++
		}
		return t, true
	}
	return task{}, false
}

// rmHandleScore merges one arriving score report (step 10), with duplicate
// suppression for re-executed tasks.
func (rt *runtime) rmHandleScore(r *mpi.Rank, m *rmasterState, msg *mpi.Message) {
	cfg := rt.cfg
	sm := msg.Payload.(scoreMsg)
	w := msg.Source
	t := sm.Task
	if l := m.leases[w]; l != nil && l.t == t {
		delete(m.leases, w)
	}
	if m.taskDone[t] {
		rt.count("fault.tasks_duplicate", 1)
		return
	}
	m.pt.Switch(PhaseGather)
	q := t.Q
	newBytes := int64(sm.Count) * cfg.ScoreEntryBytes
	if cfg.Strategy == MW {
		newBytes += sm.ResultBytes
	}
	rt.mergeSleep(r, cfg.mergeTime(m.mergeAcc[q], newBytes))
	m.mergeAcc[q] += newBytes
	m.assigned[q][t.F] = w
	m.remaining[q]--
	m.processed++
	m.taskDone[t] = true
	if m.remaining[q] == 0 {
		m.complete[q] = true
	}
	// If t was a recovery task of a sent batch, rmFlush notices the whole
	// recovery set is re-completed and ships the next wave.
}

// rmBatchOf maps a query to its group-local batch index.
func (rt *runtime) rmBatchOf(m *rmasterState, q int) int {
	return (q - m.g.loQ) / rt.cfg.QueriesPerWrite
}

// rmHandleAck clears one owed write acknowledgement.
func (rt *runtime) rmHandleAck(m *rmasterState, msg *mpi.Message) {
	am := msg.Payload.(ackMsg)
	w := msg.Source
	if am.Batch < 0 || am.Batch >= len(m.batches) {
		return
	}
	delete(m.batches[am.Batch].owed, debtKey{rank: w, wave: am.Wave})
}

// rmSweep is the failure-detector pass: observe effected crashes.
func (rt *runtime) rmSweep(r *mpi.Rank, m *rmasterState) {
	if rt.faults == nil {
		return
	}
	for _, w := range sortedLive(m.live) {
		if diedAt, dead := rt.faults.DeadAt(w); dead {
			rt.rmDeclareDead(r, m, w, diedAt)
		}
	}
}

// rmDeclareDead retires a worker: lease requeue, barrier and collective
// deregistration, WW-Coll taint, and ack-grace arming for its debts.
func (rt *runtime) rmDeclareDead(r *mpi.Rank, m *rmasterState, w int, diedAt des.Time) {
	cfg := rt.cfg
	if !m.live[w] {
		return
	}
	m.live[w] = false
	delete(m.idle, w)
	rt.count("fault.workers_detected", 1)
	rt.observeTime("fault.detection_latency", r.Now()-diedAt)
	rt.pointf("detected-dead rank=%d", w)
	if m.syncMember[w] {
		m.g.querySyn.Deregister()
		delete(m.syncMember, w)
	}
	if cfg.Strategy == WWColl {
		if !m.collTainted {
			m.collTainted = true
			rt.count("fault.coll_fallbacks", 1)
		}
		if cfg.CollMethod == romio.TwoPhase {
			m.g.collEntry.Deregister()
		}
		m.g.collGroup.Deregister(w)
	}
	if l := m.leases[w]; l != nil {
		delete(m.leases, w)
		if !m.taskDone[l.t] {
			rt.rmRequeue(r, m, l.t)
		}
	}
	// Its outstanding write acks get a grace period: a write completed just
	// before death still delivers its (reliable) ack; only silence after
	// the grace implies the wave was never written.
	grace := r.Now() + cfg.effLease()
	for _, b := range m.batches {
		if !b.sent || b.durable {
			continue
		}
		for _, k := range sortedDebtKeys(b.owed) {
			if k.rank != w {
				continue
			}
			d := b.owed[k]
			d.dead = true
			d.deadline = grace
			b.owed[k] = d
		}
	}
	// Scored results for batches whose offset lists were never sent died
	// with the worker's memory (WW strategies only — under MW the master
	// holds the merged data): re-dispatch those tasks now.
	if cfg.Strategy.WorkerWriting() {
		for bi, rb := range m.batches {
			if rb.sent {
				continue
			}
			b := m.g.batches[bi]
			for q := b.LoQ; q < b.HiQ; q++ {
				for f := 0; f < cfg.Workload.NumFragments; f++ {
					t := task{Q: q, F: f}
					if m.taskDone[t] && m.assigned[q][f] == w {
						rt.rmRequeueScored(r, m, t)
					}
				}
			}
		}
	}
}

// rmRequeue re-dispatches a lost task, bounding retries, and nudges idle
// workers so someone picks it up.
func (rt *runtime) rmRequeue(r *mpi.Rank, m *rmasterState, t task) {
	m.retries[t]++
	if m.retries[t] > rt.cfg.effRetries() {
		rt.fail(fmt.Errorf("core: task q%d/f%d lost %d times (MaxTaskRetries=%d)",
			t.Q, t.F, m.retries[t], rt.cfg.effRetries()))
		return
	}
	m.retryQ = append(m.retryQ, t)
	rt.count("fault.tasks_reexecuted", 1)
	rt.rmNudgeIdle(r, m)
}

// rmRequeueScored un-completes a task whose results were lost before
// becoming durable. If its batch's initial wave is already out, the task
// joins the batch's recovery set (its re-computed placements ship as the
// next wave); an unsent batch simply re-includes it in wave 0 later.
func (rt *runtime) rmRequeueScored(r *mpi.Rank, m *rmasterState, t task) {
	if !m.taskDone[t] {
		return
	}
	m.taskDone[t] = false
	m.processed--
	m.remaining[t.Q]++
	m.complete[t.Q] = false
	bi := rt.rmBatchOf(m, t.Q)
	if m.batches[bi].sent {
		m.batches[bi].recovery[t] = true
	}
	rt.rmRequeue(r, m, t)
}

// rmNudgeIdle pokes every idle worker when new work appears.
func (rt *runtime) rmNudgeIdle(r *mpi.Rank, m *rmasterState) {
	if len(m.retryQ) == 0 && m.nextQ >= m.g.hiQ {
		return
	}
	for _, w := range sortedKeysBool(m.idle) {
		m.sends = append(m.sends, r.Isend(w, tagControl, ctlMsgBytes, ctlMsg{}))
		delete(m.idle, w)
	}
}

// rmExpireLeases acts on tasks whose lease ran out. A live worker is most
// likely still computing a long task — crashes are caught by the detector
// sweep and lost scores by the next work request — so its lease is extended
// (each time doubling the grant) up to effRetries times before the task is
// speculatively re-dispatched; only that final expiry treats the worker as
// an undeclarable straggler. A late duplicate score is suppressed by
// taskDone either way.
func (rt *runtime) rmExpireLeases(r *mpi.Rank, m *rmasterState) {
	cfg := rt.cfg
	now := r.Now()
	for _, w := range sortedKeysLease(m.leases) {
		l := m.leases[w]
		if l.deadline > now {
			continue
		}
		if m.live[w] && l.extends < cfg.effRetries() {
			l.extends++
			l.deadline = now + cfg.effLease()<<l.extends
			rt.count("fault.lease_extensions", 1)
			continue
		}
		delete(m.leases, w)
		if !m.taskDone[l.t] {
			rt.count("fault.lease_expirations", 1)
			rt.rmRequeue(r, m, l.t)
		}
	}
}

// rmExpireAcks acts on overdue write acks: resend the wave to a live owner
// (it deduplicates and re-acks), or — after the death grace — declare the
// wave lost and re-dispatch the tasks behind its placements.
func (rt *runtime) rmExpireAcks(r *mpi.Rank, m *rmasterState) {
	cfg := rt.cfg
	now := r.Now()
	for _, b := range m.batches {
		if !b.sent || b.durable || !anyExpired(b.owed, now) {
			continue
		}
		for _, k := range sortedDebtKeys(b.owed) {
			d := b.owed[k]
			if d.deadline > now {
				continue
			}
			if d.dead || !m.live[k.rank] || d.msg.Inc != m.incarn[k.rank] {
				delete(b.owed, k)
				for _, t := range placementTasks(d.msg.Placements) {
					rt.rmRequeueScored(r, m, t)
				}
				continue
			}
			d.deadline = now + cfg.effLease()
			b.owed[k] = d
			m.sends = append(m.sends, r.Isend(k.rank, tagOffsets,
				int64(offsetHdrBytes)+int64(len(d.msg.Placements))*offsetPerResult, d.msg))
			rt.count("fault.offset_resends", 1)
		}
	}
}

// anyExpired reports whether any owed ack is past its deadline, so the
// common nothing-expired pass skips sorting the debts.
func anyExpired(owed map[debtKey]rdebt, now des.Time) bool {
	for _, d := range owed {
		if d.deadline <= now {
			return true
		}
	}
	return false
}

// placementTasks lists the distinct (query, fragment) tasks behind a
// placement list, in deterministic order.
func placementTasks(placements []search.Result) []task {
	seen := make(map[task]bool)
	var out []task
	for _, res := range placements {
		t := task{Q: res.Query, F: res.Fragment}
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Q != out[j].Q {
			return out[i].Q < out[j].Q
		}
		return out[i].F < out[j].F
	})
	return out
}

// rmFlush sends ready initial waves in order, then recovery waves for
// batches whose re-dispatched tasks have all re-completed.
func (rt *runtime) rmFlush(r *mpi.Rank, m *rmasterState) {
	for m.flushedInit < len(m.g.batches) {
		b := m.g.batches[m.flushedInit]
		ready := true
		for q := b.LoQ; q < b.HiQ; q++ {
			if !m.complete[q] {
				ready = false
				break
			}
		}
		if !ready {
			break
		}
		rt.rmFlushInitial(r, m, m.flushedInit)
		m.flushedInit++
	}
	for bi, rb := range m.batches {
		if !rb.sent || rb.durable || len(rb.recovery) == 0 {
			continue
		}
		allBack := true
		for _, t := range sortedTasks(rb.recovery) {
			if !m.taskDone[t] {
				allBack = false
				break
			}
		}
		if allBack {
			rt.rmSendRecoveryWave(r, m, bi)
		}
	}
	for _, rb := range m.batches {
		if rb.sent && !rb.durable && len(rb.owed) == 0 && len(rb.recovery) == 0 {
			rb.durable = true
		}
	}
}

// rmFlushInitial performs one batch's initial flush: the master write plus
// sync tokens under MW, or wave-0 offset lists (with ack debts) under WW.
func (rt *runtime) rmFlushInitial(r *mpi.Rank, m *rmasterState, bi int) {
	cfg := rt.cfg
	g := m.g
	b := g.batches[bi]
	rb := m.batches[bi]
	pt := m.pt
	// Safe moment to grow the sync barrier: admit revived workers only
	// between epochs.
	if cfg.QuerySync && len(m.pendingJoin) > 0 && g.querySyn.Idle() {
		for _, w := range m.pendingJoin {
			if m.live[w] && !m.syncMember[w] {
				g.querySyn.Register()
				m.syncMember[w] = true
			}
		}
		m.pendingJoin = nil
	}
	if cfg.Strategy == MW {
		pt.Switch(PhaseIO)
		rt.mergeSleep(r, des.BytesOver(b.Bytes, cfg.FormatBandwidth))
		var data []byte
		if cfg.CaptureData {
			data = rt.batchData(b)
		}
		rt.file.WriteAt(r, b.Region, b.Bytes, data)
		if cfg.SyncEveryWrite {
			rt.file.Sync(r)
		}
		rt.flushTimes[g.batchBase+bi] = rt.sim.Now()
		pt.Switch(PhaseGather)
		if cfg.QuerySync {
			for _, w := range sortedLive(m.live) {
				tk := tokMsg{Batch: bi, Inc: m.incarn[w], Sync: m.syncMember[w]}
				m.sends = append(m.sends, r.Isend(w, tagSyncToken, tokenMsgBytes, tk))
			}
		}
		rb.sent = true
		rb.durable = true
		return
	}
	perWorker := make(map[int][]search.Result, len(g.workers))
	for q := b.LoQ; q < b.HiQ; q++ {
		qry := &rt.wl.Queries[q]
		for _, res := range qry.Results {
			w := m.assigned[q][res.Fragment]
			perWorker[w] = append(perWorker[w], res)
		}
	}
	pt.Switch(PhaseGather)
	deadline := r.Now() + cfg.effLease()
	for _, w := range sortedLive(m.live) {
		msg := offsetMsg{
			Batch:      bi,
			Placements: perWorker[w],
			Wave:       0,
			Inc:        m.incarn[w],
			Fallback:   m.collTainted,
			Sync:       cfg.QuerySync && m.syncMember[w],
		}
		var bytes int64
		for _, res := range perWorker[w] {
			bytes += res.Size
		}
		wire := int64(offsetHdrBytes) + int64(len(perWorker[w]))*offsetPerResult
		m.sends = append(m.sends, r.Isend(w, tagOffsets, wire, msg))
		rb.owed[debtKey{rank: w, wave: 0}] = rdebt{msg: msg, bytes: bytes, deadline: deadline}
	}
	rb.sent = true
}

// rmSendRecoveryWave re-sends a batch's recovered placements to their new
// owners as the next wave.
func (rt *runtime) rmSendRecoveryWave(r *mpi.Rank, m *rmasterState, bi int) {
	cfg := rt.cfg
	g := m.g
	rb := m.batches[bi]
	b := g.batches[bi]
	rb.wave++
	perWorker := make(map[int][]search.Result)
	for q := b.LoQ; q < b.HiQ; q++ {
		qry := &rt.wl.Queries[q]
		for _, res := range qry.Results {
			if !rb.recovery[task{Q: q, F: res.Fragment}] {
				continue
			}
			w := m.assigned[q][res.Fragment]
			perWorker[w] = append(perWorker[w], res)
		}
	}
	deadline := r.Now() + cfg.effLease()
	for _, w := range sortedKeysResults(perWorker) {
		msg := offsetMsg{
			Batch:      bi,
			Placements: perWorker[w],
			Wave:       rb.wave,
			Inc:        m.incarn[w],
			Fallback:   cfg.Strategy == WWColl,
			Sync:       false,
		}
		var bytes int64
		for _, res := range perWorker[w] {
			bytes += res.Size
		}
		wire := int64(offsetHdrBytes) + int64(len(perWorker[w]))*offsetPerResult
		m.sends = append(m.sends, r.Isend(w, tagOffsets, wire, msg))
		rb.owed[debtKey{rank: w, wave: rb.wave}] = rdebt{msg: msg, bytes: bytes, deadline: deadline}
		rt.count("fault.bytes_rewritten", bytes)
	}
	rb.recovery = make(map[task]bool)
}

// rmRetireSends frees and drops completed fire-and-forget sends.
func (rt *runtime) rmRetireSends(r *mpi.Rank, m *rmasterState) {
	kept := m.sends[:0]
	for _, q := range m.sends {
		if q.Done() {
			r.Free(q)
		} else {
			kept = append(kept, q)
		}
	}
	m.sends = kept
}

// rmCheckStuck declares the run unrecoverable when work remains but no
// worker is alive and none will restart.
func (rt *runtime) rmCheckStuck(r *mpi.Rank, m *rmasterState) {
	if rt.runErr != nil || rt.rmDone(m) {
		return
	}
	for _, ok := range m.live {
		if ok {
			return
		}
	}
	if rt.faults != nil && rt.faults.RestartPending() {
		return
	}
	rt.fail(fmt.Errorf("core: group %d has unfinished work but no live workers and no pending restart",
		m.g.index))
}

// rmShutdown replaces the global final barrier: order every live worker to
// exit, then collect their fins (sweeping for deaths in between).
func (rt *runtime) rmShutdown(r *mpi.Rank, m *rmasterState) {
	cfg := rt.cfg
	m.pt.Switch(PhaseSync)
	rt.groupShutdown[m.g.index] = true
	m.finReq = r.Irecv(mpi.AnySource, tagFin)
	finWait := make(map[int]bool)
	for _, w := range sortedLive(m.live) {
		m.sends = append(m.sends, r.Isend(w, tagControl, ctlMsgBytes, ctlMsg{Shutdown: true}))
		finWait[w] = true
	}
	if rt.runErr != nil {
		// Aborting: order survivors down best-effort but do not wait for
		// fins — a worker wedged behind a dead peer would never send one.
		finWait = nil
	}
	for len(finWait) > 0 {
		r.WaitAnyUntil([]*mpi.Request{m.finReq, m.workReq}, r.Now()+cfg.effDetect())
		for m.finReq.Done() {
			src := m.finReq.Message().Source
			r.Free(m.finReq)
			m.finReq = r.Irecv(mpi.AnySource, tagFin)
			delete(finWait, src)
		}
		for m.workReq.Done() {
			// A late revival: order it down too; it fins before exiting.
			msg := m.workReq.Message()
			src, rq := msg.Source, msg.Payload.(workReqMsg)
			r.Free(m.workReq)
			m.workReq = r.Irecv(mpi.AnySource, tagWorkRequest)
			if rq.Inc > m.incarn[src] {
				m.incarn[src] = rq.Inc
				finWait[src] = true
				m.sends = append(m.sends,
					r.Isend(src, tagControl, ctlMsgBytes, ctlMsg{Shutdown: true}))
			}
		}
		if rt.faults != nil {
			for _, w := range sortedKeysBool(finWait) {
				if _, dead := rt.faults.DeadAt(w); dead {
					delete(finWait, w)
				}
			}
		}
	}
	r.WaitAll(m.sends...)
	r.FreeAll(m.sends...)
	m.sends = nil
	for _, q := range [...]*mpi.Request{m.workReq, m.scoreReq, m.ackReq, m.finReq} {
		r.Cancel(q)
		r.Free(q)
	}
}

// Deterministic map-key iteration helpers.

func sortedLive(live map[int]bool) []int {
	out := make([]int, 0, len(live))
	for w, ok := range live {
		if ok {
			out = append(out, w)
		}
	}
	sort.Ints(out)
	return out
}

func sortedKeysBool(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

func sortedKeysLease(m map[int]*rlease) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

func sortedDebtKeys(m map[debtKey]rdebt) []debtKey {
	out := make([]debtKey, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].rank != out[j].rank {
			return out[i].rank < out[j].rank
		}
		return out[i].wave < out[j].wave
	})
	return out
}

func sortedKeysResults(m map[int][]search.Result) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

func sortedTasks(m map[task]bool) []task {
	out := make([]task, 0, len(m))
	for t := range m {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Q != out[j].Q {
			return out[i].Q < out[j].Q
		}
		return out[i].F < out[j].F
	})
	return out
}
