package core

import (
	"fmt"

	"s3asim/internal/des"
	"s3asim/internal/mpi"
)

// This file implements the resilient worker side of the self-healing
// protocol (DESIGN.md §9); see resilient.go for the master and the protocol
// overview.

// rworkerFSM runs the resilient Algorithm 2 as a state machine: the original
// request/compute/score flow hardened with sequence-numbered resends,
// wave-deduplicated writes with durability acks, an explicit shutdown
// handshake, and crash checkpoints. Its own program counters are the main
// loop (pc), the drain (drainPC), the work request (reqPC), and the
// checkpointed timed wait (waitPC); the batch write and the task body are
// workerBase's.
type rworkerFSM struct {
	workerBase

	rejoined bool // a respawned incarnation: skip the setup broadcast

	pc      uint8
	drainPC uint8
	reqPC   uint8
	waitPC  uint8

	shutdown bool
	idle     bool // master said "no work right now"; wait for a nudge
	nudges   int  // control nudges received and not yet consumed

	seq        int  // work-request sequence number (resends repeat it)
	awaitReply bool // inside the request: the next work reply is live, not stale
	resend     bool // the next request send repeats an unanswered one
	haveBase   bool // flushBase captured from the first reply
	flushBase  int  // initial waves flushed before this incarnation joined
	initSeen   int  // wave-0 offset lists handled by this incarnation

	offReq   *mpi.Request    // persistent receive: offset lists (WW)
	tokReq   *mpi.Request    // persistent receive: sync tokens (MW + sync)
	ctlReq   *mpi.Request    // persistent receive: control plane
	repReq   *mpi.Request    // persistent receive: work replies
	seenWave map[[2]int]bool // (batch, wave) already written — dedupe + re-ack
	dup      bool            // the offset list in m.om is a duplicate wave

	reply       workReplyMsg // the request's answer, once reqPC completes
	reqDeadline des.Time     // resend point of the outstanding request
	need        int          // WW-Coll gate: initial waves the task waits for
	gateEnd     des.Time     // WW-Coll gate: liveness-valve deadline

	deadline des.Time // the timed wait's deadline
	waitOK   bool     // the timed wait saw a protocol receive complete
	evWait   mpi.WaitEventOp
}

// newRWorkerFSM returns the resilient worker machine for rank w; rejoined
// marks a respawned incarnation.
func (rt *runtime) newRWorkerFSM(g *group, w int, rejoined bool) *rworkerFSM {
	return &rworkerFSM{
		workerBase: workerBase{rt: rt, g: g, r: rt.world.Rank(w)},
		rejoined:   rejoined,
	}
}

// Main program counters (rworkerFSM.pc).
const (
	rwStart      uint8 = iota // first step: timer setup, config broadcast
	rwBcast                   // setup broadcast in flight
	rwLoadDB                  // initial database read in flight
	rwLoopTop                 // top of the main loop: checkpoint, then drain
	rwLoopDrain               // drain running at the loop top
	rwPark                    // idle: checkpoint, then park on any receive
	rwParkWait                // idle park in flight
	rwRequest                 // work request/reply exchange running
	rwGate                    // WW-Coll run-ahead gate check
	rwGateWait                // gate: checkpointed timed wait running
	rwGateDrain               // gate: drain after a wake
	rwGateOpen                // gate passed (or given up): start the task
	rwTask                    // task body running
	rwExitGather              // orderly exit: settling in-flight sends
	rwExitFin                 // orderly exit: fin send in flight
)

// Drain sub-machine counters (rworkerFSM.drainPC).
const (
	rdHead  uint8 = iota // dispatch on the first completed receive
	rdWrite              // batch write sub-machine running
	rdAck                // send the durability ack
	rdSync               // query-sync barrier in flight
)

// Request sub-machine counters (rworkerFSM.reqPC).
const (
	rqSend  uint8 = iota // (re)send the work request
	rqDrain              // drain, then look for the matching reply
	rqWait               // checkpointed timed wait until the resend point
)

// Timed-wait sub-machine counters (rworkerFSM.waitPC).
const (
	twCheck uint8 = iota // checkpoint and re-check the predicates
	twWait               // WaitEventOp in flight
)

// Step advances the worker to its next park, or to its death at a
// checkpoint. It is the Machine contract's entry point.
func (m *rworkerFSM) Step(p *des.Proc) {
	for m.step() {
	}
}

// step runs the current main state; false means the worker parked, died at
// a checkpoint, or finished.
func (m *rworkerFSM) step() bool {
	rt, r, g := m.rt, m.r, m.g
	cfg := rt.cfg
	boss := g.masterRank
	switch m.pc {
	case rwStart:
		m.begin()
		if m.rejoined {
			// The dead predecessor already consumed the setup broadcast.
			m.loadDatabase()
			return true
		}
		m.bcast.Init(g.team, r, boss, configMsgBytes, nil)
		m.pc = rwBcast
	case rwBcast:
		if !m.bcast.Step() {
			return false
		}
		m.loadDatabase()
	case rwLoadDB:
		if !m.issue.Step() {
			return false
		}
		m.initState()
	case rwLoopTop:
		if m.shutdown {
			m.exit()
			return true
		}
		if m.checkpoint() {
			return false
		}
		m.startDrain()
		m.pc = rwLoopDrain
	case rwLoopDrain:
		if !m.stepDrain() {
			return false
		}
		if m.shutdown {
			m.exit()
			return true
		}
		if m.idle {
			if m.nudges > 0 {
				m.nudges = 0
				m.idle = false
				m.pc = rwLoopTop
				return true
			}
			m.pt.Switch(PhaseDataDist)
			m.pc = rwPark
			return true
		}
		m.startRequest()
		m.pc = rwRequest
	case rwPark:
		// The master owes every idle worker a control message (nudge or
		// shutdown), so parking without a deadline is safe; a crash armed
		// meanwhile wakes the rank out-of-band.
		if m.checkpoint() {
			return false
		}
		if m.anyReady() {
			m.pc = rwLoopTop
			return true
		}
		m.evWait.Init(r)
		m.pc = rwParkWait
	case rwParkWait:
		if !m.evWait.Step() {
			return false
		}
		m.pc = rwPark
	case rwRequest:
		if !m.stepRequest() {
			return false
		}
		if m.shutdown {
			m.exit()
			return true
		}
		if !m.reply.Has {
			m.idle = true
			m.pc = rwLoopTop
			return true
		}
		m.setTask(m.reply.T)
		m.pc = rwGateOpen
		if cfg.Strategy == WWColl {
			// WW-Coll run-ahead gate (§2.3), with a liveness valve: during
			// recovery an earlier batch may be unable to flush until THIS
			// worker finishes its current task and frees itself for
			// re-dispatched work, so the gate gives up after one lease
			// period rather than deadlock the run.
			m.need = (m.t.Q - g.loQ) / cfg.QueriesPerWrite
			m.gateEnd = r.Now() + cfg.effLease()
			m.pc = rwGate
		}
	case rwGate:
		if m.flushBase+m.initSeen < m.need && !m.shutdown {
			m.pt.Switch(PhaseDataDist)
			m.startTimedWait(m.gateEnd)
			m.pc = rwGateWait
			return true
		}
		m.pc = rwGateOpen
	case rwGateWait:
		if !m.stepTimedWait() {
			return false
		}
		if !m.waitOK {
			m.pc = rwGateOpen
			return true
		}
		m.startDrain()
		m.pc = rwGateDrain
	case rwGateDrain:
		if !m.stepDrain() {
			return false
		}
		m.pc = rwGate
	case rwGateOpen:
		if m.shutdown {
			m.retire()
			m.pc = rwLoopTop
			return true
		}
		m.startTaskBody()
		m.pc = rwTask
	case rwTask:
		if !m.stepTaskBody() {
			return false
		}
		m.retire()
		m.pc = rwLoopTop
	case rwExitGather:
		if !m.waitAll.Step() {
			return false
		}
		m.freePending()
		m.pt.Switch(PhaseSync)
		m.reqSend = r.Isend(boss, tagFin, finMsgBytes, nil)
		m.wait.Init(r, m.reqSend)
		m.pc = rwExitFin
	case rwExitFin:
		if !m.wait.Step() {
			return false
		}
		r.Free(m.reqSend)
		for _, q := range [...]*mpi.Request{m.offReq, m.tokReq, m.ctlReq, m.repReq} {
			if q != nil {
				r.Cancel(q)
				r.Free(q)
			}
		}
		m.pt.Finish()
		rt.noteEnd()
		return false // machine returns unparked: the worker is done
	}
	return true
}

// loadDatabase starts the initial database read, or posts the protocol
// receives straight away when there is none.
func (m *rworkerFSM) loadDatabase() {
	if m.armLoadDatabase() {
		m.pc = rwLoadDB
		return
	}
	m.initState()
}

// initState posts the persistent protocol receives and enters the main
// loop.
func (m *rworkerFSM) initState() {
	cfg, r, boss := m.rt.cfg, m.r, m.g.masterRank
	m.seenWave = make(map[[2]int]bool)
	if cfg.Strategy.WorkerWriting() {
		m.offReq = r.Irecv(boss, tagOffsets)
	} else if cfg.QuerySync {
		m.tokReq = r.Irecv(boss, tagSyncToken)
	}
	m.ctlReq = r.Irecv(boss, tagControl)
	m.repReq = r.Irecv(boss, tagWorkReply)
	m.pc = rwLoopTop
}

// exit starts the orderly exit: settle outstanding sends, acknowledge the
// shutdown with a fin, and withdraw the persistent receives.
func (m *rworkerFSM) exit() {
	m.pt.Switch(PhaseGather)
	m.waitAll.Init(m.r, m.pending)
	m.pc = rwExitGather
}

// checkpoint is a protocol checkpoint: if a crash is armed for this rank, it
// takes effect here — the rank is killed, its timer closed, its restart
// scheduled — and checkpoint reports true. The caller then returns from
// Step without parking, which ends the process. Checkpoints sit only at the
// main-loop top and at every re-check of an idle park or timed wait — never
// between a write and its ack, or while parked in a barrier or collective
// round — the fail-stop-at-checkpoints contract the recovery protocol and
// the mpi/romio deregistration paths depend on.
func (m *rworkerFSM) checkpoint() bool {
	rt := m.rt
	rank := m.r.Rank()
	if !rt.faults.ShouldDie(rank) {
		return false
	}
	restart := rt.faults.Effect(rank)
	rt.world.Kill(rank)
	m.pt.Finish()
	if restart > 0 {
		g := m.g
		name := fmt.Sprintf("worker%d.%d", rank, m.r.Incarnation()+1)
		rt.sim.After(restart, func() {
			rt.faults.Revive(rank)
			rt.world.Respawn(rank, name, rt.newRWorkerFSM(g, rank, true))
		})
	}
	return true
}

// anyReady reports whether any protocol receive has completed.
func (m *rworkerFSM) anyReady() bool {
	return completed(m.repReq) || completed(m.offReq) || completed(m.tokReq) || completed(m.ctlReq)
}

// completed reports whether a (possibly absent) receive has completed.
func completed(q *mpi.Request) bool { return q != nil && q.Done() }

// startTimedWait arms the checkpointed timed wait: block until a protocol
// receive completes or the deadline passes.
func (m *rworkerFSM) startTimedWait(deadline des.Time) {
	m.deadline = deadline
	m.waitPC = twCheck
}

// stepTimedWait drives the timed wait, re-checking the crash checkpoint on
// every wake. On completion m.waitOK reports whether a receive completed
// (false: the deadline passed). False means the worker parked or died.
func (m *rworkerFSM) stepTimedWait() bool {
	for {
		if m.waitPC == twWait {
			if !m.evWait.Step() {
				return false
			}
			if !m.evWait.Woken {
				m.waitOK = false
				return true
			}
		}
		if m.checkpoint() {
			return false
		}
		if m.anyReady() {
			m.waitOK = true
			return true
		}
		if m.r.Now() >= m.deadline {
			m.waitOK = false
			return true
		}
		m.evWait.InitUntil(m.r, m.deadline)
		m.waitPC = twWait
	}
}

// startDrain arms the drain sub-machine.
func (m *rworkerFSM) startDrain() { m.drainPC = rdHead }

// stepDrain handles every already-arrived control message, offset list,
// stale work reply, and sync token, reposting each persistent receive.
// Returns false when the worker parked inside a handler.
func (m *rworkerFSM) stepDrain() bool {
	rt, r := m.rt, m.r
	cfg := rt.cfg
	boss := m.g.masterRank
	for {
		switch m.drainPC {
		case rdHead:
			switch {
			case m.ctlReq.Done():
				cm := m.ctlReq.Message().Payload.(ctlMsg)
				r.Free(m.ctlReq)
				m.ctlReq = r.Irecv(boss, tagControl)
				if cm.Shutdown {
					m.shutdown = true
				} else {
					m.nudges++
				}
			case completed(m.offReq):
				m.om = m.offReq.Message().Payload.(offsetMsg)
				r.Free(m.offReq)
				m.offReq = r.Irecv(boss, tagOffsets)
				if m.om.Inc != r.Incarnation() {
					continue // addressed to a dead predecessor of this rank
				}
				// A duplicate wave (the master resent it because our ack
				// looked overdue) is re-acked without rewriting — writes
				// stay exactly-once.
				key := [2]int{m.om.Batch, m.om.Wave}
				m.dup = m.seenWave[key]
				if m.dup {
					m.drainPC = rdAck
					continue
				}
				m.seenWave[key] = true
				if m.om.Wave == 0 {
					m.initSeen++
				}
				// A Fallback wave (collective group tainted by a death, or
				// any recovery wave under WW-Coll) uses individual list I/O
				// instead of the collective round. Resilient in-run readback
				// is always individual: Readback.Collective is rejected here.
				m.startWrite(cfg.Strategy == WWColl && !m.om.Fallback)
				m.drainPC = rdWrite
			case !m.awaitReply && m.repReq.Done():
				// A replayed or late work reply with no request outstanding
				// (the master answered both the original and a resent
				// request). It must be consumed here: an idle worker parks
				// on "any receive completed", and a done repReq nobody
				// collects would spin that park forever at constant virtual
				// time.
				r.Free(m.repReq)
				m.repReq = r.Irecv(boss, tagWorkReply)
				rt.count("fault.stale_replies", 1)
			case completed(m.tokReq):
				tk := m.tokReq.Message().Payload.(tokMsg)
				r.Free(m.tokReq)
				m.tokReq = r.Irecv(boss, tagSyncToken)
				if tk.Inc == r.Incarnation() && tk.Sync {
					m.pt.Switch(PhaseSync)
					m.barrier.Init(m.g.querySyn, r)
					m.drainPC = rdSync
				}
			default:
				return true
			}
		case rdWrite:
			if !m.stepWrite() {
				return false
			}
			m.drainPC = rdAck
		case rdAck:
			var bytes int64
			for _, res := range m.om.Placements {
				bytes += res.Size
			}
			m.pending = append(m.pending,
				r.Isend(boss, tagWriteAck, ackMsgBytes,
					ackMsg{Batch: m.om.Batch, Wave: m.om.Wave, Bytes: bytes}))
			m.drainPC = rdHead
			if !m.dup && m.om.Sync {
				m.pt.Switch(PhaseSync)
				m.barrier.Init(m.g.querySyn, r)
				m.drainPC = rdSync
			}
		case rdSync:
			if !m.barrier.Step() {
				return false
			}
			m.drainPC = rdHead
		}
	}
}

// startRequest arms a work request under a fresh sequence number.
func (m *rworkerFSM) startRequest() {
	m.seq++
	m.awaitReply = true
	m.resend = false
	m.reqPC = rqSend
}

// stepRequest asks the master for work and awaits the matching reply,
// resending the same sequence number every half-lease until one arrives
// (request or reply may be lost to Drop events). On completion m.reply
// holds the answer (Has false: no work right now) unless a shutdown
// arrived first. False means the worker parked or died.
func (m *rworkerFSM) stepRequest() bool {
	rt, r := m.rt, m.r
	boss := m.g.masterRank
	for {
		switch m.reqPC {
		case rqSend:
			m.pt.Switch(PhaseDataDist)
			if m.resend {
				rt.count("fault.request_resends", 1)
			}
			m.resend = true
			m.pending = append(m.pending,
				r.Isend(boss, tagWorkRequest, requestMsgBytes,
					workReqMsg{Seq: m.seq, Inc: r.Incarnation()}))
			m.reqDeadline = r.Now() + rt.cfg.effLease()/2
			m.startDrain()
			m.reqPC = rqDrain
		case rqDrain:
			if !m.stepDrain() {
				return false
			}
			if m.shutdown {
				m.awaitReply = false
				return true
			}
			if m.repReq.Done() {
				rep := m.repReq.Message().Payload.(workReplyMsg)
				r.Free(m.repReq)
				m.repReq = r.Irecv(boss, tagWorkReply)
				if rep.Seq != m.seq {
					m.startDrain() // stale replay of an earlier sequence
					continue
				}
				if !m.haveBase {
					m.haveBase = true
					m.flushBase = rep.Flushed
				}
				m.awaitReply = false
				m.reply = rep
				return true
			}
			m.pt.Switch(PhaseDataDist)
			m.startTimedWait(m.reqDeadline)
			m.reqPC = rqWait
		case rqWait:
			if !m.stepTimedWait() {
				return false
			}
			if !m.waitOK {
				m.reqPC = rqSend // timeout: resend the same request
				continue
			}
			m.startDrain()
			m.reqPC = rqDrain
		}
	}
}
