package mpi

import (
	"s3asim/internal/causal"
	"s3asim/internal/des"
)

// This file is the mpi layer's resumable-operation support: every blocking
// composite (Wait, WaitAll, WaitAny, the timed WaitEvent, Barrier.Arrive,
// Team.Bcast) is implemented as an op struct whose Step method drives the
// operation and reports completion. Ops call the ordinary blocking
// primitives and check p.Yielded() after each, so:
//
//   - on an FSM process (des.SpawnFSM) — every simulation worker — each Step
//     advances to the next park and returns false, and the parent machine
//     re-enters it on resume;
//   - on a goroutine process (the masters) the primitives really block and
//     one Step call runs the whole operation — the classic blocking APIs are
//     thin wrappers (Init + a single Step) over the same code.
//
// One implementation serves both process kinds: the waiter enqueues,
// calendar pushes, and causal records happen in exactly the same order
// either way, so a rank's schedule does not depend on its process kind.

// SpawnFSM starts rank i's program as a resumable state machine on the
// simulation kernel — the scale path that backs a blocked rank with one
// pooled struct instead of a goroutine stack. The machine typically holds
// its *Rank and drives mpi ops from its Step method. Starting a rank twice
// is a contract violation, as with Spawn.
func (w *World) SpawnFSM(i int, name string, m des.Machine) *des.Proc {
	r := w.ranks[i]
	if r.proc != nil {
		protoPanic("SpawnFSM", i, "rank already spawned")
	}
	r.proc = w.sim.SpawnFSM(name, m)
	return r.proc
}

// WaitOp is Rank.Wait as a resumable operation: park on the rank's activity
// signal until the request completes, then record the wait causally.
type WaitOp struct {
	r     *Rank
	q     *Request
	start des.Time
}

// Init arms the op; the wait's causal start is the moment of arming, exactly
// where the blocking Wait captures it.
func (op *WaitOp) Init(r *Rank, q *Request) {
	op.r, op.q, op.start = r, q, r.Now()
}

// Step drives the wait; it returns true when the request has completed and
// false when the process parked (FSM processes only).
func (op *WaitOp) Step() bool {
	r, q := op.r, op.q
	for !q.isDone() {
		r.activity.Wait(r.proc)
		if r.proc.Yielded() {
			return false
		}
	}
	if c := r.w.causal; c != nil {
		r.recordWait(c, op.start, q)
	}
	return true
}

// Message returns the completed receive's message (nil for sends). Valid
// only after Step has returned true.
func (op *WaitOp) Message() *Message { return op.q.Message() }

// WaitAllOp is Rank.WaitAll as a resumable operation: each request is waited
// in order, with a fresh causal start per request, matching the blocking
// form's sequential Waits.
type WaitAllOp struct {
	r     *Rank
	qs    []*Request
	i     int
	cur   WaitOp
	armed bool
}

// Init arms the op over qs. The slice is not copied; callers own it until
// Step returns true.
func (op *WaitAllOp) Init(r *Rank, qs []*Request) {
	op.r, op.qs, op.i, op.armed = r, qs, 0, false
}

// Step reports true once every request has completed.
func (op *WaitAllOp) Step() bool {
	for op.i < len(op.qs) {
		if !op.armed {
			op.cur.Init(op.r, op.qs[op.i])
			op.armed = true
		}
		if !op.cur.Step() {
			return false
		}
		op.armed = false
		op.i++
	}
	return true
}

// WaitAnyOp is Rank.WaitAny as a resumable operation.
type WaitAnyOp struct {
	r     *Rank
	qs    []*Request
	start des.Time
	// Index is the position of the first completed request, valid once Step
	// has returned true.
	Index int
}

// Init arms the op over qs (not copied; callers may reuse a scratch slice
// across operations). An empty set can never complete and panics, like the
// blocking form.
func (op *WaitAnyOp) Init(r *Rank, qs []*Request) {
	if len(qs) == 0 {
		protoPanic("WaitAny", r.rank, "empty request set")
	}
	op.r, op.qs, op.start, op.Index = r, qs, r.Now(), -1
}

// Step reports true once at least one request has completed, recording the
// scan-order-first one in Index.
func (op *WaitAnyOp) Step() bool {
	r := op.r
	for {
		for i, q := range op.qs {
			if q.isDone() {
				if c := r.w.causal; c != nil {
					r.recordWait(c, op.start, q)
				}
				op.Index = i
				return true
			}
		}
		r.activity.Wait(r.proc)
		if r.proc.Yielded() {
			return false
		}
	}
}

// WaitEventOp parks the rank until any of its requests completes, the rank
// is woken out-of-band (World.WakeRank), or an optional absolute deadline
// passes — the resilient worker's idle park and its timed protocol waits.
// Callers re-check their predicates after every wake, as with Signal.Wait.
// A wake at the instant a message arrived is recorded as a transit edge to
// its sender; any other wake, and a timeout, is recovery time.
type WaitEventOp struct {
	r        *Rank
	deadline des.Time
	timed    bool
	parked   bool
	start    des.Time
	// Woken reports whether the wait ended by a wake rather than by its
	// deadline; valid once Step has returned true.
	Woken bool
}

// Init arms a wait with no deadline.
func (op *WaitEventOp) Init(r *Rank) {
	op.r, op.timed, op.parked, op.start = r, false, false, r.Now()
}

// InitUntil arms a wait that gives up at the absolute time deadline. A
// deadline at or before the present completes on the first Step with
// Woken false.
func (op *WaitEventOp) InitUntil(r *Rank, deadline des.Time) {
	op.r, op.deadline, op.timed, op.parked, op.start = r, deadline, true, false, r.Now()
}

// Step drives the wait; it returns true once the rank has woken or timed
// out, false when the process parked (FSM processes only).
func (op *WaitEventOp) Step() bool {
	r := op.r
	p := r.proc
	switch {
	case op.parked:
		op.parked = false
		op.Woken = !op.timed || p.WaitUntilResult()
	case op.timed:
		op.Woken = r.activity.WaitUntil(p, op.deadline)
	default:
		r.activity.Wait(p)
		op.Woken = true
	}
	if p.Yielded() {
		op.parked = true
		return false
	}
	if c := r.w.causal; c != nil {
		if op.Woken {
			r.recordEventWake(c, op.start)
		} else if end := r.Now(); end > op.start {
			c.WaitPlain(p.Name(), op.start, end, causal.CatRecovery)
		}
	}
	return true
}

// BarrierOp is Barrier.Arrive as a resumable operation. Init performs the
// arrival bookkeeping (count, epoch release when this rank completes the
// barrier); Step pays the release delay or parks until the epoch releases.
type BarrierOp struct {
	b     *Barrier
	r     *Rank
	gen   uint64
	delay des.Time
	start des.Time
	pc    uint8
}

const (
	barrierCompleter uint8 = iota // pay the release delay
	barrierBusy                   // record the completer's delay as busy time
	barrierWaiter                 // parked until the generation advances
)

// Init registers r's arrival at b, releasing the epoch if r is the last
// participant in.
func (op *BarrierOp) Init(b *Barrier, r *Rank) {
	op.b, op.r = b, r
	gen := b.gen
	b.arrived++
	if b.arrived == b.n {
		if c := b.w.causal; c != nil {
			b.lastArriver[gen%uint64(len(b.lastArriver))] =
				barrierEpoch{gen: gen, proc: r.proc.Name(), at: b.w.sim.Now(), set: true}
		}
		op.delay = b.releaseDelay()
		b.release()
		// The completing rank also pays the release delay.
		op.start = r.Now()
		op.pc = barrierCompleter
		return
	}
	op.gen = gen
	op.start = r.Now()
	op.pc = barrierWaiter
}

// Step drives the arrival; true means the barrier epoch has released for r.
func (op *BarrierOp) Step() bool {
	b, r := op.b, op.r
	p := r.proc
	if op.pc == barrierCompleter {
		op.pc = barrierBusy
		p.Sleep(op.delay)
		if p.Yielded() {
			return false
		}
	}
	if op.pc == barrierBusy {
		if c := b.w.causal; c != nil {
			c.Busy(p.Name(), causal.CatSyncWait, op.start, r.Now())
		}
		return true
	}
	// Waiter: park until the epoch we arrived in has released.
	for op.gen == b.gen {
		b.cond.Wait(p)
		if p.Yielded() {
			return false
		}
	}
	if c := b.w.causal; c != nil && r.Now() > op.start {
		// Fan-in: the wait was released by the last arriver; the walk jumps
		// to that process at its arrival instant. An epoch released by
		// Deregister (a dead peer's teardown) has no recorded arriver.
		if e := b.lastArriver[op.gen%uint64(len(b.lastArriver))]; e.set && e.gen == op.gen {
			c.WaitEdge(p.Name(), op.start, r.Now(), causal.CatSyncWait, e.proc, e.at)
		} else {
			c.WaitPlain(p.Name(), op.start, r.Now(), causal.CatSyncWait)
		}
	}
	return true
}

// BcastOp is Team.Bcast as a resumable operation: receive from the binomial
// parent, forward to children, wait out the sends.
type BcastOp struct {
	t       *Team
	r       *Rank
	payload any
	bytes   int64
	tag     int
	vr, n   int
	rootPos int
	mask    int
	recvReq *Request
	wait    WaitOp
	sends   []*Request
	waitAll WaitAllOp
	pc      uint8
}

const (
	bcastRecv uint8 = iota // waiting on the parent's message
	bcastSend              // children notified; waiting out the sends
)

// Init arms one broadcast round for r, reserving the member's collective tag
// (so it must be called exactly when the blocking Bcast would have been).
func (op *BcastOp) Init(t *Team, r *Rank, root int, bytes int64, payload any) {
	op.t, op.r, op.bytes, op.payload = t, r, bytes, payload
	op.n = len(t.ranks)
	op.tag = t.opTag(r)
	rootPos, ok := t.indexOf[root]
	if !ok {
		protoPanic("Bcast", root, "root not in team")
	}
	op.rootPos = rootPos
	op.vr = t.vrank(t.pos(r), rootPos)
	op.sends = op.sends[:0]
	op.recvReq = nil
	op.pc = bcastRecv

	// Receive from parent (all but the root). The mask where the scan stops
	// is also where the forwarding fan-out starts.
	mask := 1
	for mask < op.n {
		if op.vr&mask != 0 {
			parent := t.absRank(op.vr-mask, rootPos)
			op.recvReq = r.Irecv(parent, op.tag)
			op.wait.Init(r, op.recvReq)
			break
		}
		mask <<= 1
	}
	op.mask = mask
}

// Step drives the broadcast; true means the payload is distributed and all
// of this member's forwards are complete.
func (op *BcastOp) Step() bool {
	t, r := op.t, op.r
	if op.pc == bcastRecv {
		if op.recvReq != nil {
			if !op.wait.Step() {
				return false
			}
			op.payload = op.recvReq.message().Payload
			r.Free(op.recvReq)
			op.recvReq = nil
		}
		// Forward to children.
		for mask := op.mask >> 1; mask > 0; mask >>= 1 {
			if op.vr+mask < op.n {
				child := t.absRank(op.vr+mask, op.rootPos)
				op.sends = append(op.sends, r.Isend(child, op.tag, op.bytes, op.payload))
			}
		}
		op.waitAll.Init(r, op.sends)
		op.pc = bcastSend
	}
	if !op.waitAll.Step() {
		return false
	}
	r.FreeAll(op.sends...)
	op.sends = op.sends[:0]
	return true
}

// Result returns the broadcast payload; valid on every member once Step has
// returned true.
func (op *BcastOp) Result() any { return op.payload }
