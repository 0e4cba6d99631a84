package mpi

import (
	"s3asim/internal/causal"
	"s3asim/internal/des"
)

// Rank is one MPI process. All of its operations must be invoked from
// inside the des.Proc that Spawn started for it.
type Rank struct {
	w    *World
	rank int
	node *node
	proc *des.Proc

	inbox    []*transfer // arrived, not yet matched (arrival order)
	posted   postedRecvs // posted receives, not yet matched
	activity *des.Signal // broadcast whenever a request completes
	reqSeq   uint64      // creation counter behind Request.seq

	dead        bool // killed by fault injection; deliveries are discarded
	incarnation int  // respawn count (0 for the original process)

	msgsSent  uint64 // messages this rank pushed into the network
	bytesSent uint64 // payload bytes this rank pushed into the network

	// Stamps of the last message to arrive at this rank (causal recording
	// only), kept by value because the message's record is pooled: they let
	// a generic WaitEvent wake distinguish "a message arrived just now" (a
	// transit edge to its sender) from an out-of-band or timeout wake.
	lastFrom   *des.Proc
	lastSentAt des.Time
	lastMsgAt  des.Time
}

// Rank returns this rank's index.
func (r *Rank) Rank() int { return r.rank }

// World returns the communicator.
func (r *Rank) World() *World { return r.w }

// Proc returns the simulated process executing this rank.
func (r *Rank) Proc() *des.Proc { return r.proc }

// Now returns the current virtual time.
func (r *Rank) Now() des.Time { return r.w.sim.Now() }

// Compute advances this rank's virtual clock by d, modeling local work.
func (r *Rank) Compute(d des.Time) {
	if c := r.w.causal; c != nil {
		start := r.Now()
		r.proc.Sleep(d)
		c.Busy(r.proc.Name(), causal.CatCompute, start, r.Now())
		return
	}
	r.proc.Sleep(d)
}

// Alive reports whether the rank is running (not killed by fault
// injection). A fresh rank is alive; Kill clears it, Respawn restores it.
func (r *Rank) Alive() bool { return !r.dead }

// Incarnation reports how many times this rank has been respawned (0 for
// the original process). The engine's recovery protocol uses it to detect a
// restarted worker whose death was never observed.
func (r *Rank) Incarnation() int { return r.incarnation }

// MessagesSent reports how many messages this rank has sent.
func (r *Rank) MessagesSent() uint64 { return r.msgsSent }

// BytesSent reports how many payload bytes this rank has sent.
func (r *Rank) BytesSent() uint64 { return r.bytesSent }

// Request tracks the completion of a nonblocking operation. A receive
// request additionally carries the matched message once complete.
//
// Requests are pooled records with MPI_Request_free semantics: Rank.Free
// hands one back. A send's request lives inside its transfer record; a
// receive's comes from the world's request pool and, once matched, holds
// the sender's transfer (and so the message) until it is freed. A request
// that is never freed is simply garbage-collected, so freeing is an
// optimization each call site opts into, never an obligation.
type Request struct {
	owner *Rank
	// xfer is the record holding the message: the request's own transfer
	// for a send, the matched sender's transfer for a completed receive
	// (nil while the receive is pending, and after a cancel).
	xfer *transfer
	next *Request    // posted-receive FIFO link (exact-match queues)
	set  *RequestSet // the set the request belongs to, until taken
	// seq numbers the owner's requests in creation order: it breaks ties
	// between posted receives (the earliest posted matches first) and
	// orders a set's completed members.
	seq         uint64
	source, tag int32 // a posted receive's match pattern (wildcards allowed)
	flags       reqFlags
}

// reqFlags is a request's state bits.
type reqFlags uint8

const (
	reqDone      reqFlags = 1 << iota // completed (matched, sent, or cancelled)
	reqRecv                           // a receive (else a send)
	reqCancelled                      // receive cancelled before matching
	reqDropped                        // send whose message the network lost
	reqFreed                          // handed back by Free: any further use panics
)

// isDone is Done without the use-after-free guard.
func (q *Request) isDone() bool { return q.flags&reqDone != 0 }

// matches reports whether m satisfies the posted receive q.
func (q *Request) matches(m *Message) bool {
	return (q.source == AnySource || int(q.source) == m.Source) &&
		(q.tag == AnyTag || int(q.tag) == m.Tag)
}

// live panics with *ProtocolError if q was freed.
func (q *Request) live(op string) {
	if q.flags&reqFreed != 0 {
		rank := -1
		if q.owner != nil {
			rank = q.owner.rank
		}
		protoPanic(op, rank, "request used after Free")
	}
}

// Done reports whether the operation has completed (MPI_Test without
// side effects; our Test is free of progress obligations because the DES
// kernel advances the network independently). Calling it on a freed
// request panics with *ProtocolError.
func (q *Request) Done() bool {
	q.live("Done")
	return q.flags&reqDone != 0
}

// Message returns the received message, or nil if not a completed receive.
// The message stays valid until the request is freed. Calling it on a
// freed request panics with *ProtocolError.
func (q *Request) Message() *Message {
	q.live("Message")
	return q.message()
}

// message is Message without the use-after-free guard.
func (q *Request) message() *Message {
	if q.flags&reqRecv == 0 || q.xfer == nil {
		return nil
	}
	return &q.xfer.msg
}

// Cancelled reports whether the request was retired by Cancel (teardown)
// rather than by matching a message.
func (q *Request) Cancelled() bool { return q.flags&reqCancelled != 0 }

// Dropped reports whether a send's message was lost by fault injection (or
// discarded at a dead destination). The request still completes — a lost
// message must not wedge the sender — but the loss is observable here
// instead of masquerading as success.
func (q *Request) Dropped() bool { return q.flags&reqDropped != 0 }

// complete marks the request done, files it with its set, and wakes its
// owner. A freed send still wakes its owner when the network finishes with
// it, exactly as an unfreed one the owner no longer looks at would.
func (q *Request) complete() {
	q.flags |= reqDone
	if q.set != nil {
		q.set.push(q)
	}
	q.owner.activity.Broadcast()
}

// Free hands a request back (MPI_Request_free). Freeing a send that is still
// in flight is legal: its record returns to the pool once the network is
// done with it. A receive must have completed (Cancel a pending one first);
// its message becomes invalid. Freeing a request twice, freeing a pending
// receive, freeing a member of a RequestSet before Take returned it, or
// freeing another rank's request panics with *ProtocolError.
func (r *Rank) Free(q *Request) {
	q.live("Free")
	switch {
	case q.owner != r:
		protoPanic("Free", r.rank, "request owned by another rank")
	case q.set != nil:
		protoPanic("Free", r.rank, "request still in a set")
	case q.flags&(reqRecv|reqDone) == reqRecv:
		protoPanic("Free", r.rank, "receive still pending (Cancel it first)")
	}
	q.flags |= reqFreed
	w := r.w
	t := q.xfer
	if q.flags&reqRecv != 0 {
		*q = Request{flags: reqFreed}
		w.reqPool = append(w.reqPool, q)
	}
	if t != nil {
		w.release(t)
	}
}

// FreeAll frees every request, as WaitAll waits on every one.
func (r *Rank) FreeAll(qs ...*Request) {
	for _, q := range qs {
		r.Free(q)
	}
}

// sendStage names the stage a transfer runs on its next Fire.
type sendStage uint8

const (
	sendNIC     sendStage = iota // cleared the sender NIC: complete eager, cross the wire
	sendArrived                  // reached the receiver: queue on its NIC (or vanish)
	sendCleared                  // cleared the receiver NIC: deliver
)

// transfer is one Isend in flight: the message, the sender's request and
// the stage state in a single pooled record. Each stage is one tagged task
// event pushed at the same moment, in the same order, as the nested
// callbacks it replaces.
//
// Two parties hold a reference: the sender's request handle (released by
// Free) and the network, whose reference passes on delivery to the
// receiver's inbox entry or matched receive (released by freeing that
// receive, or by Kill discarding the inbox). The record returns to the
// world's pool when both have let go. Records are pooled one by one, never
// slab-allocated: a slab would keep every sibling's payload alive as long
// as any one record is in use.
type transfer struct {
	task  des.Task
	msg   Message
	req   Request
	extra des.Time // fault-injected wire delay
	stage sendStage
	eager bool
	lost  bool
	refs  uint8
}

// getTransfer takes a transfer from the pool (or allocates one) holding
// both references.
func (w *World) getTransfer() *transfer {
	var t *transfer
	if n := len(w.xferPool); n > 0 {
		t = w.xferPool[n-1]
		w.xferPool = w.xferPool[:n-1]
	} else {
		t = new(transfer)
	}
	t.task.Bind(t)
	t.refs = 2
	w.xferLive++
	return t
}

// release drops one reference to t, returning it to the pool at zero.
func (w *World) release(t *transfer) {
	t.refs--
	if t.refs > 0 {
		return
	}
	*t = transfer{}
	t.req.flags = reqFreed // a stale handle still panics until reuse
	w.xferPool = append(w.xferPool, t)
	w.xferLive--
}

// getRequest takes a receive request from the pool (or allocates one).
func (w *World) getRequest() *Request {
	if n := len(w.reqPool); n > 0 {
		q := w.reqPool[n-1]
		w.reqPool = w.reqPool[:n-1]
		return q
	}
	return new(Request)
}

// Fire runs the transfer's next stage.
func (t *transfer) Fire() {
	r := t.req.owner
	w := r.w
	cfg := &w.cfg
	dst := w.ranks[t.msg.Dest]
	switch t.stage {
	case sendNIC:
		if t.eager {
			t.req.complete() // send requests carry no message
		}
		t.stage = sendArrived
		w.sim.AfterTask(cfg.Latency+t.extra, &t.task)
	case sendArrived:
		// A message lost on the wire never reaches the receiver NIC; a
		// rendezvous send still completes (the transport gave up), with
		// the loss surfaced via Dropped.
		if t.lost {
			t.req.flags |= reqDropped
			if !t.eager {
				t.req.complete()
			}
			w.release(t) // the network's reference
			return
		}
		t.stage = sendCleared
		dst.node.recv.SubmitTask(cfg.PerMessageCPU+des.BytesOver(t.msg.Bytes, cfg.Bandwidth), &t.task)
	case sendCleared:
		// Guard reference: delivery hands the network's reference to the
		// receiver, which may free the record before this stage is done
		// reading it.
		t.refs++
		m := &t.msg
		if dst.dead {
			t.req.flags |= reqDropped
			w.msgsToDead++
			w.release(t) // the network's reference
		} else {
			if c := w.causal; c != nil && c.CapturesFlows() && dst.proc != nil {
				c.Flow(m.id, w.flowLabel(m.Tag), m.sentBy.Name(), dst.proc.Name(), m.sentAt, w.sim.Now())
			}
			dst.deliver(t)
		}
		if !t.eager {
			t.req.complete()
		}
		w.release(t) // the guard
	}
}

// Isend starts a nonblocking send of a message with the given simulated
// size and real payload. The returned request completes when the sender-side
// NIC finishes (bytes ≤ eager limit) or when the message is delivered to the
// destination rank's matching engine (larger messages).
//
// Sending to a rank outside the world, or with a tag outside int32, is a
// contract violation and panics with *ProtocolError. Sending to a dead
// (killed) rank is legal — failure detectors need exactly that — but the
// message is discarded on arrival and the request reports Dropped.
func (r *Rank) Isend(dest, tag int, bytes int64, payload any) *Request {
	if dest < 0 || dest >= len(r.w.ranks) {
		protoPanic("Isend", dest, "destination outside world")
	}
	if int(int32(tag)) != tag {
		protoPanic("Isend", r.rank, "tag outside int32")
	}
	w := r.w
	cfg := &w.cfg
	t := w.getTransfer()
	t.msg = Message{Source: r.rank, Dest: dest, Tag: tag, Bytes: bytes, Payload: payload}
	r.reqSeq++
	t.req = Request{owner: r, xfer: t, seq: r.reqSeq}
	t.eager = bytes <= cfg.EagerLimit
	w.msgsSent++
	w.bytesSent += uint64(bytes)
	r.msgsSent++
	r.bytesSent += uint64(bytes)
	if w.causal != nil {
		t.msg.sentBy = r.proc
		t.msg.sentAt = w.sim.Now()
		t.msg.id = w.msgsSent
	}
	if w.fate != nil {
		t.lost, t.extra = w.fate.MessageFate(r.rank, dest, tag, bytes)
	}
	r.node.send.SubmitTask(cfg.PerMessageCPU+des.BytesOver(bytes, cfg.Bandwidth), &t.task)
	return &t.req
}

// Send is a blocking standard-mode send: Isend, Wait, Free.
func (r *Rank) Send(dest, tag int, bytes int64, payload any) {
	q := r.Isend(dest, tag, bytes, payload)
	r.Wait(q)
	r.Free(q)
}

// deliver runs in kernel context when a message clears the receiver NIC:
// match the earliest-posted satisfiable receive, else queue in arrival
// order. Either way the network's reference to t passes to the receiver.
func (r *Rank) deliver(t *transfer) {
	m := &t.msg
	if r.w.causal != nil {
		r.lastFrom, r.lastSentAt, r.lastMsgAt = m.sentBy, m.sentAt, r.w.sim.Now()
	}
	if q := r.posted.match(m); q != nil {
		q.xfer = t
		q.complete()
		return
	}
	r.inbox = append(r.inbox, t)
}

// Irecv posts a nonblocking receive for (source, tag); AnySource/AnyTag
// wildcards apply. If a queued message already matches, the request
// completes immediately (consuming the oldest match). Free the request once
// its message has been read.
func (r *Rank) Irecv(source, tag int) *Request {
	if int(int32(source)) != source || int(int32(tag)) != tag {
		protoPanic("Irecv", r.rank, "source or tag outside int32")
	}
	q := r.w.getRequest()
	r.reqSeq++
	*q = Request{owner: r, seq: r.reqSeq, source: int32(source), tag: int32(tag), flags: reqRecv}
	for i, t := range r.inbox {
		if q.matches(&t.msg) {
			r.inbox = append(r.inbox[:i], r.inbox[i+1:]...)
			q.xfer = t
			q.complete()
			return q
		}
	}
	r.posted.add(q)
	return q
}

// Recv is a blocking receive: Irecv, Wait, and Free, returning the message
// by value.
func (r *Rank) Recv(source, tag int) Message {
	q := r.Irecv(source, tag)
	m := *r.Wait(q)
	r.Free(q)
	return m
}

// Wait blocks this rank until the request completes, returning the matched
// message for receives (nil for sends). Corresponds to MPI_Wait.
func (r *Rank) Wait(q *Request) *Message {
	start := r.Now()
	for !q.isDone() {
		r.activity.Wait(r.proc)
	}
	if c := r.w.causal; c != nil {
		r.recordWait(c, start, q)
	}
	return q.message()
}

// recordWait classifies a completed blocking wait: a received message makes
// a transit edge back to its sender; a cancelled request is recovery
// teardown; anything else (waiting out one's own send) is plain transit.
func (r *Rank) recordWait(c *causal.Recorder, start des.Time, q *Request) {
	end := r.Now()
	if end <= start {
		return
	}
	name := r.proc.Name()
	switch m := q.message(); {
	case m != nil && m.sentBy != nil:
		c.WaitEdge(name, start, end, causal.CatTransit, m.sentBy.Name(), m.sentAt)
	case q.Cancelled():
		c.WaitPlain(name, start, end, causal.CatRecovery)
	default:
		c.WaitPlain(name, start, end, causal.CatTransit)
	}
}

// WaitAll blocks until every request has completed.
func (r *Rank) WaitAll(qs ...*Request) {
	for _, q := range qs {
		r.Wait(q)
	}
}

// WaitAny blocks until at least one of the requests has completed and
// returns the index of the first completed one. Waiting on an empty set can
// never complete; it is a contract violation and panics with
// *ProtocolError.
func (r *Rank) WaitAny(qs []*Request) int {
	if len(qs) == 0 {
		protoPanic("WaitAny", r.rank, "empty request set")
	}
	start := r.Now()
	for {
		for i, q := range qs {
			if q.isDone() {
				if c := r.w.causal; c != nil {
					r.recordWait(c, start, q)
				}
				return i
			}
		}
		r.activity.Wait(r.proc)
	}
}

// WaitAnyUntil is WaitAny with an absolute virtual-time deadline: it
// returns (index, true) when a request completes first, or (-1, false) if
// the deadline passes with none complete. Nil entries are skipped, so
// callers can keep fixed slots. An all-nil or empty set simply waits out
// the deadline (the engine's resilient master uses that as its detector
// sweep timer).
func (r *Rank) WaitAnyUntil(qs []*Request, deadline des.Time) (int, bool) {
	c := r.w.causal
	start := r.Now()
	timeout := func() (int, bool) {
		if c != nil && r.Now() > start {
			// Timed-out waits are the resilient protocol's detection arm.
			c.WaitPlain(r.proc.Name(), start, r.Now(), causal.CatRecovery)
		}
		return -1, false
	}
	for {
		for i, q := range qs {
			if q != nil && q.isDone() {
				if c != nil {
					r.recordWait(c, start, q)
				}
				return i, true
			}
		}
		if r.Now() >= deadline {
			return timeout()
		}
		if !r.activity.WaitUntil(r.proc, deadline) {
			return timeout()
		}
	}
}

// recordEventWake classifies a generic event-wait wake: if a message arrived
// at this very instant, credit a transit edge to its sender; otherwise the
// park belongs to the resilient protocol's idle/recovery machinery (the only
// user of WaitEventOp).
func (r *Rank) recordEventWake(c *causal.Recorder, start des.Time) {
	end := r.Now()
	if end <= start {
		return
	}
	name := r.proc.Name()
	if r.lastFrom != nil && r.lastMsgAt == end {
		c.WaitEdge(name, start, end, causal.CatTransit, r.lastFrom.Name(), r.lastSentAt)
		return
	}
	c.WaitPlain(name, start, end, causal.CatRecovery)
}

// Cancel retires a posted receive that has not matched yet: the request
// completes with Cancelled() true and a nil message, and its posted entry
// is withdrawn so it can never match. Cancelling a completed (or already
// cancelled) request is a no-op returning false. This is the teardown path
// a dying rank uses for its posted-but-unmatched receives.
func (r *Rank) Cancel(q *Request) bool {
	if q.isDone() {
		return false
	}
	r.posted.remove(q)
	q.flags |= reqCancelled
	q.complete()
	return true
}

// Test reports whether the request has completed (MPI_Test).
func (r *Rank) Test(q *Request) bool { return q.Done() }

// TestSome appends completed requests' indices to idx and returns it.
func (r *Rank) TestSome(qs []*Request, idx []int) []int {
	for i, q := range qs {
		if q.isDone() {
			idx = append(idx, i)
		}
	}
	return idx
}

// Probe reports whether a message matching (source, tag) has arrived but
// not been received (MPI_Iprobe).
func (r *Rank) Probe(source, tag int) bool {
	for _, t := range r.inbox {
		if m := &t.msg; (source == AnySource || source == m.Source) && (tag == AnyTag || tag == m.Tag) {
			return true
		}
	}
	return false
}
