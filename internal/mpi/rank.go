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

	inbox    []*Message  // arrived, not yet matched
	posted   []*Request  // posted receives, not yet matched
	activity *des.Signal // broadcast whenever a request completes

	dead        bool // killed by fault injection; deliveries are discarded
	incarnation int  // respawn count (0 for the original process)

	msgsSent  uint64 // messages this rank pushed into the network
	bytesSent uint64 // payload bytes this rank pushed into the network

	// Last message to arrive at this rank (causal recording only): lets a
	// generic WaitEvent wake distinguish "a message arrived just now" (a
	// transit edge to its sender) from an out-of-band or timeout wake.
	lastMsg   *Message
	lastMsgAt des.Time
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
type Request struct {
	owner     *Rank
	done      bool
	msg       *Message // non-nil for completed receives
	cancelled bool     // receive cancelled before matching
	dropped   bool     // send whose message the network lost (fault injection)

	source, tag int // a posted receive's match pattern (wildcards allowed)
}

// matches reports whether m satisfies the posted receive q.
func (q *Request) matches(m *Message) bool {
	return (q.source == AnySource || q.source == m.Source) &&
		(q.tag == AnyTag || q.tag == m.Tag)
}

// Done reports whether the operation has completed (MPI_Test without
// side effects; our Test is free of progress obligations because the DES
// kernel advances the network independently).
func (q *Request) Done() bool { return q.done }

// Message returns the received message, or nil if not a completed receive.
func (q *Request) Message() *Message { return q.msg }

// Cancelled reports whether the request was retired by Cancel (teardown)
// rather than by matching a message.
func (q *Request) Cancelled() bool { return q.cancelled }

// Dropped reports whether a send's message was lost by fault injection (or
// discarded at a dead destination). The request still completes — a lost
// message must not wedge the sender — but the loss is observable here
// instead of masquerading as success.
func (q *Request) Dropped() bool { return q.dropped }

func (q *Request) complete(m *Message) {
	q.done = true
	q.msg = m
	q.owner.activity.Broadcast()
}

// sendStage names the stage a transfer runs on its next Fire.
type sendStage uint8

const (
	sendNIC     sendStage = iota // cleared the sender NIC: complete eager, cross the wire
	sendArrived                  // reached the receiver: queue on its NIC (or vanish)
	sendCleared                  // cleared the receiver NIC: deliver
)

// transfer is one Isend in flight: the message, the sender's request and
// the stage state in a single allocation. Each stage is one tagged task
// event pushed at the same moment, in the same order, as the nested
// callbacks it replaces. It is not pooled: callers keep the returned
// request, and receivers keep the message, for as long as they like.
type transfer struct {
	task  des.Task
	msg   Message
	req   Request
	stage sendStage
	eager bool
	lost  bool
	extra des.Time // fault-injected wire delay
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
			t.req.complete(nil) // send requests carry no message
		}
		t.stage = sendArrived
		w.sim.AfterTask(cfg.Latency+t.extra, &t.task)
	case sendArrived:
		// A message lost on the wire never reaches the receiver NIC; a
		// rendezvous send still completes (the transport gave up), with
		// the loss surfaced via Dropped.
		if t.lost {
			t.req.dropped = true
			if !t.eager {
				t.req.complete(nil)
			}
			return
		}
		t.stage = sendCleared
		dst.node.recv.SubmitTask(cfg.PerMessageCPU+des.BytesOver(t.msg.Bytes, cfg.Bandwidth), &t.task)
	case sendCleared:
		m := &t.msg
		if dst.dead {
			t.req.dropped = true
			w.msgsToDead++
		} else {
			if c := w.causal; c != nil && c.CapturesFlows() && dst.proc != nil {
				c.Flow(m.id, w.flowLabel(m.Tag), m.sentBy, dst.proc.Name(), m.sentAt, w.sim.Now())
			}
			dst.deliver(m)
		}
		if !t.eager {
			t.req.complete(nil)
		}
	}
}

// Isend starts a nonblocking send of a message with the given simulated
// size and real payload. The returned request completes when the sender-side
// NIC finishes (bytes ≤ eager limit) or when the message is delivered to the
// destination rank's matching engine (larger messages).
//
// Sending to a rank outside the world is a contract violation and panics
// with *ProtocolError. Sending to a dead (killed) rank is legal — failure
// detectors need exactly that — but the message is discarded on arrival and
// the request reports Dropped.
func (r *Rank) Isend(dest, tag int, bytes int64, payload any) *Request {
	if dest < 0 || dest >= len(r.w.ranks) {
		protoPanic("Isend", dest, "destination outside world")
	}
	w := r.w
	cfg := &w.cfg
	t := &transfer{
		msg:   Message{Source: r.rank, Dest: dest, Tag: tag, Bytes: bytes, Payload: payload},
		req:   Request{owner: r},
		eager: bytes <= cfg.EagerLimit,
	}
	t.task.Bind(t)
	w.msgsSent++
	w.bytesSent += uint64(bytes)
	r.msgsSent++
	r.bytesSent += uint64(bytes)
	if w.causal != nil {
		t.msg.sentBy = r.proc.Name()
		t.msg.sentAt = w.sim.Now()
		t.msg.id = w.msgsSent
	}
	if w.fate != nil {
		t.lost, t.extra = w.fate.MessageFate(r.rank, dest, tag, bytes)
	}
	r.node.send.SubmitTask(cfg.PerMessageCPU+des.BytesOver(bytes, cfg.Bandwidth), &t.task)
	return &t.req
}

// Send is a blocking standard-mode send: Isend followed by Wait.
func (r *Rank) Send(dest, tag int, bytes int64, payload any) {
	r.Wait(r.Isend(dest, tag, bytes, payload))
}

// deliver runs in kernel context when a message clears the receiver NIC:
// match the oldest satisfiable posted receive, else queue in arrival order.
func (r *Rank) deliver(m *Message) {
	if r.w.causal != nil {
		r.lastMsg, r.lastMsgAt = m, r.w.sim.Now()
	}
	for i, q := range r.posted {
		if q.matches(m) {
			r.posted = append(r.posted[:i], r.posted[i+1:]...)
			q.complete(m)
			return
		}
	}
	r.inbox = append(r.inbox, m)
}

// Irecv posts a nonblocking receive for (source, tag); AnySource/AnyTag
// wildcards apply. If a queued message already matches, the request
// completes immediately (consuming the oldest match).
func (r *Rank) Irecv(source, tag int) *Request {
	req := &Request{owner: r, source: source, tag: tag}
	for i, m := range r.inbox {
		if (source == AnySource || source == m.Source) && (tag == AnyTag || tag == m.Tag) {
			r.inbox = append(r.inbox[:i], r.inbox[i+1:]...)
			req.complete(m)
			return req
		}
	}
	r.posted = append(r.posted, req)
	return req
}

// Recv is a blocking receive: Irecv followed by Wait.
func (r *Rank) Recv(source, tag int) *Message {
	return r.Wait(r.Irecv(source, tag))
}

// Wait blocks this rank until the request completes, returning the matched
// message for receives (nil for sends). Corresponds to MPI_Wait.
func (r *Rank) Wait(q *Request) *Message {
	start := r.Now()
	for !q.done {
		r.activity.Wait(r.proc)
	}
	if c := r.w.causal; c != nil {
		r.recordWait(c, start, q)
	}
	return q.msg
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
	switch {
	case q.msg != nil && q.msg.sentBy != "":
		c.WaitEdge(name, start, end, causal.CatTransit, q.msg.sentBy, q.msg.sentAt)
	case q.cancelled:
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
			if q.done {
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
			if q != nil && q.done {
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
	if r.lastMsg != nil && r.lastMsgAt == end && r.lastMsg.sentBy != "" {
		c.WaitEdge(name, start, end, causal.CatTransit, r.lastMsg.sentBy, r.lastMsg.sentAt)
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
	if q.done {
		return false
	}
	for i, x := range r.posted {
		if x == q {
			r.posted = append(r.posted[:i], r.posted[i+1:]...)
			break
		}
	}
	q.cancelled = true
	q.complete(nil)
	return true
}

// Test reports whether the request has completed (MPI_Test).
func (r *Rank) Test(q *Request) bool { return q.done }

// TestSome appends completed requests' indices to idx and returns it.
func (r *Rank) TestSome(qs []*Request, idx []int) []int {
	for i, q := range qs {
		if q.done {
			idx = append(idx, i)
		}
	}
	return idx
}

// Probe reports whether a message matching (source, tag) has arrived but
// not been received (MPI_Iprobe).
func (r *Rank) Probe(source, tag int) bool {
	for _, m := range r.inbox {
		if (source == AnySource || source == m.Source) && (tag == AnyTag || tag == m.Tag) {
			return true
		}
	}
	return false
}
