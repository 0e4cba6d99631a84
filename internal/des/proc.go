package des

import "unsafe"

// Proc is a simulated process: a goroutine scheduled cooperatively by the
// kernel. Exactly one Proc (or the kernel) runs at a time; a Proc gives up
// control only by blocking in Sleep, Signal.Wait, Gate.Wait, or
// Resource.Use, so code inside a Proc body needs no locking.
type Proc struct {
	sim     *Simulation
	name    string
	id      int
	resume  chan struct{} // single-slot parker this process blocks on (goroutine form only)
	body    func(p *Proc) // pending body between Spawn and the evStart event
	machine Machine       // state-machine body (SpawnFSM); nil for goroutine processes

	// timer caches this process's most recent timed waiter so a WaitUntil
	// re-armed at the same deadline on the same signal can revive the
	// already-queued evTimer entry instead of pushing another (see
	// Signal.WaitUntil). Non-nil only while that entry is still queued.
	timer *waiter
	// twait is the waiter of the timed wait this process is parked in (or
	// has just resumed from) until WaitUntilResult consumes it.
	twait *waiter

	done        bool
	parked      bool // an FSM park is armed; cleared by stepFSM on resume
	blockReason string
}

// newProc pops a pooled process (or allocates one) and registers it. The
// parker channel is created lazily by Spawn: FSM processes never block a
// goroutine, so the ~100k ranks of a scale run skip the channel entirely.
func (s *Simulation) newProc(name string) *Proc {
	var p *Proc
	if n := len(s.procPool); n > 0 {
		p = s.procPool[n-1]
		s.procPool = s.procPool[:n-1]
		p.timer = nil
		p.twait = nil
		p.done = false
		p.parked = false
		p.machine = nil
		p.blockReason = ""
	} else {
		p = &Proc{sim: s}
	}
	p.name = name
	p.id = len(s.procs)
	s.procs = append(s.procs, p)
	return p
}

// Spawn creates a process that starts executing body at the current virtual
// time (after already-queued events at this time). The body runs to
// completion unless the simulation deadlocks or is abandoned. Finished
// processes recycled by Reset are reused here, parker channel and all.
func (s *Simulation) Spawn(name string, body func(p *Proc)) *Proc {
	p := s.newProc(name)
	if p.resume == nil {
		p.resume = make(chan struct{}, 1)
	}
	p.body = body
	s.push(s.now, evStart, unsafe.Pointer(p))
	return p
}

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// ID returns the process's spawn-order index, unique within the simulation.
func (p *Proc) ID() int { return p.id }

// Sim returns the owning simulation.
func (p *Proc) Sim() *Simulation { return p.sim }

// Now reports the current virtual time.
func (p *Proc) Now() Time { return p.sim.now }

// Done reports whether the process body has returned.
func (p *Proc) Done() bool { return p.done }

// park yields control to the kernel until some event resumes this process.
// reason is kept for deadlock diagnostics. For an FSM process nothing blocks:
// the park is armed as a flag and the caller is expected to unwind out of
// Machine.Step (checking Yielded after every potentially-blocking call).
func (p *Proc) park(reason string) {
	if p.machine != nil {
		if p.parked {
			panic("des: FSM process " + p.name +
				" blocked twice in one step (missing Yielded check after \"" +
				p.blockReason + "\")")
		}
		p.parked = true
		p.blockReason = reason
		return
	}
	p.blockReason = reason
	p.sim.yielded <- struct{}{}
	<-p.resume
	p.blockReason = ""
}

// Sleep advances this process's virtual time by d. Other events and
// processes run in the interim. Negative d is clamped to zero.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		d = 0
	}
	s := p.sim
	s.push(s.now+d, evResume, unsafe.Pointer(p))
	p.park("sleeping")
}

// Signal is a broadcast/FIFO-wakeup condition variable for processes.
// The usual pattern is a predicate loop:
//
//	for !ready() {
//		cond.Wait(p)
//	}
//
// Wakeups are edge-triggered; a Broadcast with no waiters is a no-op.
// The wait list is an intrusive FIFO of pooled waiter entries, so the
// steady-state Wait/Signal/Broadcast cycle allocates nothing.
type Signal struct {
	sim  *Simulation
	head *waiter
	tail *waiter
	n    int
}

// waiter is one parked process's entry on a signal's wait list.
//
// Ownership protocol: a waiter may be referenced by up to two calendar
// entries at once — a wake (evWake or an evBroadcast chain link, tracked by
// queued) and a deadline (evTimer, tracked by timer). Whichever event
// clears its own flag last returns the waiter to the pool; until both flags
// are down the waiter must not be recycled, or a still-queued entry would
// dangle. The out flag records that the entry has left the wait list
// (woken or timed out), making a later deadline pop a tombstone.
type waiter struct {
	p        *Proc
	sig      *Signal
	next     *waiter
	deadline Time
	out      bool
	timedOut bool
	timer    bool // a queued evTimer entry references this waiter
	queued   bool // a queued evWake/evBroadcast entry references this waiter
}

// NewSignal returns a condition signal bound to this simulation.
func (s *Simulation) NewSignal() *Signal { return &Signal{sim: s} }

// enqueue appends w to the FIFO wait list.
func (sig *Signal) enqueue(w *waiter) {
	w.sig = sig
	w.next = nil
	if sig.tail == nil {
		sig.head = w
	} else {
		sig.tail.next = w
	}
	sig.tail = w
	sig.n++
}

// unlink removes w from the wait list (deadline expiry path).
func (sig *Signal) unlink(w *waiter) {
	var prev *waiter
	for x := sig.head; x != nil; x = x.next {
		if x == w {
			if prev == nil {
				sig.head = x.next
			} else {
				prev.next = x.next
			}
			if sig.tail == x {
				sig.tail = prev
			}
			x.next = nil
			sig.n--
			return
		}
		prev = x
	}
}

// Wait parks p until the next Signal or Broadcast. Spurious wakeups do not
// occur, but the guarded predicate may have changed again by the time p
// runs, so callers should re-check in a loop.
func (sig *Signal) Wait(p *Proc) {
	sig.enqueue(p.sim.getWaiter(p))
	p.park("waiting on signal")
}

// WaitUntil parks p until the next Signal/Broadcast or until the absolute
// virtual time deadline, whichever comes first. It reports true if p was
// woken by the signal, false on timeout. A deadline at or before the
// present returns false without parking.
//
// WaitUntil is the arm half of the timed wait and WaitUntilResult its resume
// half; one implementation serves both process kinds. A goroutine process
// really blocks here, and WaitUntil returns WaitUntilResult's answer. For an
// FSM process the call only arms the park: it returns false with p.Yielded()
// true, and the machine reads the outcome with p.WaitUntilResult() on the
// Step that resumes it.
//
// A signal wakeup leaves the deadline entry queued as a tombstone, but the
// calendar cannot grow under the re-arm pattern of predicate loops (wake by
// signal, re-check, wait again with the same deadline): re-arming while the
// tombstone is still queued revives it in place instead of pushing a new
// entry, and a tombstone that does reach its deadline is skipped and
// reclaimed.
func (sig *Signal) WaitUntil(p *Proc, deadline Time) bool {
	s := sig.sim
	if deadline <= s.now {
		return false
	}
	w := p.timer
	if w != nil && w.timer && w.out && !w.queued && w.sig == sig && w.deadline == deadline {
		// Revive the tombstoned timer from this process's previous timed
		// wait: same signal, same deadline, entry still queued.
		w.out = false
		w.timedOut = false
	} else {
		w = s.getWaiter(p)
		w.deadline = deadline
		w.timer = true
		p.timer = w
		s.push(deadline, evTimer, unsafe.Pointer(w))
	}
	sig.enqueue(w)
	p.twait = w
	p.park("waiting on signal (timed)")
	if p.parked {
		return false // FSM: the resuming Step reads WaitUntilResult
	}
	return p.WaitUntilResult()
}

// WaitUntilResult is the resume half of WaitUntil: it reports whether the
// timed wait p resumed from ended by a signal (true) or by its deadline
// (false), and releases the wait's record. An FSM machine calls it exactly
// once, on the Step that resumes from a WaitUntil park.
func (p *Proc) WaitUntilResult() bool {
	w := p.twait
	if w == nil {
		panic("des: WaitUntilResult on " + p.name + " without a parked timed wait")
	}
	p.twait = nil
	if w.timedOut {
		// The deadline entry fired and is consumed; the kernel already
		// unlinked the waiter and cleared p.timer.
		p.sim.putWaiter(w)
		return false
	}
	return true
}

// Broadcast wakes every current waiter at the present virtual time, in FIFO
// order. Processes that start waiting after the call are not woken. The
// whole chain is scheduled as one calendar event; because the per-waiter
// events the old kernel queued held consecutive sequence numbers, resuming
// the chain within a single event preserves execution order exactly.
func (sig *Signal) Broadcast() {
	head := sig.head
	if head == nil {
		return
	}
	for w := head; w != nil; w = w.next {
		w.out = true
		w.queued = true
	}
	sig.head, sig.tail, sig.n = nil, nil, 0
	sig.sim.push(sig.sim.now, evBroadcast, unsafe.Pointer(head))
}

// Signal wakes the longest-waiting process, if any.
func (sig *Signal) Signal() {
	w := sig.head
	if w == nil {
		return
	}
	sig.head = w.next
	if sig.head == nil {
		sig.tail = nil
	}
	sig.n--
	w.next = nil
	w.out = true
	w.queued = true
	sig.sim.push(sig.sim.now, evWake, unsafe.Pointer(w))
}

// Waiters reports how many processes are currently parked on the signal.
func (sig *Signal) Waiters() int { return sig.n }

// Gate is a join counter (a WaitGroup for simulated processes): Add
// registers pending work, Done retires it, and Wait blocks until the count
// reaches zero. Unlike sync.WaitGroup it may be reused freely and Add may
// interleave with Wait, because everything runs under the DES kernel.
type Gate struct {
	n    int
	cond *Signal
}

// NewGate returns a gate with an initial count of n.
func (s *Simulation) NewGate(n int) *Gate {
	return &Gate{n: n, cond: s.NewSignal()}
}

// Add increases the pending count by delta (which may be negative; a
// transition to zero wakes waiters).
func (g *Gate) Add(delta int) {
	g.n += delta
	if g.n < 0 {
		panic("des: negative Gate count")
	}
	if g.n == 0 {
		g.cond.Broadcast()
	}
}

// Done retires one unit of pending work.
func (g *Gate) Done() { g.Add(-1) }

// Pending reports the current count.
func (g *Gate) Pending() int { return g.n }

// Wait parks p until the count is zero. Returns immediately if it already is.
// FSM processes cannot run this hidden predicate loop; they use the
// equivalent re-check pattern over Park:
//
//	for g.Pending() > 0 {
//		g.Park(p)
//		if p.Yielded() {
//			return // resume this state on the next Step
//		}
//	}
func (g *Gate) Wait(p *Proc) {
	if p.machine != nil {
		panic("des: Gate.Wait is not supported for FSM processes; use Gate.Park")
	}
	for g.n > 0 {
		g.cond.Wait(p)
	}
}

// Park enqueues p on the gate's condition for one wakeup — the single
// iteration of Wait's predicate loop, split out so FSM machines can re-check
// Pending between parks. The waiter records and wake events are identical to
// Wait's, so the two forms replay the same schedule.
func (g *Gate) Park(p *Proc) {
	g.cond.Wait(p)
}
