package des

import (
	"fmt"
	"sort"
	"strings"
	"unsafe"
)

// evKind tags a calendar entry with its dispatch action. Tagged events are
// the kernel's fast path: Sleep, Signal wakeups, timed waits, and
// Resource.Use schedule plain struct entries with no closure allocation;
// only genuinely ad-hoc callbacks (At, After, Resource.Submit) pay for a
// func value.
type evKind uint8

const (
	// evFunc runs an ad-hoc callback.
	evFunc evKind = iota
	// evStart launches a spawned process's goroutine and runs it until its
	// first yield.
	evStart
	// evResume hands control to a parked process (Sleep, Resource.Use).
	evResume
	// evWake resumes a single signal waiter (Signal.Signal).
	evWake
	// evBroadcast resumes a FIFO chain of signal waiters in order, all
	// within one calendar entry (Signal.Broadcast).
	evBroadcast
	// evTimer is a WaitUntil deadline. If the waiter already left the wait
	// (the signal won), the entry is a tombstone: it is skipped — the pop
	// still counts as an executed event, exactly like the queued no-op it
	// replaces — and the waiter storage is reclaimed.
	evTimer
)

// event is a single entry in the calendar. Events with equal times fire in
// insertion order (seq), which keeps the simulation deterministic.
//
// The operand is a one-word tagged union discriminated by kind: a *Proc
// (evStart, evResume), a *waiter (evWake, evBroadcast chain head, evTimer),
// or a closure (evFunc). Keeping the event at one pointer word matters: the
// calendar moves events constantly (heap sift, append growth), and every
// pointer field pays a GC write barrier per move.
type event struct {
	t    Time
	seq  uint64
	arg  unsafe.Pointer
	kind evKind
}

// funcArg packs a closure into an event operand. A func value is a single
// pointer to its funcval, so the conversion is free and the GC still sees
// (and keeps alive) the closure through the unsafe.Pointer field.
func funcArg(fn func()) unsafe.Pointer {
	return *(*unsafe.Pointer)(unsafe.Pointer(&fn))
}

// argFunc unpacks a funcArg operand.
func argFunc(arg unsafe.Pointer) func() {
	return *(*func())(unsafe.Pointer(&arg))
}

// eventHeap is a binary min-heap ordered by (t, seq).
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		(*h)[i], (*h)[parent] = (*h)[parent], (*h)[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	old[n] = event{}
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.less(l, smallest) {
			smallest = l
		}
		if r < n && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		(*h)[i], (*h)[smallest] = (*h)[smallest], (*h)[i]
		i = smallest
	}
	return top
}

// Simulation owns the virtual clock, the event calendar, and all processes.
// It is not safe for concurrent use: the kernel and at most one process run
// at any instant, handing control back and forth explicitly.
type Simulation struct {
	now     Time
	heap    eventHeap
	seq     uint64
	yielded chan struct{} // single-slot parker the kernel blocks on
	procs   []*Proc
	curr    *Proc
	events  uint64 // total events executed

	procPool   []*Proc   // finished processes available for respawn reuse
	waiterPool []*waiter // waiter free list (see getWaiter/putWaiter)
}

// initialHeapCap preallocates the calendar. Paper-scale runs execute
// ≈300–400 k events, but the heap only holds the pending ones — a few
// thousand at peak — so a fixed preallocation absorbs the append-growth
// reallocations of a whole run without noticeable idle cost.
const initialHeapCap = 4096

// New returns an empty simulation at time zero.
func New() *Simulation {
	return &Simulation{
		heap:    make(eventHeap, 0, initialHeapCap),
		yielded: make(chan struct{}, 1),
	}
}

// Reset returns the simulation to time zero with an empty calendar and no
// processes, retaining the calendar's storage and the process/waiter free
// lists so a sweep can reuse one Simulation across thousands of runs
// instead of reallocating per cell. A reset simulation is observably
// indistinguishable from a fresh New(): clock, sequence numbers, and event
// counts all restart at zero. Kernel objects created against the previous
// run (signals, gates, resources, processes) must not be used after Reset.
//
// Resetting after a deadlocked run is safe: processes that never finished
// are simply abandoned (their goroutines stay parked on channels nothing
// references anymore) rather than recycled.
func (s *Simulation) Reset() {
	for _, p := range s.procs {
		if p.done {
			s.procPool = append(s.procPool, p)
		}
	}
	for i := range s.heap {
		s.heap[i] = event{} // release closure/waiter references to the GC
	}
	s.heap = s.heap[:0]
	s.procs = s.procs[:0]
	s.curr = nil
	s.now, s.seq, s.events = 0, 0, 0
}

// Now reports the current virtual time.
func (s *Simulation) Now() Time { return s.now }

// Events reports how many calendar events have executed so far. Tombstoned
// timers count when their entry pops, just like the no-op events they
// replace.
func (s *Simulation) Events() uint64 { return s.events }

// PendingEvents reports how many calendar entries are currently queued,
// including tombstoned timers that have not reached their deadline yet.
func (s *Simulation) PendingEvents() int { return len(s.heap) }

// Procs reports how many processes are currently registered (done or not);
// zero after a Reset.
func (s *Simulation) Procs() int { return len(s.procs) }

// push schedules a tagged event at absolute time t (clamped to the
// present), assigning the next insertion sequence number.
func (s *Simulation) push(t Time, kind evKind, arg unsafe.Pointer) {
	if t < s.now {
		t = s.now
	}
	s.seq++
	s.heap.push(event{t: t, seq: s.seq, kind: kind, arg: arg})
}

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// is clamped to the present.
func (s *Simulation) At(t Time, fn func()) {
	s.push(t, evFunc, funcArg(fn))
}

// After schedules fn to run d from now. Negative d is clamped to zero.
func (s *Simulation) After(d Time, fn func()) {
	if d < 0 {
		d = 0
	}
	s.At(s.now+d, fn)
}

// getWaiter pops a waiter from the free list (or allocates the pool's first
// few) and initializes it for p. Steady-state signal traffic therefore
// allocates nothing.
func (s *Simulation) getWaiter(p *Proc) *waiter {
	if n := len(s.waiterPool); n > 0 {
		w := s.waiterPool[n-1]
		s.waiterPool = s.waiterPool[:n-1]
		*w = waiter{p: p}
		return w
	}
	return &waiter{p: p}
}

// putWaiter returns a waiter to the free list. Callers must ensure no
// calendar entry or wait list still references it (see the timer/queued
// flags on waiter).
func (s *Simulation) putWaiter(w *waiter) {
	*w = waiter{}
	s.waiterPool = append(s.waiterPool, w)
}

// DeadlockError reports that the calendar drained while processes were still
// blocked — every remaining process is waiting for a wakeup that can never
// arrive.
type DeadlockError struct {
	Time    Time
	Blocked []string // "name: reason" for each stuck process
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("des: deadlock at %v: %d blocked process(es): %s",
		e.Time, len(e.Blocked), strings.Join(e.Blocked, "; "))
}

// Run executes events until the calendar is empty. It returns a
// *DeadlockError if any spawned process has neither finished nor been
// rescheduled when the calendar drains, and nil otherwise.
func (s *Simulation) Run() error {
	for len(s.heap) > 0 {
		e := s.heap.pop()
		s.now = e.t
		s.events++
		if e.kind == evFunc { // fast path: skip the dispatch switch
			argFunc(e.arg)()
			continue
		}
		s.dispatch(&e)
	}
	var blocked []string
	for _, p := range s.procs {
		if !p.done {
			blocked = append(blocked, p.name+": "+p.blockReason)
		}
	}
	if len(blocked) > 0 {
		sort.Strings(blocked)
		return &DeadlockError{Time: s.now, Blocked: blocked}
	}
	return nil
}

// RunUntil executes events with time ≤ limit, leaving later events queued.
// It reports whether the calendar still holds events past the limit.
func (s *Simulation) RunUntil(limit Time) bool {
	for len(s.heap) > 0 && s.heap[0].t <= limit {
		e := s.heap.pop()
		s.now = e.t
		s.events++
		if e.kind == evFunc {
			argFunc(e.arg)()
			continue
		}
		s.dispatch(&e)
	}
	return len(s.heap) > 0
}

// dispatch performs a popped event's action. It runs in kernel context.
func (s *Simulation) dispatch(e *event) {
	switch e.kind {
	case evResume:
		s.transferTo((*Proc)(e.arg))
	case evFunc:
		argFunc(e.arg)()
	case evWake:
		w := (*waiter)(e.arg)
		p := w.p
		w.queued = false
		if !w.timer {
			s.putWaiter(w)
		}
		s.transferTo(p)
	case evBroadcast:
		// Resume the whole FIFO chain within this one calendar entry. The
		// wake order, and the ordering of any events the woken processes
		// schedule "now", are identical to the per-waiter events the old
		// kernel queued: chained waiters held consecutive sequence numbers,
		// so nothing could interleave between their wakes.
		for w := (*waiter)(e.arg); w != nil; {
			next := w.next // w may be recycled and reused during transferTo
			p := w.p
			w.queued = false
			if !w.timer {
				s.putWaiter(w)
			}
			s.transferTo(p)
			w = next
		}
	case evTimer:
		w := (*waiter)(e.arg)
		w.timer = false
		if w.p.timer == w {
			w.p.timer = nil
		}
		if w.out {
			// Tombstone: the signal won while this deadline was queued.
			// Reclaim the waiter unless a pending wake still references it.
			if !w.queued {
				s.putWaiter(w)
			}
			return
		}
		w.out = true
		w.timedOut = true
		w.sig.unlink(w)
		s.transferTo(w.p)
		// The waiter is reclaimed by WaitUntilResult once it reads timedOut.
	case evStart:
		p := (*Proc)(e.arg)
		if p.machine != nil {
			s.stepFSM(p)
			return
		}
		go func() {
			<-p.resume
			p.body(p)
			p.body = nil
			p.done = true
			s.yielded <- struct{}{}
		}()
		s.transferTo(p)
	}
}

// transferTo hands control from the kernel to p and waits for p to yield.
// Must only be called from kernel context (inside an event dispatch). For an
// FSM process this is a direct method call on the kernel's stack; for a
// goroutine process both directions use single-slot (capacity-1) channels:
// the handing-off side deposits its token without blocking and only the
// receiving side parks, so a context switch costs one blocking receive per
// side instead of the two full rendezvous an unbuffered pair would.
func (s *Simulation) transferTo(p *Proc) {
	if p.machine != nil {
		s.stepFSM(p)
		return
	}
	prev := s.curr
	s.curr = p
	p.resume <- struct{}{}
	<-s.yielded
	s.curr = prev
}
