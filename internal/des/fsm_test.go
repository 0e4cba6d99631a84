package des

import (
	"fmt"
	"strings"
	"testing"
)

// sleeperFSM parks on a fixed-period Sleep forever: the idle-rank shape the
// scale benchmarks measure.
type sleeperFSM struct {
	period Time
	count  int
}

func (m *sleeperFSM) Step(p *Proc) {
	for {
		m.count++
		p.Sleep(m.period)
		if p.Yielded() {
			return
		}
	}
}

// countdownFSM sleeps n times, then finishes.
type countdownFSM struct {
	n      int
	period Time
	done   *int
}

func (m *countdownFSM) Step(p *Proc) {
	for m.n > 0 {
		m.n--
		p.Sleep(m.period)
		if p.Yielded() {
			return
		}
	}
	*m.done++
}

// signalWaiterFSM mirrors the goroutine waiter of TestBroadcastBatchOrdering:
// wait once, log the wake, schedule a post event.
type signalWaiterFSM struct {
	cond *Signal
	log  *[]string
	name string
	pc   int
}

func (m *signalWaiterFSM) Step(p *Proc) {
	switch m.pc {
	case 0:
		m.pc = 1
		m.cond.Wait(p)
		if p.Yielded() {
			return
		}
		fallthrough
	case 1:
		*m.log = append(*m.log, "wake-"+m.name)
		p.Sim().After(0, func() { *m.log = append(*m.log, "post-"+m.name) })
	}
}

// rewaitFSM waits, counts its wake, and immediately re-enters the wait list —
// the mid-chain re-wait shape of TestBroadcastRewaitNotRewoken.
type rewaitFSM struct {
	cond  *Signal
	wakes map[string]int
	name  string
	pc    int
}

func (m *rewaitFSM) Step(p *Proc) {
	switch m.pc {
	case 0:
		m.pc = 1
		m.cond.Wait(p)
	case 1:
		m.wakes[m.name]++
		m.pc = 2
		m.cond.Wait(p) // re-enter the wait list mid-chain
	case 2:
		m.wakes[m.name] += 100
	}
}

// resourceClientFSM issues n blocking Resource.Use calls, then retires one
// gate unit — the FSM twin of the goroutine client in the mixed-mode test.
type resourceClientFSM struct {
	res *Resource
	d   Time
	n   int
	g   *Gate
}

func (m *resourceClientFSM) Step(p *Proc) {
	for m.n > 0 {
		m.n--
		m.res.Use(p, m.d)
		if p.Yielded() {
			return
		}
	}
	m.g.Done()
}

// gateJoinFSM runs Gate.Wait's predicate loop in resumable form.
type gateJoinFSM struct {
	g      *Gate
	doneAt *Time
}

func (m *gateJoinFSM) Step(p *Proc) {
	for m.g.Pending() > 0 {
		m.g.Park(p)
		if p.Yielded() {
			return
		}
	}
	*m.doneAt = p.Now()
}

// TestFSMCompletes: an FSM process runs to completion across several parks,
// and the simulation accounts for it like any other process.
func TestFSMCompletes(t *testing.T) {
	s := New()
	done := 0
	p := s.SpawnFSM("c", &countdownFSM{n: 3, period: Microsecond, done: &done})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if done != 1 || !p.Done() {
		t.Fatalf("done=%d p.Done()=%v, want the machine to finish exactly once", done, p.Done())
	}
	if s.Now() != 3*Microsecond {
		t.Fatalf("end time %v, want 3µs (three sleeps)", s.Now())
	}
}

// TestFSMDeadlockDiagnosed: a parked FSM process that can never be woken is
// reported in DeadlockError with its block reason, like a stuck goroutine.
func TestFSMDeadlockDiagnosed(t *testing.T) {
	s := New()
	cond := s.NewSignal()
	s.SpawnFSM("stuck", &signalWaiterFSM{cond: cond, log: new([]string), name: "stuck"})
	err := s.Run()
	if err == nil {
		t.Fatal("expected a deadlock")
	}
	if !strings.Contains(err.Error(), "stuck: waiting on signal") {
		t.Fatalf("deadlock diagnostics lost the FSM block reason: %v", err)
	}
}

// TestMixedKindsEventEquivalence pins the tentpole's core determinism claim:
// the same program produces the same schedule — end time, event count, join
// time — whether its processes are goroutines or state machines, including
// when the two kinds contend for one Resource and one Gate in the same run.
func TestMixedKindsEventEquivalence(t *testing.T) {
	run := func(mixed bool) (Time, uint64, Time) {
		s := New()
		res := s.NewResource("disk", 1)
		g := s.NewGate(3)
		var joinAt Time
		for i := 0; i < 3; i++ {
			d := Time(i+1) * Microsecond
			if mixed && i%2 == 0 {
				s.SpawnFSM("client", &resourceClientFSM{res: res, d: d, n: 5, g: g})
			} else {
				s.Spawn("client", func(p *Proc) {
					for k := 0; k < 5; k++ {
						res.Use(p, d)
					}
					g.Done()
				})
			}
		}
		if mixed {
			s.SpawnFSM("join", &gateJoinFSM{g: g, doneAt: &joinAt})
		} else {
			s.Spawn("join", func(p *Proc) { g.Wait(p); joinAt = p.Now() })
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return s.Now(), s.Events(), joinAt
	}
	tg, eg, jg := run(false)
	tf, ef, jf := run(true)
	if tg != tf || eg != ef || jg != jf {
		t.Fatalf("mixed-kind run diverged from all-goroutine run:\n goroutine (end=%v events=%d join=%v)\n mixed     (end=%v events=%d join=%v)",
			tg, eg, jg, tf, ef, jf)
	}
}

// TestBroadcastBatchOrderingMixedKinds extends the PR 5 broadcast-determinism
// pin across process kinds: goroutine and FSM waiters interleaved on one
// signal wake in FIFO order, and everything any of them schedules "now" runs
// after ALL of the chain's wakes.
func TestBroadcastBatchOrderingMixedKinds(t *testing.T) {
	s := New()
	cond := s.NewSignal()
	var order []string
	spawnGoroutine := func(name string) {
		s.Spawn(name, func(p *Proc) {
			cond.Wait(p)
			order = append(order, "wake-"+name)
			s.After(0, func() { order = append(order, "post-"+name) })
		})
	}
	spawnMachine := func(name string) {
		s.SpawnFSM(name, &signalWaiterFSM{cond: cond, log: &order, name: name})
	}
	spawnGoroutine("a")
	spawnMachine("b")
	spawnGoroutine("c")
	spawnMachine("d")
	s.Spawn("caster", func(p *Proc) {
		p.Sleep(Millisecond)
		order = append(order, "cast")
		cond.Broadcast()
		order = append(order, "cast-returned")
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprint([]string{
		"cast", "cast-returned",
		"wake-a", "wake-b", "wake-c", "wake-d",
		"post-a", "post-b", "post-c", "post-d",
	})
	if got := fmt.Sprint(order); got != want {
		t.Fatalf("mixed-kind broadcast interleaving changed:\n got %s\nwant %s", got, want)
	}
}

// TestBroadcastRewaitNotRewokenMixedKinds: an FSM process that re-parks on
// the signal while the broadcast chain is still resuming must not be re-woken
// by the same broadcast, matching the goroutine rule.
func TestBroadcastRewaitNotRewokenMixedKinds(t *testing.T) {
	s := New()
	cond := s.NewSignal()
	wakes := make(map[string]int)
	s.Spawn("a", func(p *Proc) {
		cond.Wait(p)
		wakes["a"]++
		cond.Wait(p)
		wakes["a"] += 100
	})
	s.SpawnFSM("b", &rewaitFSM{cond: cond, wakes: wakes, name: "b"})
	s.Spawn("caster", func(p *Proc) {
		p.Sleep(1)
		cond.Broadcast()
	})
	if err := s.Run(); err == nil {
		t.Fatal("expected a deadlock: re-waiters must not be re-woken by the same broadcast")
	}
	if wakes["a"] != 1 || wakes["b"] != 1 {
		t.Fatalf("wake counts = %v, want exactly one wake each", wakes)
	}
	if cond.Waiters() != 2 {
		t.Fatalf("Waiters() = %d, want 2 re-entered waiters", cond.Waiters())
	}
}

// TestFSMParkResumeSteadyStateAllocs pins the scale tentpole's allocation
// budget: parking and resuming an idle FSM process costs nothing once the
// kernel pools are warm.
func TestFSMParkResumeSteadyStateAllocs(t *testing.T) {
	s := New()
	for i := 0; i < 4; i++ {
		s.SpawnFSM("p", &sleeperFSM{period: Microsecond})
	}
	if allocs := kernelSteadyStateAllocs(t, s, 8*Microsecond); allocs != 0 {
		t.Fatalf("steady-state FSM park/resume allocated %.1f/run, want 0", allocs)
	}
}

// doubleParkFSM blocks twice in one step without checking Yielded.
type doubleParkFSM struct{}

func (m *doubleParkFSM) Step(p *Proc) {
	p.Sleep(Microsecond)
	p.Sleep(Microsecond) // missing Yielded check: must panic
}

// mustPanic runs the simulation and requires a panic mentioning want.
func mustPanic(t *testing.T, s *Simulation, want string) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected a panic mentioning %q", want)
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, want) {
			t.Fatalf("panic %q does not mention %q", msg, want)
		}
	}()
	_ = s.Run()
}

// TestFSMDoubleParkPanics: arming a second park in one step is a programming
// error the kernel catches immediately instead of losing a wakeup.
func TestFSMDoubleParkPanics(t *testing.T) {
	s := New()
	s.SpawnFSM("bad", &doubleParkFSM{})
	mustPanic(t, s, "blocked twice in one step")
}

// timedWaiterFSM runs n timed waits on cond, each with the deadline next
// returns (forever when n < 0), logging every outcome — the FSM form of the
// goroutine loop
//
//	for i := 0; i < n; i++ {
//		log(cond.WaitUntil(p, next(p)))
//	}
type timedWaiterFSM struct {
	cond   *Signal
	next   func(p *Proc) Time
	n      int
	parked bool
	log    *[]string
}

func (m *timedWaiterFSM) Step(p *Proc) {
	for {
		if m.parked {
			m.parked = false
			m.record(p, p.WaitUntilResult())
		}
		if m.n == 0 {
			return
		}
		m.n--
		ok := m.cond.WaitUntil(p, m.next(p))
		if p.Yielded() {
			m.parked = true
			return
		}
		m.record(p, ok)
	}
}

func (m *timedWaiterFSM) record(p *Proc, ok bool) {
	if m.log != nil {
		*m.log = append(*m.log, fmt.Sprintf("%d:%v", p.Now(), ok))
	}
}

func fixedDeadline(d Time) func(*Proc) Time { return func(*Proc) Time { return d } }

// TestFSMWaitUntilTimeout: with no signal, an FSM timed wait resumes at its
// deadline and reports a timeout; a deadline already past returns false
// without parking.
func TestFSMWaitUntilTimeout(t *testing.T) {
	s := New()
	var log []string
	s.SpawnFSM("w", &timedWaiterFSM{cond: s.NewSignal(), next: fixedDeadline(5 * Microsecond), n: 2, log: &log})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(log, " "); got != "5000:false 5000:false" {
		t.Fatalf("outcomes %q, want a timeout at 5µs then an immediate one", got)
	}
	if s.PendingEvents() != 0 {
		t.Fatalf("%d events left queued", s.PendingEvents())
	}
}

// TestFSMWaitUntilSignalWins: a signal before the deadline wakes the FSM
// waiter with true, and the tombstoned deadline is reclaimed without waking
// it again.
func TestFSMWaitUntilSignalWins(t *testing.T) {
	s := New()
	cond := s.NewSignal()
	var log []string
	s.SpawnFSM("w", &timedWaiterFSM{cond: cond, next: fixedDeadline(Millisecond), n: 1, log: &log})
	s.Spawn("waker", func(p *Proc) {
		p.Sleep(2 * Microsecond)
		cond.Signal()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(log, " "); got != "2000:true" {
		t.Fatalf("outcomes %q, want a signal wake at 2µs", got)
	}
	if s.Now() != Millisecond {
		t.Fatalf("run ended at %v; the tombstoned deadline should still pop at 1ms", s.Now())
	}
}

// TestFSMWaitUntilCalendarDoesNotLeak is the FSM twin of
// TestWaitUntilCalendarDoesNotLeak: re-arming at the same deadline after
// every signal win revives the tombstoned timer instead of queueing another.
func TestFSMWaitUntilCalendarDoesNotLeak(t *testing.T) {
	const waits = 10000
	s := New()
	cond := s.NewSignal()
	maxPending := 0
	var log []string
	s.SpawnFSM("waiter", &timedWaiterFSM{cond: cond, n: waits, log: &log,
		next: func(p *Proc) Time {
			if n := s.PendingEvents(); n > maxPending {
				maxPending = n
			}
			return Hour
		}})
	s.Spawn("waker", func(p *Proc) {
		for i := 0; i < waits; i++ {
			cond.Signal()
			p.Sleep(Microsecond)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(log, " "); strings.Contains(got, "false") {
		t.Fatal("a wait timed out; the signal should always win")
	}
	if maxPending > 8 {
		t.Fatalf("calendar grew to %d pending entries across %d signal-won timed waits, want <= 8",
			maxPending, waits)
	}
}

// TestFSMTimedWaitSteadyStateAllocs pins the FSM timed re-arm path (timer
// revival plus the resume half) at zero allocations.
func TestFSMTimedWaitSteadyStateAllocs(t *testing.T) {
	s := New()
	cond := s.NewSignal()
	s.SpawnFSM("waiter", &timedWaiterFSM{cond: cond, next: fixedDeadline(Hour), n: -1})
	s.Spawn("waker", func(p *Proc) {
		for {
			cond.Signal()
			p.Sleep(Microsecond)
		}
	})
	if allocs := kernelSteadyStateAllocs(t, s, 8*Microsecond); allocs != 0 {
		t.Fatalf("steady-state FSM timed waits allocated %.1f/run, want 0", allocs)
	}
}

// TestTimedWaitEnginesEquivalent: a goroutine body and an FSM body running
// the same timed waits — a moving deadline that the signal wins about half
// the time — see the same outcomes at the same instants and dispatch the
// same number of calendar events.
func TestTimedWaitEnginesEquivalent(t *testing.T) {
	const waits = 40
	next := func(p *Proc) Time { return p.Now() + 2*Microsecond }
	run := func(fsm bool) ([]string, uint64) {
		s := New()
		cond := s.NewSignal()
		var log []string
		if fsm {
			s.SpawnFSM("w", &timedWaiterFSM{cond: cond, next: next, n: waits, log: &log})
		} else {
			s.Spawn("w", func(p *Proc) {
				for i := 0; i < waits; i++ {
					ok := cond.WaitUntil(p, next(p))
					log = append(log, fmt.Sprintf("%d:%v", p.Now(), ok))
				}
			})
		}
		s.Spawn("waker", func(p *Proc) {
			for i := 0; i < waits; i++ {
				p.Sleep(3 * Microsecond)
				cond.Signal()
			}
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return log, s.Events()
	}
	glog, gev := run(false)
	flog, fev := run(true)
	if g, f := strings.Join(glog, " "), strings.Join(flog, " "); g != f {
		t.Fatalf("outcomes diverged:\n goroutine %s\n fsm       %s", g, f)
	}
	if gev != fev {
		t.Fatalf("calendar events diverged: goroutine %d, fsm %d", gev, fev)
	}
	if !strings.Contains(strings.Join(glog, " "), "true") || !strings.Contains(strings.Join(glog, " "), "false") {
		t.Fatalf("outcomes %v should mix signal wins and timeouts", glog)
	}
}

type gateWaitFSM struct{ g *Gate }

func (m *gateWaitFSM) Step(p *Proc) { m.g.Wait(p) }

// TestFSMGateWaitPanics: the hidden predicate loop in Gate.Wait is rejected
// for FSM processes, which must use the Park/Pending re-check pattern.
func TestFSMGateWaitPanics(t *testing.T) {
	s := New()
	s.SpawnFSM("bad", &gateWaitFSM{g: s.NewGate(1)})
	mustPanic(t, s, "Gate.Wait is not supported for FSM processes")
}

// TestFSMResetReuse: finished FSM processes are recycled by Reset and can be
// reused by either spawn form; a goroutine respawn lazily creates the parker
// channel an FSM process never needed.
func TestFSMResetReuse(t *testing.T) {
	s := New()
	done := 0
	s.SpawnFSM("c", &countdownFSM{n: 2, period: Microsecond, done: &done})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	s.Reset()
	if len(s.procPool) == 0 {
		t.Fatal("Reset recycled no FSM processes")
	}
	ranGoroutine := false
	s.Spawn("g", func(p *Proc) { p.Sleep(Microsecond); ranGoroutine = true })
	s.SpawnFSM("f", &countdownFSM{n: 1, period: Microsecond, done: &done})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !ranGoroutine || done != 2 {
		t.Fatalf("reuse run incomplete: goroutine ran=%v, machines finished=%d (want 2)",
			ranGoroutine, done)
	}
}
