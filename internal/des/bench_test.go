package des

import "testing"

// BenchmarkEventHeap measures raw push/pop cost on the calendar heap at a
// paper-scale working set, guarding the allocation behavior: with the
// preallocated capacity of New, steady-state push/pop must not allocate.
func BenchmarkEventHeap(b *testing.B) {
	const depth = 2048 // pending events at peak in a paper-scale run
	h := make(eventHeap, 0, initialHeapCap)
	// Deterministic pseudo-random times exercise real sift paths.
	x := uint64(2007029)
	next := func() Time {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return Time(x % (1 << 30))
	}
	for i := 0; i < depth; i++ {
		h.push(event{t: next(), seq: uint64(i)})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.push(event{t: next(), seq: uint64(depth + i)})
		h.pop()
	}
}

// TestEventHeapSteadyStateAllocs pins the property BenchmarkEventHeap
// reports: once the working set fits the preallocated capacity, push/pop
// cycles allocate nothing.
func TestEventHeapSteadyStateAllocs(t *testing.T) {
	h := make(eventHeap, 0, initialHeapCap)
	for i := 0; i < 1024; i++ {
		h.push(event{t: Time(i % 97), seq: uint64(i)})
	}
	seq := uint64(1024)
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			h.push(event{t: Time(seq % 97), seq: seq})
			seq++
			h.pop()
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state push/pop allocated %.1f times per run, want 0", allocs)
	}
}

// BenchmarkEventThroughput measures raw calendar throughput: schedule-and-
// fire of chained events.
func BenchmarkEventThroughput(b *testing.B) {
	s := New()
	n := 0
	var chain func()
	chain = func() {
		n++
		if n < b.N {
			s.After(1, chain)
		}
	}
	s.After(1, chain)
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkProcContextSwitch measures the goroutine handoff cost of a
// process sleeping repeatedly.
func BenchmarkProcContextSwitch(b *testing.B) {
	s := New()
	s.Spawn("p", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkProcSwitch measures a full kernel↔process round trip with two
// processes alternating: each iteration is two tagged resume events and two
// parker handoffs, the tightest loop the simulator has.
func BenchmarkProcSwitch(b *testing.B) {
	s := New()
	iters := b.N/2 + 1
	for i := 0; i < 2; i++ {
		s.Spawn("p", func(p *Proc) {
			for j := 0; j < iters; j++ {
				p.Sleep(1)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSleepWake measures the Signal wait/wake cycle: one process parks
// on a condition, another signals it and sleeps. Each iteration exercises
// waiter enqueue (pooled), the tagged evWake event, and two process
// switches.
func BenchmarkSleepWake(b *testing.B) {
	s := New()
	cond := s.NewSignal()
	s.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			cond.Wait(p)
		}
	})
	s.Spawn("waker", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			cond.Signal()
			p.Sleep(1)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkTimedWaitRearm measures the resilient protocol's steady state: a
// timed wait that is always won by the signal and immediately re-armed at
// the same deadline (the WaitAnyUntil predicate loop). This is the path the
// timer tombstone/revival fix targets — the pre-rewrite kernel left every
// cancelled deadline queued, so the calendar grew by one entry per
// iteration and each push paid a growing sift.
func BenchmarkTimedWaitRearm(b *testing.B) {
	s := New()
	cond := s.NewSignal()
	deadline := Time(b.N+1) * Microsecond * 2
	s.Spawn("waiter", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			if !cond.WaitUntil(p, deadline) {
				b.Error("timed out")
				return
			}
		}
	})
	s.Spawn("waker", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			cond.Signal()
			p.Sleep(Microsecond)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkTimedWaitRearmFSM is BenchmarkTimedWaitRearm with the waiter as
// a state machine: the arm half parks, the resuming Step reads the outcome
// through WaitUntilResult, and the next arm revives the tombstoned timer.
func BenchmarkTimedWaitRearmFSM(b *testing.B) {
	s := New()
	cond := s.NewSignal()
	deadline := Time(b.N+1) * Microsecond * 2
	s.SpawnFSM("waiter", &timedWaiterFSM{cond: cond, next: fixedDeadline(deadline), n: b.N})
	s.Spawn("waker", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			cond.Signal()
			p.Sleep(Microsecond)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkBroadcastFanout measures waking a full wait list: 32 processes
// park on one condition, a caster broadcasts, everyone loops. Each
// broadcast is one batched calendar event (the pre-rewrite kernel queued
// one closure event per waiter).
func BenchmarkBroadcastFanout(b *testing.B) {
	const procs = 32
	s := New()
	cond := s.NewSignal()
	rounds := b.N/procs + 1
	for i := 0; i < procs; i++ {
		s.Spawn("w", func(p *Proc) {
			for j := 0; j < rounds; j++ {
				cond.Wait(p)
			}
		})
	}
	s.Spawn("caster", func(p *Proc) {
		for j := 0; j < rounds; j++ {
			p.Sleep(Microsecond) // let every waiter re-park
			cond.Broadcast()
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkResourceSubmit measures the callback fast path under queueing.
func BenchmarkResourceSubmit(b *testing.B) {
	s := New()
	r := s.NewResource("r", 1)
	for i := 0; i < b.N; i++ {
		r.Submit(1, nil)
	}
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkGateFanIn measures many processes joining one gate.
func BenchmarkGateFanIn(b *testing.B) {
	s := New()
	const procs = 64
	g := s.NewGate(procs)
	iters := b.N/procs + 1
	for i := 0; i < procs; i++ {
		s.Spawn("w", func(p *Proc) {
			for j := 0; j < iters; j++ {
				p.Sleep(1)
			}
			g.Done()
		})
	}
	s.Spawn("j", func(p *Proc) { g.Wait(p) })
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}
