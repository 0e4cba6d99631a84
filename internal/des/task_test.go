package des

import (
	"strings"
	"testing"
)

// relay is a staged record cycling through every task entry point: a
// timed hop (AfterTask), a FCFS service (SubmitTask), and an immediate
// re-fire (AtTask at the present).
type relay struct {
	task  Task
	sim   *Simulation
	res   *Resource
	stage int
}

func (r *relay) Fire() {
	switch r.stage {
	case 0:
		r.stage = 1
		r.sim.AfterTask(Microsecond, &r.task)
	case 1:
		r.stage = 2
		r.res.SubmitTask(Microsecond, &r.task)
	default:
		r.stage = 0
		r.sim.AtTask(r.sim.Now(), &r.task)
	}
}

// TestTaskEventSteadyStateAllocs pins the staged-record path at zero
// allocations: scheduling a bound Task is a tagged event, never a closure.
func TestTaskEventSteadyStateAllocs(t *testing.T) {
	s := New()
	res := s.NewResource("nic", 1)
	for i := 0; i < 4; i++ {
		r := &relay{sim: s, res: res}
		r.task.Bind(r)
		s.AtTask(0, &r.task)
	}
	if allocs := kernelSteadyStateAllocs(t, s, 8*Microsecond); allocs != 0 {
		t.Fatalf("steady-state task events allocated %.1f/run, want 0", allocs)
	}
}

// logTask is a one-shot record appending its name to a shared log, and
// optionally scheduling a closure at the present when it fires.
type logTask struct {
	task  Task
	name  string
	log   *[]string
	chain func()
}

func (l *logTask) Fire() {
	*l.log = append(*l.log, l.name)
	if l.chain != nil {
		l.chain()
	}
}

// TestTaskAndFuncEventsFireInInsertionOrder pins the determinism contract
// across event kinds: at equal times, task events and evFunc closures fire
// in insertion order through every entry point, and each counts as exactly
// one executed event.
func TestTaskAndFuncEventsFireInInsertionOrder(t *testing.T) {
	s := New()
	res := s.NewResource("wide", 8)
	var log []string
	fn := func(name string) func() {
		return func() { log = append(log, name) }
	}
	task := func(name string, chain func()) *Task {
		l := &logTask{name: name, log: &log, chain: chain}
		l.task.Bind(l)
		return &l.task
	}
	const at = 5 * Microsecond
	s.At(at, fn("f0"))
	// t1 schedules f6 "now" when it fires: it must queue behind everything
	// already scheduled for this instant.
	s.AtTask(at, task("t1", func() { s.At(s.Now(), fn("f6")) }))
	res.Submit(at, fn("f2"))
	res.SubmitTask(at, task("t3", nil))
	s.After(at, fn("f4"))
	s.AfterTask(at, task("t5", nil))
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(log, " "), "f0 t1 f2 t3 f4 t5 f6"; got != want {
		t.Fatalf("firing order = %q, want %q", got, want)
	}
	if s.Events() != 7 {
		t.Fatalf("Events() = %d, want 7 (one per scheduled callback or task)", s.Events())
	}
	if s.Now() != at {
		t.Fatalf("clock = %v, want %v", s.Now(), at)
	}
}

// TestUnboundTaskPanics pins the guard against scheduling a Task whose
// record was never bound.
func TestUnboundTaskPanics(t *testing.T) {
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "unbound Task") {
			t.Fatalf("recover() = %v, want an unbound-Task panic", r)
		}
	}()
	var task Task
	New().AtTask(0, &task)
}
