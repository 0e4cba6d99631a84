package des

import "unsafe"

// Resource is a FCFS service station with a fixed number of identical
// servers (capacity). It models contended hardware: a NIC, a disk, a file
// server's request processor. Service is non-preemptive: a request entering
// the station occupies the earliest-free server for its full service time.
//
// Two interfaces are provided:
//
//   - Submit: callback style, usable without a Proc. The completion callback
//     fires when service finishes. SubmitTask is its allocation-free form
//     for staged records; it is the fast path used by the network and
//     storage layers (no goroutine, no closure per message or request).
//   - Use: blocking style for code running inside a Proc.
//
// Because service times are known on submission and the discipline is FCFS,
// completion times can be computed immediately and the queue never needs to
// be materialized; per-slot free times are sufficient.
type Resource struct {
	sim       *Simulation
	name      string
	useReason string // "using <name>", precomputed so Use never allocates
	freeAt    []Time // per-slot earliest availability

	// Utilization accounting.
	busy     Time   // total service time delivered
	waited   Time   // total queueing delay imposed
	requests uint64 // total requests served (or in service)
	maxQueue Time   // largest single queueing delay observed
}

// NewResource creates a FCFS station with the given capacity (≥1).
func (s *Simulation) NewResource(name string, capacity int) *Resource {
	if capacity < 1 {
		panic("des: resource capacity must be >= 1")
	}
	return &Resource{
		sim:       s,
		name:      name,
		useReason: "using " + name,
		freeAt:    make([]Time, capacity),
	}
}

// Name returns the resource's diagnostic name.
func (r *Resource) Name() string { return r.name }

// Capacity returns the number of parallel servers.
func (r *Resource) Capacity() int { return len(r.freeAt) }

// reserve books the earliest-free slot for a service of length d and
// returns the completion time.
func (r *Resource) reserve(d Time) Time {
	if d < 0 {
		d = 0
	}
	now := r.sim.now
	best := 0
	for i := 1; i < len(r.freeAt); i++ {
		if r.freeAt[i] < r.freeAt[best] {
			best = i
		}
	}
	start := r.freeAt[best]
	if start < now {
		start = now
	}
	wait := start - now
	done := start + d
	r.freeAt[best] = done
	r.busy += d
	r.waited += wait
	if wait > r.maxQueue {
		r.maxQueue = wait
	}
	r.requests++
	return done
}

// Submit enqueues a request with service time d; fn (if non-nil) runs when
// service completes. Returns the completion time.
func (r *Resource) Submit(d Time, fn func()) Time {
	done := r.reserve(d)
	if fn != nil {
		r.sim.At(done, fn)
	}
	return done
}

// SubmitTask enqueues a request with service time d and fires task's
// record when service completes — Submit with a tagged task event instead
// of a closure. Returns the completion time.
func (r *Resource) SubmitTask(d Time, task *Task) Time {
	done := r.reserve(d)
	r.sim.AtTask(done, task)
	return done
}

// Use blocks p through queueing plus service time d. The wakeup is a tagged
// resume event: no closure, no allocation.
func (r *Resource) Use(p *Proc, d Time) {
	s := r.sim
	done := r.reserve(d)
	s.push(done, evResume, unsafe.Pointer(p))
	p.park(r.useReason)
}

// FreeAt reports when the resource next has a free slot (≥ now means busy).
func (r *Resource) FreeAt() Time {
	best := r.freeAt[0]
	for _, t := range r.freeAt[1:] {
		if t < best {
			best = t
		}
	}
	return best
}

// Stats summarizes a resource's lifetime utilization.
type ResourceStats struct {
	Name         string
	Requests     uint64
	BusyTime     Time // total service delivered
	QueueWait    Time // total queueing delay
	MaxQueueWait Time
}

// Stats returns a snapshot of utilization counters.
func (r *Resource) Stats() ResourceStats {
	return ResourceStats{
		Name:         r.name,
		Requests:     r.requests,
		BusyTime:     r.busy,
		QueueWait:    r.waited,
		MaxQueueWait: r.maxQueue,
	}
}
