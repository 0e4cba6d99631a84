package mpi

import (
	"s3asim/internal/causal"
	"s3asim/internal/des"
)

// RequestSet is a completion-ordered set of one rank's requests: the
// S3aSim master's outstanding score receives. A member that completes is
// pushed onto a min-heap keyed by its creation order, so waiting and
// collecting cost O(log k) per completion instead of a scan of every
// outstanding request after each wake.
//
// Take returns completed members in exactly the order a scan of the
// members, kept in insertion order, would visit them, and WaitAny records
// the same causal wait as Rank.WaitAny over that slice. That holds because
// members must be added in the order the owner created them (the usual
// add-as-you-post pattern); Add panics otherwise. The blocking waits are
// for goroutine processes (the masters).
type RequestSet struct {
	r     *Rank
	n     int        // members added and not yet taken
	last  uint64     // creation seq of the last member added
	ready []*Request // completed members, a min-heap on seq
}

// NewRequestSet returns an empty set of r's requests.
func NewRequestSet(r *Rank) *RequestSet { return &RequestSet{r: r} }

// Len reports how many members have been added and not yet taken,
// completed or not.
func (s *RequestSet) Len() int { return s.n }

// Add makes q a member. q must belong to the set's rank, be newer than
// every member added before it, not be in a set already, and not be freed;
// anything else panics with *ProtocolError. A member cannot be freed until
// Take has returned it.
func (s *RequestSet) Add(q *Request) {
	q.live("RequestSet.Add")
	switch {
	case q.owner != s.r:
		protoPanic("RequestSet.Add", s.r.rank, "request owned by another rank")
	case q.set != nil:
		protoPanic("RequestSet.Add", s.r.rank, "request already in a set")
	case q.seq <= s.last:
		protoPanic("RequestSet.Add", s.r.rank, "request older than the last member added")
	}
	q.set = s
	s.n++
	s.last = q.seq
	if q.isDone() {
		s.push(q)
	}
}

// Take removes and returns the earliest-added completed member, or nil if
// none has completed.
func (s *RequestSet) Take() *Request {
	h := s.ready
	n := len(h)
	if n == 0 {
		return nil
	}
	q := h[0]
	last := h[n-1]
	h[n-1] = nil
	h = h[:n-1]
	s.ready = h
	if n--; n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if c+1 < n && h[c+1].seq < h[c].seq {
				c++
			}
			if last.seq < h[c].seq {
				break
			}
			h[i] = h[c]
			i = c
		}
		h[i] = last
	}
	q.set = nil
	s.n--
	return q
}

// push files a member that just completed.
func (s *RequestSet) push(q *Request) {
	s.ready = append(s.ready, q)
	h := s.ready
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent].seq < q.seq {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = q
}

// WaitAny blocks until at least one member has completed (MPI_Waitany
// without consuming it; Take collects it). Waiting on an empty set can
// never complete; it is a contract violation and panics with
// *ProtocolError.
func (s *RequestSet) WaitAny() {
	r := s.r
	if s.n == 0 {
		protoPanic("RequestSet.WaitAny", r.rank, "empty request set")
	}
	start := r.Now()
	for len(s.ready) == 0 {
		r.activity.Wait(r.proc)
	}
	if c := r.w.causal; c != nil {
		r.recordWait(c, start, s.ready[0])
	}
}

// WaitAnyUntil is WaitAny with an absolute virtual-time deadline: it
// reports true when a member has completed, false if the deadline passed
// with none complete. An empty set simply waits out the deadline.
func (s *RequestSet) WaitAnyUntil(deadline des.Time) bool {
	r := s.r
	c := r.w.causal
	start := r.Now()
	for len(s.ready) == 0 {
		if r.Now() >= deadline || !r.activity.WaitUntil(r.proc, deadline) {
			if c != nil && r.Now() > start {
				// Timed-out waits are the resilient protocol's detection arm.
				c.WaitPlain(r.proc.Name(), start, r.Now(), causal.CatRecovery)
			}
			return false
		}
	}
	if c != nil {
		r.recordWait(c, start, s.ready[0])
	}
	return true
}
