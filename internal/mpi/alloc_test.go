package mpi

import (
	"testing"

	"s3asim/internal/des"
)

// TestIsendIrecvAllocs pins the message path's allocation budget: an Isend
// is one allocation (a transfer record holding the message, the request and
// the stage state; every network stage is a task event on it, not a
// closure), and an Irecv is one allocation (the request, which doubles as
// the posted-receive entry), whether it matches a queued message or posts.
// The calls are measured on their own, and then whole send/receive cycles
// are, so an allocation in any later network stage counts too.
func TestIsendIrecvAllocs(t *testing.T) {
	sim := des.New()
	w := NewWorld(sim, 2, Myrinet2000())
	var sendAllocs, matchAllocs, postAllocs float64
	w.Spawn(0, "sender", func(r *Rank) {
		sendAllocs = testing.AllocsPerRun(100, func() { r.Isend(1, 0, 64, nil) })
		r.Isend(1, 0, 1<<20, nil) // one rendezvous send, off the measurement
	})
	w.Spawn(1, "receiver", func(r *Rank) {
		r.Compute(10 * des.Millisecond) // every eager message has arrived
		if got := len(r.inbox); got != 102 {
			t.Errorf("inbox holds %d messages, want 102", got)
		}
		matchAllocs = testing.AllocsPerRun(100, func() { r.Irecv(0, 0) })
		r.Recv(0, 0) // the rendezvous message
		// Grow the posted list first so append growth stays off the count.
		var qs []*Request
		for i := 0; i < 256; i++ {
			qs = append(qs, r.Irecv(0, 1))
		}
		for _, q := range qs {
			r.Cancel(q)
		}
		postAllocs = testing.AllocsPerRun(100, func() { r.Irecv(0, 2) })
		if got := len(r.posted); got != 101 {
			t.Errorf("posted receives = %d, want 101", got)
		}
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if sendAllocs > 1 {
		t.Errorf("Isend allocated %.1f/op, want at most 1", sendAllocs)
	}
	if matchAllocs > 1 {
		t.Errorf("matching Irecv allocated %.1f/op, want at most 1", matchAllocs)
	}
	if postAllocs > 1 {
		t.Errorf("posting Irecv allocated %.1f/op, want at most 1", postAllocs)
	}
}

// One cycle: an eager and a rendezvous send, each received through a
// posted receive and waited on, so every branch of the transfer stages
// runs. Budget: the two Isends and the two Irecvs, nothing else.
func TestIsendIrecvAllocsWholeCycle(t *testing.T) {
	sim := des.New()
	w := NewWorld(sim, 2, Myrinet2000())
	kick := sim.NewSignal()
	w.Spawn(0, "sender", func(r *Rank) {
		qs := make([]*Request, 2)
		for {
			kick.Wait(r.Proc())
			qs[0] = r.Isend(1, 0, 64, nil)
			qs[1] = r.Isend(1, 0, 1<<17, nil)
			r.WaitAll(qs...)
		}
	})
	w.Spawn(1, "receiver", func(r *Rank) {
		for {
			r.Recv(0, 0)
		}
	})
	const forever = 1000 * des.Hour
	cycle := func() {
		kick.Signal()
		sim.RunUntil(forever)
	}
	sim.RunUntil(forever) // both ranks parked
	for i := 0; i < 8; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs > 4 {
		t.Fatalf("send/receive cycle allocated %.1f/run, want at most 4 (2 Isend + 2 Irecv)", allocs)
	}
	if got := w.MessagesSent(); got != 2*109 {
		t.Fatalf("messages sent = %d, want %d", got, 2*109)
	}
}
