package mpi

import (
	"testing"
	"unsafe"

	"s3asim/internal/des"
)

// TestIsendIrecvAllocs pins the message path's allocation budget in steady
// state: with the world's pools warm, an Isend (a pooled transfer record
// holding the message, the request and the stage state; every network stage
// is a task event on it, not a closure) plus its Free allocates nothing, a
// matching Irecv plus its Free allocates nothing, and a posting Irecv
// allocates nothing (a pooled request, queued through its intrusive link).
// The calls are measured on their own, and then whole send/receive cycles
// are, so an allocation in any later network stage counts too.
func TestIsendIrecvAllocs(t *testing.T) {
	sim := des.New()
	w := NewWorld(sim, 2, Myrinet2000())
	var sendAllocs, matchAllocs, postAllocs float64
	w.Spawn(0, "sender", func(r *Rank) {
		// Warm-up traffic the receiver frees: it fills the transfer pool.
		for i := 0; i < 101; i++ {
			r.Free(r.Isend(1, 0, 64, nil))
		}
		r.Compute(10 * des.Millisecond)
		sendAllocs = testing.AllocsPerRun(100, func() { r.Free(r.Isend(1, 0, 64, nil)) })
		r.Isend(1, 0, 1<<20, nil) // one rendezvous send, off the measurement
	})
	w.Spawn(1, "receiver", func(r *Rank) {
		r.Compute(5 * des.Millisecond) // every warm-up message has arrived
		for i := 0; i < 101; i++ {
			r.Free(r.Irecv(0, 0))
		}
		r.Compute(20 * des.Millisecond) // the measured and rendezvous messages arrived
		if got := len(r.inbox); got != 102 {
			t.Errorf("inbox holds %d messages, want 102", got)
		}
		matchAllocs = testing.AllocsPerRun(100, func() { r.Free(r.Irecv(0, 0)) })
		r.Recv(0, 0) // the rendezvous message
		// Grow the request pool and the posted queue first so neither
		// counts.
		var qs []*Request
		for i := 0; i < 256; i++ {
			qs = append(qs, r.Irecv(0, 1))
		}
		for _, q := range qs {
			r.Cancel(q)
			r.Free(q)
		}
		postAllocs = testing.AllocsPerRun(100, func() { r.Irecv(0, 2) })
		if got := r.posted.len(); got != 101 {
			t.Errorf("posted receives = %d, want 101", got)
		}
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if sendAllocs != 0 {
		t.Errorf("Isend+Free allocated %.1f/op, want 0", sendAllocs)
	}
	if matchAllocs != 0 {
		t.Errorf("matching Irecv+Free allocated %.1f/op, want 0", matchAllocs)
	}
	if postAllocs != 0 {
		t.Errorf("posting Irecv allocated %.1f/op, want 0", postAllocs)
	}
}

// One cycle: an eager and a rendezvous send, each received through a
// posted receive and waited on, so every branch of the transfer stages
// runs. Every handle is freed, so in steady state the cycle allocates
// nothing.
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
			r.Free(qs[0])
			r.Free(qs[1])
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
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("send/receive cycle allocated %.1f/run, want 0", allocs)
	}
	if got := w.MessagesSent(); got != 2*109 {
		t.Fatalf("messages sent = %d, want %d", got, 2*109)
	}
	if live := w.LiveTransfers(); live != 0 {
		t.Fatalf("%d transfers live after every handle was freed", live)
	}
}

// TestTransferSize pins the message record's size: it is the unit of
// rank-scale memory (a 10k-rank cell keeps ~131k of them live at once while
// the offset lists of a batch queue on the master's NIC), so growing it
// shows up directly in peak memory.
func TestTransferSize(t *testing.T) {
	if got := unsafe.Sizeof(transfer{}); got > 160 {
		t.Fatalf("transfer is %d bytes, want at most 160", got)
	}
}
