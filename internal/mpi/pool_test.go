package mpi

import (
	"testing"

	"s3asim/internal/des"
)

// TestFreeGuards pins the use-after-free contract: a freed request is
// poisoned, so Done, Message and a second Free panic with *ProtocolError,
// and so does freeing a receive that is still pending, a member of a set
// that Take has not returned, or another rank's request.
func TestFreeGuards(t *testing.T) {
	w := NewWorld(des.New(), 2, fastNet())
	inProc(t, w, 0, func(r *Rank) {
		q := r.Irecv(1, 5)
		wantProto(t, "Free", func() { r.Free(q) }) // pending receive
		r.Cancel(q)
		r.Free(q)
		wantProto(t, "Done", func() { q.Done() })
		wantProto(t, "Message", func() { q.Message() })
		wantProto(t, "Free", func() { r.Free(q) })

		s := r.Isend(1, 0, 8, nil)
		r.Free(s) // in flight: legal
		wantProto(t, "Done", func() { s.Done() })
		wantProto(t, "Free", func() { r.Free(s) })
		r.Compute(des.Second) // the network lets go: the record is pooled
		wantProto(t, "Free", func() { r.Free(s) })

		set := NewRequestSet(r)
		m := r.Irecv(1, 6)
		set.Add(m)
		r.Cancel(m)
		wantProto(t, "Free", func() { r.Free(m) }) // still in the set
		if got := set.Take(); got != m {
			t.Fatalf("Take = %p, want the cancelled member %p", got, m)
		}
		r.Free(m)

		foreign := w.Rank(1).Isend(0, 0, 8, nil)
		wantProto(t, "Free", func() { r.Free(foreign) })
	})
}

// TestFreeInFlightSend pins MPI_Request_free semantics for sends: freeing
// an eager or a rendezvous send straight after Isend still delivers the
// message, and the record returns to the pool once the receiver frees its
// receive.
func TestFreeInFlightSend(t *testing.T) {
	sim := des.New()
	w := NewWorld(sim, 2, fastNet())
	w.Spawn(0, "sender", func(r *Rank) {
		r.Free(r.Isend(1, 0, 10, "eager"))
		r.Free(r.Isend(1, 0, 5000, "rendezvous"))
	})
	var got []any
	w.Spawn(1, "receiver", func(r *Rank) {
		for i := 0; i < 2; i++ {
			got = append(got, r.Recv(0, 0).Payload)
		}
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "eager" || got[1] != "rendezvous" {
		t.Fatalf("received %v", got)
	}
	if live := w.LiveTransfers(); live != 0 {
		t.Fatalf("%d transfers live, want 0", live)
	}
}

// TestMessageValidUntilFree pins that a completed receive's message stays
// intact while later traffic recycles other records, and that freeing it
// returns the record for reuse.
func TestMessageValidUntilFree(t *testing.T) {
	sim := des.New()
	w := NewWorld(sim, 2, fastNet())
	w.Spawn(0, "sender", func(r *Rank) {
		for i := 0; i < 50; i++ {
			r.Send(1, i, 10, i)
		}
	})
	w.Spawn(1, "receiver", func(r *Rank) {
		keep := r.Irecv(0, 0)
		r.Wait(keep)
		for i := 1; i < 50; i++ {
			if m := r.Recv(0, i); m.Payload != i {
				t.Errorf("message %d carries %v", i, m.Payload)
			}
		}
		if m := keep.Message(); m.Payload != 0 || m.Tag != 0 || m.Source != 0 {
			t.Errorf("kept message changed under later traffic: %+v", *m)
		}
		r.Free(keep)
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if live := w.LiveTransfers(); live != 0 {
		t.Fatalf("%d transfers live, want 0", live)
	}
}
