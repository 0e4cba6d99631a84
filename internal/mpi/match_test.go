package mpi

import (
	"math/rand"
	"testing"

	"s3asim/internal/des"
)

// refRecv is the reference matcher's view of one posted receive.
type refRecv struct {
	q           *Request
	source, tag int
}

func (p refRecv) matches(src, tag int) bool {
	return (p.source == AnySource || p.source == src) && (p.tag == AnyTag || p.tag == tag)
}

// FuzzPostedMatching drives one rank's matching engine with random Irecv
// calls (exact, AnySource, AnyTag and both), deliveries, Cancels and Kills,
// and checks every match against a reference that keeps all posted
// receives in one list and scans it linearly in posting order — the
// matcher the indexed queues replace.
func FuzzPostedMatching(f *testing.F) {
	f.Add([]byte{0, 5, 1, 3, 0, 9, 1, 7, 2, 0, 1, 4})
	f.Add([]byte{0, 0, 0, 6, 0, 3, 0, 12, 1, 5, 1, 6, 3, 0, 0, 1, 1})
	f.Add([]byte{4, 1, 0, 1, 4, 1, 1, 1, 1, 1, 2, 1, 1, 9, 1, 10})
	// Tie-breaks: a wildcard posted before an exact receive for the same
	// message wins, and loses when posted after it.
	f.Add([]byte{0, 8, 0, 9, 1, 5, 1, 5})
	f.Add([]byte{0, 9, 0, 8, 1, 5, 1, 5})
	f.Fuzz(func(t *testing.T, ops []byte) {
		w := NewWorld(des.New(), 4, fastNet())
		r := w.Rank(0)
		var posted []refRecv
		var inbox []*transfer
		next := func(i *int) int {
			if *i >= len(ops) {
				return 0
			}
			*i++
			return int(ops[*i-1])
		}
		for i := 0; i < len(ops); {
			switch next(&i) % 5 {
			case 0, 4: // Irecv: pattern byte picks source and tag, wildcards included
				b := next(&i)
				src, tag := b%4-1, b/4%4-1 // -1 is the wildcard
				if src == 0 {
					src = 3
				}
				q := r.Irecv(src, tag)
				want := -1
				for k, x := range inbox {
					if (refRecv{source: src, tag: tag}).matches(x.msg.Source, x.msg.Tag) {
						want = k
						break
					}
				}
				if want >= 0 {
					if !q.isDone() || q.xfer != inbox[want] {
						t.Fatalf("op %d: Irecv(%d, %d) did not take queued message %d", i, src, tag, want)
					}
					inbox = append(inbox[:want], inbox[want+1:]...)
				} else {
					if q.isDone() {
						t.Fatalf("op %d: Irecv(%d, %d) matched with nothing queued", i, src, tag)
					}
					posted = append(posted, refRecv{q: q, source: src, tag: tag})
				}
			case 1: // delivery from source 1..3 with tag 0..2
				b := next(&i)
				src, tag := b%3+1, b/3%3
				x := w.getTransfer()
				x.msg = Message{Source: src, Dest: 0, Tag: tag}
				x.req = Request{owner: w.Rank(src), xfer: x}
				r.deliver(x)
				want := -1
				for k, p := range posted {
					if p.matches(src, tag) {
						want = k
						break
					}
				}
				if want >= 0 {
					q := posted[want].q
					if !q.isDone() || q.xfer != x {
						t.Fatalf("op %d: message (%d, %d) did not match the earliest-posted receive (%d, %d)",
							i, src, tag, posted[want].source, posted[want].tag)
					}
					posted = append(posted[:want], posted[want+1:]...)
				} else {
					inbox = append(inbox, x)
				}
			case 2: // Cancel one posted receive
				b := next(&i)
				if len(posted) == 0 {
					continue
				}
				k := b % len(posted)
				if !r.Cancel(posted[k].q) || !posted[k].q.Cancelled() {
					t.Fatalf("op %d: Cancel of a posted receive failed", i)
				}
				posted = append(posted[:k], posted[k+1:]...)
			case 3: // Kill cancels everything posted and discards the inbox
				w.Kill(0)
				for _, p := range posted {
					if !p.q.Cancelled() {
						t.Fatalf("op %d: Kill left posted receive (%d, %d) uncancelled", i, p.source, p.tag)
					}
				}
				posted, inbox = nil, nil
				r.dead = false // revive without a process
			}
			for _, p := range posted {
				if p.q.isDone() {
					t.Fatalf("op %d: posted receive (%d, %d) completed out of turn", i, p.source, p.tag)
				}
			}
			if r.posted.len() != len(posted) || len(r.inbox) != len(inbox) {
				t.Fatalf("op %d: %d posted / %d queued, reference %d / %d",
					i, r.posted.len(), len(r.inbox), len(posted), len(inbox))
			}
		}
	})
}

// TestRequestSetTakeOrder delivers the messages for a set's members in
// random order and checks that, after every delivery, Take hands back
// exactly the completed members and in insertion order — the order a scan
// of the members kept in a slice would visit them.
func TestRequestSetTakeOrder(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		w := NewWorld(des.New(), 4, fastNet())
		r := w.Rank(0)
		set := NewRequestSet(r)
		const n = 64
		members := make([]*Request, n)
		for k := range members {
			// Mixed exact and wildcard receives, one tag per member.
			src := 1 + k%3
			if k%5 == 0 {
				src = AnySource
			}
			members[k] = r.Irecv(src, k)
			set.Add(members[k])
		}
		taken := 0
		for _, k := range rng.Perm(n) {
			x := w.getTransfer()
			x.msg = Message{Source: 1 + k%3, Dest: 0, Tag: k}
			x.req = Request{owner: w.Rank(1 + k%3), xfer: x}
			r.deliver(x)
			if rng.Intn(3) > 0 {
				continue // let completions pile up between takes
			}
			var want []*Request
			for _, q := range members {
				if q.isDone() && q.set != nil {
					want = append(want, q)
				}
			}
			for _, q := range want {
				if got := set.Take(); got != q {
					t.Fatalf("seed %d: Take returned tag %d, want tag %d", seed, got.tag, q.tag)
				}
				taken++
			}
			if got := set.Take(); got != nil {
				t.Fatalf("seed %d: Take returned pending member tag %d", seed, got.tag)
			}
		}
		for q := set.Take(); q != nil; q = set.Take() {
			taken++
		}
		if taken != n || set.Len() != 0 {
			t.Fatalf("seed %d: took %d of %d, %d left", seed, taken, n, set.Len())
		}
	}
}

// TestRequestSetWaits pins the set's blocking waits: WaitAny returns once a
// member completes without consuming it, WaitAnyUntil gives up at its
// deadline, and waiting on an empty set panics (WaitAny) or just waits out
// the deadline (WaitAnyUntil).
func TestRequestSetWaits(t *testing.T) {
	sim := des.New()
	w := NewWorld(sim, 2, fastNet())
	w.Spawn(0, "master", func(r *Rank) {
		set := NewRequestSet(r)
		wantProto(t, "RequestSet.WaitAny", func() { set.WaitAny() })
		if set.WaitAnyUntil(r.Now() + des.Millisecond) {
			t.Error("empty set reported a completion")
		}
		a, b := r.Irecv(1, 1), r.Irecv(1, 2)
		set.Add(a)
		set.Add(b)
		wantProto(t, "RequestSet.Add", func() { set.Add(a) })
		if set.WaitAnyUntil(r.Now() + des.Millisecond) {
			t.Error("completion reported before any message was sent")
		}
		set.WaitAny()
		if q := set.Take(); q != b {
			t.Errorf("Take = tag %d, want the completed tag-2 member", q.tag)
		} else {
			r.Free(q)
		}
		if !set.WaitAnyUntil(r.Now() + des.Hour) {
			t.Error("WaitAnyUntil missed the second completion")
		}
		if q := set.Take(); q != a || set.Len() != 0 {
			t.Errorf("Take = %p (len %d), want the tag-1 member", q, set.Len())
		}
		c := r.Irecv(1, 3)
		wantProto(t, "RequestSet.Add", func() { NewRequestSet(w.Rank(1)).Add(c) })
		d := r.Irecv(1, 4)
		set.Add(d)
		wantProto(t, "RequestSet.Add", func() { set.Add(c) }) // older than d
		r.Cancel(c)
		r.Cancel(d)
	})
	w.Spawn(1, "worker", func(r *Rank) {
		r.Compute(10 * des.Millisecond)
		r.Send(0, 2, 10, nil)
		r.Send(0, 1, 10, nil)
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
}
