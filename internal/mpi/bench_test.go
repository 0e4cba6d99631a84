package mpi

import (
	"testing"

	"s3asim/internal/des"
)

// BenchmarkPingPong measures a blocking round trip between two ranks.
func BenchmarkPingPong(b *testing.B) {
	sim := des.New()
	w := NewWorld(sim, 2, Myrinet2000())
	w.Spawn(0, "a", func(r *Rank) {
		for i := 0; i < b.N; i++ {
			r.Send(1, 0, 64, nil)
			r.Recv(1, 1)
		}
	})
	w.Spawn(1, "b", func(r *Rank) {
		for i := 0; i < b.N; i++ {
			r.Recv(0, 0)
			r.Send(0, 1, 64, nil)
		}
	})
	b.ResetTimer()
	if err := sim.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkFanIn measures many senders funneling into one receiver, the
// S3aSim master's traffic pattern. In "wildcard" the receiver takes each
// message with a blocking AnySource receive. In "posted=10000" it keeps
// 10,000 exact receives posted at once in a RequestSet (one per sender and
// tag, as a 10k-rank master holds one score receive per busy worker),
// collects completions in posting order and reposts each, so the cost per
// message shows whether matching and draining stay independent of the
// number posted. Senders use blocking sends, so a few dozen messages are in
// flight at a time and every record is recycled: steady state allocates
// nothing.
func BenchmarkFanIn(b *testing.B) {
	const senders = 32
	b.Run("wildcard", func(b *testing.B) {
		sim := des.New()
		w := NewWorld(sim, senders+1, Myrinet2000())
		per := b.N/senders + 1
		for i := 1; i <= senders; i++ {
			w.Spawn(i, "s", func(r *Rank) {
				for j := 0; j < per; j++ {
					r.Send(0, 0, 1024, nil)
				}
			})
		}
		w.Spawn(0, "sink", func(r *Rank) {
			for j := 0; j < per*senders; j++ {
				r.Recv(AnySource, 0)
			}
		})
		b.ReportAllocs()
		b.ResetTimer()
		if err := sim.Run(); err != nil {
			b.Fatal(err)
		}
	})
	b.Run("posted=10000", func(b *testing.B) {
		const posted = 10_000
		const tags = posted / senders
		sim := des.New()
		w := NewWorld(sim, senders+1, Myrinet2000())
		per := b.N/senders + 1
		for i := 1; i <= senders; i++ {
			w.Spawn(i, "s", func(r *Rank) {
				for j := 0; j < per; j++ {
					r.Send(0, j%tags, 1024, nil)
				}
			})
		}
		w.Spawn(0, "sink", func(r *Rank) {
			set := NewRequestSet(r)
			for tag := 0; tag < tags; tag++ {
				for src := 1; src <= senders; src++ {
					set.Add(r.Irecv(src, tag))
				}
			}
			for got := 0; got < per*senders; {
				set.WaitAny()
				for q := set.Take(); q != nil; q = set.Take() {
					m := q.Message()
					src, tag := m.Source, m.Tag
					r.Free(q)
					set.Add(r.Irecv(src, tag))
					got++
				}
			}
			for q := set.Take(); q != nil; q = set.Take() {
				r.Free(q)
			}
		})
		b.ReportAllocs()
		b.ResetTimer()
		if err := sim.Run(); err != nil {
			b.Fatal(err)
		}
	})
}

// BenchmarkBarrier measures repeated full-world barriers.
func BenchmarkBarrier(b *testing.B) {
	const ranks = 16
	sim := des.New()
	w := NewWorld(sim, ranks, Myrinet2000())
	bar := w.NewBarrier(ranks)
	rounds := b.N/ranks + 1
	for i := 0; i < ranks; i++ {
		w.Spawn(i, "p", func(r *Rank) {
			for j := 0; j < rounds; j++ {
				bar.Arrive(r)
			}
		})
	}
	b.ResetTimer()
	if err := sim.Run(); err != nil {
		b.Fatal(err)
	}
}
