package pvfs

import (
	"testing"

	"s3asim/internal/des"
)

// benchFS builds a Feynman-like file system without data capture.
func benchFS(sim *des.Simulation) *FileSystem {
	cfg := FeynmanLike()
	return New(sim, cfg)
}

// BenchmarkWriteContig measures large contiguous writes striped over all
// servers.
func BenchmarkWriteContig(b *testing.B) {
	sim := des.New()
	fs := benchFS(sim)
	port := &Port{Send: sim.NewResource("s", 1), Recv: sim.NewResource("r", 1)}
	sim.Spawn("c", func(p *des.Proc) {
		f := fs.Create(p, "bench")
		for i := 0; i < b.N; i++ {
			f.Write(p, port, int64(i)*1<<20, 1<<20, nil)
		}
	})
	b.ResetTimer()
	if err := sim.Run(); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(1 << 20)
}

// BenchmarkWriteList measures scattered list-I/O writes (the WW-List hot
// path): 64 scattered 4 KB segments per operation. The segment list is
// reused, so allocs/op is the list-I/O path's own.
func BenchmarkWriteList(b *testing.B) {
	sim := des.New()
	fs := benchFS(sim)
	port := &Port{Send: sim.NewResource("s", 1), Recv: sim.NewResource("r", 1)}
	segs := make([]Segment, 64)
	sim.Spawn("c", func(p *des.Proc) {
		f := fs.Create(p, "bench")
		for i := 0; i < b.N; i++ {
			base := int64(i) * 64 * 128 * 1024
			for j := range segs {
				segs[j] = Segment{Offset: base + int64(j)*128*1024, Length: 4096}
			}
			f.WriteList(p, port, segs)
		}
	})
	b.ResetTimer()
	if err := sim.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkExtentMapWrite measures the pure extent-tracking data structure.
func BenchmarkExtentMapWrite(b *testing.B) {
	m := extentMap{}
	for i := 0; i < b.N; i++ {
		// Alternating pattern exercising search + insert.
		off := int64((i * 7919) % 1000000)
		m.write(off*16, 8, nil)
	}
}
