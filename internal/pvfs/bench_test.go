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

// BenchmarkExtentMapListIO measures the extent map on the shape of list-I/O
// traffic ("Noncontiguous I/O through PVFS", Ching et al.): each op is one
// round in which W writers each land P strided pieces (writer w owns pieces
// w, w+W, ...) of a fresh region, one writer after another, so pieces
// arrive out of file order and holes close as later writers fill them. The
// capturing variant hands over each writer's one buffer as subslices, as
// placementsToSegments does. Every 64 rounds the file is truncated (the map
// emptied, keeping its capacity), so the working set stays bounded.
func BenchmarkExtentMapListIO(b *testing.B) {
	const W, P, piece, rounds = 16, 32, 512, 64
	for _, capture := range []bool{false, true} {
		name := "coverage"
		if capture {
			name = "capture"
		}
		b.Run(name, func(b *testing.B) {
			m := extentMap{capture: capture}
			bufs := make([][]byte, W)
			for w := range bufs {
				bufs[w] = make([]byte, P*piece)
			}
			b.SetBytes(W * P * piece)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if i%rounds == 0 {
					clear(m.exts)
					m = extentMap{capture: capture, spans: m.spanBuf[:0], spanBuf: m.spanBuf, exts: m.exts[:0]}
				}
				base := int64(i%rounds) * W * P * piece
				for w := 0; w < W; w++ {
					for p := 0; p < P; p++ {
						var data []byte
						if capture {
							data = bufs[w][p*piece : (p+1)*piece]
						}
						m.write(base+int64(p*W+w)*piece, piece, data)
					}
				}
			}
		})
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
