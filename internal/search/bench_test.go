package search

import "testing"

// BenchmarkGenerateDefault measures full paper-workload generation
// (20 queries × ~1500 results with layout).
func BenchmarkGenerateDefault(b *testing.B) {
	spec := DefaultSpec()
	for i := 0; i < b.N; i++ {
		Generate(spec)
	}
}

// BenchmarkTaskLookup measures the per-task accessors the engine calls on
// the hot path.
func BenchmarkTaskLookup(b *testing.B) {
	w := Generate(DefaultSpec())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := i % w.Spec.NumQueries
		f := i % w.Spec.NumFragments
		_ = w.TaskBytes(q, f)
		_ = w.TaskCount(q, f)
	}
}

// benchResultSize is a typical paper-scale result (a few KB).
const benchResultSize = 4096

// BenchmarkResultFill measures counter-based content generation into a
// caller's buffer (the writers' in-place segment fill); 0 allocs/op.
func BenchmarkResultFill(b *testing.B) {
	w := Generate(DefaultSpec())
	buf := make([]byte, benchResultSize)
	b.SetBytes(benchResultSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.FillResult(i%w.Spec.NumQueries, i, 0, buf)
	}
}

// BenchmarkResultMatch measures exact in-place verification of stored
// bytes against the generator (the verifiers' path); 0 allocs/op.
func BenchmarkResultMatch(b *testing.B) {
	w := Generate(DefaultSpec())
	buf := w.ResultData(0, 0, benchResultSize)
	b.SetBytes(benchResultSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !w.MatchRange(0, 0, 0, buf) {
			b.Fatal("mismatch")
		}
	}
}
