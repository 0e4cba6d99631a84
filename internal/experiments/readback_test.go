package experiments

import (
	"reflect"
	"strings"
	"testing"

	"s3asim/internal/core"
)

func quickReadback(t *testing.T, par int) *ReadbackResult {
	t.Helper()
	opts := QuickReadbackOptions()
	opts.Parallelism = par
	rr, err := RunReadbackSweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	return rr
}

func TestReadbackSweepVerifiesEveryCell(t *testing.T) {
	rr := quickReadback(t, 0)
	for _, s := range rr.Strat {
		for _, get := range rr.Mixes {
			c := rr.Cell(s, get)
			if c == nil {
				t.Fatalf("%v get=%d%%: missing cell", s, get)
			}
			if c.Mismatches != 0 {
				t.Fatalf("%v get=%d%%: %.0f mismatches", s, get, c.Mismatches)
			}
			if c.Extents == 0 || c.BytesRead == 0 {
				t.Fatalf("%v get=%d%%: no verification traffic", s, get)
			}
			// Post-run alone reads the whole image once; mixed cells add
			// in-run traffic on top.
			if c.ReadShare < 1 {
				t.Fatalf("%v get=%d%%: read share %.2f < 1", s, get, c.ReadShare)
			}
			if get < 100 {
				pure := rr.Cell(s, 100)
				if c.BytesRead <= pure.BytesRead {
					t.Fatalf("%v get=%d%%: no in-run reads over the pure-read column", s, get)
				}
			}
		}
	}
	if rr.Metrics.Counters["readback.mismatches"] != 0 {
		t.Fatal("mismatch counter nonzero across sweep")
	}
}

// TestReadbackSweepDeterministicAcrossParallelism pins the executor
// contract for the new sweep: cells are bit-identical at parallelism 1 and 4.
func TestReadbackSweepDeterministicAcrossParallelism(t *testing.T) {
	seq := quickReadback(t, 1)
	par := quickReadback(t, 4)
	seq.Perf, par.Perf = SweepPerf{}, SweepPerf{}
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("readback sweep differs between parallelism 1 and 4")
	}
}

func TestReadbackChaosBatteryCleanAcrossPlans(t *testing.T) {
	opts := QuickReadbackChaosOptions()
	rc, err := RunReadbackChaos(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rc.Plans) < 4 {
		t.Fatalf("default battery has %d plans", len(rc.Plans))
	}
	sawCrash := false
	for _, s := range rc.Strat {
		for pi, p := range rc.Plans {
			c := rc.Cell(s, pi)
			if c == nil {
				t.Fatalf("%v plan=%s: missing cell", s, p.Name)
			}
			if c.Mismatches != 0 {
				t.Fatalf("%v plan=%s: %.0f mismatches", s, p.Name, c.Mismatches)
			}
			if c.Extents == 0 {
				t.Fatalf("%v plan=%s: nothing verified", s, p.Name)
			}
			if c.CrashesSeen > 0 {
				sawCrash = true
			}
		}
	}
	if !sawCrash {
		t.Fatal("no plan landed a crash — the battery is not exercising recovery")
	}
	if !strings.Contains(rc.Table().String(), "worker-crash") {
		t.Fatal("table misses plan names")
	}
}

// TestReadbackSweepDetectsInjectedDrop runs one cell of the readback sweep
// with the test-only silent write-dropper installed: the sweep must fail
// with the one cell error form, not report a clean pass.
func TestReadbackSweepDetectsInjectedDrop(t *testing.T) {
	opts := QuickReadbackOptions()
	opts.Strategies = []core.Strategy{core.WWList}
	opts.Mixes = []int{90}
	opts.Parallelism = 1
	dropped := false
	opts.Base.TestWriteDropper = func(off, n int64) bool {
		if dropped || n == 0 {
			return false
		}
		dropped = true
		return true
	}
	rr, err := RunReadbackSweep(opts)
	if err == nil {
		t.Fatal("silent drop survived the sweep")
	}
	if rr != nil {
		t.Fatal("failed sweep returned a result")
	}
	for _, want := range []string{"readback: WW-List get=90% rep=0: ", "readback verification failed"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("sweep error %q does not contain %q", err, want)
		}
	}
}

func TestReadbackConfForMapping(t *testing.T) {
	cases := []struct {
		get   int
		inRun int
		ok    bool
	}{
		{100, 0, true},
		{90, 9, true},
		{75, 3, true},
		{50, 1, true},
		{40, 0, false},  // write-heavier than 50/50
		{0, 0, false},   // no reads at all
		{101, 0, false}, // out of range
	}
	for _, c := range cases {
		rc, err := readbackConfFor(c.get, 0, false)
		if (err == nil) != c.ok {
			t.Errorf("get=%d: err=%v, want ok=%v", c.get, err, c.ok)
			continue
		}
		if c.ok && (rc.InRunReads != c.inRun || !rc.PostRun) {
			t.Errorf("get=%d: conf=%+v, want InRunReads=%d PostRun", c.get, rc, c.inRun)
		}
	}
}
