package experiments

import (
	"reflect"
	"strings"
	"testing"

	"s3asim/internal/core"
)

// TestAdaptiveSweepDeterministic pins the suite's reproducibility contract:
// the same options produce a DeepEqual result on every run, at any host
// parallelism. Each cell owns a private controller and causal recorder, so
// nothing about scheduling may leak into the scores.
func TestAdaptiveSweepDeterministic(t *testing.T) {
	run := func(parallelism int) *AdaptiveResult {
		opts := QuickAdaptiveOptions()
		opts.Queries = 24
		opts.Strategies = []core.Strategy{core.MW, core.WWList}
		opts.Parallelism = parallelism
		ar, err := RunAdaptiveSweep(opts)
		if err != nil {
			t.Fatal(err)
		}
		ar.Perf = SweepPerf{} // host wall-clock, the one non-deterministic part
		return ar
	}
	seq := run(1)
	if !reflect.DeepEqual(seq, run(1)) {
		t.Fatal("two sequential adaptive sweeps differ")
	}
	if !reflect.DeepEqual(seq, run(4)) {
		t.Fatal("parallel adaptive sweep differs from sequential")
	}
}

// TestAdaptiveSweepHeadline asserts the suite's claim at the quick scale: the
// controller loses to the best static strategy nowhere (within the documented
// 3% quick tolerance — 48 queries leave a visible cold-start transient on the
// near-crossover medium regime; the paper scale holds 2%, pinned by the
// committed BENCH baseline) and strictly beats every static on at least one
// mixed regime.
func TestAdaptiveSweepHeadline(t *testing.T) {
	ar, err := RunAdaptiveSweep(QuickAdaptiveOptions())
	if err != nil {
		t.Fatal(err)
	}
	lost, wins := ar.Headline(0.03)
	if len(lost) > 0 {
		t.Errorf("controller lost beyond tolerance on %v", lost)
	}
	if len(wins) == 0 {
		t.Error("controller strictly won no mixed regime")
	}
	var mixedSwitched, mixedDiverse bool
	for _, rr := range ar.Regimes {
		ad := rr.Controller().Adaptive
		if ad == nil {
			t.Fatalf("%s: controller cell has no adaptive report", rr.Name)
		}
		if !rr.Mixed {
			continue
		}
		if rr.Controller().Switches > 0 {
			mixedSwitched = true
		}
		used := 0
		for _, n := range ad.Assigned {
			if n > 0 {
				used++
			}
		}
		if used > 1 {
			mixedDiverse = true
		}
	}
	if !mixedSwitched {
		t.Error("no mixed regime recorded an incumbent switch")
	}
	if !mixedDiverse {
		t.Error("no mixed regime used more than one arm")
	}
}

// TestAdaptiveTablesRender smoke-checks every report table: the score and arm
// tables plus one causal diff per regime, all non-empty.
func TestAdaptiveTablesRender(t *testing.T) {
	opts := QuickAdaptiveOptions()
	opts.Queries = 24
	opts.Strategies = []core.Strategy{core.MW, core.WWList}
	ar, err := RunAdaptiveSweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	tables := ar.Tables()
	if want := 2 + len(ar.Regimes); len(tables) != want {
		t.Fatalf("Tables returned %d tables, want %d", len(tables), want)
	}
	for i, tb := range tables {
		s := tb.String()
		if !strings.Contains(s, "tiny-results") && !strings.Contains(s, "adaptive") {
			t.Fatalf("table %d names neither a regime nor the controller:\n%s", i, s)
		}
	}
	if ar.DiffTable("no-such-regime") != nil {
		t.Fatal("DiffTable invented a regime")
	}
}
