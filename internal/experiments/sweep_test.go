package experiments

import (
	"fmt"
	"strings"
	"testing"

	"s3asim/internal/causal"
	"s3asim/internal/core"
	"s3asim/internal/des"
	"s3asim/internal/obs"
)

// TestSweepCheckCatchesBrokenInvariants feeds the runner's per-cell check a
// real run with telemetry windows and a causal recorder, then the same
// report with one window counter bumped, with one attribution step
// tampered, and with the attribution missing. Each broken report must fail
// with the cell id in the message.
func TestSweepCheckCatchesBrokenInvariants(t *testing.T) {
	cfg := QuickOptions().Base
	cfg.Procs = 4
	cfg.Telemetry = &obs.Telemetry{Window: 20 * des.Millisecond}
	cfg.Causal = causal.NewRecorder()
	rep, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Windows == nil || rep.Attribution == nil || len(rep.Attribution.Steps) == 0 {
		t.Fatal("run recorded no windows or no attribution")
	}
	sw := &sweep{suite: "check", id: func(cell int) string { return fmt.Sprintf("cell-%d", cell) }}
	if err := sw.check(3, 1, &cfg, rep); err != nil {
		t.Fatalf("clean run failed its check: %v", err)
	}
	expectFail := func(what, cause string) {
		t.Helper()
		err := sw.check(3, 1, &cfg, rep)
		if err == nil {
			t.Fatalf("%s passed the check", what)
		}
		for _, want := range []string{"check: cell-3 rep=1: ", cause} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("%s: error %q does not contain %q", what, err, want)
			}
		}
	}

	// One window counter bumped: the window sums no longer conserve.
	var counters map[string]int64
	var name string
	for _, w := range rep.Windows.Windows {
		for k := range w.Counters {
			counters, name = w.Counters, k
			break
		}
		if counters != nil {
			break
		}
	}
	if counters == nil {
		t.Fatal("no window carries a counter")
	}
	counters[name]++
	expectFail("bumped window counter", "window sum")
	counters[name]--

	// One critical-path step stretched: the steps no longer tile the run.
	rep.Attribution.Steps[0].End++
	expectFail("tampered attribution step", "causal:")
	rep.Attribution.Steps[0].End--

	// A recorder attached but no attribution reported.
	att := rep.Attribution
	rep.Attribution = nil
	expectFail("missing attribution", "nil attribution")
	rep.Attribution = att

	if err := sw.check(3, 1, &cfg, rep); err != nil {
		t.Fatalf("restored report failed its check: %v", err)
	}
}
