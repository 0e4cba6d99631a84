package experiments

import (
	"reflect"
	"strings"
	"testing"

	"s3asim/internal/causal"
	"s3asim/internal/core"
	"s3asim/internal/des"
)

func TestServeSweepTelemetryComplete(t *testing.T) {
	opts := QuickServeOptions()
	opts.Loads = []float64{1}
	sr, err := RunServeSweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(sr.Cells) != len(core.Strategies) {
		t.Fatalf("got %d cells", len(sr.Cells))
	}
	for _, c := range sr.Cells {
		if len(c.Queries) == 0 || c.Throughput <= 0 || c.Overall <= 0 {
			t.Fatalf("%v: empty cell", c.Strategy)
		}
		ps := []des.Time{c.P50, c.P90, c.P99, c.P999, c.Max}
		for i := 1; i < len(ps); i++ {
			if ps[i] < ps[i-1] {
				t.Fatalf("%v: percentiles not monotone: %v", c.Strategy, ps)
			}
		}
		if c.P50 <= 0 {
			t.Fatalf("%v: nonpositive p50", c.Strategy)
		}
		// Bands tile the query population, and each band's attribution
		// conserves its queries' summed latency exactly (every per-query
		// walk tiles [Arrival, Done)).
		banded := 0
		for _, b := range c.Bands {
			banded += b.Queries
			if b.Path.Total() < 0 {
				t.Fatalf("%v band %s: negative attribution", c.Strategy, b.Label)
			}
		}
		if banded != len(c.Queries) {
			t.Fatalf("%v: bands cover %d of %d queries", c.Strategy, banded, len(c.Queries))
		}
		var bandTotal, latTotal des.Time
		for _, b := range c.Bands {
			bandTotal += b.Path.Total()
		}
		for _, q := range c.Queries {
			latTotal += q.Latency()
		}
		if bandTotal != latTotal {
			t.Fatalf("%v: band attribution %v != summed latency %v",
				c.Strategy, bandTotal, latTotal)
		}
		// Tenant counts tile the population too.
		tq, tv := 0, 0
		for _, tn := range c.Tenants {
			tq += tn.Queries
			tv += tn.Violations
		}
		if tq != len(c.Queries) {
			t.Fatalf("%v: tenants cover %d of %d queries", c.Strategy, tq, len(c.Queries))
		}
		if tv != c.Violations {
			t.Fatalf("%v: tenant violations %d != cell violations %d", c.Strategy, tv, c.Violations)
		}
		// The fixed-memory latency histogram backs the percentiles.
		h, ok := c.Metrics.Hists["serve.latency"]
		if !ok || h.Count != int64(len(c.Queries)) || len(h.Buckets) == 0 {
			t.Fatalf("%v: bad latency histogram: %+v", c.Strategy, h)
		}
	}
}

func TestServeSweepDeterministicAcrossParallelism(t *testing.T) {
	opts := QuickServeOptions()
	opts.Loads = []float64{0.5, 1}
	opts.Parallelism = 1
	seq, err := RunServeSweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Parallelism = 4
	par, err := RunServeSweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	seq.Perf, par.Perf = SweepPerf{}, SweepPerf{}
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("serve sweep differs between parallelism 1 and 4")
	}
}

func TestServeSweepTablesRender(t *testing.T) {
	opts := QuickServeOptions()
	opts.Loads = []float64{1}
	opts.Strategies = []core.Strategy{core.MW, core.WWColl}
	sr, err := RunServeSweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	tables := sr.Tables()
	if len(tables) < 4 {
		t.Fatalf("got %d tables", len(tables))
	}
	all := ""
	for _, tb := range tables {
		s := tb.String()
		if s == "" {
			t.Fatal("empty table")
		}
		all += s
	}
	for _, want := range []string{"p999", "throughput vs offered load", "tenant", "steady", "spiky", "p50"} {
		if !strings.Contains(all, want) {
			t.Fatalf("tables missing %q:\n%s", want, all)
		}
	}
	for _, n := range causal.CategoryNames() {
		if !strings.Contains(all, n) {
			t.Fatalf("tail table missing category %q", n)
		}
	}
}
