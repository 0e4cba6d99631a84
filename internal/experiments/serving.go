package experiments

import (
	"fmt"

	"s3asim/internal/causal"
	"s3asim/internal/core"
	"s3asim/internal/des"
	"s3asim/internal/obs"
	"s3asim/internal/serve"
	"s3asim/internal/stats"
)

// This file is the "-suite serve" harness: sweep an open-loop serving
// scenario (internal/serve traffic plans feeding core's serving mode) over
// offered load × strategy, and report what a serving operator actually asks
// about — latency percentiles from the fixed-memory histograms, SLO
// violation counts (aggregate and per tenant), throughput against offered
// load, and per-percentile-band critical-path attribution ("p999 under
// WW-Coll is mostly sync wait").

// ServeOptions configures RunServeSweep.
type ServeOptions struct {
	// Base is the template configuration; Strategy, Serve, and the workload
	// query count are overridden per cell.
	Base core.Config
	// Plan is the nominal traffic (offered load 1.0). Each load multiplier
	// scales every tenant's rate; the arrival schedule is generated once per
	// load and shared by every strategy at that load, so strategies are
	// compared on identical streams.
	Plan serve.Plan
	// Loads are the offered-load multipliers (default {1}).
	Loads []float64
	// Strategies defaults to all four.
	Strategies []core.Strategy
	// Admission selects the admission-queue discipline.
	Admission core.ServeAdmission
	// SLO is the end-to-end latency target; queries above it count as
	// violations (default 1s).
	SLO des.Time
	// Parallelism bounds concurrent runs (0 = GOMAXPROCS, 1 = sequential).
	// Per-cell recorders and registries make results identical at any
	// parallelism.
	Parallelism int
	// Telemetry, when non-nil, enables the virtual-time telemetry pipeline
	// (core.Config.Telemetry) in every cell: windowed time-series
	// (conservation-checked against each cell's snapshot), SLO alert rules,
	// and the flight recorder. The SLO option above feeds the
	// serve.slo_violations counter burn-rate rules divide by.
	Telemetry *obs.Telemetry
	// FlightDir, when set (and Telemetry is on), writes every cell's flight
	// dumps as JSONL artifacts into the directory, in deterministic cell
	// order with deterministic names.
	FlightDir string
}

// QuickServeOptions is a fast serving scenario for tests and smoke runs:
// two tenants (steady Poisson plus a bursty stream) over a two-second
// horizon at three offered loads.
func QuickServeOptions() ServeOptions {
	base := core.DefaultConfig()
	base.Procs = 6
	base.Workload.NumFragments = 8
	base.Workload.MinResults = 20
	base.Workload.MaxResults = 40
	base.Workload.QueryHist = stats.Uniform(200, 2000)
	base.Workload.DBSeqHist = stats.Uniform(200, 10000)
	base.Workload.MinResultSize = 256
	return ServeOptions{
		Base: base,
		// The nominal (load 1.0) offered rate sits near this workload's
		// service capacity (~5 q/s under MW), so the load axis crosses the
		// knee: 0.5 is underloaded, 2 is saturated.
		Plan: serve.Plan{
			Seed:    11,
			Horizon: 10 * des.Second,
			Tenants: []serve.Tenant{
				{Name: "steady", Rate: 3, Process: serve.Poisson},
				{Name: "spiky", Rate: 2, Process: serve.Bursty,
					BurstFactor: 5, BurstFrac: 0.15, BurstDwell: 500 * des.Millisecond},
			},
		},
		Loads: []float64{0.5, 1, 2},
		SLO:   2 * des.Second,
	}
}

// PaperServeOptions is the full serving scenario: sixteen ranks, three
// tenants (steady Poisson, a bursty stream, and a diurnal cycle) over a
// five-second horizon, swept across four offered loads.
func PaperServeOptions() ServeOptions {
	opts := QuickServeOptions()
	opts.Base.Procs = 16
	opts.Base.Workload.NumFragments = 16
	// Sixteen ranks roughly triple the quick capacity; the nominal rate is
	// again pinned near the knee so the four loads span under- to
	// over-subscription.
	opts.Plan = serve.Plan{
		Seed:    11,
		Horizon: 20 * des.Second,
		Tenants: []serve.Tenant{
			{Name: "steady", Rate: 8, Process: serve.Poisson},
			{Name: "spiky", Rate: 5, Process: serve.Bursty,
				BurstFactor: 5, BurstFrac: 0.15, BurstDwell: 500 * des.Millisecond},
			{Name: "cyclic", Rate: 3, Process: serve.Diurnal,
				Period: 10 * des.Second, Amplitude: 0.8},
		},
	}
	opts.Loads = []float64{0.5, 1, 2, 4}
	return opts
}

// ServeBand is one latency band's aggregated tail attribution: the summed
// per-query critical paths (arrival → durable write) of every query whose
// latency landed in the band.
type ServeBand struct {
	// Label is the band's lower percentile edge ("p0", "p50", ..., "p999").
	Label string
	// Queries is the band's population.
	Queries int
	// Lo and Hi bound the band's observed latencies.
	Lo, Hi des.Time
	// Path sums the per-query critical-path attributions; Path.Total() is
	// the band's summed latency (each query's walk conserves its window).
	Path causal.Breakdown
}

// ServeTenant is one tenant's slice of a cell's telemetry.
type ServeTenant struct {
	Name       string
	Queries    int
	Violations int
	// P99 is the tenant's 99th-percentile latency (bucketed estimate).
	P99 des.Time
}

// ServeCell is one (strategy, load) outcome.
type ServeCell struct {
	Strategy core.Strategy
	Load     float64
	// OfferedRate is the scaled plan's aggregate arrival rate (queries/s).
	OfferedRate float64
	// Queries holds every query's lifecycle stamps (arrival order).
	Queries []core.QueryStat
	// Overall is the run's virtual wall-clock.
	Overall des.Time
	// Throughput is completed queries per second of serving span (first
	// arrival to last durable write).
	Throughput float64
	// P50..P999 are end-to-end latency percentiles read from the
	// fixed-memory log-bucketed histogram (<2% relative error).
	P50, P90, P99, P999, Max des.Time
	// Violations counts queries whose latency exceeded the SLO target.
	Violations int
	// Tenants breaks the telemetry down per traffic stream, in plan order.
	Tenants []ServeTenant
	// Bands is the per-percentile-band tail attribution, p0 → p999.
	Bands []ServeBand
	// Metrics is the post-run registry snapshot including the serve latency
	// histograms (serve.latency and serve.latency.<tenant>).
	Metrics obs.Snapshot
	// Windows is the windowed time-series (nil unless Telemetry was on). The
	// sweep runner conservation-checks its window sums against Metrics.
	Windows *obs.Series
	// Alerts is the cell's alert timeline: every SLO rule firing and
	// resolution, in virtual-time order.
	Alerts []obs.Alert
	// Dumps holds the cell's flight-recorder dumps (alert firings, fault
	// injections, readback mismatches).
	Dumps []obs.FlightDump
	// DumpFiles lists the JSONL artifact paths written for Dumps when
	// ServeOptions.FlightDir was set, in dump order.
	DumpFiles []string
}

// ServeResult is a completed serving sweep.
type ServeResult struct {
	Plan      serve.Plan
	Loads     []float64
	Strat     []core.Strategy
	Admission core.ServeAdmission
	SLO       des.Time
	// Cells is strategy-major, load-minor — the deterministic sweep order.
	Cells []*ServeCell
	// Perf: as in SweepResult.
	Perf SweepPerf
}

// Cell returns the outcome for (strategy, load), or nil.
func (sr *ServeResult) Cell(s core.Strategy, load float64) *ServeCell {
	for _, c := range sr.Cells {
		if c.Strategy == s && c.Load == load {
			return c
		}
	}
	return nil
}

// RunServeSweep runs the serving scenario over every (strategy, load) cell
// and assembles the telemetry. Every per-query attribution is
// conservation-checked (and, like every run, the whole-run attribution and
// any windowed series by the sweep runner); results are bit-identical at any
// Parallelism.
func RunServeSweep(opts ServeOptions) (*ServeResult, error) {
	loads := opts.Loads
	if len(loads) == 0 {
		loads = []float64{1}
	}
	strat := orAll(opts.Strategies)
	slo := opts.SLO
	if slo <= 0 {
		slo = des.Second
	}
	sr := &ServeResult{
		Plan:      opts.Plan,
		Loads:     loads,
		Strat:     strat,
		Admission: opts.Admission,
		SLO:       slo,
	}

	// One arrival schedule per load, shared across strategies.
	type loadPlan struct {
		plan     serve.Plan
		arrivals []serve.Arrival
	}
	lps := make([]loadPlan, len(loads))
	for i, load := range loads {
		p := opts.Plan.Scaled(load)
		arr, err := p.Generate()
		if err != nil {
			return nil, fmt.Errorf("serve: load=%g: %w", load, err)
		}
		if len(arr) == 0 {
			return nil, fmt.Errorf("serve: load=%g generated no arrivals", load)
		}
		lps[i] = loadPlan{plan: p, arrivals: arr}
	}

	var recs []*causal.Recorder
	sw := &sweep{suite: "serve", parallelism: opts.Parallelism}
	for _, s := range strat {
		for li, load := range loads {
			cfg := opts.Base
			cfg.Strategy = s
			cfg.Workload.NumQueries = len(lps[li].arrivals)
			cfg.Serve = &core.ServePlan{
				Arrivals:  serve.Times(lps[li].arrivals),
				Tenants:   serve.TenantNames(lps[li].arrivals),
				Admission: opts.Admission,
				SLO:       slo,
			}
			cfg.Telemetry = opts.Telemetry
			sr.Cells = append(sr.Cells, &ServeCell{
				Strategy:    s,
				Load:        load,
				OfferedRate: lps[li].plan.OfferedRate(),
			})
			sw.cfgs = append(sw.cfgs, cfg)
			recs = append(recs, causal.NewRecorder())
		}
	}
	sw.id = func(cell int) string {
		return fmt.Sprintf("%v load=%g", sr.Cells[cell].Strategy, sr.Cells[cell].Load)
	}
	sw.prep = func(cell, rep int, cfg *core.Config) { cfg.Causal = recs[cell] }
	sw.fold = func(cell int, reports []*core.Report) error {
		c := sr.Cells[cell]
		if err := finishServeCell(c, reports[0], recs[cell],
			lps[cell%len(loads)].arrivals, slo); err != nil {
			return err
		}
		if opts.FlightDir != "" && len(c.Dumps) > 0 {
			prefix := fmt.Sprintf("flight_serve_%s_load%s",
				strategySlug(c.Strategy), trimFloat(c.Load))
			files, err := writeFlightDumps(opts.FlightDir, prefix, reports[0])
			if err != nil {
				return err
			}
			c.DumpFiles = files
		}
		return nil
	}
	var err error
	if sr.Perf, err = sw.run(); err != nil {
		return nil, err
	}
	return sr, nil
}

// finishServeCell turns one run's report into the cell's telemetry: latency
// histograms, percentiles, SLO counts, throughput, and banded tail
// attribution (one conservation-checked critical-path walk per query). The
// latency histograms themselves come from the run's own registry — core
// records serve.latency and serve.latency.<tenant> in arrival order — so the
// snapshot, windowed series, and alert timeline all describe one registry.
func finishServeCell(c *ServeCell, rep *core.Report, rec *causal.Recorder,
	arrivals []serve.Arrival, slo des.Time) error {

	c.Queries = rep.Queries
	c.Overall = rep.Overall
	latencies := make([]des.Time, len(rep.Queries))
	var lastDone des.Time
	for i, q := range rep.Queries {
		latencies[i] = q.Latency()
		if q.Done > lastDone {
			lastDone = q.Done
		}
	}
	c.Metrics = rep.Metrics
	c.Windows = rep.Windows
	c.Alerts = rep.Alerts
	c.Dumps = rep.FlightDumps

	h, ok := c.Metrics.Hists["serve.latency"]
	if !ok {
		return fmt.Errorf("no latency histogram")
	}
	c.P50 = des.FromSeconds(h.Quantile(0.50))
	c.P90 = des.FromSeconds(h.Quantile(0.90))
	c.P99 = des.FromSeconds(h.Quantile(0.99))
	c.P999 = des.FromSeconds(h.Quantile(0.999))
	c.Max = des.FromSeconds(h.Max)
	c.Violations = serve.Violations(latencies, slo)
	if span := lastDone - rep.Queries[0].Arrival; span > 0 {
		c.Throughput = float64(len(rep.Queries)) / span.Seconds()
	}

	// Per-tenant telemetry, in first-appearance (stream) order.
	var order []string
	byTenant := map[string]*ServeTenant{}
	for i, a := range arrivals {
		t := byTenant[a.Tenant]
		if t == nil {
			t = &ServeTenant{Name: a.Tenant}
			byTenant[a.Tenant] = t
			order = append(order, a.Tenant)
		}
		t.Queries++
		if latencies[i] > slo {
			t.Violations++
		}
	}
	for _, name := range order {
		t := byTenant[name]
		if ht, ok := c.Metrics.Hists["serve.latency."+name]; ok {
			t.P99 = des.FromSeconds(ht.Quantile(0.99))
		}
		c.Tenants = append(c.Tenants, *t)
	}

	// Banded tail attribution: one backward critical-path walk per query,
	// anchored at the process that completed its durable write.
	for _, band := range serve.Partition(latencies) {
		sb := ServeBand{Label: band.Label, Queries: len(band.Queries), Lo: band.Lo, Hi: band.Hi}
		for _, qi := range band.Queries {
			q := rep.Queries[qi]
			att := rec.CriticalPathBetween(q.Proc, q.Arrival, q.Done)
			if err := att.Check(); err != nil {
				return fmt.Errorf("query %d: %w", q.Q, err)
			}
			for cat := causal.Category(0); cat < causal.NumCategories; cat++ {
				sb.Path[cat] += att.ByCat[cat]
			}
		}
		c.Bands = append(c.Bands, sb)
	}
	return nil
}

// PercentileTable renders the latency percentiles, throughput, and SLO
// violations — one row per (strategy, load).
func (sr *ServeResult) PercentileTable() *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("Serving latency percentiles — %s admission, SLO %.3fs",
			sr.Admission, sr.SLO.Seconds()),
		"strategy", "load", "offered (q/s)", "tput (q/s)",
		"p50 (s)", "p90 (s)", "p99 (s)", "p999 (s)", "max (s)", "SLO viol")
	for _, c := range sr.Cells {
		t.AddRowf(c.Strategy.String(), trimFloat(c.Load), c.OfferedRate, c.Throughput,
			c.P50.Seconds(), c.P90.Seconds(), c.P99.Seconds(), c.P999.Seconds(),
			c.Max.Seconds(), c.Violations)
	}
	return t
}

// ThroughputTable renders the throughput-vs-offered-load curve: one row per
// load, one column per strategy.
func (sr *ServeResult) ThroughputTable() *stats.Table {
	headers := []string{"load", "offered (q/s)"}
	for _, s := range sr.Strat {
		headers = append(headers, s.String()+" (q/s)")
	}
	t := stats.NewTable("Serving throughput vs offered load", headers...)
	for _, load := range sr.Loads {
		row := []any{trimFloat(load), sr.Plan.Scaled(load).OfferedRate()}
		for _, s := range sr.Strat {
			if c := sr.Cell(s, load); c != nil {
				row = append(row, c.Throughput)
			} else {
				row = append(row, "-")
			}
		}
		t.AddRowf(row...)
	}
	return t
}

// TenantTable renders the per-tenant SLO accounting for one load.
func (sr *ServeResult) TenantTable(load float64) *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("Per-tenant SLO accounting — load %s", trimFloat(load)),
		"strategy", "tenant", "queries", "p99 (s)", "SLO viol")
	for _, s := range sr.Strat {
		c := sr.Cell(s, load)
		if c == nil {
			continue
		}
		for _, tn := range c.Tenants {
			t.AddRowf(s.String(), tn.Name, tn.Queries, tn.P99.Seconds(), tn.Violations)
		}
	}
	return t
}

// TailTable renders the per-band critical-path attribution shares for one
// load: which category dominates each latency band under each strategy —
// the "p999 under WW-Coll is mostly sync wait" table.
func (sr *ServeResult) TailTable(load float64) *stats.Table {
	headers := []string{"strategy", "band", "queries"}
	for _, n := range causal.CategoryNames() {
		headers = append(headers, n+" (%)")
	}
	t := stats.NewTable(
		fmt.Sprintf("Tail critical-path attribution — load %s", trimFloat(load)),
		headers...)
	for _, s := range sr.Strat {
		c := sr.Cell(s, load)
		if c == nil {
			continue
		}
		for _, b := range c.Bands {
			if b.Queries == 0 {
				continue
			}
			total := b.Path.Total()
			row := []any{s.String(), b.Label, b.Queries}
			for cat := causal.Category(0); cat < causal.NumCategories; cat++ {
				share := 0.0
				if total > 0 {
					share = 100 * float64(b.Path[cat]) / float64(total)
				}
				row = append(row, share)
			}
			t.AddRowf(row...)
		}
	}
	return t
}

// AlertTable renders the sweep's alert timeline: every rule firing and
// resolution across every cell, in (cell, virtual-time) order. Empty (but
// present) when telemetry ran and no rule fired.
func (sr *ServeResult) AlertTable() *stats.Table {
	return alertTable("SLO alert timeline", []string{"strategy", "load"},
		len(sr.Cells), func(cell int) ([]string, []obs.Alert) {
			c := sr.Cells[cell]
			return []string{c.Strategy.String(), trimFloat(c.Load)}, c.Alerts
		})
}

// SeriesTable renders one cell's windowed time-series: per-window rates of
// the serving counters and the latency histogram summary.
func (c *ServeCell) SeriesTable() *stats.Table {
	if c.Windows == nil {
		return nil
	}
	return c.Windows.Table(
		fmt.Sprintf("Windowed telemetry — %v load %s (width %.3fs)",
			c.Strategy, trimFloat(c.Load), c.Windows.Width.Seconds()),
		"serve.queries", "serve.slo_violations", "serve.latency")
}

// Tables returns the serving report in print order: percentiles, the
// throughput curve, per-load tenant and tail-attribution tables, and — when
// telemetry ran — the alert timeline plus one time-series table per cell.
func (sr *ServeResult) Tables() []*stats.Table {
	out := []*stats.Table{sr.PercentileTable(), sr.ThroughputTable()}
	for _, load := range sr.Loads {
		out = append(out, sr.TenantTable(load), sr.TailTable(load))
	}
	telemetry := false
	for _, c := range sr.Cells {
		if c.Windows != nil {
			telemetry = true
			break
		}
	}
	if telemetry {
		out = append(out, sr.AlertTable())
		for _, c := range sr.Cells {
			if t := c.SeriesTable(); t != nil {
				out = append(out, t)
			}
		}
	}
	return out
}
