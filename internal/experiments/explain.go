package experiments

import (
	"fmt"

	"s3asim/internal/causal"
	"s3asim/internal/core"
	"s3asim/internal/des"
	"s3asim/internal/stats"
)

// This file is the "-explain" mode behind s3abench: run the full strategy ×
// {no-sync, sync} matrix at one process count with a causal recorder attached
// to every run, extract each run's critical path, and render the attribution
// as tables — where every virtual nanosecond of the overall time went, which
// strategy pays it in which category, and how two strategies' paths differ
// (the mechanical version of the paper's Figures 4–9 narrative).

// ExplainOptions configures RunExplain.
type ExplainOptions struct {
	// Base is the template configuration; Strategy and QuerySync are
	// overridden per run, Procs by the Procs field below.
	Base core.Config
	// Procs is the process count to explain at (0 keeps Base.Procs).
	Procs int
	// Strategies defaults to all four.
	Strategies []core.Strategy
	// Parallelism bounds concurrent runs (0 = GOMAXPROCS, 1 = sequential).
	// Recorders are per-run, so results are identical at any parallelism.
	Parallelism int
	// CaptureFlows additionally records message flow arrows on every run's
	// recorder (for Perfetto export of an explained run).
	CaptureFlows bool
}

// ExplainRun is one (strategy, sync) run with its causal analysis.
type ExplainRun struct {
	Strategy  core.Strategy
	QuerySync bool
	Report    *core.Report
	// Attribution is the run's critical path (conservation-checked: the
	// categories sum exactly to Report.Overall).
	Attribution *causal.Attribution
	// Totals is the all-process category aggregate — total instrumented
	// virtual time, on and off the critical path.
	Totals causal.Breakdown
	// Recorder is the run's raw happens-before record (flow events, custom
	// windows via Attribution.Between).
	Recorder *causal.Recorder
}

// ExplainResult is a completed explain matrix.
type ExplainResult struct {
	Procs int
	Strat []core.Strategy
	Syncs []bool
	Runs  map[CellKey]*ExplainRun
	// Perf: as in SweepResult.
	Perf SweepPerf
}

// RunExplain runs every (strategy, sync) combination once at opts.Procs with
// a fresh causal recorder per run and returns the analyzed matrix. The sweep
// runner conservation-checks every attribution.
func RunExplain(opts ExplainOptions) (*ExplainResult, error) {
	procs := opts.Procs
	if procs <= 0 {
		procs = opts.Base.Procs
	}
	strat := orAll(opts.Strategies)
	er := &ExplainResult{
		Procs: procs,
		Strat: strat,
		Syncs: []bool{false, true},
		Runs:  make(map[CellKey]*ExplainRun),
	}
	var (
		keys []CellKey
		recs []*causal.Recorder
	)
	sw := &sweep{suite: "explain", parallelism: opts.Parallelism}
	for _, s := range strat {
		for _, sync := range er.Syncs {
			cfg := opts.Base
			cfg.Strategy = s
			cfg.QuerySync = sync
			cfg.Procs = procs
			rec := causal.NewRecorder()
			rec.SetCaptureFlows(opts.CaptureFlows)
			keys = append(keys, CellKey{Strategy: s, QuerySync: sync, X: float64(procs)})
			sw.cfgs = append(sw.cfgs, cfg)
			recs = append(recs, rec)
		}
	}
	sw.id = func(cell int) string { return fmt.Sprintf("%v sync=%v", keys[cell].Strategy, keys[cell].QuerySync) }
	sw.prep = func(cell, rep int, cfg *core.Config) { cfg.Causal = recs[cell] }
	sw.fold = func(cell int, reports []*core.Report) error {
		k, r := keys[cell], reports[0]
		er.Runs[k] = &ExplainRun{
			Strategy:    k.Strategy,
			QuerySync:   k.QuerySync,
			Report:      r,
			Attribution: r.Attribution,
			Totals:      r.CausalTotals,
			Recorder:    recs[cell],
		}
		return nil
	}
	var err error
	if er.Perf, err = sw.run(); err != nil {
		return nil, err
	}
	return er, nil
}

// Run returns the analyzed run for (strategy, sync), or nil.
func (er *ExplainResult) Run(s core.Strategy, sync bool) *ExplainRun {
	return er.Runs[CellKey{Strategy: s, QuerySync: sync, X: float64(er.Procs)}]
}

// PathTable renders the critical-path attribution for one sync mode: one row
// per strategy, one column per category, plus the attributed total — which
// equals the overall virtual time exactly (the conservation invariant).
func (er *ExplainResult) PathTable(sync bool) *stats.Table {
	label := "no-sync"
	if sync {
		label = "sync"
	}
	headers := []string{"strategy"}
	for _, n := range causal.CategoryNames() {
		headers = append(headers, n+" (s)")
	}
	headers = append(headers, "total (s)", "overall (s)")
	t := stats.NewTable(
		fmt.Sprintf("Critical-path attribution — %d procs, %s", er.Procs, label),
		headers...)
	for _, s := range er.Strat {
		run := er.Run(s, sync)
		if run == nil {
			continue
		}
		row := []any{s.String()}
		for c := causal.Category(0); c < causal.NumCategories; c++ {
			row = append(row, run.Attribution.ByCat[c].Seconds())
		}
		row = append(row, run.Attribution.Total.Seconds(), run.Report.Overall.Seconds())
		t.AddRowf(row...)
	}
	return t
}

// ShareTable renders the same attribution as percentages of the overall time.
func (er *ExplainResult) ShareTable(sync bool) *stats.Table {
	label := "no-sync"
	if sync {
		label = "sync"
	}
	headers := []string{"strategy"}
	for _, n := range causal.CategoryNames() {
		headers = append(headers, n+" (%)")
	}
	t := stats.NewTable(
		fmt.Sprintf("Critical-path shares — %d procs, %s", er.Procs, label),
		headers...)
	for _, s := range er.Strat {
		run := er.Run(s, sync)
		if run == nil {
			continue
		}
		shares := run.Attribution.Shares()
		row := []any{s.String()}
		for c := causal.Category(0); c < causal.NumCategories; c++ {
			row = append(row, 100*shares[c])
		}
		t.AddRowf(row...)
	}
	return t
}

// TotalsTable renders the all-process category aggregate (the denominator of
// "how much of the fleet's time was X", not just the critical path).
func (er *ExplainResult) TotalsTable(sync bool) *stats.Table {
	label := "no-sync"
	if sync {
		label = "sync"
	}
	headers := []string{"strategy"}
	for _, n := range causal.CategoryNames() {
		headers = append(headers, n+" (s)")
	}
	t := stats.NewTable(
		fmt.Sprintf("All-process category totals — %d procs, %s", er.Procs, label),
		headers...)
	for _, s := range er.Strat {
		run := er.Run(s, sync)
		if run == nil {
			continue
		}
		row := []any{s.String()}
		for c := causal.Category(0); c < causal.NumCategories; c++ {
			row = append(row, run.Totals[c].Seconds())
		}
		t.AddRowf(row...)
	}
	return t
}

// DiffTable renders a per-category critical-path comparison of two runs —
// e.g. WW-Coll vs WW-List under query-sync, the paper's Figures 4/7 story:
// where the slower strategy's extra virtual time actually goes.
func (er *ExplainResult) DiffTable(a, b core.Strategy, sync bool) *stats.Table {
	label := "no-sync"
	if sync {
		label = "sync"
	}
	ra, rb := er.Run(a, sync), er.Run(b, sync)
	t := stats.NewTable(
		fmt.Sprintf("Critical-path diff — %s vs %s, %d procs, %s", a, b, er.Procs, label),
		"category", a.String()+" (s)", b.String()+" (s)", "delta (s)")
	if ra == nil || rb == nil {
		return t
	}
	for c := causal.Category(0); c < causal.NumCategories; c++ {
		da, db := ra.Attribution.ByCat[c], rb.Attribution.ByCat[c]
		t.AddRowf(c.String(), da.Seconds(), db.Seconds(), (da - db).Seconds())
	}
	ta, tb := ra.Attribution.Total, rb.Attribution.Total
	t.AddRowf("total", ta.Seconds(), tb.Seconds(), (ta - tb).Seconds())
	return t
}

// SyncWaitDelta reports how much more critical-path time the synchronized run
// of strategy s spends in collective/sync wait than the unsynchronized run —
// the mechanical form of the paper's query-sync penalty.
func (er *ExplainResult) SyncWaitDelta(s core.Strategy) des.Time {
	withSync, noSync := er.Run(s, true), er.Run(s, false)
	if withSync == nil || noSync == nil {
		return 0
	}
	return withSync.Attribution.ByCat[causal.CatSyncWait] -
		noSync.Attribution.ByCat[causal.CatSyncWait]
}

// Tables returns the full explain report in print order: path attribution and
// shares per sync mode, the WW-Coll vs WW-List diff under sync, and the
// all-process totals.
func (er *ExplainResult) Tables() []*stats.Table {
	var out []*stats.Table
	for _, sync := range er.Syncs {
		out = append(out, er.PathTable(sync), er.ShareTable(sync))
	}
	if er.Run(core.WWColl, true) != nil && er.Run(core.WWList, true) != nil {
		out = append(out, er.DiffTable(core.WWColl, core.WWList, true))
	}
	for _, sync := range er.Syncs {
		out = append(out, er.TotalsTable(sync))
	}
	return out
}

// AttributionTable renders the mean per-cell critical-path attribution of a
// sweep that ran with Options.CellCausal — one row per (strategy, sync, x)
// cell that recorded a path.
func (sr *SweepResult) AttributionTable() *stats.Table {
	headers := []string{"strategy", "sync", sr.xLabel()}
	for _, n := range causal.CategoryNames() {
		headers = append(headers, n+" (s)")
	}
	headers = append(headers, "total (s)")
	t := stats.NewTable("Critical-path attribution (mean over repetitions)", headers...)
	for _, s := range sr.Strat {
		for _, sync := range sr.Syncs {
			for _, x := range sr.Xs {
				cell := sr.Cell(s, sync, x)
				if cell == nil || cell.PathRuns == 0 {
					continue
				}
				row := []any{s.String(), fmt.Sprint(sync), trimFloat(x)}
				for c := causal.Category(0); c < causal.NumCategories; c++ {
					row = append(row, cell.Path[c].Seconds())
				}
				row = append(row, cell.Path.Total().Seconds())
				t.AddRowf(row...)
			}
		}
	}
	return t
}
