package experiments

import (
	"fmt"

	"s3asim/internal/core"
	"s3asim/internal/des"
	"s3asim/internal/fault"
	"s3asim/internal/obs"
	"s3asim/internal/stats"
)

// This file is the chaos suite (s3abench -suite chaos): a crash-count sweep
// over the resilient protocol. Every strategy runs the same randomized crash
// schedules (fault.RandomCrashes seeded per repetition), so the suite answers
// the robustness question the paper's §5 leaves open: how much does each I/O
// strategy pay, in time and in redundant work, to survive worker failures?
//
// The x = 0 column is the fault-free baseline — still under the resilient
// protocol (Config.Resilient), so inflation compares recovery cost against
// the same wire protocol, not against the cheaper original one.

// ChaosOptions scales the chaos suite.
type ChaosOptions struct {
	// Base is the template configuration; Strategy and the fault plan are
	// overridden per cell. Procs stays fixed across the sweep.
	Base core.Config
	// Crashes is the x-axis: worker crashes injected per run. Include 0 to
	// get the fault-free baseline the Inflation column divides by.
	Crashes []int
	// Window is the virtual-time interval crashes are scheduled in:
	// uniformly over [Window/8, Window). It should cover the active part of
	// the run; a crash scheduled after completion simply never fires (the
	// CrashesSeen column reports what actually landed).
	Window des.Time
	// Restart is the respawn delay after each crash; 0 means crashed
	// workers stay dead (permanent crashes are capped at the worker count,
	// and killing every worker makes the run unrecoverable by design).
	Restart des.Time
	// PlanSeed seeds the crash schedules. Repetition r of every cell with
	// x crashes uses fault.RandomCrashes(PlanSeed+r, x, ...): identical
	// schedules across strategies, fresh schedules across repetitions.
	PlanSeed int64
	// Repetitions, Strategies, Parallelism, Progress: as in Options.
	Repetitions int
	Strategies  []core.Strategy
	Parallelism int
	Progress    func(string)
	// Telemetry, when non-nil, enables the virtual-time telemetry pipeline
	// in every run: windowed time-series (conservation-checked against each
	// run's snapshot), alert rules over the fault counters, and the flight
	// recorder (which auto-triggers on every fault.* injection).
	Telemetry *obs.Telemetry
	// FlightDir, when set (and Telemetry is on), writes every run's flight
	// dumps as JSONL artifacts, in deterministic cell order.
	FlightDir string
}

// PaperChaosOptions returns the chaos suite at the paper's evaluation scale
// (64 processes, default workload).
func PaperChaosOptions() ChaosOptions {
	base := core.DefaultConfig()
	base.Resilient = true
	return ChaosOptions{
		Base:        base,
		Crashes:     []int{0, 1, 2, 4, 8},
		Window:      4 * des.Second,
		Restart:     500 * des.Millisecond,
		PlanSeed:    1,
		Repetitions: 1,
	}
}

// QuickChaosOptions returns a scaled-down chaos suite for tests: the
// QuickOptions workload at 8 processes, with a tight detector so recovery
// fits in a short run.
func QuickChaosOptions() ChaosOptions {
	q := QuickOptions()
	base := q.Base
	base.Procs = 8
	base.Resilient = true
	base.DetectInterval = 2 * des.Millisecond
	return ChaosOptions{
		Base:        base,
		Crashes:     []int{0, 1, 2},
		Window:      100 * des.Millisecond,
		Restart:     25 * des.Millisecond,
		PlanSeed:    1,
		Repetitions: 1,
	}
}

// ChaosCell is one (strategy, crash count) cell of the chaos sweep. The
// embedded Cell carries the usual timing aggregates; the chaos fields are
// per-run means over the fault metrics.
type ChaosCell struct {
	Cell
	// PlannedCrashes is the cell's x: crashes scheduled per run.
	PlannedCrashes int
	// CrashesSeen / Restarts are the mean number of crash and restart
	// events that actually fired (a crash scheduled past the end of a
	// short run never lands).
	CrashesSeen float64
	Restarts    float64
	// Detected counts workers the master declared dead (restarts that
	// rejoin before the detector notices are recovered without ever being
	// declared).
	Detected float64
	// Reexecuted is the mean number of tasks dispatched more than once —
	// the suite's redundant-work measure. BytesRewritten counts output
	// bytes carried by recovery waves.
	Reexecuted     float64
	BytesRewritten float64
	// DetectAvg / DetectMax aggregate the master's failure-detection
	// latency over all detections in the cell.
	DetectAvg des.Time
	DetectMax des.Time
	// CollFallbacks is the mean number of batches WW-Coll demoted to
	// individual list I/O after losing a collective participant.
	CollFallbacks float64
	// Inflation is this cell's mean overall time over the same strategy's
	// fault-free (x = 0) mean — 0 when the sweep has no x = 0 column.
	Inflation float64
	// Windows is repetition 0's windowed time-series (nil unless Telemetry
	// was on). Like every windowed run, each repetition's series is
	// conservation-checked against its own snapshot by the sweep runner.
	Windows *obs.Series
	// Alerts concatenates every repetition's alert timeline, in repetition
	// order.
	Alerts []obs.Alert
	// Dumps counts flight-recorder dumps across the cell's repetitions;
	// DumpFiles lists the JSONL artifacts written when FlightDir was set.
	Dumps     int
	DumpFiles []string
}

// ChaosResult is a completed chaos sweep. Cells are keyed by CellKey with
// X = crash count and QuerySync = Base.QuerySync.
type ChaosResult struct {
	Xs    []int
	Sync  bool
	Strat []core.Strategy
	Cells map[CellKey]*ChaosCell
	// Metrics and Perf: as in SweepResult.
	Metrics obs.Snapshot
	Perf    SweepPerf
}

// Cell returns the cell for (strategy, crashes), or nil.
func (cr *ChaosResult) Cell(s core.Strategy, crashes int) *ChaosCell {
	return cr.Cells[CellKey{Strategy: s, QuerySync: cr.Sync, X: float64(crashes)}]
}

// RunChaosSweep executes the chaos suite. Like every sweep it is
// deterministic: the same options produce bit-identical Cells at any
// Parallelism (Perf alone varies between runs).
func RunChaosSweep(opts ChaosOptions) (*ChaosResult, error) {
	if len(opts.Crashes) == 0 {
		opts.Crashes = []int{0, 1, 2, 4}
	}
	if opts.Window <= 0 {
		opts.Window = 4 * des.Second
	}
	cr := &ChaosResult{
		Xs:    opts.Crashes,
		Sync:  opts.Base.QuerySync,
		Strat: orAll(opts.Strategies),
		Cells: make(map[CellKey]*ChaosCell),
	}
	workers := opts.Base.WorkerRanks()
	lo, hi := opts.Window/8, opts.Window
	var keys []CellKey
	sw := &sweep{
		suite:       "chaos",
		parallelism: opts.Parallelism,
		reps:        opts.Repetitions,
		progress:    opts.Progress,
	}
	for _, s := range cr.Strat {
		for _, x := range opts.Crashes {
			cfg := opts.Base
			cfg.Strategy = s
			cfg.Resilient = true
			cfg.Telemetry = opts.Telemetry
			keys = append(keys, CellKey{Strategy: s, QuerySync: cr.Sync, X: float64(x)})
			sw.cfgs = append(sw.cfgs, cfg)
		}
	}
	sw.id = func(cell int) string { return fmt.Sprintf("%v crashes=%g", keys[cell].Strategy, keys[cell].X) }
	sw.prep = func(cell, rep int, cfg *core.Config) {
		if n := int(keys[cell].X); n > 0 {
			cfg.FaultPlan = fault.RandomCrashes(opts.PlanSeed+int64(rep), n,
				workers, lo, hi, opts.Restart)
		}
	}
	sw.fold = func(cell int, reps []*core.Report) error {
		k := keys[cell]
		c := reduceChaosCell(k, reps)
		cr.Cells[k] = c
		for rep, r := range reps {
			cr.Metrics = cr.Metrics.Merge(r.Metrics)
			if r.Windows == nil {
				continue
			}
			if rep == 0 {
				c.Windows = r.Windows
			}
			c.Alerts = append(c.Alerts, r.Alerts...)
			c.Dumps += len(r.FlightDumps)
			if opts.FlightDir != "" && len(r.FlightDumps) > 0 {
				prefix := fmt.Sprintf("flight_chaos_%s_x%g_rep%d",
					strategySlug(k.Strategy), k.X, rep)
				files, err := writeFlightDumps(opts.FlightDir, prefix, r)
				if err != nil {
					return err
				}
				c.DumpFiles = append(c.DumpFiles, files...)
			}
		}
		sw.say("chaos %s crashes=%g: %.2fs (%.0f seen, %.0f tasks re-run)",
			k.Strategy, k.X, c.Overall.Seconds(), c.CrashesSeen, c.Reexecuted)
		return nil
	}
	perf, err := sw.run()
	if err != nil {
		return nil, err
	}
	cr.Perf = perf
	// Inflation folds in after all cells exist: each cell over its
	// strategy's fault-free column.
	for _, s := range cr.Strat {
		base := cr.Cell(s, 0)
		if base == nil || base.Overall <= 0 {
			continue
		}
		for _, x := range cr.Xs {
			if c := cr.Cell(s, x); c != nil {
				c.Inflation = float64(c.Overall) / float64(base.Overall)
			}
		}
	}
	return cr, nil
}

// reduceChaosCell folds one cell's per-repetition reports into means, in
// repetition order (same determinism contract as reduceCell).
func reduceChaosCell(key CellKey, reports []*core.Report) *ChaosCell {
	c := &ChaosCell{Cell: *reduceCell(key, reports), PlannedCrashes: int(key.X)}
	n := float64(len(reports))
	var detect stats.Online
	for _, r := range reports {
		mc := r.Metrics.Counters
		c.CrashesSeen += float64(mc["fault.crashes"]) / n
		c.Restarts += float64(mc["fault.restarts"]) / n
		c.Detected += float64(mc["fault.workers_detected"]) / n
		c.Reexecuted += float64(mc["fault.tasks_reexecuted"]) / n
		c.BytesRewritten += float64(mc["fault.bytes_rewritten"]) / n
		c.CollFallbacks += float64(mc["fault.coll_fallbacks"]) / n
		// Engine histograms record durations in seconds (obs.ObserveTime).
		if h, ok := r.Metrics.Hists["fault.detection_latency"]; ok && h.Count > 0 {
			detect.Add(h.Mean)
			if m := des.FromSeconds(h.Max); m > c.DetectMax {
				c.DetectMax = m
			}
		}
	}
	if detect.N() > 0 {
		c.DetectAvg = des.FromSeconds(detect.Mean())
	}
	return c
}

// Table renders the chaos sweep as one row per (strategy, crash count).
func (cr *ChaosResult) Table() *stats.Table {
	tb := stats.NewTable(
		fmt.Sprintf("Chaos suite: overall time and recovery cost vs injected worker crashes (%s)",
			syncLabel(cr.Sync)),
		"strategy", "crashes", "seen", "overall (s)", "inflation",
		"tasks re-run", "detected", "detect avg (ms)", "coll fallbacks")
	for _, s := range cr.Strat {
		for _, x := range cr.Xs {
			c := cr.Cell(s, x)
			if c == nil {
				continue
			}
			tb.AddRowf(s.String(), x, c.CrashesSeen, c.Overall.Seconds(),
				c.Inflation, c.Reexecuted, c.Detected,
				c.DetectAvg.Seconds()*1e3, c.CollFallbacks)
		}
	}
	return tb
}

// AlertTable renders the chaos sweep's alert timeline — every rule firing
// and resolution across every (strategy, crash count) cell.
func (cr *ChaosResult) AlertTable() *stats.Table {
	type row struct {
		k CellKey
		c *ChaosCell
	}
	var rows []row
	for _, s := range cr.Strat {
		for _, x := range cr.Xs {
			if c := cr.Cell(s, x); c != nil {
				rows = append(rows, row{CellKey{Strategy: s, X: float64(x)}, c})
			}
		}
	}
	return alertTable("Chaos alert timeline", []string{"strategy", "crashes"},
		len(rows), func(cell int) ([]string, []obs.Alert) {
			r := rows[cell]
			return []string{r.k.Strategy.String(), trimFloat(r.k.X)}, r.c.Alerts
		})
}

func syncLabel(sync bool) string {
	if sync {
		return "sync"
	}
	return "no-sync"
}
