package experiments

import (
	"fmt"

	"s3asim/internal/causal"
	"s3asim/internal/core"
	"s3asim/internal/des"
	"s3asim/internal/romio"
	"s3asim/internal/serve"
	"s3asim/internal/stats"
)

// This file is the "-suite adaptive" harness: pit the closed-loop controller
// (core.Config.Adaptive — per-batch strategy selection plus ROMIO hint
// hill-climbing, DESIGN.md §16) against every static strategy across a set of
// workload regimes. Each regime is engineered so a different static strategy
// wins, so a controller that merely locks onto one arm loses somewhere; the
// headline claim is "adaptive matches the best static everywhere and beats
// every static on the mixed regimes". Every cell runs under a causal recorder
// and its attribution is conservation-checked, so the comparison tables can
// say *where* the saved time came from (sync wait, I/O queueing, transit).

// AdaptiveOptions configures RunAdaptiveSweep.
type AdaptiveOptions struct {
	// Base is the template configuration; Strategy, Adaptive, the workload
	// shape, Serve, and Readback are overridden per regime and cell.
	Base core.Config
	// Controller is the adaptive cell's controller template (zero value =
	// core defaults: all of {MW, WW-List, WW-Coll}, hysteresis 0.10).
	Controller core.AdaptiveConfig
	// Strategies are the static comparators (default all four).
	Strategies []core.Strategy
	// Queries is the query count of each batch regime (default 48): enough
	// batches that the controller's bootstrap phase amortizes.
	Queries int
	// Parallelism bounds concurrent cells (0 = GOMAXPROCS, 1 = sequential);
	// results are bit-identical at any width.
	Parallelism int
}

// QuickAdaptiveOptions is the test/smoke scale: the same 16-process,
// 16-fragment topology as the paper scale (the strategy crossovers the
// controller must learn are topology-dependent, so quick is a shorter run of
// the same experiment, not a smaller cluster) with 48 queries per regime.
func QuickAdaptiveOptions() AdaptiveOptions {
	base := core.DefaultConfig()
	base.Procs = 16
	base.Workload.NumFragments = 16
	base.Workload.MinResults = 20
	base.Workload.MaxResults = 40
	base.Workload.QueryHist = stats.Uniform(200, 2000)
	base.Workload.DBSeqHist = stats.Uniform(200, 10000)
	base.Workload.MinResultSize = 256
	return AdaptiveOptions{
		Base:    base,
		Queries: 48,
		// A slow EWMA and a wide hysteresis band: the paper-shaped medium
		// regime sits near the MW / WW-List crossover with DB-dominated
		// (ex-ante unpredictable) result sizes, so per-batch headway noise
		// must not flip the incumbent.
		Controller: core.AdaptiveConfig{Gamma: 0.05},
	}
}

// PaperAdaptiveOptions is the full scale: the same topology, 96 queries per
// batch regime.
func PaperAdaptiveOptions() AdaptiveOptions {
	opts := QuickAdaptiveOptions()
	opts.Queries = 96
	return opts
}

// adaptiveRegime shapes one workload regime of the sweep.
type adaptiveRegime struct {
	name   string
	metric string                 // "wall (s)" or "p99 (s)"
	mutate func(cfg *core.Config) // workload shaping, applied to every cell
	plan   *serve.Plan            // non-nil: open-loop serving regime
	slo    des.Time               // serving SLO target
	mixed  bool                   // a regime where no single arm should win
}

// regimes builds the sweep's regime set from the options:
//
//   - tiny-results: every result is small, so the master-write bottleneck
//     never bites — MW's single contiguous write should win.
//   - paper-medium: the paper-shaped medium workload where WW-List wins.
//   - bimodal-batch: a per-query mix of tiny and huge results; no static
//     strategy is right for both modes, so the controller should beat all.
//   - serve-mixed: the same bimodal mix arriving as open-loop traffic,
//     scored on p99 latency instead of wall-clock.
//   - getput-mix: bimodal with the verified read path re-reading each batch
//     once after its write (≈50/50 GET/PUT) plus a 100% GET post-run pass.
func (o *AdaptiveOptions) regimes() []adaptiveRegime {
	queries := o.Queries
	if queries <= 0 {
		queries = 48
	}
	// The bimodal mix: half the queries are tiny probes, half are huge
	// scans. Result size tracks query length (the DB sequences stay
	// moderate), so the controller's ex-ante length signal is honest — the
	// paper's premise that query size drives result volume.
	bimodal := func(cfg *core.Config) {
		cfg.Workload.NumQueries = queries
		cfg.Workload.QueryHist = stats.MustBoxHistogram([]stats.Bin{
			{Min: 60, Max: 150, Weight: 1},
			{Min: 20000, Max: 60000, Weight: 1},
		})
		cfg.Workload.DBSeqHist = stats.Uniform(200, 2000)
		cfg.Workload.MinResultSize = 64
	}
	return []adaptiveRegime{
		{
			name:   "tiny-results",
			metric: "wall (s)",
			mutate: func(cfg *core.Config) {
				cfg.Workload.NumQueries = queries
				cfg.Workload.QueryHist = stats.Uniform(60, 150)
				cfg.Workload.DBSeqHist = stats.Uniform(100, 300)
				cfg.Workload.MinResultSize = 64
			},
		},
		{
			name:   "paper-medium",
			metric: "wall (s)",
			mutate: func(cfg *core.Config) {
				cfg.Workload.NumQueries = queries
			},
		},
		{
			name:   "bimodal-batch",
			metric: "wall (s)",
			mutate: bimodal,
			mixed:  true,
		},
		{
			name:   "serve-mixed",
			metric: "p99 (s)",
			mutate: bimodal,
			plan: &serve.Plan{
				Seed:    11,
				Horizon: 10 * des.Second,
				Tenants: []serve.Tenant{
					{Name: "steady", Rate: 3, Process: serve.Poisson},
					{Name: "spiky", Rate: 2, Process: serve.Bursty,
						BurstFactor: 5, BurstFrac: 0.15,
						BurstDwell: 500 * des.Millisecond},
				},
			},
			slo:   2 * des.Second,
			mixed: true,
		},
		{
			name:   "getput-mix",
			metric: "wall (s)",
			mutate: func(cfg *core.Config) {
				bimodal(cfg)
				cfg.CaptureData = true
				cfg.Readback = &core.ReadbackConfig{
					Method:     romio.ListIO,
					InRunReads: 1,
					PostRun:    true,
				}
			},
			mixed: true,
		},
	}
}

// AdaptiveCellResult is one (regime, policy) outcome.
type AdaptiveCellResult struct {
	// Label is the static strategy name, or "adaptive".
	Label string
	// IsAdaptive marks the controller cell.
	IsAdaptive bool
	// Overall is the run's virtual wall-clock.
	Overall des.Time
	// Score is the regime's comparison metric: Overall for batch regimes,
	// p99 end-to-end latency for serving regimes.
	Score des.Time
	// Path is the run's conservation-checked critical-path decomposition.
	Path causal.Breakdown
	// Violations counts SLO violations (serving regimes only).
	Violations int
	// Switches and Adaptive describe the controller cell (zero/nil for
	// static cells).
	Switches int64
	Adaptive *core.AdaptiveReport
}

// AdaptiveRegimeResult is one regime's full comparison.
type AdaptiveRegimeResult struct {
	Name   string
	Metric string
	// Mixed marks regimes engineered so no single static arm should win.
	Mixed bool
	// Cells holds the static strategies in option order, then the adaptive
	// cell last.
	Cells []*AdaptiveCellResult
}

// Controller returns the regime's adaptive cell.
func (rr *AdaptiveRegimeResult) Controller() *AdaptiveCellResult {
	return rr.Cells[len(rr.Cells)-1]
}

// BestStatic returns the static cell with the lowest score.
func (rr *AdaptiveRegimeResult) BestStatic() *AdaptiveCellResult {
	var best *AdaptiveCellResult
	for _, c := range rr.Cells {
		if c.IsAdaptive {
			continue
		}
		if best == nil || c.Score < best.Score {
			best = c
		}
	}
	return best
}

// AdaptiveResult is a completed adaptive-I/O sweep.
type AdaptiveResult struct {
	Strat   []core.Strategy
	Regimes []*AdaptiveRegimeResult
	// Perf: as in SweepResult.
	Perf SweepPerf
}

// Headline evaluates the sweep's claim: the controller is no worse than the
// best static strategy (within tol, e.g. 0.01 = 1%) on every regime, and
// strictly better than every static on at least one mixed regime. It returns
// the regimes where the controller lost by more than tol, and the mixed
// regimes where it strictly won.
func (ar *AdaptiveResult) Headline(tol float64) (lost, strictWins []string) {
	for _, rr := range ar.Regimes {
		ad, best := rr.Controller(), rr.BestStatic()
		if float64(ad.Score) > float64(best.Score)*(1+tol) {
			lost = append(lost, rr.Name)
		}
		if rr.Mixed && ad.Score < best.Score {
			strictWins = append(strictWins, rr.Name)
		}
	}
	return lost, strictWins
}

// RunAdaptiveSweep runs every regime × (static strategies + controller) cell
// under a private causal recorder, conservation-checks every attribution,
// and assembles the comparison. Results are bit-identical at any
// Parallelism.
func RunAdaptiveSweep(opts AdaptiveOptions) (*AdaptiveResult, error) {
	strat := orAll(opts.Strategies)
	regimes := opts.regimes()
	ar := &AdaptiveResult{Strat: strat}
	var cells []*AdaptiveCellResult
	sw := &sweep{suite: "adaptive", parallelism: opts.Parallelism}
	for _, rg := range regimes {
		rr := &AdaptiveRegimeResult{Name: rg.name, Metric: rg.metric, Mixed: rg.mixed}
		var arrivals []serve.Arrival
		if rg.plan != nil {
			arr, err := rg.plan.Generate()
			if err != nil {
				return nil, fmt.Errorf("adaptive: %s: %w", rg.name, err)
			}
			if len(arr) == 0 {
				return nil, fmt.Errorf("adaptive: %s generated no arrivals", rg.name)
			}
			arrivals = arr
		}
		for pol := 0; pol <= len(strat); pol++ {
			cfg := opts.Base
			rg.mutate(&cfg)
			cell := &AdaptiveCellResult{}
			if pol < len(strat) {
				cfg.Strategy = strat[pol]
				cell.Label = strat[pol].String()
			} else {
				ctrl := opts.Controller
				cfg.Adaptive = &ctrl
				cell.Label = "adaptive"
				cell.IsAdaptive = true
			}
			if rg.plan != nil {
				cfg.Workload.NumQueries = len(arrivals)
				cfg.Serve = &core.ServePlan{
					Arrivals: serve.Times(arrivals),
					Tenants:  serve.TenantNames(arrivals),
					SLO:      rg.slo,
				}
			}
			rr.Cells = append(rr.Cells, cell)
			cells = append(cells, cell)
			sw.cfgs = append(sw.cfgs, cfg)
		}
		ar.Regimes = append(ar.Regimes, rr)
	}

	regimeOf := func(cell int) adaptiveRegime { return regimes[cell/(len(strat)+1)] }
	sw.id = func(cell int) string { return regimeOf(cell).name + " " + cells[cell].Label }
	sw.prep = func(cell, rep int, cfg *core.Config) { cfg.Causal = causal.NewRecorder() }
	sw.fold = func(cell int, reports []*core.Report) error {
		return finishAdaptiveCell(cells[cell], reports[0], regimeOf(cell))
	}
	var err error
	if ar.Perf, err = sw.run(); err != nil {
		return nil, err
	}
	return ar, nil
}

// finishAdaptiveCell folds one run's report into its cell: the score, the
// whole-run attribution (conservation-checked by the sweep runner), and —
// for the controller cell — the adaptive report.
func finishAdaptiveCell(c *AdaptiveCellResult, rep *core.Report, rg adaptiveRegime) error {
	c.Overall = rep.Overall
	c.Score = rep.Overall
	c.Path = rep.Attribution.ByCat
	if rg.plan != nil {
		h, ok := rep.Metrics.Hists["serve.latency"]
		if !ok {
			return fmt.Errorf("no serve.latency histogram")
		}
		c.Score = des.FromSeconds(h.Quantile(0.99))
		latencies := make([]des.Time, len(rep.Queries))
		for i, q := range rep.Queries {
			latencies[i] = q.Latency()
		}
		c.Violations = serve.Violations(latencies, rg.slo)
	}
	if ad := rep.Adaptive; ad != nil {
		c.Adaptive = ad
		c.Switches = ad.Switches
	}
	return nil
}

// ScoreTable renders the headline comparison: one row per regime, one column
// per policy, plus the best static and the controller's margin against it
// (positive = controller faster).
func (ar *AdaptiveResult) ScoreTable() *stats.Table {
	headers := []string{"regime", "metric"}
	for _, s := range ar.Strat {
		headers = append(headers, s.String())
	}
	headers = append(headers, "adaptive", "best static", "margin (%)")
	t := stats.NewTable("Adaptive controller vs static strategies", headers...)
	for _, rr := range ar.Regimes {
		row := []any{rr.Name, rr.Metric}
		for _, c := range rr.Cells {
			row = append(row, c.Score.Seconds())
		}
		best := rr.BestStatic()
		margin := 100 * (1 - float64(rr.Controller().Score)/float64(best.Score))
		row = append(row, best.Label, margin)
		t.AddRowf(row...)
	}
	return t
}

// ArmTable renders the controller's behaviour per regime: how batches were
// assigned across arms, switch/epoch counts, and the tuned hints.
func (ar *AdaptiveResult) ArmTable() *stats.Table {
	var armNames []string
	for _, rr := range ar.Regimes {
		if ad := rr.Controller().Adaptive; ad != nil {
			armNames = ad.Arms
			break
		}
	}
	headers := []string{"regime"}
	for _, n := range armNames {
		headers = append(headers, n)
	}
	headers = append(headers, "switches", "epochs", "probes", "converged",
		"cb_nodes", "sieve (KiB)")
	t := stats.NewTable("Adaptive arm assignment and hint search", headers...)
	for _, rr := range ar.Regimes {
		ad := rr.Controller().Adaptive
		if ad == nil {
			continue
		}
		row := []any{rr.Name}
		for _, n := range ad.Assigned {
			row = append(row, n)
		}
		row = append(row, ad.Switches, ad.Epochs, ad.ProbeEpochs, ad.Converged,
			ad.FinalHints.CBNodes, ad.FinalHints.SieveBufferSize/1024)
		t.AddRowf(row...)
	}
	return t
}

// DiffTable renders one regime's causal comparison: the controller's
// critical-path decomposition against the best static strategy's, category
// by category, with the delta (negative = controller spent less there). The
// per-cell attributions are conservation-checked, so each row's categories
// sum exactly to that run's critical-path total.
func (ar *AdaptiveResult) DiffTable(regime string) *stats.Table {
	var rr *AdaptiveRegimeResult
	for _, r := range ar.Regimes {
		if r.Name == regime {
			rr = r
			break
		}
	}
	if rr == nil {
		return nil
	}
	headers := []string{"cell"}
	for _, n := range causal.CategoryNames() {
		headers = append(headers, n+" (s)")
	}
	headers = append(headers, "total (s)")
	t := stats.NewTable(
		fmt.Sprintf("Causal diff — %s (adaptive vs best static %s)",
			rr.Name, rr.BestStatic().Label),
		headers...)
	addRow := func(label string, b causal.Breakdown) {
		row := []any{label}
		for cat := causal.Category(0); cat < causal.NumCategories; cat++ {
			row = append(row, b[cat].Seconds())
		}
		t.AddRowf(append(row, b.Total().Seconds())...)
	}
	ad, best := rr.Controller(), rr.BestStatic()
	addRow("adaptive", ad.Path)
	addRow(best.Label, best.Path)
	var delta causal.Breakdown
	for cat := causal.Category(0); cat < causal.NumCategories; cat++ {
		delta[cat] = ad.Path[cat] - best.Path[cat]
	}
	addRow("delta", delta)
	return t
}

// Tables returns the adaptive report in print order: the score comparison,
// the arm/hint table, and one causal diff per regime.
func (ar *AdaptiveResult) Tables() []*stats.Table {
	out := []*stats.Table{ar.ScoreTable(), ar.ArmTable()}
	for _, rr := range ar.Regimes {
		if t := ar.DiffTable(rr.Name); t != nil {
			out = append(out, t)
		}
	}
	return out
}
