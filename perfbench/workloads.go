package main

import (
	"embed"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"s3asim/internal/core"
	"s3asim/internal/des"
	"s3asim/internal/experiments"
	"s3asim/internal/fault"
	"s3asim/internal/obs"
	"s3asim/internal/search"
	"s3asim/internal/stats"
)

// The four workloads. README.md records why each was chosen, the layer
// shares measured on it, and its run-to-run spread.

// workload is one named set of cells.
type workload struct {
	name  string
	setup func(e *env) (*instance, error)
}

var workloads = []workload{
	{"paper-figures", setupPaperFigures},
	{"verified-rw", setupVerifiedRW},
	{"rank-scale", setupRankScale},
	{"chaos-resilient", setupChaosResilient},
}

func lookupWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// env is what a workload's setup gets from the command line.
type env struct {
	seed  int64   // the --seed argument
	width int     // closed-loop width: cells in flight at once
	root  string  // repository root (golden files)
	tr    *tracer // nil when tracing is off
	span  int     // parent span for setup's own spans
}

// instance is a set-up workload, ready to run passes.
type instance struct {
	// seed is the workload seed the --seed argument selected
	// (search.Spec.Seed, or the chaos PlanSeed).
	seed int64
	// reference is true at the seed the committed digest (and, for
	// paper-figures, the golden tables) were recorded at.
	reference bool
	// wl is the generated workload search.resultdata_mb_per_s reads.
	wl *search.Workload
	// maxRanks is the largest cell's process count; width is how many
	// cells a pass runs at once.
	maxRanks, width int
	// ids and hashes name every cell of a pass and its configuration.
	ids, hashes []string
	// pass runs every cell once. tr is nil on untraced passes.
	pass func(tr *tracer, parent int) passResult
}

// passResult is one pass's cell records plus what only the pass knows.
type passResult struct {
	cells     []cellRecord
	simSec    float64 // summed virtual Overall of every cell
	occupancy float64 // executor busy time / (pass wall x width)
}

// generate is search.Generate under a span.
func (e *env) generate(spec search.Spec) *search.Workload {
	sp := e.tr.begin("search.Generate", "", e.span)
	defer e.tr.end(sp)
	return search.Generate(spec)
}

//go:embed digests/*.txt
var digestFS embed.FS

// loadDigest returns a workload's committed digest.
func loadDigest(name string) (map[string]string, error) {
	b, err := digestFS.ReadFile("digests/" + name + ".txt")
	if err != nil {
		return nil, fmt.Errorf("digest for %s: %w", name, err)
	}
	return parseDigest(string(b))
}

// ownCells is an instance whose passes the benchmark drives cell by cell
// through core.RunWithWorkload, in its own closed loop of width cells.
func ownCells(width int, seed int64, reference bool, wl *search.Workload, jobs []cellJob, check func(*cellJob, *cellResult)) *instance {
	inst := &instance{seed: seed, reference: reference, wl: wl, width: width}
	for i := range jobs {
		jobs[i].hash = configHash(&jobs[i].cfg)
		inst.ids = append(inst.ids, jobs[i].id)
		inst.hashes = append(inst.hashes, jobs[i].hash)
		if p := jobs[i].cfg.Procs; p > inst.maxRanks {
			inst.maxRanks = p
		}
	}
	inst.pass = func(tr *tracer, parent int) passResult {
		start := time.Now()
		res := runCells(jobs, width, tr, parent, check)
		wall := time.Since(start)
		var pr passResult
		var busy float64
		for i := range res {
			pr.cells = append(pr.cells, res[i].rec)
			pr.simSec += des.Time(res[i].rec.OverallNS).Seconds()
			busy += res[i].rec.WallMS / 1e3
		}
		pr.occupancy = busy / (wall.Seconds() * float64(width))
		return pr
	}
	return inst
}

// ---------------------------------------------------------------------------
// paper-figures

// paperSeeds are workload seeds whose DefaultSpec workload totals within
// paperSizeTolerance of the paper's §3.3 output (≈208 MB), found by
// scanning seeds upward from the paper's own, which comes first
// (--scan-seeds reproduces the list). Under the NT-like histograms the
// total output ranges over 1–14x that across seeds, and with it every
// virtual time; drawing from these keeps each --seed a workload of the
// paper's stated size. The paper-figures and rank-scale workloads take
// their workload seeds from this list.
var paperSeeds = []int64{
	2007029, 2007034, 2007161, 2007212, 2007225, 2007246, 2007347,
	2007405, 2007532, 2007681, 2007704, 2007793, 2007839, 2008024,
	2008032, 2008043, 2008179, 2008242, 2008292, 2008563, 2008567,
	2008606, 2008716, 2008726, 2008728, 2008749, 2008794, 2008847,
	2008936, 2008954, 2009061, 2009129, 2009141, 2009276, 2009292,
	2009391, 2009409,
}

// paperSeed maps --seed to a paper-size workload seed.
func paperSeed(seed int64) (int64, bool) {
	i := seed % int64(len(paperSeeds))
	if i < 0 {
		i += int64(len(paperSeeds))
	}
	return paperSeeds[i], i == 0
}

// paperSizeTolerance bounds a paper-size workload's output relative to the
// paper's own.
const paperSizeTolerance = 0.03

// scanPaperSeeds prints the first n paper-size seeds, the paper's own
// first, in the form of the paperSeeds list.
func scanPaperSeeds(n int, w io.Writer) {
	spec := search.DefaultSpec()
	ref := float64(search.Generate(spec).TotalBytes)
	for found := 0; found < n; spec.Seed++ {
		if r := float64(search.Generate(spec).TotalBytes) / ref; r >= 1-paperSizeTolerance && r <= 1+paperSizeTolerance {
			fmt.Fprintf(w, "\t%d, // %.3fx\n", spec.Seed, r)
			found++
		}
	}
}

// goldenProcs is the procs section of the committed paper-scale figures:
// everything before the compute-speed suite's first table.
func goldenProcs(root string) (string, error) {
	b, err := os.ReadFile(filepath.Join(root, "results", "paper-scale-figures.txt"))
	if err != nil {
		return "", fmt.Errorf("golden figures: %w", err)
	}
	i := strings.Index(string(b), "Figure 5 —")
	if i < 0 {
		return "", fmt.Errorf("golden figures: no compute-speed section")
	}
	return string(b[:i]), nil
}

// renderTables renders a sweep's tables as s3abench prints them.
func renderTables(sr *experiments.SweepResult) string {
	var b strings.Builder
	for _, tb := range sr.Tables() {
		b.WriteString(tb.String())
		b.WriteString("\n")
	}
	return b.String()
}

func paperCellID(k experiments.CellKey) string {
	sync := "no-sync"
	if k.QuerySync {
		sync = "sync"
	}
	return fmt.Sprintf("%s/%s/procs=%g", k.Strategy, sync, k.X)
}

func setupPaperFigures(e *env) (*instance, error) {
	seed, ref := paperSeed(e.seed)
	opts := experiments.PaperOptions()
	opts.Base.Workload.Seed = seed
	opts.Parallelism = e.width
	var golden string
	if ref {
		var err error
		if golden, err = goldenProcs(e.root); err != nil {
			return nil, err
		}
	}
	inst := &instance{
		seed:      seed,
		reference: ref,
		// The sweep generates its own copy; this one is setup's cost of
		// the workload and the input of search.resultdata_mb_per_s.
		wl:       e.generate(opts.Base.EffectiveWorkload()),
		maxRanks: opts.Procs[len(opts.Procs)-1],
		width:    e.width,
	}
	// The sweep keys cells (strategy, sync, x) in this order; CellWall
	// follows it.
	var keys []experiments.CellKey
	for _, s := range core.Strategies {
		for _, sync := range []bool{false, true} {
			for _, p := range opts.Procs {
				k := experiments.CellKey{Strategy: s, QuerySync: sync, X: float64(p)}
				cfg := opts.Base
				cfg.Strategy, cfg.QuerySync, cfg.Procs = s, sync, p
				keys = append(keys, k)
				inst.ids = append(inst.ids, paperCellID(k))
				inst.hashes = append(inst.hashes, configHash(&cfg))
			}
		}
	}
	inst.pass = func(tr *tracer, parent int) passResult {
		var mu sync.Mutex
		regs := make(map[experiments.CellKey]*obs.Registry)
		starts := make(map[experiments.CellKey]time.Time)
		o := opts
		o.CellMetrics = func(k experiments.CellKey, rep int) *obs.Registry {
			r := obs.NewRegistry()
			mu.Lock()
			regs[k], starts[k] = r, time.Now()
			mu.Unlock()
			return r
		}
		sp := tr.begin("experiments.RunProcessSweep", "", parent)
		sr, err := experiments.RunProcessSweep(o)
		tr.end(sp)
		sp = tr.begin("checks", "", parent)
		defer tr.end(sp)
		var pr passResult
		for i, k := range keys {
			rec := cellRecord{Cell: inst.ids[i], Seed: seed, ConfigHash: inst.hashes[i], Status: "ok"}
			if err != nil {
				rec.fail("sweep error: %v", err)
				pr.cells = append(pr.cells, rec)
				continue
			}
			c := sr.Cell(k.Strategy, k.QuerySync, k.X)
			snap := regs[k].Snapshot().Counters
			rec.OverallNS = int64(c.Overall)
			rec.Events = uint64(snap["des.events"])
			rec.messages = uint64(snap["mpi.messages"])
			rec.netBytes = uint64(snap["mpi.bytes"])
			rec.pvfsRequests = uint64(snap["pvfs.requests"])
			wall := sr.Perf.CellWall[i]
			rec.WallMS = float64(wall) / 1e6
			tr.record("core.RunWithWorkload", rec.Cell, parent, starts[k], wall)
			pr.simSec += c.Overall.Seconds()
			pr.cells = append(pr.cells, rec)
		}
		if err == nil {
			pr.occupancy = sr.Perf.Occupancy()
			if golden != "" && renderTables(sr) != golden {
				for i := range pr.cells {
					pr.cells[i].fail("procs tables differ from results/paper-scale-figures.txt")
				}
			}
		}
		return pr
	}
	return inst, nil
}

// ---------------------------------------------------------------------------
// verified-rw

// verifiedSpec sizes the verified read path between the quick and paper
// readback suites. Uniform size histograms and a fixed result count keep
// the output volume — which payload cost follows byte for byte — steady
// across seeds.
func verifiedSpec(seed int64) search.Spec {
	return search.Spec{
		NumQueries:    8,
		NumFragments:  32,
		QueryHist:     stats.Uniform(200, 2000),
		DBSeqHist:     stats.Uniform(200, 20000),
		MinResults:    75,
		MaxResults:    75,
		MinResultSize: 512,
		Seed:          search.DefaultSpec().Seed + seed,
	}
}

// readbackChaosPlans is the readback-under-chaos battery: a worker crash
// and restart, a PVFS outage during reads, a degraded server and message
// loss, each placed within window w, plus the fault-free baseline.
func readbackChaosPlans(worker int, w des.Time) [][2]string {
	ms := func(t des.Time) string { return fmt.Sprintf("%gms", t.Seconds()*1e3) }
	return [][2]string{
		{"none", ""},
		{"worker-crash", fmt.Sprintf("crash@%s:rank=%d,restart=%s", ms(w/8), worker, ms(w/4))},
		{"pvfs-outage-read", fmt.Sprintf("outage@%s:server=0,for=%s,phase=read", ms(w/4), ms(w/8))},
		{"pvfs-degrade", fmt.Sprintf("degrade@%s:server=1,factor=4,for=%s", ms(w/8), ms(w/2))},
		{"msg-drop", "drop@0s:prob=0.02,for=" + ms(w)},
	}
}

// setupVerifiedRW builds the readback suite's two halves — the GET/PUT mix
// sweep and the readback-under-chaos battery, with their read methods,
// mixes and detector — on verifiedSpec at 16 processes.
func setupVerifiedRW(e *env) (*instance, error) {
	mixes := experiments.PaperReadbackOptions()
	battery := experiments.PaperReadbackChaosOptions()
	base := core.DefaultConfig()
	base.Procs = 16
	base.Workload = verifiedSpec(e.seed)
	base.CaptureData = true
	wl := e.generate(base.EffectiveWorkload())
	var jobs []cellJob
	for _, s := range core.Strategies {
		for _, get := range mixes.Mixes {
			cfg := base
			cfg.Strategy = s
			// A GET share of m% re-reads each durable batch m/(100-m) times.
			cfg.Readback = &core.ReadbackConfig{Method: mixes.Method, PostRun: true}
			if get < 100 {
				cfg.Readback.InRunReads = get / (100 - get)
			}
			jobs = append(jobs, cellJob{id: fmt.Sprintf("rw/%s/get=%d", s, get), cfg: cfg, wl: wl, seed: cfg.Workload.Seed})
		}
	}
	chaos := base
	chaos.Resilient = true
	chaos.DetectInterval = experiments.QuickReadbackChaosOptions().Base.DetectInterval
	workers := chaos.WorkerRanks()
	for _, s := range core.Strategies {
		for _, p := range readbackChaosPlans(workers[len(workers)-1], 40*des.Millisecond) {
			plan, err := fault.Parse(p[1])
			if err != nil {
				return nil, fmt.Errorf("plan %s: %w", p[0], err)
			}
			cfg := chaos
			cfg.Strategy = s
			cfg.FaultPlan = plan
			cfg.Readback = &core.ReadbackConfig{Method: battery.Method, InRunReads: battery.InRunReads, PostRun: true}
			jobs = append(jobs, cellJob{id: fmt.Sprintf("rbchaos/%s/%s", s, p[0]), cfg: cfg, wl: wl, seed: cfg.Workload.Seed})
		}
	}
	check := func(j *cellJob, r *cellResult) {
		checkOutput(&r.rec, r.rep)
		if r.rep != nil && !r.rep.Verified {
			r.rec.fail("output image not verified")
		}
		if r.rep != nil && r.rep.ReadbackExtents == 0 {
			r.rec.fail("no extents read back")
		}
	}
	return ownCells(e.width, base.Workload.Seed, e.seed == 0, wl, jobs, check), nil
}

// ---------------------------------------------------------------------------
// rank-scale

// scaleRanks is the rank-scale cell size: large enough that per-rank
// protocol state dominates, small enough for a heap of about 100 MB.
const scaleRanks = 10_000

// scaleDraws is how many workloads a rank-scale pass runs. A 10k-rank
// cell's peak live heap follows how many batch flushes overlap, which
// ranges over 0.75-1.31x of its median across workload seeds; a pass over
// several draws measures the workload family, not one draw of it.
const scaleDraws = 6

func setupRankScale(e *env) (*instance, error) {
	var jobs []cellJob
	var first *search.Workload
	for k := int64(0); k < scaleDraws; k++ {
		cfg := core.ScaleConfig(scaleRanks)
		cfg.Workload.Seed, _ = paperSeed(e.seed*scaleDraws + k)
		wl := e.generate(cfg.EffectiveWorkload())
		if first == nil {
			first = wl
		}
		jobs = append(jobs, cellJob{id: fmt.Sprintf("%s/ranks=%d/draw=%d", cfg.Strategy, scaleRanks, k),
			cfg: cfg, wl: wl, seed: cfg.Workload.Seed})
	}
	check := func(j *cellJob, r *cellResult) { checkOutput(&r.rec, r.rep) }
	// One cell at a time, as experiments.ScaleSweep runs them: with two in
	// flight the peak live heap would depend on how their heaps overlap.
	return ownCells(1, jobs[0].cfg.Workload.Seed, e.seed == 0, first, jobs, check), nil
}

// ---------------------------------------------------------------------------
// chaos-resilient

// telemetryWindow is the tumbling-window width of every chaos cell's
// telemetry series.
const telemetryWindow = 250 * des.Millisecond

// setupChaosResilient builds the paper-scale chaos sweep
// (experiments.PaperChaosOptions: its crash counts, window, restart delay
// and resilient base), crash plans drawn as RunChaosSweep draws them.
func setupChaosResilient(e *env) (*instance, error) {
	opts := experiments.PaperChaosOptions()
	base := opts.Base
	base.Telemetry = &obs.Telemetry{Window: telemetryWindow}
	planSeed := opts.PlanSeed + e.seed
	wl := e.generate(base.EffectiveWorkload())
	workers := base.WorkerRanks()
	var jobs []cellJob
	for _, s := range core.Strategies {
		for _, n := range opts.Crashes {
			cfg := base
			cfg.Strategy = s
			if n > 0 {
				cfg.FaultPlan = fault.RandomCrashes(planSeed, n, workers, opts.Window/8, opts.Window, opts.Restart)
			}
			// The fault-free baselines also record happens-before
			// structure, so the causal layer's post-run check runs.
			jobs = append(jobs, cellJob{id: fmt.Sprintf("%s/crashes=%d", s, n), cfg: cfg, wl: wl, seed: planSeed, causal: n == 0})
		}
	}
	check := func(j *cellJob, r *cellResult) {
		checkOutput(&r.rec, r.rep)
		if r.rep == nil {
			return
		}
		if r.rep.Windows == nil {
			r.rec.fail("telemetry series missing")
		} else if err := r.rep.Windows.Conserve(r.rep.Metrics); err != nil {
			r.rec.fail("telemetry conservation: %v", err)
		}
		if j.causal {
			if r.rep.Attribution == nil {
				r.rec.fail("causal attribution missing")
			} else if err := r.rep.Attribution.Check(); err != nil {
				r.rec.fail("causal attribution: %v", err)
			}
		}
	}
	return ownCells(e.width, planSeed, e.seed == 0, wl, jobs, check), nil
}
