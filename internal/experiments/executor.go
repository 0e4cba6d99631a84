package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"s3asim/internal/core"
	"s3asim/internal/des"
	"s3asim/internal/search"
)

// This file is the sweep executor: every cell of a suite is an independent
// deterministic simulation (a private des.Simulation per run), so the suite
// fans cells out across a bounded pool of OS-level workers while each DES
// kernel stays single-threaded. Results are keyed and collected independent
// of completion order, so a parallel sweep is bit-identical to a sequential
// one.

// forEach runs job(0..n-1) across at most parallelism goroutines and
// returns the lowest-index error. With parallelism <= 1 it degenerates to a
// plain loop that stops at the first error, like the pre-parallel harness.
// After any failure no new jobs start.
func forEach(parallelism, n int, job func(i int) error) error {
	if parallelism > n {
		parallelism = n
	}
	if parallelism <= 1 {
		for i := 0; i < n; i++ {
			if err := job(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		mu       sync.Mutex
		firstErr error
		errIdx   int
		failed   bool
		wg       sync.WaitGroup
	)
	next := make(chan int)
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if err := job(i); err != nil {
					mu.Lock()
					if firstErr == nil || i < errIdx {
						firstErr, errIdx = err, i
					}
					failed = true
					mu.Unlock()
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		mu.Lock()
		stop := failed
		mu.Unlock()
		if stop {
			break
		}
		next <- i
	}
	close(next)
	wg.Wait()
	return firstErr
}

// SweepPerf records how a sweep executed in wall-clock (not virtual) time.
type SweepPerf struct {
	// Parallelism is the worker-pool width the sweep ran with.
	Parallelism int
	// Cells is the number of cells; each ran Repetitions times.
	Cells int
	// Elapsed is the suite's wall-clock duration.
	Elapsed time.Duration
	// CellTime sums the per-run wall-clock durations — an estimate of the
	// sequential cost of the same suite, so CellTime/Elapsed estimates the
	// realized speedup. Individual cell durations include any time a cell
	// spent descheduled, so when cells oversubscribe the available cores
	// (Parallelism > core count) the estimate is optimistic; for an exact
	// figure compare Elapsed between two sweeps at Parallelism 1 and N.
	CellTime time.Duration
	// CellWall holds every (cell, repetition) run's wall-clock duration in
	// the deterministic job order (cell-major, repetition-minor); it sums to
	// CellTime. Use it to find the sweep's slowest cells.
	CellWall []time.Duration
	// MaxConcurrent is the highest number of simulations observed in flight
	// at once — at most Parallelism, lower when the pool was starved (fewer
	// jobs than workers, or a failure stopped dispatch early).
	MaxConcurrent int
	// Workload counts workload-cache outcomes: Misses is the number of
	// distinct workloads generated for the whole sweep.
	Workload search.CacheStats
}

// Speedup estimates the wall-clock speedup over a sequential execution of
// the same cells (summed cell time over elapsed time).
func (p SweepPerf) Speedup() float64 {
	if p.Elapsed <= 0 {
		return 0
	}
	return float64(p.CellTime) / float64(p.Elapsed)
}

// Occupancy estimates pool utilization: realized speedup over pool width
// (1.0 means every worker was busy for the whole sweep). Subject to the
// same descheduling caveat as CellTime.
func (p SweepPerf) Occupancy() float64 {
	if p.Parallelism <= 0 {
		return 0
	}
	return p.Speedup() / float64(p.Parallelism)
}

// simPool hands out reset-and-reused des kernels so a thousand-cell sweep
// pays for calendar storage and process/waiter pools once per executor slot
// instead of once per run. Reset makes a reused kernel observably identical
// to a fresh one, so sweeps stay bit-identical at any parallelism. Kernels
// from successful runs return directly (the next run Resets them itself);
// kernels from failed runs (a deadlock diagnosis, a faulted cell) return
// through putAfterReset, which re-verifies the reset before recirculating —
// so a chaos sweep full of error cells does not allocate a fresh kernel per
// failure.
type simPool struct {
	mu   sync.Mutex
	sims []*des.Simulation
}

func (p *simPool) get() *des.Simulation {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.sims); n > 0 {
		s := p.sims[n-1]
		p.sims = p.sims[:n-1]
		return s
	}
	return des.New()
}

func (p *simPool) put(s *des.Simulation) {
	p.mu.Lock()
	p.sims = append(p.sims, s)
	p.mu.Unlock()
}

// putAfterReset recycles a kernel whose run ended in an error. The kernel is
// Reset here and the post-conditions checked (clean calendar, zeroed clock,
// no registered processes); a kernel that somehow fails verification is
// dropped rather than recirculated.
func (p *simPool) putAfterReset(s *des.Simulation) {
	if s == nil {
		return
	}
	s.Reset()
	if s.Now() != 0 || s.PendingEvents() != 0 || s.Procs() != 0 {
		return
	}
	p.put(s)
}

// sweep is one suite's cell list plus the per-cell contract every suite
// shares. run owns what each suite would otherwise repeat: the pool width,
// repetitions and ordered progress; the shared workload cache and the kernel
// pool; the invariant checks every run gets; the cell-id error; and the
// SweepPerf self-profile. A suite supplies only its configs, the cell id
// text, optional per-run preparation, and the fold that turns a cell's
// reports into its result.
type sweep struct {
	// suite prefixes every cell error: "<suite>: <cell id> rep=<r>: <cause>".
	suite string
	// cfgs holds one template config per cell, in deterministic cell order.
	cfgs []core.Config
	// id renders a cell's id for errors ("WW-List crashes=2").
	id func(cell int) string
	// parallelism is the requested pool width (0 = GOMAXPROCS); reps is the
	// repetitions per cell (< 1 means 1). Repetition r varies the workload
	// seed (seed+r), the closest analogue of the paper's 3-run averaging.
	parallelism, reps int
	// progress, if non-nil, receives the lines fold emits through say.
	progress func(string)
	// prep, if non-nil, customizes each run's private config copy (per-run
	// sinks, registries, recorders, fault plans) before the run starts.
	prep func(cell, rep int, cfg *core.Config)
	// fold receives each completed cell's reports in repetition order. It is
	// called exactly once per cell, in ascending cell order, serialized — so
	// Progress lines and artifacts it writes are deterministic at any
	// parallelism. An error stops dispatch and fails the sweep.
	fold func(cell int, reports []*core.Report) error
}

// poolWidth resolves a sweep's pool width: requested if positive, else
// GOMAXPROCS. A Sink in a cell's template config is shared by every run of
// the sweep — the one piece of cross-cell mutable state — so it forces
// sequential runs. Sinks attached per run in prep (Options.CellSink) give
// every run private state and leave the width alone.
func poolWidth(requested int, cfgs []core.Config) int {
	for i := range cfgs {
		if cfgs[i].Sink != nil {
			return 1
		}
	}
	if requested > 0 {
		return requested
	}
	return runtime.GOMAXPROCS(0)
}

// say formats one progress line (a no-op without a Progress callback).
func (s *sweep) say(format string, args ...any) {
	if s.progress != nil {
		s.progress(fmt.Sprintf(format, args...))
	}
}

// fail wraps a cell's failure in the one error form every suite reports.
// rep < 0 marks a fold failure, which concerns every repetition of the cell.
func (s *sweep) fail(cell, rep int, err error) error {
	reps := fmt.Sprint(rep)
	if rep < 0 {
		reps = "all"
	}
	return fmt.Errorf("%s: %s rep=%s: %w", s.suite, s.id(cell), reps, err)
}

// check runs the invariant checks every run of every suite gets: whole-run
// critical-path conservation whenever the run had a causal recorder (a
// missing attribution fails too), and window/snapshot conservation whenever
// it recorded a windowed series. Suite-specific checks (serve's per-query
// paths, adaptive's headline) stay in the suites.
func (s *sweep) check(cell, rep int, cfg *core.Config, r *core.Report) error {
	var err error
	if cfg.Causal != nil {
		err = r.Attribution.Check()
	}
	if err == nil && r.Windows != nil {
		err = r.Windows.Conserve(r.Metrics)
	}
	if err != nil {
		return s.fail(cell, rep, err)
	}
	return nil
}

// run executes every (cell, repetition) across the pool and returns the
// sweep's self-profile. Jobs are cell-major, repetition-minor; results are
// folded in cell order regardless of completion order, so a sweep is
// bit-identical at every parallelism. The first failure — a run error, a
// failed check, or a fold error — stops dispatch and is returned.
func (s *sweep) run() (SweepPerf, error) {
	start := time.Now()
	reps := max(s.reps, 1)
	perf := SweepPerf{
		Parallelism: poolWidth(s.parallelism, s.cfgs),
		Cells:       len(s.cfgs),
		CellWall:    make([]time.Duration, len(s.cfgs)*reps),
	}
	cache := search.NewCache()
	var (
		sims      simPool
		mu        sync.Mutex
		inFlight  int
		cursor    int
		failed    bool // no cell folds after the first failure
		reports   = make([][]*core.Report, len(s.cfgs))
		remaining = make([]int, len(s.cfgs))
	)
	for i := range remaining {
		remaining[i] = reps
	}
	err := forEach(perf.Parallelism, len(perf.CellWall), func(i int) error {
		cell, rep := i/reps, i%reps
		cfg := s.cfgs[cell]
		cfg.Workload.Seed += int64(rep)
		if s.prep != nil {
			s.prep(cell, rep, &cfg)
		}
		cfg.Sim = sims.get()
		wl := cache.Get(cfg.EffectiveWorkload())
		mu.Lock()
		inFlight++
		perf.MaxConcurrent = max(perf.MaxConcurrent, inFlight)
		mu.Unlock()
		t0 := time.Now()
		r, err := core.RunWithWorkload(cfg, wl)
		elapsed := time.Since(t0)
		if err == nil {
			sims.put(cfg.Sim)
			err = s.check(cell, rep, &cfg, r)
		} else {
			sims.putAfterReset(cfg.Sim)
			err = s.fail(cell, rep, err)
		}
		mu.Lock()
		defer mu.Unlock()
		inFlight--
		perf.CellTime += elapsed
		perf.CellWall[i] = elapsed
		if err != nil || failed {
			failed = true
			return err
		}
		if reports[cell] == nil {
			reports[cell] = make([]*core.Report, reps)
		}
		reports[cell][rep] = r
		remaining[cell]--
		// Fold completed cells in ascending order: a cell is folded only
		// once every earlier cell has been. Folded reports are released.
		for cursor < len(remaining) && remaining[cursor] == 0 {
			if err := s.fold(cursor, reports[cursor]); err != nil {
				failed = true
				return s.fail(cursor, -1, err)
			}
			reports[cursor] = nil
			cursor++
		}
		return nil
	})
	perf.Elapsed = time.Since(start)
	perf.Workload = cache.Stats()
	return perf, err
}
