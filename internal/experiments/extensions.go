package experiments

import (
	"fmt"

	"s3asim/internal/core"
	"s3asim/internal/des"
	"s3asim/internal/romio"
	"s3asim/internal/stats"
)

// This file implements the paper's §5 future-work studies as first-class
// experiments: the improved collective built from list I/O plus forced
// synchronization, hybrid query/database segmentation, the
// write-frequency/failure-recovery trade-off, and sensitivity sweeps over
// the file-system configuration ("a larger file system configuration with
// more I/O bandwidth may have provided more scalable I/O performance", §4).
//
// Every study runs its configs through the same sweep runner as the figure
// suites: one shared workload cache, a bounded pool, the per-run invariant
// checks, and reports collected in deterministic config order regardless of
// completion order. Each function takes an optional trailing parallelism
// (default GOMAXPROCS; 1 runs sequentially).

// study runs one study's configs as single-repetition cells and returns
// their reports in config order.
func study(name string, cfgs []core.Config, id func(cell int) string, parallelism []int) ([]*core.Report, error) {
	reports := make([]*core.Report, len(cfgs))
	sw := &sweep{suite: name, cfgs: cfgs, id: id, fold: func(cell int, r []*core.Report) error {
		reports[cell] = r[0]
		return nil
	}}
	if len(parallelism) > 0 {
		sw.parallelism = parallelism[0]
	}
	_, err := sw.run()
	return reports, err
}

// CollectiveComparison runs WW-Coll with both collective implementations
// (ROMIO two-phase vs list I/O + forced sync) and WW-List with query sync,
// at the given process counts.
func CollectiveComparison(base core.Config, procs []int, parallelism ...int) (*stats.Table, error) {
	variants := []string{"two-phase", "list-sync collective", "WW-List + query sync"}
	var cfgs []core.Config
	for _, p := range procs {
		cfg := base
		cfg.Procs = p
		cfg.Strategy = core.WWColl
		cfg.CollMethod = romio.TwoPhase
		listColl := cfg
		listColl.CollMethod = romio.ListSync
		listSync := cfg
		listSync.Strategy = core.WWList
		listSync.QuerySync = true
		cfgs = append(cfgs, cfg, listColl, listSync)
	}
	reps, err := study("collective", cfgs, func(cell int) string {
		return fmt.Sprintf("procs=%d %s", procs[cell/3], variants[cell%3])
	}, parallelism)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable(
		"§5 — collective I/O implementations (overall seconds)",
		append([]string{"processes"}, variants...)...)
	for i, p := range procs {
		t.AddRowf(p, reps[3*i].Overall.Seconds(), reps[3*i+1].Overall.Seconds(),
			reps[3*i+2].Overall.Seconds())
	}
	return t, nil
}

// HybridComparison runs the hybrid query/database segmentation extension:
// the same workload and process count split into 1, 2, 4, ... groups.
func HybridComparison(base core.Config, groups []int, parallelism ...int) (*stats.Table, error) {
	cfgs := make([]core.Config, len(groups))
	for i, g := range groups {
		cfgs[i] = base
		cfgs[i].QueryGroups = g
	}
	reps, err := study("hybrid", cfgs, func(cell int) string {
		return fmt.Sprintf("groups=%d", groups[cell])
	}, parallelism)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable(
		fmt.Sprintf("§5 — hybrid segmentation, %s at %d procs (overall seconds)",
			base.Strategy, base.Procs),
		"query-groups", "overall (s)", "master-busy max (s)")
	for i, g := range groups {
		var maxMaster des.Time
		for _, m := range reps[i].Masters {
			maxMaster = max(maxMaster, m.Total-m.Phases[core.PhaseDataDist]-m.Phases[core.PhaseSync])
		}
		t.AddRowf(g, reps[i].Overall.Seconds(), maxMaster.Seconds())
	}
	return t, nil
}

// ResumeOutcome is one row of the write-frequency/failure trade-off.
type ResumeOutcome struct {
	QueriesPerWrite int
	NoFailure       des.Time // clean run
	FailAt          des.Time // injected failure time
	ResumeFrom      int      // first query not durable at the failure
	ResumeRun       des.Time // duration of the restarted run
	TotalWithFail   des.Time // FailAt + ResumeRun
}

// ResumeTradeoff quantifies what frequent writes buy (§2: resumability):
// for each write granularity, a failure is injected at failFrac of the
// clean run's duration; work not yet durably flushed is lost and a resume
// run re-processes it. Returns one outcome per granularity. It runs two
// sweeps: every clean run, then the resume runs the failure point requires.
func ResumeTradeoff(base core.Config, granularities []int, failFrac float64, parallelism ...int) ([]ResumeOutcome, error) {
	cfgs := make([]core.Config, len(granularities))
	for i, n := range granularities {
		cfgs[i] = base
		cfgs[i].QueriesPerWrite = n
	}
	id := func(cell int) string { return fmt.Sprintf("queries/write=%d", cfgs[cell].QueriesPerWrite) }
	clean, err := study("resume", cfgs, id, parallelism)
	if err != nil {
		return nil, err
	}
	out := make([]ResumeOutcome, len(granularities))
	var resumes []core.Config
	for i, n := range granularities {
		failAt := des.Time(failFrac * float64(clean[i].Overall))
		// A resume can only start after the longest prefix of batches whose
		// writes were durably complete at the failure instant.
		resumeFrom := 0
		for bi, ft := range clean[i].BatchFlushTimes {
			if ft <= 0 || ft > failAt {
				break
			}
			// Batch bi covers queries [bi*n, min((bi+1)*n, Q)).
			resumeFrom = min((bi+1)*n, base.Workload.NumQueries)
		}
		out[i] = ResumeOutcome{
			QueriesPerWrite: n,
			NoFailure:       clean[i].Overall,
			FailAt:          failAt,
			ResumeFrom:      resumeFrom,
		}
		// Runs whose work was all durable at the failure need no resume.
		if resumeFrom < base.Workload.NumQueries {
			cfg := cfgs[i]
			cfg.ResumeFromQuery = resumeFrom
			resumes = append(resumes, cfg)
		}
	}
	resumed, err := study("resume", resumes, func(cell int) string {
		return fmt.Sprintf("queries/write=%d resume-from=%d", resumes[cell].QueriesPerWrite,
			resumes[cell].ResumeFromQuery)
	}, parallelism)
	if err != nil {
		return nil, err
	}
	for i := range out {
		if out[i].ResumeFrom < base.Workload.NumQueries {
			out[i].ResumeRun, resumed = resumed[0].Overall, resumed[1:]
		}
		out[i].TotalWithFail = out[i].FailAt + out[i].ResumeRun
	}
	return out, nil
}

// ResumeTable renders resume outcomes.
func ResumeTable(outcomes []ResumeOutcome) *stats.Table {
	t := stats.NewTable(
		"§2 — write frequency vs failure recovery (failure mid-run)",
		"queries/write", "clean run (s)", "durable queries", "resume run (s)", "total with failure (s)")
	for _, oc := range outcomes {
		t.AddRowf(oc.QueriesPerWrite, oc.NoFailure.Seconds(), oc.ResumeFrom,
			oc.ResumeRun.Seconds(), oc.TotalWithFail.Seconds())
	}
	return t
}

// ServerSweep varies the number of PVFS2 I/O servers at fixed process
// count (§4: "a larger file system configuration with more I/O bandwidth
// may have provided more scalable I/O performance").
func ServerSweep(base core.Config, servers []int, parallelism ...int) (*stats.Table, error) {
	cfgs := make([]core.Config, len(servers))
	for i, n := range servers {
		cfgs[i] = base
		cfgs[i].FS.NumServers = n
	}
	reps, err := study("servers", cfgs, func(cell int) string {
		return fmt.Sprintf("servers=%d", servers[cell])
	}, parallelism)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable(
		fmt.Sprintf("§4 — I/O server scaling, %s at %d procs", base.Strategy, base.Procs),
		"servers", "overall (s)", "worker I/O phase (s)")
	for i, n := range servers {
		t.AddRowf(n, reps[i].Overall.Seconds(), reps[i].WorkerAvg.Phases[core.PhaseIO].Seconds())
	}
	return t, nil
}

// SegmentationComparison quantifies §1's motivation for database
// segmentation: it runs the same workload under database segmentation and
// under the query-segmentation baseline while growing the database, with
// worker memory fixed. Once the replicated database no longer fits in
// memory, query segmentation pays its per-query re-read.
func SegmentationComparison(base core.Config, dbSizes []int64, parallelism ...int) (*stats.Table, error) {
	var cfgs []core.Config
	for _, db := range dbSizes {
		cfg := base
		cfg.DatabaseBytes = db
		cfg.Segmentation = core.DatabaseSeg
		q := cfg
		q.Segmentation = core.QuerySeg
		cfgs = append(cfgs, cfg, q)
	}
	reps, err := study("segmentation", cfgs, func(cell int) string {
		return fmt.Sprintf("database=%dMB %s", dbSizes[cell/2]>>20, cfgs[cell].Segmentation)
	}, parallelism)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable(
		fmt.Sprintf("§1 — database vs query segmentation at %d procs (worker memory %d MB)",
			base.Procs, base.WorkerMemoryBytes>>20),
		"database (MB)", "database-seg (s)", "query-seg (s)")
	for i, db := range dbSizes {
		t.AddRowf(db>>20, reps[2*i].Overall.Seconds(), reps[2*i+1].Overall.Seconds())
	}
	return t, nil
}

// OutputScaleSweep varies the result volume by scaling the per-query result
// count (§5: "different I/O characteristics ... amount of results").
func OutputScaleSweep(base core.Config, multipliers []float64, parallelism ...int) (*stats.Table, error) {
	cfgs := make([]core.Config, len(multipliers))
	for i, m := range multipliers {
		cfgs[i] = base
		w := &cfgs[i].Workload
		w.MinResults = max(int(float64(base.Workload.MinResults)*m), 1)
		w.MaxResults = max(int(float64(base.Workload.MaxResults)*m), w.MinResults)
	}
	reps, err := study("output-scale", cfgs, func(cell int) string {
		return fmt.Sprintf("results x%g", multipliers[cell])
	}, parallelism)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable(
		fmt.Sprintf("§5 — output volume scaling, %s at %d procs", base.Strategy, base.Procs),
		"result-count x", "output (MB)", "overall (s)", "worker I/O phase (s)")
	for i, m := range multipliers {
		r := reps[i]
		t.AddRowf(m, float64(r.OutputBytes)/1e6, r.Overall.Seconds(),
			r.WorkerAvg.Phases[core.PhaseIO].Seconds())
	}
	return t, nil
}
