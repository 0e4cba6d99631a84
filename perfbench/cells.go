package main

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"s3asim/internal/causal"
	"s3asim/internal/core"
	"s3asim/internal/des"
	"s3asim/internal/search"
)

// cellRecord is everything needed to rerun and explain one cell alone: its
// id, the workload seed and a hash of its configuration, its virtual-time
// result, and which check (if any) it failed.
type cellRecord struct {
	Pass       int     `json:"pass"`
	Traced     bool    `json:"traced"`
	Cell       string  `json:"cell"`
	Seed       int64   `json:"seed"`
	ConfigHash string  `json:"config_hash"`
	OverallNS  int64   `json:"overall_ns"`
	Events     uint64  `json:"events"`
	WallMS     float64 `json:"wall_ms"`
	Status     string  `json:"status"` // "ok", or the first check the cell failed

	messages     uint64
	netBytes     uint64
	pvfsRequests uint64
	payloadBytes int64
	reexecuted   int64
}

func (r *cellRecord) ok() bool { return r.Status == "ok" }

// fail records the first failed check; later failures keep the first.
func (r *cellRecord) fail(format string, args ...any) {
	if r.ok() {
		r.Status = fmt.Sprintf(format, args...)
	}
}

// digestLine is a cell's entry in a committed digest: id, virtual Overall
// and event count.
func (r *cellRecord) digestLine() string {
	return fmt.Sprintf("%s overall_ns=%d events=%d", r.Cell, r.OverallNS, r.Events)
}

// configHash fingerprints the parts of a cell's configuration that decide
// its behaviour, so a record names exactly what ran.
func configHash(cfg *core.Config) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|procs=%d|%s|sync=%v|speed=%g|resilient=%v|capture=%v|detect=%d",
		cfg.EffectiveWorkload().Key(), cfg.Procs, cfg.Strategy, cfg.QuerySync,
		cfg.ComputeSpeed, cfg.Resilient, cfg.CaptureData, cfg.DetectInterval)
	if rb := cfg.Readback; rb != nil {
		fmt.Fprintf(h, "|readback=%+v", *rb)
	}
	if cfg.FaultPlan != nil {
		fmt.Fprintf(h, "|plan=%s", cfg.FaultPlan.String())
	}
	if cfg.Telemetry != nil {
		fmt.Fprintf(h, "|window=%d", cfg.Telemetry.Window)
	}
	return strconv.FormatUint(h.Sum64(), 16)
}

// cellJob is one simulation the benchmark's own closed loop runs through
// core.RunWithWorkload. causal asks for a fresh causal recorder per run.
type cellJob struct {
	id     string
	cfg    core.Config
	wl     *search.Workload
	seed   int64 // the input seed that varies: workload or fault-plan seed
	causal bool
	hash   string // configHash of cfg
}

// cellResult is one finished cell.
type cellResult struct {
	rec cellRecord
	rep *core.Report
	err error
}

// runCells runs jobs in a closed loop of width workers in this process: a
// worker starts its next cell only when its previous one has finished. Each
// worker reuses one simulation kernel, as the sweep executor does. check
// runs on the worker right after each cell, as the post-run checks a caller
// of the simulator would make. Results come back in job order.
func runCells(jobs []cellJob, width int, tr *tracer, parent int, check func(*cellJob, *cellResult)) []cellResult {
	out := make([]cellResult, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < width && w < len(jobs); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sim := des.New()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				j := &jobs[i]
				cfg := j.cfg
				cfg.Sim = sim
				if j.causal {
					cfg.Causal = causal.NewRecorder()
				}
				res := &out[i]
				res.rec = cellRecord{Cell: j.id, Seed: j.seed, ConfigHash: j.hash, Status: "ok"}
				sp := tr.begin("core.RunWithWorkload", j.id, parent)
				start := time.Now()
				res.rep, res.err = core.RunWithWorkload(cfg, j.wl)
				res.rec.WallMS = float64(time.Since(start)) / 1e6
				tr.end(sp)
				if res.err != nil {
					// A failed run may leave the kernel mid-simulation.
					sim = des.New()
				}
				sp = tr.begin("checks", j.id, parent)
				fillRecord(&res.rec, res.rep)
				if res.err != nil {
					res.rec.fail("run error: %v", res.err)
				}
				check(j, res)
				tr.end(sp)
			}
		}()
	}
	wg.Wait()
	return out
}

// fillRecord copies a report's virtual-time results and layer counts.
func fillRecord(rec *cellRecord, rep *core.Report) {
	if rep == nil {
		return
	}
	rec.OverallNS = int64(rep.Overall)
	rec.Events = rep.Events
	rec.messages = rep.Messages
	rec.netBytes = rep.NetBytes
	rec.pvfsRequests = rep.FS.TotalRequests
	rec.payloadBytes = rep.ReadbackBytes
	if rep.Verified {
		rec.payloadBytes += rep.OutputBytes
	}
	rec.reexecuted = rep.Metrics.Counters["fault.tasks_reexecuted"]
}

// checkOutput applies the invariants every cell of every workload must
// hold at any seed: the image covers exactly the workload's bytes with no
// byte written twice, and verified reads found no mismatch.
func checkOutput(rec *cellRecord, rep *core.Report) {
	if rep == nil {
		return
	}
	if rep.FileCoverage != rep.OutputBytes {
		rec.fail("file coverage %d != output bytes %d", rep.FileCoverage, rep.OutputBytes)
	}
	if rep.OverlappedBytes != 0 {
		rec.fail("%d bytes written more than once", rep.OverlappedBytes)
	}
	if rep.ReadbackMismatches != 0 {
		rec.fail("%d readback mismatches", rep.ReadbackMismatches)
	}
}

// parseDigest reads a committed digest: one digestLine per cell.
func parseDigest(text string) (map[string]string, error) {
	out := make(map[string]string)
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		id, _, ok := strings.Cut(line, " ")
		if !ok {
			return nil, fmt.Errorf("digest line %q has no fields", line)
		}
		if _, dup := out[id]; dup {
			return nil, fmt.Errorf("digest lists cell %s twice", id)
		}
		out[id] = line
	}
	return out, sc.Err()
}

// checkDigest fails every record whose id, Overall or event count differs
// from the digest, and reports digest cells the pass never ran.
func checkDigest(recs []cellRecord, digest map[string]string) (missing []string) {
	seen := make(map[string]bool, len(recs))
	for i := range recs {
		r := &recs[i]
		seen[r.Cell] = true
		want, ok := digest[r.Cell]
		switch {
		case !ok:
			r.fail("cell not in the committed digest")
		case want != r.digestLine():
			r.fail("digest mismatch: got %q, want %q", r.digestLine(), want)
		}
	}
	for id := range digest {
		if !seen[id] {
			missing = append(missing, id)
		}
	}
	sort.Strings(missing)
	return missing
}

// renderDigest renders records as a digest file, sorted by cell id.
func renderDigest(header string, recs []cellRecord) string {
	lines := make([]string, len(recs))
	for i := range recs {
		lines[i] = recs[i].digestLine()
	}
	sort.Strings(lines)
	return header + strings.Join(lines, "\n") + "\n"
}
