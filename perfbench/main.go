// Command perfbench is the repository benchmark. It runs one named
// workload of simulator cells, in one process, through the public entry
// points of the layers (search.Generate, core.RunWithWorkload, the
// experiments sweep runners and the post-run checks in obs and causal),
// checks every cell's output, and prints host-cost metrics:
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it prints the end-to-end metrics, measured with tracing
// off. With --trace 1 it spends half the time on untraced passes and half
// on traced ones (spans, CPU and allocation profiles) and prints the
// per-layer metrics, including the tracing overhead between the two
// halves. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. The command exits 1 if any
// cell fails a check. Run it from the repository root through run.sh,
// which builds it; README.md describes the workloads.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"
)

const (
	// memProfileRate samples one allocation per this many bytes in traced
	// runs: fine enough for per-layer rows, cheap at a few hundred MB a
	// pass.
	memProfileRate = 64 << 10
	// Setup runs at least minSetups times and, while it has used less than
	// setupBudget, up to maxSetups times; setup_s is the median. Cheap
	// setups repeat more, so their median is as steady as a slow one's.
	minSetups   = 3
	maxSetups   = 50
	setupBudget = time.Second
	// maxWidth caps the closed loop, and with it the heap of cells in
	// flight, on a large host.
	maxWidth = 4
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// passRun is one measured pass and, when traced, its profiles.
type passRun struct {
	traced      bool
	stats       passStats
	res         passResult
	cpuProf     []byte
	allocBefore []byte
	allocAfter  []byte
}

// passRecord is a pass as the run records file lists it.
type passRecord struct {
	Traced        bool    `json:"traced"`
	WallS         float64 `json:"wall_s"`
	CPUS          float64 `json:"cpu_s"`
	AllocBytes    uint64  `json:"alloc_bytes"`
	Allocs        uint64  `json:"allocs"`
	PeakLiveBytes uint64  `json:"peak_live_bytes"`
	GCCycles      uint32  `json:"gc_cycles"`
	SimS          float64 `json:"sim_s"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: paper-figures, verified-rw, rank-scale, chaos-resilient")
	seed := fs.Int64("seed", 0, "workload seed; 0 is the seed the committed digests and goldens were recorded at")
	seconds := fs.Int("seconds", 10, "measuring time; passes run until it is used")
	traceMode := fs.Int("trace", 0, "1 adds the traced half and prints per-layer metrics")
	root := fs.String("root", ".", "repository root")
	writeDigest := fs.Bool("write-digest", false, "write perfbench/digests/<workload>.txt from the first pass instead of checking it (needs --seed 0)")
	scanSeeds := fs.Int("scan-seeds", 0, "print this many paper-size workload seeds and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traceMode == 1 {
		runtime.MemProfileRate = memProfileRate
	}
	if *scanSeeds > 0 {
		scanPaperSeeds(*scanSeeds, stdout)
		return 0
	}
	w, err := lookupWorkload(*name)
	if err != nil || *seconds < 1 || (*traceMode != 0 && *traceMode != 1) || (*writeDigest && *seed != 0) {
		if err == nil {
			err = fmt.Errorf("need --seconds >= 1, --trace 0 or 1, and --seed 0 with --write-digest")
		}
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	width := runtime.NumCPU()
	if width > maxWidth {
		width = maxWidth
	}
	runtime.GOMAXPROCS(width)
	host := readHost(*root, width)
	fmt.Fprintln(stdout, host)

	var tr *tracer
	if *traceMode == 1 {
		tr = newTracer()
	}
	e := &env{seed: *seed, width: width, root: *root, tr: tr}
	var inst *instance
	var setupTimes []float64
	var setupTotal time.Duration
	for i := 0; i < minSetups || (i < maxSetups && setupTotal < setupBudget); i++ {
		inst = nil // the previous setup's workloads are garbage before timing the next
		runtime.GC()
		e.span = tr.begin("setup", "", 0)
		t0 := time.Now()
		inst, err = w.setup(e)
		d := time.Since(t0)
		setupTotal += d
		setupTimes = append(setupTimes, d.Seconds())
		tr.end(e.span)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s setup: %v\n", w.name, err)
			return 1
		}
	}
	var digest map[string]string
	if inst.reference && !*writeDigest {
		if digest, err = loadDigest(w.name); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}

	b := &bench{inst: inst, digest: digest, log: stderr}
	budget := time.Duration(*seconds) * time.Second
	if tr != nil {
		budget /= 2
	}
	untraced, err := b.phase(budget, nil)
	var traced []passRun
	if err == nil && tr != nil {
		traced, err = b.phase(budget, tr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if *writeDigest {
		path := filepath.Join(*root, "perfbench", "digests", w.name+".txt")
		header := fmt.Sprintf("# %s at --seed 0 (workload seed %d): cell overall_ns events\n", w.name, inst.seed)
		if err := os.WriteFile(path, []byte(renderDigest(header, untraced[0].res.cells)), 0o644); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintln(stderr, "perfbench: wrote", path)
	}

	e2e := endToEnd(untraced, setupTimes)
	out := result{Metrics: e2e}
	if tr != nil {
		layer, err := perLayer(inst, untraced, traced, tr)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		out.Metrics = layer
	}
	var cells []cellRecord
	var passes []passRecord
	for _, p := range append(untraced, traced...) {
		cells = append(cells, p.res.cells...)
		passes = append(passes, passRecord{p.traced, p.stats.wall, p.stats.cpu, p.stats.allocBytes,
			p.stats.allocs, p.stats.peakLive, p.stats.gcCycles, p.res.simSec})
	}
	for _, c := range cells {
		out.Attempted++
		if !c.ok() {
			out.Failed++
			fmt.Fprintf(stderr, "perfbench: FAIL pass %d cell %s (seed %d, config %s): %s\n",
				c.Pass, c.Cell, c.Seed, c.ConfigHash, c.Status)
		}
	}
	out.Correct = out.Failed == 0

	dir := filepath.Join(*root, ".bench_build", "perfbench")
	file := fmt.Sprintf("%s-seed%d-trace%d.json", w.name, *seed, *traceMode)
	var spans []span
	if tr != nil {
		spans = tr.spans
	}
	if err := writeJSON(dir, file, map[string]any{
		"host": host, "workload": w.name, "seed": *seed, "workload_seed": inst.seed,
		"setup_s": setupTimes, "passes": passes, "cells": cells, "spans": spans,
	}); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
	}

	fmt.Fprintf(stdout, "workload %s, seed %d (workload seed %d), %d untraced + %d traced passes, records in %s\n",
		w.name, *seed, inst.seed, len(untraced), len(traced), filepath.Join(dir, file))
	printMetrics(stdout, "end to end (tracing off)", e2e)
	fmt.Fprintf(stdout, "  %-28s %.6g (%d of %d cells failed)\n", "cell_fail_ratio",
		float64(out.Failed)/float64(out.Attempted), out.Failed, out.Attempted)
	if tr != nil {
		printMetrics(stdout, "per layer (traced passes, per pass)", out.Metrics)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

// bench runs passes of one set-up workload.
type bench struct {
	inst   *instance
	digest map[string]string // nil: no digest check at this seed
	log    io.Writer
	passes int
}

// phase runs passes while the next one, judged by the median so far, fits
// in budget (at least one). With tr set, each pass is traced: spans, a CPU
// profile of its timed section, and allocation-profile snapshots around
// it.
func (b *bench) phase(budget time.Duration, tr *tracer) ([]passRun, error) {
	var out []passRun
	var took []float64
	start := time.Now()
	for len(out) == 0 || time.Since(start).Seconds()+median(took) <= budget.Seconds() {
		t0 := time.Now()
		b.passes++
		pr := passRun{traced: tr != nil}
		var cpu bytes.Buffer
		var profErr error
		before := func() {
			if tr != nil {
				if pr.allocBefore, profErr = allocProfile(); profErr == nil {
					profErr = pprof.StartCPUProfile(&cpu)
				}
			}
		}
		after := func() {
			if tr != nil && profErr == nil {
				pprof.StopCPUProfile()
				runtime.GC()
				pr.allocAfter, profErr = allocProfile()
			}
		}
		sp := tr.begin("pass", "", 0)
		pr.stats = measurePass(func() { pr.res = b.inst.pass(tr, sp) }, before, after)
		tr.end(sp)
		if profErr != nil {
			return nil, fmt.Errorf("profiling pass %d: %w", b.passes, profErr)
		}
		pr.cpuProf = cpu.Bytes()
		if b.digest != nil {
			for _, id := range checkDigest(pr.res.cells, b.digest) {
				pr.res.cells = append(pr.res.cells, cellRecord{Cell: id, Seed: b.inst.seed, Status: "in the digest but not run"})
			}
		}
		failed := 0
		for i := range pr.res.cells {
			pr.res.cells[i].Pass = b.passes
			pr.res.cells[i].Traced = tr != nil
			if !pr.res.cells[i].ok() {
				failed++
			}
		}
		fmt.Fprintf(b.log, "pass %d (traced=%v): wall %.3fs cpu %.3fs, %d cells, %d failed\n",
			b.passes, tr != nil, pr.stats.wall, pr.stats.cpu, len(pr.res.cells), failed)
		out = append(out, pr)
		took = append(took, time.Since(t0).Seconds())
	}
	return out, nil
}

// allocProfile snapshots the cumulative allocation profile.
func allocProfile() ([]byte, error) {
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		return nil, fmt.Errorf("allocation profile: %w", err)
	}
	return buf.Bytes(), nil
}

// endToEnd computes the end-to-end metrics: medians over untraced passes.
func endToEnd(passes []passRun, setupTimes []float64) map[string]metric {
	st := make([]passStats, len(passes))
	simRate := make([]float64, len(passes))
	for i, p := range passes {
		st[i] = p.stats
		simRate[i] = p.res.simSec / p.stats.wall
	}
	return map[string]metric{
		"wall_s":           {median(column(st, func(p passStats) float64 { return p.wall })), "s"},
		"cpu_s":            {median(column(st, func(p passStats) float64 { return p.cpu })), "s"},
		"sim_s_per_host_s": {median(simRate), "s/s"},
		"setup_s":          {median(setupTimes), "s"},
		"alloc_mb":         {median(column(st, func(p passStats) float64 { return float64(p.allocBytes) })) / 1e6, "MB"},
		"allocs_m":         {median(column(st, func(p passStats) float64 { return float64(p.allocs) })) / 1e6, "M"},
		"peak_live_mb":     {median(column(st, func(p passStats) float64 { return float64(p.peakLive) })) / 1e6, "MB"},
	}
}

// perLayer computes the per-layer metrics from the traced passes. Every
// count and time is per pass.
func perLayer(inst *instance, untraced, traced []passRun, tr *tracer) (map[string]metric, error) {
	n := float64(len(traced))
	cpuRows := map[string]int64{}
	allocBytes := map[string]int64{}
	allocObjs := map[string]int64{}
	var events, messages, netBytes, requests, payload, reexec float64
	var cellMS, occupancy, gcCycles, gcPause, peak, cpuTraced []float64
	for _, p := range traced {
		prof, err := parseProfile(p.cpuProf)
		if err != nil {
			return nil, err
		}
		vi, err := prof.valueIndex("cpu")
		if err != nil {
			return nil, err
		}
		rows, total := prof.fold(vi, true)
		if err := checkSum(rows, total); err != nil {
			return nil, err
		}
		addRows(cpuRows, rows)
		before, err := parseProfile(p.allocBefore)
		if err != nil {
			return nil, err
		}
		after, err := parseProfile(p.allocAfter)
		if err != nil {
			return nil, err
		}
		for value, dst := range map[string]map[string]int64{"alloc_space": allocBytes, "alloc_objects": allocObjs} {
			rows, total, err := foldDelta(before, after, value)
			if err != nil {
				return nil, err
			}
			if err := checkSum(rows, total); err != nil {
				return nil, err
			}
			addRows(dst, rows)
		}
		for _, c := range p.res.cells {
			events += float64(c.Events)
			messages += float64(c.messages)
			netBytes += float64(c.netBytes)
			requests += float64(c.pvfsRequests)
			payload += float64(c.payloadBytes)
			reexec += float64(c.reexecuted)
			cellMS = append(cellMS, c.WallMS)
		}
		occupancy = append(occupancy, p.res.occupancy)
		gcCycles = append(gcCycles, float64(p.stats.gcCycles))
		gcPause = append(gcPause, float64(p.stats.gcPauseNs)/1e6)
		peak = append(peak, float64(p.stats.peakLive))
		cpuTraced = append(cpuTraced, p.stats.cpu)
	}
	m := map[string]metric{}
	for _, l := range append(append([]string(nil), layers...), otherLayer) {
		m[l+".cpu_s"] = metric{float64(cpuRows[l]) / n / 1e9, "s"}
		m[l+".alloc_mb"] = metric{float64(allocBytes[l]) / n / 1e6, "MB"}
		m[l+".allocs"] = metric{float64(allocObjs[l]) / n, "count"}
	}
	events, messages, netBytes, requests, payload, reexec =
		events/n, messages/n, netBytes/n, requests/n, payload/n, reexec/n
	m["des.events"] = metric{events, "count"}
	m["des.ns_per_event"] = metric{ratio(m["des.cpu_s"].Value*1e9, events), "ns"}
	m["mpi.messages"] = metric{messages, "count"}
	m["mpi.bytes"] = metric{netBytes, "B"}
	m["mpi.alloc_b_per_msg"] = metric{ratio(m["mpi.alloc_mb"].Value*1e6, messages), "B"}
	m["pvfs.requests"] = metric{requests, "count"}
	m["pvfs.ns_per_request"] = metric{ratio(m["pvfs.cpu_s"].Value*1e9, requests), "ns"}
	m["payload.bytes"] = metric{payload, "B"}
	m["payload.ns_per_byte"] = metric{ratio(m["payload.cpu_s"].Value*1e9, payload), "ns"}
	m["search.generate_s"] = metric{median(tr.durations("search.Generate")), "s"}
	m["search.resultdata_mb_per_s"] = metric{resultDataRate(inst, tr), "MB/s"}
	m["core.cell_p50_ms"] = metric{quantile(cellMS, 0.5), "ms"}
	m["core.cell_p90_ms"] = metric{quantile(cellMS, 0.9), "ms"}
	m["core.cell_samples"] = metric{float64(len(cellMS)), "count"}
	m["core.kb_per_rank"] = metric{median(peak) / 1024 / float64(inst.maxRanks*inst.width), "KB"}
	m["fault.reexecuted_tasks"] = metric{reexec, "count"}
	m["experiments.occupancy"] = metric{median(occupancy), "ratio"}
	m["gc.cycles"] = metric{median(gcCycles), "count"}
	m["gc.pause_ms"] = metric{median(gcPause), "ms"}
	cpuUntraced := make([]float64, len(untraced))
	for i, p := range untraced {
		cpuUntraced[i] = p.stats.cpu
	}
	m["trace.overhead_ratio"] = metric{ratio(median(cpuTraced), median(cpuUntraced)), "ratio"}
	return m, nil
}

func addRows(dst, rows map[string]int64) {
	for k, v := range rows {
		dst[k] += v
	}
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// resultDataRate materializes every result of the workload through
// Workload.ResultData and returns MB generated per second.
func resultDataRate(inst *instance, tr *tracer) float64 {
	sp := tr.begin("search.ResultData", "", 0)
	start := time.Now()
	var n int64
	for q, qry := range inst.wl.Queries {
		for _, r := range qry.Results {
			n += int64(len(inst.wl.ResultData(q, r.Index, r.Size)))
		}
	}
	d := time.Since(start)
	tr.end(sp)
	return float64(n) / 1e6 / d.Seconds()
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func printMetrics(w io.Writer, title string, m map[string]metric) {
	fmt.Fprintf(w, "%s:\n", title)
	for _, k := range sortedKeys(m) {
		fmt.Fprintf(w, "  %-28s %.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}
