package core

import (
	"reflect"
	"testing"
	"time"

	"s3asim/internal/des"
	"s3asim/internal/fault"
	"s3asim/internal/romio"
)

// TestResilientFaultFreeAllStrategies runs the recovery protocol with an
// empty plan: every strategy must still produce a complete, verified,
// exactly-once file image.
func TestResilientFaultFreeAllStrategies(t *testing.T) {
	for _, s := range Strategies {
		for _, qs := range []bool{false, true} {
			cfg := tinyConfig()
			cfg.Strategy = s
			cfg.QuerySync = qs
			cfg.Resilient = true
			rep := mustRun(t, cfg)
			if !rep.Verified {
				t.Fatalf("%v sync=%v: image not verified", s, qs)
			}
			if rep.OverlappedBytes != 0 {
				t.Fatalf("%v sync=%v: overlapping writes", s, qs)
			}
			if rep.FileCoverage != rep.OutputBytes {
				t.Fatalf("%v sync=%v: coverage %d of %d bytes",
					s, qs, rep.FileCoverage, rep.OutputBytes)
			}
		}
	}
}

// TestEmptyFaultPlanIsBitIdentical pins the tentpole's non-negotiable: a
// Config carrying an empty (or nil-event) fault plan must produce the very
// same Report as one with no fault configuration at all — the original
// protocol runs and no fault hook is installed.
func TestEmptyFaultPlanIsBitIdentical(t *testing.T) {
	for _, s := range Strategies {
		base := tinyConfig()
		base.Strategy = s
		want := mustRun(t, base)

		withPlan := tinyConfig()
		withPlan.Strategy = s
		withPlan.FaultPlan = &fault.Plan{Seed: 42} // empty: no events
		got := mustRun(t, withPlan)

		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%v: empty fault plan changed the report", s)
		}
	}
}

// TestChaosStaleReplyNoLivelock pins a livelock found at paper scale: with
// enough workers that the master falls behind, a worker resends its work
// request, the master replays the reply, and the duplicate lands after the
// worker went idle. The idle park wakes on "any receive completed", so a
// work reply nobody collects spun the loop forever at constant virtual
// time. The wall-clock watchdog (generous: the run takes well under a
// second) is the deadlock detector — on regression the run never returns.
func TestChaosStaleReplyNoLivelock(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Procs = 14
	cfg.Workload.NumQueries = 2
	cfg.Strategy = MW
	cfg.FaultPlan = &fault.Plan{
		Seed: 1,
		Events: []fault.Event{
			{Kind: fault.Crash, At: des.Second, Rank: 3, Server: -1,
				Restart: 500 * des.Millisecond},
		},
	}
	done := make(chan *Report, 1)
	go func() {
		done <- mustRun(t, cfg)
	}()
	select {
	case rep := <-done:
		if rep.FileCoverage != rep.OutputBytes {
			t.Fatalf("coverage %d of %d bytes", rep.FileCoverage, rep.OutputBytes)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("run livelocked: stale work reply not drained by an idle worker")
	}
}

// chaosPlan schedules one worker crash-with-restart early in the run.
func chaosPlan(rank int) *fault.Plan {
	return &fault.Plan{
		Seed: 1,
		Events: []fault.Event{
			{Kind: fault.Crash, At: 10 * des.Millisecond, Rank: rank, Server: -1,
				Restart: 50 * des.Millisecond},
		},
	}
}

// TestChaosCrashRestartAllStrategies is the acceptance scenario: at least
// one worker crash per strategy, the run completes without deadlock, results
// are durably written exactly once, and the recovery metrics are recorded.
func TestChaosCrashRestartAllStrategies(t *testing.T) {
	for _, s := range Strategies {
		for _, qs := range []bool{false, true} {
			cfg := tinyConfig()
			cfg.Strategy = s
			cfg.QuerySync = qs
			cfg.FaultPlan = chaosPlan(2)
			rep := mustRun(t, cfg)
			if !rep.Verified {
				t.Fatalf("%v sync=%v: image not verified after crash", s, qs)
			}
			if rep.OverlappedBytes != 0 {
				t.Fatalf("%v sync=%v: %d bytes written more than once",
					s, qs, rep.OverlappedBytes)
			}
			if rep.FileCoverage != rep.OutputBytes {
				t.Fatalf("%v sync=%v: coverage %d of %d", s, qs,
					rep.FileCoverage, rep.OutputBytes)
			}
			mc := rep.Metrics.Counters
			if mc["fault.crashes"] < 1 {
				t.Fatalf("%v sync=%v: no crash recorded", s, qs)
			}
			if mc["fault.restarts"] < 1 {
				t.Fatalf("%v sync=%v: no restart recorded", s, qs)
			}
		}
	}
}

// TestChaosPermanentCrashReexecutesTasks kills a worker for good mid-run:
// its leased and non-durable work must be re-executed by the survivors, with
// the re-execution and detection-latency metrics populated.
func TestChaosPermanentCrashReexecutesTasks(t *testing.T) {
	for _, s := range Strategies {
		cfg := tinyConfig()
		cfg.Strategy = s
		cfg.DetectInterval = des.Millisecond // sweep often: the tiny run is short
		cfg.FaultPlan = &fault.Plan{
			Seed: 3,
			Events: []fault.Event{
				{Kind: fault.Crash, At: 20 * des.Millisecond, Rank: 3, Server: -1},
			},
		}
		rep := mustRun(t, cfg)
		if !rep.Verified || rep.FileCoverage != rep.OutputBytes {
			t.Fatalf("%v: incomplete after permanent crash", s)
		}
		mc := rep.Metrics.Counters
		if mc["fault.crashes"] != 1 {
			t.Fatalf("%v: crashes = %d, want 1", s, mc["fault.crashes"])
		}
		if mc["fault.workers_detected"] != 1 {
			t.Fatalf("%v: workers_detected = %d, want 1", s, mc["fault.workers_detected"])
		}
		if s.WorkerWriting() && mc["fault.tasks_reexecuted"] < 1 {
			t.Fatalf("%v: no task re-execution recorded", s)
		}
		h, ok := rep.Metrics.Hists["fault.detection_latency"]
		if !ok || h.Count < 1 {
			t.Fatalf("%v: detection latency not observed", s)
		}
		// Detection latency is bounded by the detector sweep period (plus
		// the handling already in progress when the sweep fires). The
		// histogram records seconds (obs.ObserveTime).
		if got := des.FromSeconds(h.Max); got > 2*cfg.effDetect() {
			t.Fatalf("%v: detection latency %v exceeds 2x sweep period %v",
				s, got, cfg.effDetect())
		}
	}
}

// TestChaosCollFallback pins the WW-Coll degradation path: once a collective
// participant dies, subsequent batches fall back to individual list I/O and
// the fallback is recorded.
func TestChaosCollFallback(t *testing.T) {
	cfg := tinyConfig()
	cfg.Strategy = WWColl
	cfg.FaultPlan = &fault.Plan{
		Seed: 5,
		Events: []fault.Event{
			{Kind: fault.Crash, At: 15 * des.Millisecond, Rank: 4, Server: -1},
		},
	}
	rep := mustRun(t, cfg)
	if !rep.Verified || rep.FileCoverage != rep.OutputBytes {
		t.Fatal("WW-Coll chaos run incomplete")
	}
	if rep.Metrics.Counters["fault.coll_fallbacks"] < 1 {
		t.Fatal("collective fallback not recorded")
	}
}

// TestChaosDeterminism pins the determinism contract: the same seed and plan
// produce an identical report (timing, coverage, metrics) on every run.
func TestChaosDeterminism(t *testing.T) {
	run := func() *Report {
		cfg := tinyConfig()
		cfg.Strategy = WWList
		cfg.FaultPlan = &fault.Plan{
			Seed: 9,
			Events: []fault.Event{
				{Kind: fault.Crash, At: 10 * des.Millisecond, Rank: 2, Server: -1,
					Restart: 40 * des.Millisecond},
				{Kind: fault.Slow, At: 5 * des.Millisecond, Rank: 3, Server: -1,
					Factor: 3, For: 100 * des.Millisecond},
				{Kind: fault.Drop, Rank: -1, Server: -1, Prob: 0.05},
			},
		}
		return mustRun(t, cfg)
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same plan+seed produced different reports:\noverall %v vs %v\nmetrics %+v\nvs %+v",
			a.Overall, b.Overall, a.Metrics.Counters, b.Metrics.Counters)
	}
}

// TestChaosMessageLoss drives the retry plane hard: a lossy request/response
// channel for the whole run must still complete exactly-once.
func TestChaosMessageLoss(t *testing.T) {
	for _, s := range []Strategy{MW, WWList} {
		cfg := tinyConfig()
		cfg.Strategy = s
		cfg.FaultPlan = &fault.Plan{
			Seed: 11,
			Events: []fault.Event{
				{Kind: fault.Drop, Rank: -1, Server: -1, Prob: 0.15},
				{Kind: fault.Delay, Rank: -1, Server: -1, Prob: 0.2, Extra: des.Millisecond},
			},
		}
		rep := mustRun(t, cfg)
		if !rep.Verified || rep.FileCoverage != rep.OutputBytes {
			t.Fatalf("%v: incomplete under message loss", s)
		}
		if rep.OverlappedBytes != 0 {
			t.Fatalf("%v: duplicate writes under message loss", s)
		}
	}
}

// TestChaosServerFaults exercises the storage-fault path: an outage plus a
// degradation window on the PVFS servers slow the run but cannot corrupt it.
func TestChaosServerFaults(t *testing.T) {
	base := tinyConfig()
	base.Strategy = WWList
	base.Resilient = true
	clean := mustRun(t, base)

	cfg := tinyConfig()
	cfg.Strategy = WWList
	cfg.FaultPlan = &fault.Plan{
		Seed: 13,
		Events: []fault.Event{
			{Kind: fault.Outage, At: 5 * des.Millisecond, Rank: -1, Server: 0,
				For: 200 * des.Millisecond},
			{Kind: fault.Degrade, At: 0, Rank: -1, Server: 1, Factor: 4,
				For: 500 * des.Millisecond},
		},
	}
	rep := mustRun(t, cfg)
	if !rep.Verified || rep.FileCoverage != rep.OutputBytes {
		t.Fatal("incomplete under server faults")
	}
	if rep.Overall <= clean.Overall {
		t.Fatalf("server faults did not slow the run: %v <= %v", rep.Overall, clean.Overall)
	}
}

// TestChaosUnrecoverable pins the bounded-retry abort: when every worker is
// dead and none will restart, the run must fail cleanly instead of hanging.
func TestChaosUnrecoverable(t *testing.T) {
	cfg := tinyConfig()
	cfg.Procs = 3
	var evs []fault.Event
	for _, rank := range []int{1, 2} {
		evs = append(evs, fault.Event{
			Kind: fault.Crash, At: 5 * des.Millisecond, Rank: rank, Server: -1,
		})
	}
	cfg.FaultPlan = &fault.Plan{Seed: 17, Events: evs}
	if _, err := Run(cfg); err == nil {
		t.Fatal("expected an unrecoverable-run error, got success")
	}
}

// TestResilientAtScale runs the recovery protocol at 1,000 ranks with
// random crash+restart faults: every worker is a state machine, so the
// crashed ranks die at checkpoints, respawn as fresh machines, and the run
// must still end verified — exactly-once coverage and zero readback
// mismatches.
func TestResilientAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("1,000-rank resilient cell")
	}
	const procs = 1000
	cfg := ScaleConfig(procs)
	cfg.Workload.NumQueries = 4 // keeps the master's per-wake scans short
	cfg.CaptureData = true
	cfg.Readback = &ReadbackConfig{Method: romio.ListIO, InRunReads: 1, PostRun: true}
	workers := make([]int, 0, procs-1)
	for w := 1; w < procs; w++ {
		workers = append(workers, w)
	}
	const crashes = 4
	cfg.FaultPlan = fault.RandomCrashes(11, crashes, workers,
		200*des.Millisecond, 3*des.Second, 20*des.Millisecond)
	rep := mustRun(t, cfg)
	if !rep.Verified {
		t.Fatal("image not verified")
	}
	if rep.FileCoverage != rep.OutputBytes || rep.OverlappedBytes != 0 {
		t.Fatalf("coverage %d of %d bytes, %d overlapped: not exactly once",
			rep.FileCoverage, rep.OutputBytes, rep.OverlappedBytes)
	}
	if rep.ReadbackMismatches != 0 || rep.ReadbackReads == 0 {
		t.Fatalf("readback mismatches=%d reads=%d", rep.ReadbackMismatches, rep.ReadbackReads)
	}
	c := rep.Metrics.Counters
	if c["fault.crashes"] != crashes || c["fault.workers_rejoined"] == 0 {
		t.Fatalf("crashes=%d rejoined=%d: the plan did not take effect",
			c["fault.crashes"], c["fault.workers_rejoined"])
	}
}
