package core

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"s3asim/internal/des"
	"s3asim/internal/fault"
	"s3asim/internal/romio"
	"s3asim/internal/stats"
)

// This file pins the kernel fast path's strongest invariant: the virtual-time
// behavior of the engine — every phase duration, message count, flush time,
// and file-system counter — must be byte-identical before and after the
// internal/des tagged-event/parker rewrite. The hashes below were captured
// from the pre-rewrite (closure-event, two-rendezvous) kernel and must never
// change; any drift means the kernel reordered or retimed real work.
//
// Simulation.Events() is pinned separately because the rewrite changes the
// calendar-entry count deterministically without changing behavior:
// Signal.Broadcast now wakes its whole FIFO in ONE tagged calendar event
// (the old kernel queued one closure event per waiter), and a WaitUntil
// re-armed at an identical deadline revives its tombstoned timer instead of
// queueing another. Both transformations preserve the wake order and the
// virtual times exactly — hence same hashes — while executing fewer calendar
// entries.

// goldenConfig is the mid-scale configuration the golden hashes were
// captured with: big enough to exercise batching, contention, barriers, and
// collective I/O, small enough to run all eight cells in a few seconds.
func goldenConfig() Config {
	cfg := DefaultConfig()
	cfg.Procs = 12
	cfg.Workload.NumQueries = 10
	cfg.Workload.NumFragments = 24
	cfg.Workload.QueryHist = stats.Uniform(200, 2000)
	cfg.Workload.DBSeqHist = stats.Uniform(200, 20000)
	cfg.Workload.MinResults = 100
	cfg.Workload.MaxResults = 200
	cfg.Workload.MinResultSize = 256
	cfg.Workload.Seed = 42
	return cfg
}

// goldenFaultPlan injects a crash-with-restart, a straggler window, and
// probabilistic message drops — the resilient protocol's full surface,
// including the WaitUntil/lease-timeout machinery the timer tombstoning
// changed.
func goldenFaultPlan() *fault.Plan {
	return &fault.Plan{
		Seed: 7,
		Events: []fault.Event{
			{Kind: fault.Crash, At: 20 * des.Millisecond, Rank: 5, Server: -1,
				Restart: 60 * des.Millisecond},
			{Kind: fault.Slow, At: 0, For: 200 * des.Millisecond, Rank: 3,
				Server: -1, Factor: 1.5},
			{Kind: fault.Drop, At: 0, For: 100 * des.Millisecond, Rank: -1,
				Server: -1, Prob: 0.2},
		},
	}
}

// fingerprint renders every virtual-time observable of a report into a
// stable string and hashes it. Simulation.Events() is deliberately excluded
// (see the file comment); everything else a run can observe is in.
func fingerprint(rep *Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "overall=%d\n", rep.Overall)
	pb := func(tag string, p ProcBreakdown) {
		fmt.Fprintf(&b, "%s rank=%d total=%d phases=%v\n", tag, p.Rank, p.Total, p.Phases)
	}
	for _, m := range rep.Masters {
		pb("master", m)
	}
	for _, w := range rep.Workers {
		pb("worker", w)
	}
	fmt.Fprintf(&b, "msgs=%d bytes=%d\n", rep.Messages, rep.NetBytes)
	fmt.Fprintf(&b, "coverage=%d overlap=%d out=%d\n",
		rep.FileCoverage, rep.OverlappedBytes, rep.OutputBytes)
	fmt.Fprintf(&b, "flush=%v\n", rep.BatchFlushTimes)
	fmt.Fprintf(&b, "fs req=%d segs=%d bytes=%d syncs=%d busy=%d\n",
		rep.FS.TotalRequests, rep.FS.TotalSegments, rep.FS.TotalBytes,
		rep.FS.TotalSyncs, rep.FS.TotalBusy)
	for i, s := range rep.FS.Servers {
		fmt.Fprintf(&b, "srv%d req=%d segs=%d bytes=%d busy=%d qw=%d\n",
			i, s.Requests, s.Segments, s.BytesWritten, s.Busy, s.QueueWait)
	}
	// Mode-specific observables appear only when the mode is on, so the
	// rows pinned before these sections existed keep their hashes.
	if rep.ReadbackReads > 0 {
		fmt.Fprintf(&b, "readback reads=%d extents=%d bytes=%d mismatches=%d\n",
			rep.ReadbackReads, rep.ReadbackExtents, rep.ReadbackBytes, rep.ReadbackMismatches)
	}
	for _, q := range rep.Queries {
		fmt.Fprintf(&b, "query %+v\n", q)
	}
	if ad := rep.Adaptive; ad != nil {
		fmt.Fprintf(&b, "adaptive %+v\n", *ad)
	}
	return fmt.Sprintf("%x", sha256.Sum256([]byte(b.String())))
}

// goldenCase is one pinned run: the virtual-time fingerprint is from the
// pre-rewrite kernel; events is the calendar-entry count of the CURRENT
// kernel (pinned so count changes are always deliberate), with the
// pre-rewrite count kept alongside to document the delta.
//
// Rows with a mutate func pin paths the strategy × sync matrix does not
// reach: mutate edits goldenConfig (or replaces it with a mode's own test
// configuration). They were captured while a goroutine worker engine still
// existed beside the state-machine one, from runs on which both engines
// agreed event for event, so they hold the remaining engine to that
// behavior. Three of those cross-engine variants — WW-List with sync, the
// MW sync-token wait, WW-Coll two-phase — are the same configurations as
// matrix rows, so their rows pin the matrix rows' fingerprints under the
// names the cross-engine runs used.
type goldenCase struct {
	strategy  Strategy
	sync      bool
	faulted   bool
	name      string
	mutate    func(c *Config)
	hash      string
	events    uint64 // current kernel (batched broadcast, revived timers)
	oldEvents uint64 // pre-rewrite kernel (one event per broadcast waiter)
}

var goldenCases = []goldenCase{
	{strategy: MW, sync: false,
		hash:   "2bfb32678e085d125c04285047832c2c9b0f445fe7e6aeb9a0897d880f26f04a",
		events: 5629, oldEvents: 5639},
	{strategy: MW, sync: true,
		hash:   "e25ec2d7228e0e445e6a1cbce579eb3299129ee435f619c8759bc271be154737",
		events: 6200, oldEvents: 6300},
	{strategy: WWPosix, sync: false,
		hash:   "957a5b7b42d5b69b6bfbe08f438614d99eb4f030d6cd8c46ca11caca27dc89f3",
		events: 26406, oldEvents: 26416},
	{strategy: WWPosix, sync: true,
		hash:   "410f9de04efe10270aba7c9f86c8b559cf9c1ebb775ce72d5a1d6d270984b7c1",
		events: 26401, oldEvents: 26501},
	{strategy: WWList, sync: false,
		hash:   "6a96f1755ebb098595097948df8b5730d75caac632c75956ad43256056993ddf",
		events: 20086, oldEvents: 20096},
	{strategy: WWList, sync: true,
		hash:   "0fc6eedc777656b68774f857cdfcbdc03fe1e462df54ae6411206efef1e08e32",
		events: 19897, oldEvents: 19997},
	{strategy: WWColl, sync: false,
		hash:   "1c072fd527ced4dc6f8b5573f3e0d8cb1483e469f26e8c6bb3455acd5d909279",
		events: 21307, oldEvents: 21587},
	{strategy: WWColl, sync: true,
		hash:   "65bffb1170410c59c6a99b314e5ffb2d87d99dbaa5ab8b4271778d5963e100f4",
		events: 21305, oldEvents: 21675},
	{strategy: WWList, sync: false, faulted: true,
		hash:   "9813d53a3456195aca4f103bcd4204e48fe4006a3e642b7a3333948adb4c394f",
		events: 20672, oldEvents: 22014},

	// The cross-engine variants that coincide with matrix rows.
	{name: "WW-List_sync", mutate: func(c *Config) {
		c.Strategy = WWList
		c.QuerySync = true
	},
		hash:   "0fc6eedc777656b68774f857cdfcbdc03fe1e462df54ae6411206efef1e08e32",
		events: 19897},
	{name: "MW_sync_token", mutate: func(c *Config) {
		c.Strategy = MW
		c.QuerySync = true
	},
		hash:   "e25ec2d7228e0e445e6a1cbce579eb3299129ee435f619c8759bc271be154737",
		events: 6200},
	{name: "WW-Coll_two-phase", mutate: func(c *Config) { c.Strategy = WWColl },
		hash:   "1c072fd527ced4dc6f8b5573f3e0d8cb1483e469f26e8c6bb3455acd5d909279",
		events: 21307},

	// The list-sync collective, the initial database load, the
	// query-segmentation re-read, hybrid query groups, and sieved
	// individual writes.
	{name: "WW-Coll_list-sync", mutate: func(c *Config) {
		c.Strategy = WWColl
		c.CollMethod = romio.ListSync
	},
		hash:   "f8f8080865fc791996664f526574cd968017ed3707bcd6be1c6a179afc5390fd",
		events: 20465},
	{name: "WW-POSIX_db-load", mutate: func(c *Config) {
		c.Strategy = WWPosix
		c.DatabaseBytes = 64 << 20
	},
		hash:   "6ecaf3381f7c4c147e7a66300809e3f76d92aabf178e54810985edb781efa326",
		events: 27328},
	{name: "MW_query-seg_reread", mutate: func(c *Config) {
		c.Strategy = MW
		c.Segmentation = QuerySeg
		c.DatabaseBytes = 1 << 20
		c.WorkerMemoryBytes = 512 << 10
	},
		hash:   "054fef83161676e88ab817af12886a790ed668714278d456c09ffb9c9879244e",
		events: 2878},
	{name: "WW-List_query-groups", mutate: func(c *Config) {
		c.Strategy = WWList
		c.QueryGroups = 2
	},
		hash:   "508a4877a0b6e99cc2e8aadec37f60ca71a50dacc3e0ecd7d3d139d1479b688e",
		events: 12585},
	{name: "WW-List_sieve", mutate: func(c *Config) {
		c.Strategy = WWList
		c.OverrideIndMethod = true
		c.IndMethod = romio.DataSieve
	},
		hash:   "4c5940fdcaeccae8f8306ed61bfd4aed916b96b23db51d53c74ca7e9cd802357",
		events: 41432},

	// The verified read path: in-run list-I/O readback after every strategy's
	// write (collectively after WW-Coll's collective round in the last row)
	// plus the post-run pass; the readback counters are in the fingerprint.
	{name: "readback_MW", mutate: readbackRow(MW, false),
		hash:   "73d4c08f66af21344f0d84b926060881b7cd847cbfb67b61cc6e87d497af24fe",
		events: 787},
	{name: "readback_WW-POSIX", mutate: readbackRow(WWPosix, false),
		hash:   "a1c24b82810c43f45275ba03ea20aa94c1dbf3c5904aa52f85698917a6f5a0a5",
		events: 1709},
	{name: "readback_WW-List", mutate: readbackRow(WWList, false),
		hash:   "c0db15e8b86a878bfb68493b1aceb22e5e37b2a61d9654d932062ae07aad3b8f",
		events: 1560},
	{name: "readback_WW-Coll", mutate: readbackRow(WWColl, false),
		hash:   "2d0d2b9746ba033b37e7bd0fec61b4208f26e45a493f0cef12f73866bf39651a",
		events: 1916},
	{name: "readback_WW-Coll_collective", mutate: readbackRow(WWColl, true),
		hash:   "962406810d91b2f57854c7f56ce32c956d48073b4b26009751af8095a763d311",
		events: 2092},

	// Open-loop serving with query sync, including the Gate-based WW-Coll
	// run-ahead check; every query's lifecycle stamps are in the fingerprint.
	{name: "serve_MW", mutate: serveRow(MW),
		hash:   "b4824c08afc825aacbd1ac3c5daf03160e18aa679956fb3e983124f6ae6544a9",
		events: 1523},
	{name: "serve_WW-POSIX", mutate: serveRow(WWPosix),
		hash:   "dea114fea6f481888195507245fb326da17c619111c524b0cc146cdb8a2ac486",
		events: 3459},
	{name: "serve_WW-List", mutate: serveRow(WWList),
		hash:   "e401514cd96d0a2f09761a91280ccd7481768e059693c41551e311673be30a21",
		events: 3210},
	{name: "serve_WW-Coll", mutate: serveRow(WWColl),
		hash:   "ff9bbb2588c8cbdf1f815048ac298595a5d82eefbe50915634332a8a4c3aa0f6",
		events: 3530},

	// Closed-loop adaptive I/O: per-batch strategy and hints; the whole
	// AdaptiveReport is in the fingerprint.
	{name: "adaptive", mutate: func(c *Config) { *c = adaptiveConfig() },
		hash:   "f57a4ffef4eff305f649b0b190a8d2736a15bb5a05e10da8de61fd7ce5f5b59c",
		events: 8209},
}

// readbackRow configures a verified-read-path golden row.
func readbackRow(s Strategy, collective bool) func(c *Config) {
	return func(c *Config) {
		*c = readbackConfig(s, romio.ListIO)
		c.Readback.Collective = collective
	}
}

// serveRow configures a serving golden row.
func serveRow(s Strategy) func(c *Config) {
	return func(c *Config) {
		*c = serveConfig(2 * des.Millisecond)
		c.Strategy = s
		c.QuerySync = true
	}
}

// TestKernelGoldenBehavior runs the mid-scale matrix (all four strategies ×
// both sync modes, plus one faulted resilient run) and the mode rows, and
// checks every virtual-time observable against its pinned fingerprint,
// plus the pinned calendar-entry counts.
func TestKernelGoldenBehavior(t *testing.T) {
	for _, gc := range goldenCases {
		name := gc.name
		if name == "" {
			name = fmt.Sprintf("%s_sync=%v_faulted=%v", gc.strategy, gc.sync, gc.faulted)
		}
		t.Run(name, func(t *testing.T) {
			cfg := goldenConfig()
			cfg.Strategy = gc.strategy
			cfg.QuerySync = gc.sync
			if gc.faulted {
				cfg.FaultPlan = goldenFaultPlan()
			}
			if gc.mutate != nil {
				gc.mutate(&cfg)
			}
			rep := mustRun(t, cfg)
			got := fingerprint(rep)
			if got != gc.hash {
				t.Errorf("virtual-time fingerprint drifted:\n got %s\nwant %s", got, gc.hash)
			}
			if gc.events == 0 {
				t.Fatalf("calendar event count not yet pinned; capture events: %d", rep.Events)
			}
			if rep.Events != gc.events {
				t.Errorf("calendar events = %d, pinned %d (pre-rewrite kernel: %d)",
					rep.Events, gc.events, gc.oldEvents)
			}
		})
	}
}
