package main

import (
	"runtime"
	"sort"
	"strings"
	"testing"

	"s3asim/internal/core"
	"s3asim/internal/experiments"
)

func setupFor(t *testing.T, name string, seed int64) *instance {
	t.Helper()
	w, err := lookupWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := w.setup(&env{seed: seed, width: 2, root: ".."})
	if err != nil {
		t.Fatalf("%s setup at seed %d: %v", name, seed, err)
	}
	return inst
}

// Changing --seed changes what the cells run: the workload seed, and with
// it every cell's configuration (generated workload or crash plans).
func TestSeedChangesInputs(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a, b := setupFor(t, w.name, 0), setupFor(t, w.name, 1)
			if a.seed == b.seed {
				t.Errorf("seeds 0 and 1 both select workload seed %d", a.seed)
			}
			if !a.reference || b.reference {
				t.Errorf("reference = %v at seed 0, %v at seed 1; want true, false", a.reference, b.reference)
			}
			if len(a.hashes) != len(b.hashes) {
				t.Fatalf("cell counts differ: %d vs %d", len(a.hashes), len(b.hashes))
			}
			for i := range a.hashes {
				if a.hashes[i] == b.hashes[i] && !strings.HasSuffix(a.ids[i], "crashes=0") {
					t.Errorf("cell %s has the same inputs at seeds 0 and 1", a.ids[i])
				}
			}
			// The same seed gives the same inputs.
			again := setupFor(t, w.name, 0)
			for i := range a.hashes {
				if a.hashes[i] != again.hashes[i] {
					t.Errorf("cell %s: seed 0 gave config %s, then %s", a.ids[i], a.hashes[i], again.hashes[i])
				}
			}
		})
	}
}

// Every committed digest names exactly the cells its workload runs.
func TestDigestsCoverEveryCell(t *testing.T) {
	for _, w := range workloads {
		digest, err := loadDigest(w.name)
		if err != nil {
			t.Fatal(err)
		}
		ids := setupFor(t, w.name, 0).ids
		var keys []string
		for id := range digest {
			keys = append(keys, id)
		}
		sort.Strings(keys)
		got := append([]string(nil), ids...)
		sort.Strings(got)
		if strings.Join(keys, ",") != strings.Join(got, ",") {
			t.Errorf("%s: digest cells %v, workload cells %v", w.name, keys, got)
		}
	}
}

// Every paper-size seed is what the list claims: within paperSizeTolerance
// of the paper's output volume. The paper's own seed comes first.
func TestPaperSeeds(t *testing.T) {
	if paperSeeds[0] != core.DefaultConfig().Workload.Seed {
		t.Fatalf("paperSeeds[0] = %d, want the paper's seed", paperSeeds[0])
	}
	seen := map[int64]bool{}
	for _, s := range paperSeeds {
		if seen[s] {
			t.Errorf("seed %d listed twice", s)
		}
		seen[s] = true
	}
	if testing.Short() {
		return
	}
	// Generating all of them takes half a minute; check a spread sample.
	ref := float64(setupFor(t, "paper-figures", 0).wl.TotalBytes)
	for _, i := range []int64{1, int64(len(paperSeeds)) / 2, int64(len(paperSeeds)) - 1} {
		inst := setupFor(t, "paper-figures", i)
		if r := float64(inst.wl.TotalBytes) / ref; r < 1-paperSizeTolerance || r > 1+paperSizeTolerance {
			t.Errorf("seed %d: output %.3fx the paper's", inst.seed, r)
		}
	}
	if s, _ := paperSeed(-1); s != paperSeeds[len(paperSeeds)-1] {
		t.Errorf("paperSeed(-1) = %d, want the last listed seed", s)
	}
}

// A perturbed cell fails the digest check: the digest is recorded from a
// real run, then the same cell id runs with a different compute speed.
func TestPerturbedCellFailsDigest(t *testing.T) {
	cfg := experiments.QuickOptions().Base
	cfg.Procs = 4
	run := func(cfg core.Config) cellRecord {
		t.Helper()
		res := runCells([]cellJob{{id: "quick/WW-List", cfg: cfg, hash: configHash(&cfg)}}, 1, nil, 0,
			func(j *cellJob, r *cellResult) { checkOutput(&r.rec, r.rep) })
		if !res[0].rec.ok() {
			t.Fatalf("cell failed: %s", res[0].rec.Status)
		}
		return res[0].rec
	}
	good := run(cfg)
	digest, err := parseDigest(renderDigest("# test\n", []cellRecord{good}))
	if err != nil {
		t.Fatal(err)
	}
	again := []cellRecord{run(cfg)}
	if missing := checkDigest(again, digest); len(missing) != 0 || !again[0].ok() {
		t.Fatalf("identical rerun failed the digest: %s (missing %v)", again[0].Status, missing)
	}
	// Two copies in flight at once give the same result as one alone.
	job := cellJob{id: "quick/WW-List", cfg: cfg, hash: configHash(&cfg)}
	for _, r := range runCells([]cellJob{job, job}, 2, newTracer(), 0, func(*cellJob, *cellResult) {}) {
		if r.rec.digestLine() != good.digestLine() {
			t.Errorf("concurrent run: %q, want %q", r.rec.digestLine(), good.digestLine())
		}
	}

	cfg.ComputeSpeed = 1.5
	perturbed := []cellRecord{run(cfg)}
	checkDigest(perturbed, digest)
	if perturbed[0].ok() {
		t.Fatal("a cell with a different compute speed passed the digest check")
	}
	renamed := []cellRecord{good}
	renamed[0].Cell = "quick/other"
	if missing := checkDigest(renamed, digest); renamed[0].ok() || len(missing) != 1 {
		t.Errorf("unknown cell: status %q, missing %v; want a failure and one missing cell", renamed[0].Status, missing)
	}
}

var retained []byte

// measurePass forces a GC first, so a heavy earlier workload's heap does
// not show in the next pass's peak_live_mb.
func TestPeakLiveDoesNotCarryOver(t *testing.T) {
	retained = make([]byte, 64<<20)
	for i := range retained {
		retained[i] = 1
	}
	heavy := measurePass(func() {}, nil, nil)
	if heavy.peakLive < 64<<20 {
		t.Fatalf("heavy pass peak %d B, want at least the 64 MiB it holds", heavy.peakLive)
	}
	retained = nil
	light := measurePass(func() { runtime.KeepAlive(make([]byte, 1<<20)) }, nil, nil)
	if light.peakLive >= 32<<20 {
		t.Errorf("light pass after a heavy one: peak %d B, want under 32 MiB", light.peakLive)
	}
}
