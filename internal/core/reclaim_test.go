package core

import (
	"fmt"
	"testing"
)

// TestPlainProtocolReclaimsTransfers runs a 1k-rank plain-protocol cell of
// every strategy, with and without per-query synchronization, and checks
// that the world has taken back every message record by the end of the
// run: each send handle and each matched receive was freed. A call site
// that drops a request without freeing it leaves records live and fails
// here (the run itself would still be correct, just wasteful).
func TestPlainProtocolReclaimsTransfers(t *testing.T) {
	for _, strat := range Strategies {
		for _, sync := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/sync=%v", strat, sync), func(t *testing.T) {
				cfg := ScaleConfig(1_000)
				cfg.Strategy = strat
				cfg.QuerySync = sync
				rep, rt, err := runCell(cfg, nil)
				if err != nil {
					t.Fatal(err)
				}
				if rep.Messages == 0 {
					t.Fatal("no messages sent")
				}
				if live := rt.world.LiveTransfers(); live != 0 {
					t.Errorf("%d of %d message records still live after the run", live, rep.Messages)
				}
			})
		}
	}
}
