package core

import (
	"s3asim/internal/des"
	"s3asim/internal/mpi"
	"s3asim/internal/romio"
	"s3asim/internal/search"
)

// masterState is a group master's bookkeeping for Algorithm 1.
type masterState struct {
	nextQ, nextF int
	totalTasks   int
	processed    int
	notified     int // workers told that all queries are scheduled

	remaining map[int]int   // fragments outstanding per query
	assigned  map[int][]int // query -> fragment -> worker rank
	mergeAcc  map[int]int64 // accumulated merge bytes per query
	complete  map[int]bool  // query fully processed

	scores      *mpi.RequestSet   // outstanding result receives
	ready       []*mpi.Request    // masterDrain scratch: completed score receives
	offsetSends []*mpi.Request    // offset-list / token sends in flight
	perWorker   [][]search.Result // flushBatch scratch: offset lists by worker position
	flushed     int               // group-local batches flushed so far
}

// master runs Algorithm 1 for one group: distribute (query, fragment)
// tasks on demand, gather scores (and results under MW), merge, and drive
// the per-batch result flush for the configured I/O strategy.
func (rt *runtime) master(r *mpi.Rank, g *group) {
	cfg := rt.cfg
	pt := NewPhaseTimer(rt.sim)
	pt.Trace(cfg.Sink, r.Proc().Name())
	rt.timers[r.Rank()] = pt

	// Step 1: set up the output file and distribute input variables.
	pt.Switch(PhaseSetup)
	rt.openFile(r, g)
	if cfg.Strategy == WWColl || (rt.ad != nil && rt.ad.hasColl) {
		g.collGroup = rt.file.NewGroup(g.workers)
	}
	g.team.Bcast(r, g.masterRank, configMsgBytes, "input-variables")

	st := &masterState{
		totalTasks: (g.hiQ - g.loQ) * cfg.Workload.NumFragments,
		remaining:  make(map[int]int),
		assigned:   make(map[int][]int),
		mergeAcc:   make(map[int]int64),
		complete:   make(map[int]bool),
		scores:     mpi.NewRequestSet(r),
	}
	st.nextQ = g.loQ
	for q := g.loQ; q < g.hiQ; q++ {
		st.remaining[q] = cfg.Workload.NumFragments
		st.assigned[q] = make([]int, cfg.Workload.NumFragments)
	}

	for {
		switch {
		case st.notified < len(g.workers):
			// Steps 3–9: serve the next work request (blocking receive, as
			// the paper's master does to prioritize distribution). A serving
			// master draws tasks from its admission queue instead of the
			// next-in-batch counter (serving.go).
			pt.Switch(PhaseDataDist)
			m := r.Recv(mpi.AnySource, tagWorkRequest)
			var t task
			var have bool
			if rt.serve != nil {
				t, have = rt.serveNext(r, pt, g, st)
				pt.Switch(PhaseDataDist)
			} else if st.nextQ < g.hiQ {
				t = task{Q: st.nextQ, F: st.nextF}
				if rt.ad != nil {
					t.Strat = rt.adaptTaskStrat(g, st.nextQ)
				}
				have = true
				st.nextF++
				if st.nextF == cfg.Workload.NumFragments {
					st.nextF = 0
					st.nextQ++
				}
			}
			if have {
				r.Send(m.Source, tagWorkReply, replyMsgBytes, t)
				pt.Switch(PhaseGather)
				st.scores.Add(r.Irecv(m.Source, tagScores))
			} else {
				r.Send(m.Source, tagWorkReply, replyMsgBytes, nil)
				st.notified++
			}
		case st.processed < st.totalTasks:
			// All workers notified; only stragglers' results remain.
			pt.Switch(PhaseGather)
			st.scores.WaitAny()
		default:
			// Steps 20–22: everything scheduled, processed, and flushed.
			pt.Switch(PhaseGather)
			r.WaitAll(st.offsetSends...)
			r.FreeAll(st.offsetSends...)
			st.offsetSends = nil
			pt.Switch(PhaseSync)
			rt.final.Arrive(r)
			// The barrier released, so every worker write is durable — the
			// safe moment for the post-run verified read of this group's
			// committed extents.
			rt.rbPostRun(r, pt, g)
			pt.Finish()
			return
		}
		rt.masterDrain(r, pt, g, st)
	}
}

// masterDrain processes every score receive completed by now, in the order
// they were posted: merge accounting, query completion, and batch flushing
// (step 10 and steps 14–18). Receives completing during the merges wait for
// the next drain.
func (rt *runtime) masterDrain(r *mpi.Rank, pt *PhaseTimer, g *group, st *masterState) {
	cfg := rt.cfg
	pt.Switch(PhaseGather)
	st.ready = st.ready[:0]
	for req := st.scores.Take(); req != nil; req = st.scores.Take() {
		st.ready = append(st.ready, req)
	}
	for _, req := range st.ready {
		m := req.Message()
		sm, src := m.Payload.(scoreMsg), m.Source
		r.Free(req)
		q := sm.Task.Q
		// Merge the arriving ordered list into the master's ordered list:
		// full results under MW, scores only under worker-writing (§2).
		newBytes := int64(sm.Count) * cfg.ScoreEntryBytes
		if rt.taskStrat(sm.Task) == MW {
			newBytes += sm.ResultBytes
		}
		rt.mergeSleep(r, cfg.mergeTime(st.mergeAcc[q], newBytes))
		st.mergeAcc[q] += newBytes
		st.assigned[q][sm.Task.F] = src
		st.remaining[q]--
		st.processed++
		if st.remaining[q] == 0 {
			st.complete[q] = true
			rt.serveStampGathered(q)
			rt.adaptQueryDone(q)
		}
	}
	rt.masterFlush(r, pt, g, st)
}

// masterFlush flushes every ready batch, in order: the master writes (MW)
// or distributes offset lists (WW strategies). Serving runs relax the
// in-order restriction (serveFlush).
func (rt *runtime) masterFlush(r *mpi.Rank, pt *PhaseTimer, g *group, st *masterState) {
	if rt.serve != nil {
		rt.serveFlush(r, pt, g, st)
		return
	}
	for st.flushed < len(g.batches) {
		b := g.batches[st.flushed]
		allDone := true
		for q := b.LoQ; q < b.HiQ; q++ {
			if !st.complete[q] {
				allDone = false
				break
			}
		}
		if !allDone {
			return
		}
		rt.flushBatch(r, pt, g, st, st.flushed)
		st.flushed++
	}
}

// flushBatch performs one batch flush — the MW write+sync (step 18) or the
// WW offset-list distribution (steps 15–16) — for group-local batch bi, then
// retires completed offset-list sends.
func (rt *runtime) flushBatch(r *mpi.Rank, pt *PhaseTimer, g *group, st *masterState, bi int) {
	cfg := rt.cfg
	b := g.batches[bi]
	gb := g.batchBase + bi
	// Resolve the batch's write strategy and hints: the controller's stamped
	// decision under adaptive I/O (normally made at dispatch; deciding here
	// covers a batch flushed without dispatches), the config otherwise.
	strat := cfg.Strategy
	var hints romio.Hints
	if rt.ad != nil {
		strat = rt.adaptTaskStrat(g, b.LoQ)
		hints = rt.ad.decisions[gb].hints
	}
	if strat == MW {
		// Step 18: format the merged results (the mpiBLAST master's
		// serialization bottleneck), then one large contiguous write
		// followed by sync. Workers drain their in-flight tasks during
		// this stall — which is why the paper finds forced
		// synchronization nearly free under MW.
		pt.Switch(PhaseIO)
		if rt.ad != nil {
			rt.adaptFlushStart(gb, 1)
		}
		rt.mergeSleep(r, des.BytesOver(b.Bytes, cfg.FormatBandwidth))
		var data []byte
		if cfg.CaptureData {
			data = rt.batchData(b)
		}
		rt.file.WriteAt(r, b.Region, b.Bytes, data)
		if cfg.SyncEveryWrite {
			rt.file.Sync(r)
		}
		rt.flushTimes[gb] = rt.sim.Now()
		rt.serveStampDone(gb, r.Proc().Name())
		if rt.ad != nil {
			rt.adaptStamped(gb, r.Proc().Name())
		}
		rt.rbInRunMaster(r, pt, b, data)
		pt.Switch(PhaseGather)
		if rt.ad != nil {
			// Adaptive MW batches still send (empty) offset lists: the
			// workers' batch tracker, and the QuerySync barrier trigger.
			for _, w := range g.workers {
				st.offsetSends = append(st.offsetSends,
					r.Isend(w, tagOffsets, offsetHdrBytes,
						offsetMsg{Batch: bi, Strat: MW, Hints: hints}))
			}
		} else if cfg.QuerySync {
			for _, w := range g.workers {
				st.offsetSends = append(st.offsetSends,
					r.Isend(w, tagSyncToken, tokenMsgBytes, bi))
			}
		}
	} else {
		// Steps 15–16: build and send per-worker offset lists. Every
		// worker gets a message (possibly empty) so it can track batch
		// progress and, under WW-Coll, join the collective round.
		// A group's workers are the consecutive ranks after its master, so
		// a worker's list sits at rank-masterRank-1. Each list is sent
		// away (the worker keeps it), so only the index is reused.
		if st.perWorker == nil {
			st.perWorker = make([][]search.Result, len(g.workers))
		}
		clear(st.perWorker)
		for q := b.LoQ; q < b.HiQ; q++ {
			qry := &rt.wl.Queries[q]
			for _, res := range qry.Results {
				i := st.assigned[q][res.Fragment] - g.masterRank - 1
				st.perWorker[i] = append(st.perWorker[i], res)
			}
		}
		if rt.ad != nil {
			// A collective round is stamped by every group worker; an
			// individual WW batch only by the workers holding placements.
			writers := len(g.workers)
			if strat != WWColl {
				writers = 0
				for _, list := range st.perWorker {
					if len(list) > 0 {
						writers++
					}
				}
			}
			rt.adaptFlushStart(gb, writers)
		}
		// Empty lists differ only in their (nil) placements, so one boxed
		// payload serves every worker without any.
		var empty any
		for i, w := range g.workers {
			msg := offsetMsg{Batch: bi, Placements: st.perWorker[i]}
			if rt.ad != nil {
				msg.Strat, msg.Hints = strat, hints
			}
			var payload any
			if len(msg.Placements) > 0 {
				payload = msg
			} else {
				if empty == nil {
					empty = msg
				}
				payload = empty
			}
			bytes := int64(offsetHdrBytes) + int64(len(msg.Placements))*offsetPerResult
			st.offsetSends = append(st.offsetSends,
				r.Isend(w, tagOffsets, bytes, payload))
		}
		// Worker-writing durability is stamped by the workers as their
		// writes (and syncs) complete; see workerWrite.
	}
	// Step 16: retire completed offset-list sends. They leave the master's
	// send NIC in the order they were queued, so the completed ones are a
	// prefix. (A rendezvous-sized list completes only on delivery, so
	// completed lists queued behind it wait for a later retire or the
	// final WaitAll.)
	n := 0
	for n < len(st.offsetSends) && st.offsetSends[n].Done() {
		r.Free(st.offsetSends[n])
		n++
	}
	st.offsetSends = st.offsetSends[n:]
}

// batchData materializes a batch's result bytes in file order (capture
// verification runs only), generating each result in place.
func (rt *runtime) batchData(b batch) []byte {
	out := make([]byte, b.Bytes)
	var at int64
	for q := b.LoQ; q < b.HiQ; q++ {
		for _, res := range rt.wl.Queries[q].Results {
			rt.wl.FillResult(q, res.Index, 0, out[at:at+res.Size])
			at += res.Size
		}
	}
	return out
}
