package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"proteus/internal/chns"
	"proteus/internal/ckpt"
	"proteus/internal/core"
	"proteus/internal/mesh"
	"proteus/internal/par"
	"proteus/internal/scenario"
	"proteus/internal/sfc"
)

// Span names: one per layer call the traced run times. The per-layer
// metrics are keyed off these.
const (
	spanAdapt    = "core.adapt"
	spanRecovery = "core.recovery" // pre-step snapshot and rollback
	spanCH       = "chns.ch"
	spanNS       = "chns.ns"
	spanPP       = "chns.pp"
	spanVU       = "chns.vu"
	spanCkpt     = "ckpt.write"
)

// traceResult is the per-layer ledger of one traced rep, recorded on
// rank 0.
type traceResult struct {
	WallMs float64 `json:"wall_ms"`
	// SpanMs is the time rank 0 spent inside each layer call; SpanMsgs
	// and SpanBytes are the world-wide par traffic the call caused.
	SpanMs    map[string]float64 `json:"span_ms"`
	SpanMsgs  map[string]int64   `json:"span_msgs"`
	SpanBytes map[string]int64   `json:"span_bytes"`
	// FenceMs is the time rank 0 spent in the tracer's own fences:
	// waiting for slower ranks plus the fence messages.
	FenceMs     float64        `json:"fence_ms"`
	FirstStepMs float64        `json:"first_step_ms"`
	NewtonIters int            `json:"newton_iters"`
	KrylovIters map[string]int `json:"krylov_iters"`
	// Allocation counts over warm steps (no remesh, not the first step,
	// not a retried attempt), process-wide.
	WarmSteps  int    `json:"warm_steps"`
	Allocs     uint64 `json:"allocs"`
	AllocBytes uint64 `json:"alloc_bytes"`
	GCCycles   uint32 `json:"gc_cycles"`

	CkptBytes    int64   `json:"ckpt_bytes"`
	RestoreMs    float64 `json:"restore_ms"`
	RestoreRanks int     `json:"restore_ranks"`

	AdaptRounds     int     `json:"adapt_rounds"`
	IncrBuild       int     `json:"incr_build_rounds"`
	MigrateBuild    int     `json:"migrate_build_rounds"`
	FullBuild       int     `json:"full_build_rounds"`
	DirtyFraction   float64 `json:"dirty_fraction"`
	PCRowsKept      int     `json:"pc_rows_kept"`
	PCRowsRebuilt   int     `json:"pc_rows_rebuilt"`
	MGLevelsReused  int     `json:"mg_levels_reused"`
	MGLevelsPatched int     `json:"mg_levels_patched"`
}

// unattributedMs is the traced wall not covered by a timed layer call or
// a fence.
func (t *traceResult) unattributedMs() float64 {
	u := t.WallMs - t.FenceMs
	for _, v := range t.SpanMs {
		u -= v
	}
	return u
}

// tracer times the calls into each layer from outside the program. Every
// call is followed by a fence: a barrier, a read of the world's par
// counters on rank 0 while the other ranks are held, and a release. The
// traffic between two fences therefore belongs to exactly one call.
type tracer struct {
	c    *par.Comm
	root bool
	st   *par.Stats
	res  *traceResult
	// Traffic of one fence, measured once, and the counters at the last.
	fenceMsgs, fenceBytes int64
	lastMsgs, lastBytes   int64
}

func newTracer(c *par.Comm, res *traceResult) *tracer {
	tr := &tracer{c: c, root: c.Rank() == 0, st: c.Stats(), res: res}
	if tr.root {
		res.SpanMs = map[string]float64{}
		res.SpanMsgs = map[string]int64{}
		res.SpanBytes = map[string]int64{}
		res.KrylovIters = map[string]int{}
	}
	tr.fence(nil)
	m0, b0 := tr.lastMsgs, tr.lastBytes
	tr.fence(nil)
	tr.fenceMsgs, tr.fenceBytes = tr.lastMsgs-m0, tr.lastBytes-b0
	return tr
}

// fence lines the ranks up and returns, on rank 0, the traffic since the
// previous fence less the fences' own. mem, when non-nil, is filled on
// rank 0 while the other ranks are held. Collective.
func (tr *tracer) fence(mem *runtime.MemStats) (msgs, bytes int64) {
	tr.c.Barrier()
	if tr.root {
		m, b := tr.st.Messages.Load(), tr.st.Bytes.Load()
		msgs, bytes = m-tr.lastMsgs-tr.fenceMsgs, b-tr.lastBytes-tr.fenceBytes
		tr.lastMsgs, tr.lastBytes = m, b
		if mem != nil {
			runtime.ReadMemStats(mem)
		}
	}
	par.Bcast(tr.c, 0, struct{}{})
	return msgs, bytes
}

// span runs one layer call and charges its time and traffic to name.
// Collective: every rank makes the same calls in the same order.
func (tr *tracer) span(name string, f func() error) error {
	t0 := time.Now()
	err := f()
	t1 := time.Now()
	msgs, bytes := tr.fence(nil)
	if tr.root {
		tr.res.SpanMs[name] += msSince(t0, t1)
		tr.res.SpanMsgs[name] += msgs
		tr.res.SpanBytes[name] += bytes
		tr.res.FenceMs += msSince(t1, time.Now())
	}
	return err
}

// memFence is a fence that also reads the memory statistics; its time is
// fence time.
func (tr *tracer) memFence(mem *runtime.MemStats) {
	t0 := time.Now()
	tr.fence(mem)
	if tr.root {
		tr.res.FenceMs += msSince(t0, time.Now())
	}
}

// stage runs one solver stage as a span and records its Newton and
// Krylov iteration counts.
func (tr *tracer) stage(name string, st *chns.StageTimes, f func() (chns.StageReport, error)) error {
	its0 := st.Iterations
	var rep chns.StageReport
	err := tr.span(name, func() error {
		var err error
		rep, err = f()
		return err
	})
	if tr.root {
		tr.res.KrylovIters[name] += st.Iterations - its0
		tr.res.NewtonIters += rep.NewtonIterations
	}
	return err
}

// step is core.Simulation.Step with every layer call timed: remesh when
// due, then the four solve stages (or CH alone under a prescribed
// velocity). It leaves the step index alone; the caller advances it.
func (tr *tracer) step(sim *core.Simulation) error {
	if sim.StepIndex%sim.Cfg.RemeshEvery == 0 && sim.StepIndex > 0 {
		tr.span(spanAdapt, func() error { sim.Adapt(); return nil })
	}
	sol := sim.Solver
	if pv := sim.Cfg.PrescribedVel; pv != nil {
		t := sim.Time
		return tr.stage(spanCH, &sol.T.CH, func() (chns.StageReport, error) {
			rep, err := sol.StepCHWithVelocity(func(x, y, z float64) (float64, float64, float64) {
				return pv(x, y, z, t)
			})
			return rep.CH, err
		})
	}
	if err := tr.stage(spanCH, &sol.T.CH, func() (chns.StageReport, error) { return sol.StepCH(nil) }); err != nil {
		return err
	}
	if err := tr.stage(spanNS, &sol.T.NS, sol.StepNS); err != nil {
		return err
	}
	var psi []float64
	if err := tr.stage(spanPP, &sol.T.PP, func() (chns.StageReport, error) {
		var rep chns.StageReport
		var err error
		psi, rep, err = sol.StepPP()
		return rep, err
	}); err != nil {
		return err
	}
	return tr.stage(spanVU, &sol.T.VU, func() (chns.StageReport, error) { return sol.StepVU(psi) })
}

// runTraced advances the workload like runUntraced, but drives Adapt and
// the stage calls itself so each can be timed. It keeps RunUntil's retry
// semantics (roll back, halve dt down to DtNominal/16, relax after 4
// clean steps) and its checkpoint cadence. The checkpoint fallback after
// an exhausted retry budget is not reproduced: the run fails instead, and
// the work-count check against the untraced run reports it. Collective.
func runTraced(c *par.Comm, w workload, sim *core.Simulation, ckBase string, res *repResult) error {
	tr := newTracer(c, res.Trace)
	root := tr.root
	if sim.DtNominal == 0 {
		sim.DtNominal = sim.Cfg.Opt.Dt
	}
	dtFloor := sim.DtNominal / 16
	const relaxAfter = 4
	target := sim.StepIndex + w.Steps
	var snap snapshot
	retries, clean, lastCkpt := 0, 0, -1
	rebound := false // the last rollback rebuilt the mesh
	var gc0, gc1, warm0, warm1 runtime.MemStats
	tr.memFence(&gc0)
	if root {
		res.Trace.FenceMs = 0 // the wall starts after this fence
	}
	t0 := time.Now()
	last := t0
	writeCkpt := func() error {
		err := tr.span(spanCkpt, func() error { return sim.CheckpointGeneration(ckBase, ckptRetain) })
		if err == nil && root {
			res.Trace.CkptBytes += dirBytes(ckpt.GenBase(ckBase, sim.StepIndex) + "*")
		}
		lastCkpt = sim.StepIndex
		return err
	}
	for sim.StepIndex < target {
		warm := sim.StepIndex > 0 && sim.StepIndex%sim.Cfg.RemeshEvery != 0 && retries == 0 && !rebound
		if warm {
			tr.memFence(&warm0)
		}
		tr.span(spanRecovery, func() error { snap.save(sim); return nil })
		if err := tr.step(sim); err != nil {
			var div *chns.ErrDiverged
			if !errors.As(err, &div) || retries >= maxRetries {
				return fmt.Errorf("traced run failed at step %d: %w", sim.StepIndex, err)
			}
			clean = 0
			retries++
			rebound = sim.MeshEpoch != snap.epoch
			tr.span(spanRecovery, func() error { snap.rollback(sim); return nil })
			sim.SetDt(max(sim.Cfg.Opt.Dt/2, dtFloor))
			sim.Retries++
			continue
		}
		sim.StepIndex++
		sim.Time += sim.Cfg.Opt.Dt
		retries, rebound = 0, false
		if sim.Cfg.Opt.Dt < sim.DtNominal {
			if clean++; clean >= relaxAfter {
				sim.SetDt(min(sim.Cfg.Opt.Dt*2, sim.DtNominal))
				clean = 0
			}
		}
		if warm {
			tr.memFence(&warm1)
			if root {
				res.Trace.WarmSteps++
				res.Trace.Allocs += warm1.Mallocs - warm0.Mallocs
				res.Trace.AllocBytes += warm1.TotalAlloc - warm0.TotalAlloc
			}
		}
		if ckBase != "" && sim.StepIndex%w.CkptEvery == 0 {
			if err := writeCkpt(); err != nil {
				return err
			}
		}
		if root {
			now := time.Now()
			res.StepMs = append(res.StepMs, msSince(last, now))
			last = now
			res.DofSteps += float64(sim.Mesh.NumGlobal)
		}
	}
	if ckBase != "" && lastCkpt != sim.StepIndex {
		if err := writeCkpt(); err != nil {
			return err
		}
	}
	tr.memFence(&gc1)
	wall := msSince(t0, time.Now())
	st := sim.Stats()
	if !root {
		return nil
	}
	t := res.Trace
	t.WallMs = wall
	res.RunS = wall / 1e3
	t.FirstStepMs = res.StepMs[0]
	t.GCCycles = gc1.NumGC - gc0.NumGC
	t.AdaptRounds = st.RemeshRounds
	t.IncrBuild, t.MigrateBuild, t.FullBuild = st.IncrBuildRounds, st.MigrateBuildRounds, st.FullBuildRounds
	t.DirtyFraction = st.DirtyFraction
	t.PCRowsKept, t.PCRowsRebuilt = st.PCRowsKept, st.PCRowsRebuilt
	t.MGLevelsReused, t.MGLevelsPatched = st.MGLevelsReused, st.MGLevelsPatched
	return nil
}

// snapshot is the pre-step state RunUntil saves to roll a failed step
// back: the local forest, every solver field and the step bookkeeping.
type snapshot struct {
	elems            []sfc.Octant
	elemCn, phiMu    []float64
	vel, p           []float64
	stepIndex, remsh int
	time             float64
	epoch            uint64
}

func (sn *snapshot) save(sim *core.Simulation) {
	sol := sim.Solver
	sn.elems = append(sn.elems[:0], sim.Mesh.Elems...)
	sn.elemCn = append(sn.elemCn[:0], sol.ElemCn...)
	sn.phiMu = append(sn.phiMu[:0], sol.PhiMu...)
	sn.vel = append(sn.vel[:0], sol.Vel...)
	sn.p = append(sn.p[:0], sol.P...)
	sn.stepIndex, sn.time, sn.remsh, sn.epoch = sim.StepIndex, sim.Time, sim.RemeshCount, sim.MeshEpoch
}

// rollback restores the saved state. A failed attempt that remeshed
// moved the epoch; the saved mesh is then rebuilt from its leaves, which
// reproduces it exactly. Collective when the epoch moved.
func (sn *snapshot) rollback(sim *core.Simulation) {
	if sim.MeshEpoch != sn.epoch {
		m := mesh.New(sim.Comm, sim.Cfg.Dim, sn.elems)
		sim.MeshEpoch++
		sim.Solver.Rebind(m, sim.MeshEpoch)
		sim.Mesh = m
	}
	sol := sim.Solver
	copy(sol.PhiMu, sn.phiMu)
	copy(sol.Vel, sn.vel)
	copy(sol.P, sn.p)
	copy(sol.ElemCn, sn.elemCn)
	sim.StepIndex, sim.Time, sim.RemeshCount = sn.stepIndex, sn.time, sn.remsh
}

// timeRestore restores the newest checkpoint under ckBase at the other
// rank count (1 if the workload ran on more, else 2) and checks that the
// restored forest is the one the rep ended with.
func timeRestore(w workload, sp scenario.Spec, ckBase string, res *repResult) error {
	_, base, err := ckpt.ReadLatestGood(ckBase)
	if err != nil {
		return err
	}
	ranks := 1
	if w.Ranks == 1 {
		ranks = 2
	}
	var rerr error
	par.Run(ranks, func(c *par.Comm) {
		root := c.Rank() == 0
		settle(c)
		t0 := time.Now()
		sim, err := core.Restore(c, sp.Config, base)
		if err != nil {
			if root {
				rerr = fmt.Errorf("restore %s at %d ranks: %w", base, ranks, err)
			}
			return
		}
		c.Barrier()
		d := msSince(t0, time.Now())
		elems := sim.GlobalElems()
		sim.Solver.Close()
		if root {
			res.Trace.RestoreMs, res.Trace.RestoreRanks = d, ranks
			if elems != res.Work.Elems || sim.StepIndex != res.Work.Steps {
				rerr = fmt.Errorf("restore at %d ranks: step %d, %d elems; the run ended at step %d with %d elems",
					ranks, sim.StepIndex, elems, res.Work.Steps, res.Work.Elems)
			}
		}
	})
	return rerr
}

// dirBytes sums the sizes of the files matching a glob.
func dirBytes(glob string) int64 {
	paths, _ := filepath.Glob(glob)
	var n int64
	for _, p := range paths {
		if fi, err := os.Stat(p); err == nil {
			n += fi.Size()
		}
	}
	return n
}
