package main

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"time"

	"proteus/internal/core"
	"proteus/internal/par"
	"proteus/internal/scenario"
)

const (
	// maxRetries is the CLI's default per-step retry budget.
	maxRetries = 3
	// ckptRetain is the CLI's default number of kept checkpoint generations.
	ckptRetain = 3
	// setupsPerRep is how many times each rep builds the simulation; the
	// last build is the one that runs.
	setupsPerRep = 3
	// massTol bounds |∫φ(end) - ∫φ(start)| over the domain volume. The
	// domain is the unit box, so the volume is 1.
	massTol = 1e-2
)

// workCounts is the work a rep did. Two reps of one workload and seed
// must agree on it; the traced rep must reproduce the untraced one.
type workCounts struct {
	Steps       int   `json:"steps"`
	Elems       int64 `json:"elems"`
	Dofs        int64 `json:"dofs"`
	MeshChanges int   `json:"mesh_changes"`
	Retries     int   `json:"retries"`
}

// checks holds the physical invariants checked after every rep.
type checks struct {
	ValidateErr string  `json:"validate_err,omitempty"`
	MassDrift   float64 `json:"mass_drift"`
	DivL2       float64 `json:"div_l2"`
	PhiMaxAbs   float64 `json:"phi_max_abs"`
}

func (c checks) failure() string {
	switch {
	case c.ValidateErr != "":
		return "scenario validation: " + c.ValidateErr
	case !(c.MassDrift <= massTol):
		return fmt.Sprintf("phi mass drift %.3e exceeds %.1e", c.MassDrift, massTol)
	}
	return ""
}

// repResult is what one rep (one child process) reports.
type repResult struct {
	Workload string       `json:"workload"`
	Seed     uint64       `json:"seed"`
	SetupS   []float64    `json:"setup_s"`
	RunS     float64      `json:"run_s"`
	StepMs   []float64    `json:"step_ms"`
	DofSteps float64      `json:"dof_steps"`
	Err      string       `json:"err,omitempty"`
	Work     workCounts   `json:"work"`
	Check    checks       `json:"check"`
	Trace    *traceResult `json:"trace,omitempty"`
	// MaxRSSKB is filled in by the parent from the child's rusage.
	MaxRSSKB int64 `json:"max_rss_kb,omitempty"`
}

// runRep builds the workload (setupsPerRep times) and advances it by its
// step budget, untraced through core.Simulation.RunUntil or traced
// through the layer calls, then checks the result. workDir holds the
// rep's checkpoints.
func runRep(w workload, seed uint64, workDir string, traced bool) repResult {
	res := repResult{Workload: w.Name, Seed: seed}
	sc, sp, err := w.spec(seed)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	var ckBase string
	if w.CkptEvery > 0 {
		ckBase = filepath.Join(workDir, "ck")
	}
	if traced {
		res.Trace = &traceResult{}
	}
	par.Run(w.Ranks, func(c *par.Comm) {
		root := c.Rank() == 0
		var sim *core.Simulation
		for i := 0; i < setupsPerRep; i++ {
			if sim != nil {
				sim.Solver.Close()
			}
			settle(c)
			t0 := time.Now()
			sim = sc.NewFromSpec(c, w.Preset, sp)
			c.Barrier()
			if root {
				res.SetupS = append(res.SetupS, time.Since(t0).Seconds())
			}
		}
		defer sim.Solver.Close()
		mass0 := sim.Solver.PhiMass()
		settle(c)
		var runErr error
		if traced {
			runErr = runTraced(c, w, sim, ckBase, &res)
		} else {
			runErr = runUntraced(c, w, sim, ckBase, &res)
		}
		check := finalChecks(sc, sim, mass0)
		elems := sim.GlobalElems()
		if root {
			if runErr != nil {
				res.Err = runErr.Error()
			}
			res.Check = check
			res.Work = workCounts{
				Steps: len(res.StepMs), Elems: elems, Dofs: sim.Mesh.NumGlobal,
				MeshChanges: sim.RemeshCount, Retries: sim.Retries,
			}
		}
	})
	if traced && ckBase != "" && res.Err == "" {
		if err := timeRestore(w, sp, ckBase, &res); err != nil {
			res.Err = err.Error()
		}
	}
	return res
}

// settle collects garbage left by earlier work so it is not charged to
// the next timed section, then lines the ranks up. Collective.
func settle(c *par.Comm) {
	if c.Rank() == 0 {
		runtime.GC()
	}
	c.Barrier()
}

// runUntraced advances the workload through RunUntil, timing each step
// from one OnStep call to the next on rank 0. Collective.
func runUntraced(c *par.Comm, w workload, sim *core.Simulation, ckBase string, res *repResult) error {
	root := c.Rank() == 0
	opts := core.RunOptions{Steps: w.Steps, MaxRetries: maxRetries}
	if ckBase != "" {
		opts.CkptEvery, opts.CkptBase, opts.FinalCkpt, opts.CkptRetain = w.CkptEvery, ckBase, true, ckptRetain
	}
	var last time.Time
	opts.OnStep = func(s *core.Simulation) {
		if !root {
			return
		}
		now := time.Now()
		res.StepMs = append(res.StepMs, msSince(last, now))
		last = now
		res.DofSteps += float64(s.Mesh.NumGlobal)
	}
	t0 := time.Now()
	last = t0
	_, err := sim.RunUntil(opts)
	if root {
		res.RunS = time.Since(t0).Seconds()
	}
	return err
}

// finalChecks evaluates the physical invariants after a rep. Collective.
func finalChecks(sc scenario.Scenario, sim *core.Simulation, mass0 float64) checks {
	var ck checks
	if sc.Validate != nil {
		if err := sc.Validate(sim); err != nil {
			ck.ValidateErr = err.Error()
		}
	}
	ck.MassDrift = math.Abs(sim.Solver.PhiMass() - mass0)
	ck.DivL2 = sim.Solver.DivergenceL2()
	var mx float64
	for i := 0; i < sim.Mesh.NumOwned; i++ {
		mx = math.Max(mx, math.Abs(sim.Solver.Phi(i)))
	}
	ck.PhiMaxAbs = sim.Mesh.GlobalMax(mx)
	return ck
}

func msSince(t0, t1 time.Time) float64 {
	return float64(t1.Sub(t0).Nanoseconds()) / 1e6
}
