package chns

import (
	"math"
	"time"

	"proteus/internal/fault"
	"proteus/internal/fem"
	"proteus/internal/la"
)

// vuScratch is one element-loop worker's private velocity-update
// RHS-kernel scratch, hoisted on the Solver so the sharded vector
// assembly runs race-free with zero per-element allocation.
type vuScratch struct {
	pm, velC, psiC []float64
	comp, phiC     []float64
}

func newVUScratch(npe, dim int) vuScratch {
	return vuScratch{
		pm:   make([]float64, npe*2),
		velC: make([]float64, npe*dim),
		psiC: make([]float64, npe),
		comp: make([]float64, npe),
		phiC: make([]float64, npe),
	}
}

// StepVU corrects the tentative velocity to its solenoidal projection
// (Table II: cg + jacobi):
//
//	v^{n+1} = v* - dt (1/ρ) ∇ψ,   p^{n+1} = p^n + ψ
//
// realized weakly as a mass solve per component. With Opt.SplitVU the
// DIM-DOF solve is split into DIM single-DOF solves reusing one assembled
// mass matrix (the Sec. II-A memory/assembly optimization measured in
// Table I); otherwise a single block system of size N×DIM is assembled
// and solved, the baseline layout. In split mode the report's Result is
// the final component's solve with Iterations accumulated over all
// components.
func (s *Solver) StepVU(psi []float64) (StageReport, error) {
	t0 := time.Now()
	rep := StageReport{Stage: StageVU}
	m := s.M
	dim := m.Dim
	r := s.asmS.Ref
	m.GhostRead(psi, 1)
	m.GhostRead(s.PhiMu, 2)
	m.GhostRead(s.Vel, dim)
	// The prebuilt RHS kernels read ψ through this field (cleared before
	// returning so no stale reference pins the caller's buffer).
	s.kVUPsi = psi
	defer func() { s.kVUPsi = nil }()

	if s.Opt.SplitVU {
		// One scalar mass matrix, assembled once per mesh and reused for
		// every component and every step.
		tMat := time.Now()
		if s.vuMass == nil {
			s.vuMass = s.asmS.NewMatrix(s.Opt.Layout)
			if s.Opt.Layout == fem.LayoutZipped {
				s.asmS.AssembleMatrixZipped(s.vuMass, func(w, e int, h float64, blocks [][]float64) {
					r.MassGemm(s.asmS.WorkN(w), h, 1, nil, blocks[0])
				})
			} else {
				s.asmS.AssembleMatrix(s.vuMass, s.Opt.Layout, func(w, e int, h float64, ke []float64) {
					r.Mass(h, 1, ke)
				})
			}
			for i := 0; i < m.NumOwned; i++ {
				if m.OnBoundary(i) {
					s.vuMass.ZeroRow(i, 1)
				}
			}
			s.vuMassPC = la.NewPCJacobi(s.vuMass)
		}
		s.T.VU.Matrix += time.Since(tMat)
		if s.vuNewVel == nil {
			s.vuNewVel = m.NewVec(dim)
			s.vuComp = m.NewVec(1)
			s.vuRHS = m.NewVec(1)
		}
		newVel, comp, rhs := s.vuNewVel, s.vuComp, s.vuRHS
		// Persistent KSP: one warm CG workspace shared by all components,
		// re-pointed at the (possibly rebuilt) mass operator each step.
		if s.vuKSP == nil {
			s.vuKSP = &la.KSP{Type: la.CG, Rtol: s.Opt.LinTol, Atol: s.Opt.LinTol}
		}
		s.vuKSP.Op, s.vuKSP.PC, s.vuKSP.Red, s.vuKSP.Pool = s.vuMass, s.vuMassPC, m, s.pool
		itSum := 0
		for d := 0; d < dim; d++ {
			tVec := time.Now()
			s.kVUD = d
			s.asmS.AssembleVectorPlanned(rhs, s.kVUComp)
			for i := 0; i < m.NumOwned; i++ {
				if m.OnBoundary(i) {
					rhs[i] = 0
				}
			}
			s.T.VU.Vector += time.Since(tVec)
			tSolve := time.Now()
			if s.Opt.WarmStarts {
				// The tentative component is the natural initial guess for
				// its own mass-projection (same converged solution: the
				// tolerance is relative to the RHS).
				for i := range comp {
					comp[i] = s.Vel[i*dim+d]
				}
			} else {
				for i := range comp {
					comp[i] = 0
				}
			}
			res, err := s.vuKSP.Solve(rhs, comp)
			s.T.VU.Solve += time.Since(tSolve)
			s.T.VU.Record(res.Iterations)
			if s.postRemesh {
				s.T.RemeshStages.PostVUIters += res.Iterations
			}
			itSum += res.Iterations
			rep.Result = res
			rep.Result.Iterations = itSum
			if err != nil {
				s.T.VU.Total += time.Since(t0)
				return rep, err
			}
			if !res.Converged {
				s.T.VU.Total += time.Since(t0)
				return rep, &ErrDiverged{Stage: StageVU, Kind: DivergeKSP, Result: rep.Result}
			}
			for i := 0; i < m.NumOwned; i++ {
				newVel[i*dim+d] = comp[i]
			}
		}
		copy(s.Vel, newVel)
	} else {
		// Baseline: one N×DIM block mass system per step. This path exists
		// for the Table I baseline comparison, so it always uses the
		// node-major assembly (the zipped kernel is a stage-2 feature).
		// The operator persists across steps like the other stages.
		lay := s.Opt.Layout
		if lay == fem.LayoutZipped {
			lay = fem.LayoutBAIJ
		}
		tMat := time.Now()
		if s.vuBlockMat == nil {
			s.vuBlockMat = s.asmVel.NewMatrix(lay)
		}
		mat := s.vuBlockMat
		s.asmVel.AssembleMatrix(mat, lay, s.kVUBlockMat)
		s.T.VU.Matrix += time.Since(tMat)
		tVec := time.Now()
		if s.vuBlockRHS == nil {
			s.vuBlockRHS = m.NewVec(dim)
		}
		rhs := s.vuBlockRHS
		s.asmVel.AssembleVectorPlanned(rhs, s.kVUBlockVec)
		s.T.VU.Vector += time.Since(tVec)
		for i := 0; i < m.NumOwned; i++ {
			if m.OnBoundary(i) {
				for d := 0; d < dim; d++ {
					mat.ZeroRow(i*dim+d, 1)
					rhs[i*dim+d] = 0
				}
			}
		}
		// Persistent KSP + Jacobi PC refreshed from the new values (the PC
		// is rebuilt with the operator after a remesh); setup timed apart
		// from the Krylov iteration.
		tPC := time.Now()
		if s.vuBlockPC == nil {
			s.vuBlockPC = la.NewPCJacobi(mat)
		} else {
			s.vuBlockPC.Refresh()
		}
		pcSetup := time.Since(tPC)
		s.T.VU.PCSetup += pcSetup
		if s.vuBlockKSP == nil {
			s.vuBlockKSP = &la.KSP{Type: la.CG, Rtol: s.Opt.LinTol, Atol: s.Opt.LinTol}
		}
		s.vuBlockKSP.AddPCSetup(pcSetup)
		s.vuBlockKSP.Op, s.vuBlockKSP.PC, s.vuBlockKSP.Red, s.vuBlockKSP.Pool = mat, s.vuBlockPC, m, s.pool
		tSolve := time.Now()
		res, err := s.vuBlockKSP.Solve(rhs, s.Vel)
		s.T.VU.Solve += time.Since(tSolve)
		s.T.VU.Record(res.Iterations)
		if s.postRemesh {
			s.T.RemeshStages.PostVUIters += res.Iterations
		}
		rep.Result = res
		if err != nil {
			s.T.VU.Total += time.Since(t0)
			return rep, err
		}
		if !res.Converged {
			s.T.VU.Total += time.Since(t0)
			return rep, &ErrDiverged{Stage: StageVU, Kind: DivergeKSP, Result: rep.Result}
		}
	}
	if s.Fault.Fire(fault.KSPDiverge, string(StageVU)) {
		rep.Result.Converged = false
		s.T.VU.Total += time.Since(t0)
		return rep, &ErrDiverged{Stage: StageVU, Kind: DivergeKSP, Result: rep.Result}
	}
	m.GhostRead(s.Vel, dim)
	// Pressure update: ψ is the kinematic increment; the momentum
	// equation carries ∇p/We, so the accumulated pressure absorbs We.
	for i := 0; i < m.NumLocal; i++ {
		s.P[i] += psi[i] * s.Par.We
	}
	// One fused finite check covers both stage outputs (velocity and the
	// updated pressure) with a single global reduction.
	s.pokeNaN(StageVU, s.Vel)
	bad := s.scanBad(s.Vel, dim*m.NumOwned) | s.scanBad(s.P, m.NumOwned)
	err := s.checkFinite(StageVU, bad, rep.Result)
	s.T.VU.Total += time.Since(t0)
	return rep, err
}

// DivergenceL2 returns the global L2 norm of ∇·v, the quantity the
// projection step drives down.
func (s *Solver) DivergenceL2() float64 {
	m := s.M
	dim := m.Dim
	r := s.asmS.Ref
	npe := r.NPE
	m.GhostRead(s.Vel, dim)
	velC := make([]float64, npe*dim)
	comp := make([]float64, npe)
	var acc float64
	for e := 0; e < m.NumElems(); e++ {
		h := s.M.ElemSize(e)
		m.GatherElem(e, s.Vel, dim, velC)
		vol := 1.0
		for d := 0; d < dim; d++ {
			vol *= h
		}
		for g := 0; g < r.NG; g++ {
			var div float64
			for d := 0; d < dim; d++ {
				for a := 0; a < npe; a++ {
					comp[a] = velC[a*dim+d]
				}
				div += r.GradAtGauss(g, d, h, comp)
			}
			acc += r.W[g] * vol * div * div
		}
	}
	return math.Sqrt(s.M.GlobalSum(acc))
}

// vuEmitComp accumulates the elemental RHS for velocity component d:
// ∫ N (v*_d - dt (1/ρ) ψ_,d), with worker w's private scratch. ψ reaches
// it through s.kVUPsi (set by StepVU for the assembly calls).
func (s *Solver) vuEmitComp(w, e int, h float64, d int, fe []float64, stride, off int) {
	m := s.M
	dim := m.Dim
	r := s.asmS.Ref
	npe := r.NPE
	sc := &s.vuVec[w]
	m.GatherElem(e, s.PhiMu, 2, sc.pm)
	m.GatherElem(e, s.Vel, dim, sc.velC)
	m.GatherElem(e, s.kVUPsi, 1, sc.psiC)
	vol := 1.0
	for dd := 0; dd < dim; dd++ {
		vol *= h
	}
	for a := 0; a < npe; a++ {
		sc.comp[a] = sc.velC[a*dim+d]
		sc.phiC[a] = sc.pm[a*2]
	}
	for g := 0; g < r.NG; g++ {
		wg := r.W[g] * vol
		vg := r.AtGauss(g, sc.comp)
		dpsi := r.GradAtGauss(g, d, h, sc.psiC)
		rhoG := s.Par.Density(r.AtGauss(g, sc.phiC))
		f := vg - s.Opt.Dt*dpsi/rhoG
		for a := 0; a < npe; a++ {
			fe[a*stride+off] += wg * f * r.N[g*npe+a]
		}
	}
}

// initVUKernels builds the velocity-update element kernels once,
// capturing only the Solver (see initCHKernels). The split-path
// component kernel reads its component index from s.kVUD.
func (s *Solver) initVUKernels() {
	s.kVUComp = func(w, e int, h float64, fe []float64) {
		s.vuEmitComp(w, e, h, s.kVUD, fe, 1, 0)
	}
	s.kVUBlockMat = func(w, e int, h float64, ke []float64) {
		r := s.asmS.Ref
		npe := r.NPE
		dim := s.M.Dim
		scalar := s.vuScr[w]
		for i := range scalar {
			scalar[i] = 0
		}
		r.Mass(h, 1, scalar)
		n := npe * dim
		for a := 0; a < npe; a++ {
			for b := 0; b < npe; b++ {
				for d := 0; d < dim; d++ {
					ke[(a*dim+d)*n+b*dim+d] = scalar[a*npe+b]
				}
			}
		}
	}
	s.kVUBlockVec = func(w, e int, h float64, fe []float64) {
		dim := s.M.Dim
		for d := 0; d < dim; d++ {
			s.vuEmitComp(w, e, h, d, fe, dim, d)
		}
	}
}
