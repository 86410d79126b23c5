package chns

import (
	"time"

	"proteus/internal/blas"
	"proteus/internal/fault"
	"proteus/internal/fem"
	"proteus/internal/la"
)

// chOps holds the elemental operator blocks the CH residual and Jacobian
// are combined from (all NPE x NPE scalar blocks), plus the nodal/Gauss
// coefficient scratch used to build them, so the element loop allocates
// nothing once every element size has been seen.
type chOps struct {
	Me  []float64 // mass (read-only: a geom entry's block)
	Ke  []float64 // stiffness (read-only: a geom entry's block)
	Kme []float64 // mobility-weighted stiffness
	Ce  []float64 // convection with the current velocity
	Mpp []float64 // ψ''(φ)-weighted mass (Jacobian only)

	mob, psi2  []float64 // nodal mobility and ψ''
	mobG, psiG []float64 // the same at Gauss points

	// geom memoizes the geometry-only blocks per element size: a mesh
	// has one size per refinement level, so this stays a few entries.
	geom []geomBlocks
}

// geomBlocks is the mass and stiffness block of one element size h.
type geomBlocks struct {
	h      float64
	me, ke []float64
}

func newCHOps(npe, ng int) *chOps {
	n := npe * npe
	return &chOps{
		Kme: make([]float64, n), Ce: make([]float64, n),
		Mpp: make([]float64, n),
		mob: make([]float64, npe), psi2: make([]float64, npe),
		mobG: make([]float64, ng), psiG: make([]float64, ng),
	}
}

// geometry returns the mass and stiffness blocks of an element of size h,
// computing them on the first request for that size with the GEMM
// (zipped) or the explicit-loop kernels. The memoized blocks come from
// the same kernel call a fresh computation makes, so they are bitwise the
// blocks it would return. The layout is fixed for a Solver's life, so h
// alone keys the memo.
func (o *chOps) geometry(r *fem.Ref, zipped bool, wk *fem.GemmWork, h float64) (me, ke []float64) {
	for i := range o.geom {
		if g := &o.geom[i]; g.h == h {
			return g.me, g.ke
		}
	}
	n := r.NPE * r.NPE
	g := geomBlocks{h: h, me: make([]float64, n), ke: make([]float64, n)}
	if zipped {
		r.MassGemm(wk, h, 1, nil, g.me)
		r.StiffGemm(wk, h, 1, nil, g.ke)
	} else {
		r.Mass(h, 1, g.me)
		r.Stiffness(h, 1, g.ke)
	}
	o.geom = append(o.geom, g)
	return g.me, g.ke
}

// chScratch is one element-loop worker's private CH Jacobian scratch.
type chScratch struct {
	ops     *chOps
	pm      []float64   // φ,μ corner values
	vel     []float64   // velocity corner values
	jblocks [][]float64 // dof-pair blocks for the node-major Jacobian path
}

// chResScratch is one element-loop worker's private CH residual scratch,
// held on the Solver (one per shard) so the sharded Residual allocates
// nothing per Newton iteration and never shares mutable buffers.
type chResScratch struct {
	ops                          *chOps
	pm, pmOld, vel               []float64
	phiNew, muNew, phiOld, muOld []float64
	psi1, tmp, load              []float64
}

func newCHResScratch(npe, ng, dim int) *chResScratch {
	return &chResScratch{
		ops: newCHOps(npe, ng),
		pm:  make([]float64, npe*2), pmOld: make([]float64, npe*2),
		vel:    make([]float64, npe*dim),
		phiNew: make([]float64, npe), muNew: make([]float64, npe),
		phiOld: make([]float64, npe), muOld: make([]float64, npe),
		psi1: make([]float64, npe), tmp: make([]float64, npe),
		load: make([]float64, npe),
	}
}

func newCHScratch(npe, ng, dim int) chScratch {
	sc := chScratch{
		ops: newCHOps(npe, ng),
		pm:  make([]float64, npe*2),
		vel: make([]float64, npe*dim),
	}
	sc.jblocks = make([][]float64, 4)
	for i := range sc.jblocks {
		sc.jblocks[i] = make([]float64, npe*npe)
	}
	return sc
}

// chProblem is the Newton problem for the fully implicit CH block.
type chProblem struct {
	s     *Solver
	old   []float64 // φ,μ at time n (ghost-consistent copy)
	dt    float64
	theta float64
}

// buildOps fills the elemental blocks for element e, with the mobility
// (and, for the Jacobian, ψ”) coefficients evaluated at the corner
// values phiC. Uses the explicit-loop operators or the zipped GEMM
// operators depending on the configured layout (Table I stage 2). Me and
// Ke come from the per-size memo; Mpp is built only when jac is set, as
// the residual never reads it. wk is the invoking worker's GEMM scratch,
// so concurrent shards never share buffers.
func (p *chProblem) buildOps(e int, h float64, phiC, velC []float64, ops *chOps, wk *fem.GemmWork, jac bool) {
	s := p.s
	r := s.asmCH.Ref
	npe := r.NPE
	zipped := s.Opt.Layout == fem.LayoutZipped
	ops.Me, ops.Ke = ops.geometry(r, zipped, wk, h)
	for a := 0; a < npe; a++ {
		ops.mob[a] = s.Par.Mobility(phiC[a*2])
	}
	if jac {
		for a := 0; a < npe; a++ {
			ops.psi2[a] = PsiDoublePrime(phiC[a*2])
		}
	}
	if zipped {
		// The GEMM kernels overwrite their output block.
		r.CoefAtGauss(ops.mob, ops.mobG)
		r.StiffGemm(wk, h, 1, ops.mobG, ops.Kme)
		r.ConvGemm(wk, h, 1, velC, ops.Ce)
		if jac {
			r.CoefAtGauss(ops.psi2, ops.psiG)
			r.MassGemm(wk, h, 1, ops.psiG, ops.Mpp)
		}
		return
	}
	// The explicit-loop kernels accumulate into their output block.
	clear(ops.Kme)
	clear(ops.Ce)
	r.WeightedStiffness(h, ops.mob, 1, ops.Kme)
	r.Convection(h, velC, 1, ops.Ce)
	if jac {
		clear(ops.Mpp)
		r.WeightedMass(h, ops.psi2, 1, ops.Mpp)
	}
}

// gatherCorners extracts φ,μ and velocity corner values for element e.
func (p *chProblem) gatherCorners(e int, x []float64, pm, vel []float64) {
	p.s.M.GatherElem(e, x, 2, pm)
	p.s.M.GatherElem(e, p.s.Vel, p.s.M.Dim, vel)
}

// Residual implements la.NewtonProblem. The element kernel is the
// prebuilt s.kCHRes; the iterate reaches it through s.kCHx.
func (p *chProblem) Residual(x, res []float64) {
	s := p.s
	t0 := time.Now()
	s.M.GhostRead(x, 2)
	s.kCHx = x
	s.asmCH.AssembleVectorPlanned(res, s.kCHRes)
	s.T.CH.Vector += time.Since(t0)
}

// initCHKernels builds the CH residual and Jacobian element kernels once.
// They capture only the Solver: mesh, reference element, options and the
// Newton iterate are all read through it at call time, so the kernels
// survive a Rebind and warm steps allocate nothing.
func (s *Solver) initCHKernels() {
	s.kCHRes = func(w, e int, h float64, fe []float64) {
		p := &s.chProb
		m := s.M
		r := s.asmCH.Ref
		npe := r.NPE
		sc := s.chRes[w]
		ops := sc.ops
		p.gatherCorners(e, s.kCHx, sc.pm, sc.vel)
		m.GatherElem(e, p.old, 2, sc.pmOld)
		for a := 0; a < npe; a++ {
			sc.phiNew[a] = sc.pm[a*2]
			sc.muNew[a] = sc.pm[a*2+1]
			sc.phiOld[a] = sc.pmOld[a*2]
			sc.muOld[a] = sc.pmOld[a*2+1]
			sc.psi1[a] = PsiPrime(sc.phiNew[a])
		}
		p.buildOps(e, h, sc.pm, sc.vel, ops, s.asmCH.WorkN(w), false)
		cn := s.ElemCn[e]
		diff := 1 / (s.Par.Pe * cn)
		th, th1 := p.theta, 1-p.theta
		// R_phi = M(phi-phiOld)/dt + th[C phi + D Km mu]
		//       + (1-th)[C phiOld + D Km muOld]
		addMatVec(fe, 0, 2, ops.Me, sc.phiNew, 1/p.dt, sc.tmp, npe)
		addMatVec(fe, 0, 2, ops.Me, sc.phiOld, -1/p.dt, sc.tmp, npe)
		addMatVec(fe, 0, 2, ops.Ce, sc.phiNew, th, sc.tmp, npe)
		addMatVec(fe, 0, 2, ops.Kme, sc.muNew, th*diff, sc.tmp, npe)
		addMatVec(fe, 0, 2, ops.Ce, sc.phiOld, th1, sc.tmp, npe)
		addMatVec(fe, 0, 2, ops.Kme, sc.muOld, th1*diff, sc.tmp, npe)
		// R_mu = M mu - F(psi'(phi)) - Cn^2 K phi
		addMatVec(fe, 1, 2, ops.Me, sc.muNew, 1, sc.tmp, npe)
		for i := range sc.load {
			sc.load[i] = 0
		}
		r.LoadVector(h, sc.psi1, 1, sc.load)
		for a := 0; a < npe; a++ {
			fe[a*2+1] -= sc.load[a]
		}
		addMatVec(fe, 1, 2, ops.Ke, sc.phiNew, -cn*cn, sc.tmp, npe)
	}
	s.kCHJacZip = func(w, e int, h float64, blocks [][]float64) {
		p := &s.chProb
		m := s.M
		sc := &s.chScr[w]
		m.GatherElem(e, s.kCHx, 2, sc.pm)
		m.GatherElem(e, s.Vel, m.Dim, sc.vel)
		p.buildOps(e, h, sc.pm, sc.vel, sc.ops, s.asmCH.WorkN(w), true)
		ops := sc.ops
		cn := s.ElemCn[e]
		diff := 1 / (s.Par.Pe * cn)
		th := p.theta
		npe := s.asmCH.Ref.NPE
		n2 := npe * npe
		for i := 0; i < n2; i++ {
			blocks[0][i] = ops.Me[i]/p.dt + th*ops.Ce[i]
			blocks[1][i] = th * diff * ops.Kme[i]
			blocks[2][i] = -ops.Mpp[i] - cn*cn*ops.Ke[i]
			blocks[3][i] = ops.Me[i]
		}
	}
	s.kCHJac = func(w, e int, h float64, ke []float64) {
		sc := &s.chScr[w]
		s.kCHJacZip(w, e, h, sc.jblocks)
		fem.UnzipMat(2, s.asmCH.Ref.NPE, sc.jblocks, ke)
	}
}

// addMatVec computes fe[a*ndof+dof] += scale * (A * v)_a with A npe x npe.
func addMatVec(fe []float64, dof, ndof int, a, v []float64, scale float64, tmp []float64, npe int) {
	blas.Dgemv(npe, npe, scale, a, v, 0, tmp)
	for i := 0; i < npe; i++ {
		fe[i*ndof+dof] += tmp[i]
	}
}

// Jacobian implements la.NewtonProblem: blocks
//
//	J(φ,φ) = M/dt + θC        J(φ,μ) = θ/(Pe Cn) K_m
//	J(μ,φ) = -M_{ψ''} - Cn²K  J(μ,μ) = M
func (p *chProblem) Jacobian(x []float64) (la.Operator, la.PC) {
	s := p.s
	t0 := time.Now()
	s.M.GhostRead(x, 2)
	// Persistent operator: allocated once per mesh, reassembled in place
	// on every Newton iteration and time step thereafter.
	if s.chMat == nil {
		s.chMat = s.asmCH.NewMatrix(s.Opt.Layout)
	}
	mat := s.chMat
	s.kCHx = x
	if s.Opt.Layout == fem.LayoutZipped {
		s.asmCH.AssembleMatrixZipped(mat, s.kCHJacZip)
	} else {
		s.asmCH.AssembleMatrix(mat, s.Opt.Layout, s.kCHJac)
	}
	s.T.CH.Matrix += time.Since(t0)
	// The preconditioner persists with the operator: refactored in place
	// from the re-assembled values on every Newton iteration. Setup is
	// tracked apart from the Krylov solve time.
	tPC := time.Now()
	switch {
	case s.chPC == nil:
		s.chPC = la.NewPCBJacobiILU0(mat)
		s.T.CH.PCSetupCold += time.Since(tPC)
	case s.chPCStale:
		// First setup after an incremental rebind: carry the factorization
		// index of every pattern-preserved row, refactor values only.
		kept, rebuilt := s.chPC.RebindPatched(mat, s.rowPatch(2))
		s.T.RemeshStages.PCRowsKept += kept
		s.T.RemeshStages.PCRowsRebuilt += rebuilt
		s.chPCStale = false
	default:
		s.chPC.Refresh()
	}
	s.T.CH.PCSetup += time.Since(tPC)
	return mat, s.chPC
}

// StepCH advances the Cahn–Hilliard block one time step with the current
// velocity field (Table II: bcgs + bjacobi inside Newton). If velOverride
// is non-nil it replaces s.Vel for this step. The report carries the
// Newton outcome; a stalled Newton iteration, an injected divergence or
// a non-finite φ/μ field returns a *ErrDiverged (globally consistent
// across ranks).
func (s *Solver) StepCH(velOverride []float64) (StageReport, error) {
	t0 := time.Now()
	if velOverride != nil {
		copy(s.Vel, velOverride)
	}
	m := s.M
	m.GhostRead(s.PhiMu, 2)
	m.GhostRead(s.Vel, m.Dim)
	if s.chOld == nil {
		s.chOld = make([]float64, len(s.PhiMu))
	}
	copy(s.chOld, s.PhiMu)
	s.chProb = chProblem{s: s, old: s.chOld, dt: s.Opt.Dt, theta: s.Opt.Theta}
	if s.chNewton == nil {
		s.chNewton = &la.Newton{KSP: la.BiCGS, Rtol: s.Opt.NonlinTol, Atol: s.Opt.NonlinTol,
			LinRtol: s.Opt.LinTol, MaxIt: 30}
	}
	// The driver persists across remeshes (Rebind keeps it); re-point its
	// reducer and pool at the current mesh generation every step.
	s.chNewton.Red, s.chNewton.Pool = m, s.pool
	nw := s.chNewton
	ok, err := nw.Solve(&s.chProb, s.PhiMu)
	m.GhostRead(s.PhiMu, 2)
	rep := StageReport{Stage: StageCH, Result: nw.Last,
		NewtonIterations: nw.Iterations, NewtonConverged: ok}
	st := &s.T.CH
	// One record per step: the Newton driver aggregates its inner Krylov
	// iterations, so min/mean/max track per-step linear work. Its inner
	// Krylov wall-clock is the stage's Solve share.
	st.Record(nw.LinearIterations)
	st.NewtonIterations += nw.Iterations
	st.Solve += nw.LinearSolveTime
	if s.postRemesh {
		s.T.RemeshStages.PostCHIters += nw.LinearIterations
	}
	if err != nil {
		st.Total += time.Since(t0)
		return rep, err
	}
	if s.Fault.Fire(fault.KSPDiverge, string(StageCH)) {
		ok, rep.NewtonConverged = false, false
		rep.Result.Converged = false
	}
	if !ok {
		st.Total += time.Since(t0)
		return rep, &ErrDiverged{Stage: StageCH, Kind: DivergeNewton,
			Result: rep.Result, NewtonIterations: nw.Iterations}
	}
	s.pokeNaN(StageCH, s.PhiMu)
	err = s.checkFinite(StageCH, s.scanBad(s.PhiMu, 2*m.NumOwned), rep.Result)
	st.Total += time.Since(t0)
	return rep, err
}

// InitMuFromPhi sets μ = ψ'(φ) - Cn²Δφ consistently by solving the mass
// system M μ = F(ψ'(φ)) + Cn² K φ, so the first step does not see a
// spurious chemical potential. The error reports a misconfigured mass
// solver; the CG solve on an SPD mass matrix does not fail numerically.
func (s *Solver) InitMuFromPhi() error {
	m := s.M
	m.GhostRead(s.PhiMu, 2)
	r := s.asmS.Ref
	npe := r.NPE
	rhs := m.NewVec(1)
	type scratch struct{ pm, phiC, psi1, ke, tmp []float64 }
	ws := make([]scratch, s.asmS.Workers())
	for i := range ws {
		ws[i] = scratch{make([]float64, npe*2), make([]float64, npe), make([]float64, npe), make([]float64, npe*npe), make([]float64, npe)}
	}
	s.asmS.AssembleVectorPlanned(rhs, func(w, e int, h float64, fe []float64) {
		sc := &ws[w]
		m.GatherElem(e, s.PhiMu, 2, sc.pm)
		for a := 0; a < npe; a++ {
			sc.phiC[a] = sc.pm[a*2]
			sc.psi1[a] = PsiPrime(sc.phiC[a])
		}
		r.LoadVector(h, sc.psi1, 1, fe)
		clear(sc.ke)
		r.Stiffness(h, 1, sc.ke)
		cn := s.ElemCn[e]
		blas.Dgemv(npe, npe, cn*cn, sc.ke, sc.phiC, 0, sc.tmp)
		for a := 0; a < npe; a++ {
			fe[a] += sc.tmp[a]
		}
	})
	// The scalar mass operator and its solver persist on the Solver like
	// the per-stage KSP state: the matrix is assembled once per mesh
	// generation and the KSP keeps its warm Krylov workspace across
	// calls; Rebind/SetMeshEpoch drop the mesh-keyed matrix and PC.
	if s.chMassMat == nil {
		s.chMassMat = s.asmS.NewMatrix(fem.LayoutBAIJ)
		s.asmS.AssembleMatrix(s.chMassMat, fem.LayoutBAIJ, func(w, e int, h float64, ke []float64) {
			r.Mass(h, 1, ke)
		})
		s.chMassPC = la.NewPCJacobi(s.chMassMat)
	}
	if s.chMassKSP == nil {
		s.chMassKSP = &la.KSP{Type: la.CG, Rtol: 1e-10}
	}
	s.chMassKSP.Op, s.chMassKSP.PC, s.chMassKSP.Red, s.chMassKSP.Pool = s.chMassMat, s.chMassPC, m, s.pool
	mu := m.NewVec(1)
	if _, err := s.chMassKSP.Solve(rhs, mu); err != nil {
		return err
	}
	m.GhostRead(mu, 1)
	for i := 0; i < m.NumLocal; i++ {
		s.PhiMu[i*2+1] = mu[i]
	}
	return nil
}
