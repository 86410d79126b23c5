package chns

import (
	"fmt"
	"math"
	"testing"

	"proteus/internal/fem"
	"proteus/internal/la"
	"proteus/internal/mesh"
	"proteus/internal/octree"
	"proteus/internal/par"
	"proteus/internal/sfc"
)

// adaptiveMesh is a 2:1-balanced mesh refined two levels deeper inside a
// ball than outside it, so its elements come in several sizes.
func adaptiveMesh(c *par.Comm, dim int) *mesh.Mesh {
	bulk, fine := 2, 4
	if dim == 3 {
		fine = 3
	}
	tr := octree.Build(dim, func(o sfc.Octant) bool {
		if int(o.Level) < bulk {
			return true
		}
		side := float64(o.Side()) / float64(sfc.MaxCoord)
		d := 0.0
		for _, a := range []uint32{o.X, o.Y, o.Z}[:dim] {
			x := float64(a)/float64(sfc.MaxCoord) + side/2 - 0.5
			d += x * x
		}
		return math.Sqrt(d) < 0.3
	}, fine, nil).Balance21(nil)
	n := tr.Len()
	lo, hi := c.Rank()*n/c.Size(), (c.Rank()+1)*n/c.Size()
	return mesh.New(c, dim, append([]sfc.Octant(nil), tr.Leaves[lo:hi]...))
}

// chEval evaluates the CH residual and Jacobian of s at its current φ,μ
// (the step-start state is the same field), returning copies of the
// residual and of the assembled matrix values.
func chEval(s *Solver) (res, jac []float64) {
	old := append([]float64(nil), s.PhiMu...)
	s.chProb = chProblem{s: s, old: old, dt: s.Opt.Dt, theta: s.Opt.Theta}
	res = make([]float64, len(s.PhiMu))
	s.chProb.Residual(s.PhiMu, res)
	op, _ := s.chProb.Jacobian(s.PhiMu)
	return res, append([]float64(nil), op.(*la.BSRMat).Vals()...)
}

// TestCHGeometryMemoBitwise pins the per-size mass/stiffness memo: on a
// mesh with several element sizes, every memoized block equals a fresh
// kernel call bitwise, and the CH residual and Jacobian of a solver whose
// memo was filled on one state equal, bitwise, a fresh solver's on the
// next state.
func TestCHGeometryMemoBitwise(t *testing.T) {
	for _, dim := range []int{2, 3} {
		for _, layout := range []fem.Layout{fem.LayoutZipped, fem.LayoutBAIJ} {
			name := fmt.Sprintf("dim=%d/layout=%v", dim, layout)
			par.Run(1, func(c *par.Comm) {
				m := adaptiveMesh(c, dim)
				prm := DefaultParams()
				prm.Cn = 0.08
				opt := DefaultOptions(2e-3)
				opt.Layout = layout
				setup := func(shift float64) *Solver {
					s := NewSolver(m, prm, opt)
					s.SetPhi(func(x, y, z float64) float64 {
						r := math.Sqrt((x-0.5)*(x-0.5) + (y-0.5-shift)*(y-0.5-shift) + (z-0.5)*(z-0.5)*float64(dim-2))
						return EquilibriumProfile(0.25-r, prm.Cn)
					})
					s.SetVelocity(func(x, y, z float64) (float64, float64, float64) {
						return -(y - 0.5), x - 0.5, 0.3 * (x - 0.5)
					})
					if err := s.InitMuFromPhi(); err != nil {
						panic(err)
					}
					return s
				}
				warm := setup(0)
				chEval(warm)
				// Move warm to the second state; its memo stays filled.
				next := setup(0.04)
				copy(warm.PhiMu, next.PhiMu)
				resW, jacW := chEval(warm)
				resF, jacF := chEval(next)
				for i := range resF {
					if math.Float64bits(resW[i]) != math.Float64bits(resF[i]) {
						panic(fmt.Sprintf("%s: residual[%d] warm %v fresh %v", name, i, resW[i], resF[i]))
					}
				}
				for i := range jacF {
					if math.Float64bits(jacW[i]) != math.Float64bits(jacF[i]) {
						panic(fmt.Sprintf("%s: jacobian[%d] warm %v fresh %v", name, i, jacW[i], jacF[i]))
					}
				}

				r := warm.asmCH.Ref
				sizes := map[float64]bool{}
				for e := 0; e < m.NumElems(); e++ {
					sizes[m.ElemSize(e)] = true
				}
				if len(sizes) < 2 {
					panic(fmt.Sprintf("%s: mesh has %d element sizes, want several", name, len(sizes)))
				}
				wk := fem.NewGemmWork(r)
				me := make([]float64, r.NPE*r.NPE)
				ke := make([]float64, r.NPE*r.NPE)
				for _, ops := range []*chOps{warm.chRes[0].ops, warm.chScr[0].ops} {
					if len(ops.geom) != len(sizes) {
						panic(fmt.Sprintf("%s: memo holds %d sizes, mesh has %d", name, len(ops.geom), len(sizes)))
					}
					for _, g := range ops.geom {
						clear(me)
						clear(ke)
						if layout == fem.LayoutZipped {
							r.MassGemm(wk, g.h, 1, nil, me)
							r.StiffGemm(wk, g.h, 1, nil, ke)
						} else {
							r.Mass(g.h, 1, me)
							r.Stiffness(g.h, 1, ke)
						}
						for i := range me {
							if math.Float64bits(me[i]) != math.Float64bits(g.me[i]) ||
								math.Float64bits(ke[i]) != math.Float64bits(g.ke[i]) {
								panic(fmt.Sprintf("%s h=%v: memo block entry %d differs from a fresh kernel call", name, g.h, i))
							}
						}
					}
				}
			})
		}
	}
}

// TestCHSolveAttributed checks the stage ledger after a short run: CH's
// inner Krylov time lands in CH.Solve, every stage's sub-timers fit inside
// its Total, and the recorded Newton iterations equal the sum the step
// reports carry.
func TestCHSolveAttributed(t *testing.T) {
	par.Run(2, func(c *par.Comm) {
		m := uniformMesh(c, 2, 4)
		prm := DefaultParams()
		prm.Cn = 0.06
		prm.Fr = 1
		s := NewSolver(m, prm, DefaultOptions(2e-3))
		s.SetPhi(func(x, y, z float64) float64 {
			return EquilibriumProfile(0.2-math.Hypot(x-0.5, y-0.45), prm.Cn)
		})
		if err := s.InitMuFromPhi(); err != nil {
			panic(err)
		}
		newton := 0
		for i := 0; i < 3; i++ {
			rep, err := s.Step()
			if err != nil {
				panic(err)
			}
			newton += rep.CH.NewtonIterations
		}
		if s.T.CH.Solve <= 0 {
			panic(fmt.Sprintf("CH.Solve = %v after 3 steps, want > 0", s.T.CH.Solve))
		}
		for _, st := range []struct {
			name string
			t    StageTimes
		}{{"CH", s.T.CH}, {"NS", s.T.NS}, {"PP", s.T.PP}, {"VU", s.T.VU}} {
			if sum := st.t.Matrix + st.t.Vector + st.t.PCSetup + st.t.Solve; sum > st.t.Total {
				panic(fmt.Sprintf("%s: Matrix+Vector+PCSetup+Solve = %v exceeds Total %v", st.name, sum, st.t.Total))
			}
		}
		if newton == 0 || s.T.CH.NewtonIterations != newton {
			panic(fmt.Sprintf("CH.NewtonIterations = %d, step reports sum to %d", s.T.CH.NewtonIterations, newton))
		}
	})
}
