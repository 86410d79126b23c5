package fem

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"proteus/internal/la"
	"proteus/internal/mesh"
	"proteus/internal/octree"
	"proteus/internal/par"
	"proteus/internal/sfc"
)

// patchedPair builds an old mesh and a patched sibling over a perturbed
// forest that keeps the partition splitters stable, returning the old
// mesh, the patched mesh and its delta, plus a from-scratch mesh over the
// same forest for cold reference assembly.
func patchedPair(c *par.Comm, dim int, seed int64) (*mesh.Mesh, *mesh.Mesh, *mesh.Delta, *mesh.Mesh) {
	// Index-space protection cannot fully rule out a balance cascade
	// refining a rank's first leaf (which moves the splitters and makes
	// Patch fall back — collectively, so every rank retries in lockstep).
	for attempt := int64(0); attempt < 20; attempt++ {
		old, patched, delta, scratch := tryPatchedPair(c, dim, seed*131+attempt)
		if patched != nil {
			return old, patched, delta, scratch
		}
	}
	panic(fmt.Sprintf("dim=%d p=%d seed=%d: no perturbation kept the splitters stable", dim, c.Size(), seed))
}

func tryPatchedPair(c *par.Comm, dim int, seed int64) (*mesh.Mesh, *mesh.Mesh, *mesh.Delta, *mesh.Mesh) {
	p := c.Size()
	r := rand.New(rand.NewSource(seed))
	depth := 5
	if dim == 3 {
		depth = 4
	}
	base := octree.Build(dim, func(o sfc.Octant) bool { return r.Float64() < 0.45 }, depth, nil).Balance21(nil)
	n := base.Len()
	oldLocal := append([]sfc.Octant(nil), base.Leaves[c.Rank()*n/p:(c.Rank()+1)*n/p]...)
	old := mesh.New(c, dim, oldLocal)
	oldSpl := octree.GatherSplitters(c, oldLocal)

	// Perturb away from partition boundaries so Patch does not fall back.
	prot := func(i int) bool {
		for rk := 0; rk <= p; rk++ {
			b := rk * n / p
			if i >= b-8 && i <= b+8 {
				return true
			}
		}
		return false
	}
	rt := make([]int, n)
	for i, o := range base.Leaves {
		rt[i] = int(o.Level)
		if !prot(i) && r.Float64() < 0.1 {
			rt[i] = int(o.Level) + 1
		}
	}
	pert := base.Refine(rt, nil)
	var mine []sfc.Octant
	for _, o := range pert.Leaves {
		if oldSpl.Owner(o.FirstDescendant()) == c.Rank() {
			mine = append(mine, o)
		}
	}
	bal := octree.Balance21Distributed(c, dim, mine, nil)
	dirty := octree.AddedLeaves(oldLocal, bal)

	patched, delta := mesh.Patch(c, dim, append([]sfc.Octant(nil), bal...), old, dirty)
	if patched == nil {
		return nil, nil, nil, nil
	}
	scratch := mesh.New(c, dim, append([]sfc.Octant(nil), bal...))
	return old, patched, delta, scratch
}

// TestRebindPatchedMatchesColdBitwise is the fem-layer headline
// invariant: after a mesh patch, the repaired sparsity and plans must
// equal what a fresh build from the patched mesh's connectivity makes,
// and assembly through them must reproduce the fresh plan's values bit
// for bit — for all three layouts, serially and across ranks, with
// hanging constraints in the dirty region.
func TestRebindPatchedMatchesColdBitwise(t *testing.T) {
	for _, dim := range []int{2, 3} {
		for _, p := range []int{1, 2, 4} {
			for _, layout := range []Layout{LayoutAIJ, LayoutBAIJ, LayoutZipped} {
				par.Run(p, func(c *par.Comm) {
					old, patched, delta, scratch := patchedPair(c, dim, int64(3+p))
					vk := func(w, e int, h float64, fe []float64) {
						for i := range fe {
							fe[i] = h * float64(e%5+1)
						}
					}

					asm := NewAssembler(old, 2)
					loop, zipped := planTestKernels(asm, asm.Workers())
					assembleOnce(asm, asm.NewMatrix(layout), layout, loop, zipped) // freeze old plan
					asm.AssembleVectorPlanned(make([]float64, old.NumLocal*2), vk)

					asm.RebindPatched(patched, asm.Epoch()+1, delta)
					pp := asm.plan
					if pp == nil {
						panic("RebindPatched dropped the plan")
					}

					// Reference: a fresh plan from the connectivity of a
					// from-scratch mesh over the same forest (bitwise identical
					// to `patched` by the mesh patch invariant).
					ref := NewAssembler(scratch, 2)
					rloop, rzipped := planTestKernels(ref, ref.Workers())
					rmat := ref.NewMatrix(layout)
					assembleOnce(ref, rmat, layout, rloop, rzipped)
					rp := ref.plan

					where := fmt.Sprintf("dim=%d p=%d layout=%d rank=%d", dim, p, layout, c.Rank())
					if err := sparsityEqual(pp.sp, rp.sp); err != nil {
						panic(fmt.Sprintf("%s: patched sparsity: %v", where, err))
					}
					mustEqualSlice(where+" slots", pp.slots, rp.slots)
					mustEqualSlice(where+" gather offsets", pp.off, rp.off)
					mustEqualSlice(where+" gather sources", pp.src, rp.src)
					mustEqualSlice(where+" gather weight indices", pp.wi, rp.wi)
					mustEqualSlice(where+" gather weights", pp.wt, rp.wt)
					mustEqualSlice(where+" off-proc sources", pp.offSrc, rp.offSrc)
					if len(pp.offStore) != len(rp.offStore) {
						panic(fmt.Sprintf("%s: off-proc store %d vs fresh %d", where, len(pp.offStore), len(rp.offStore)))
					}
					for i := range pp.offStore {
						if pp.offStore[i].Row != rp.offStore[i].Row || pp.offStore[i].Col != rp.offStore[i].Col {
							panic(fmt.Sprintf("%s: off-proc key %d differs", where, i))
						}
					}

					// Assembly through the patched plan must equal the fresh
					// plan's values bitwise.
					mat2 := asm.NewMatrix(layout)
					if layout != LayoutAIJ && mat2.Sparsity() != pp.sp {
						panic("patched NewMatrix did not share the repaired sparsity")
					}
					assembleOnce(asm, mat2, layout, loop, zipped)
					mustEqualSlice(where+" patched values", mat2.Vals(), rmat.Vals())

					// Patched vector plan: same contract against a fresh
					// vector plan on the from-scratch mesh.
					vgot := make([]float64, patched.NumLocal*2)
					asm.AssembleVectorPlanned(vgot, vk)
					vwant := make([]float64, patched.NumLocal*2)
					ref.AssembleVectorPlanned(vwant, vk)
					mustEqualSlice(where+" patched vector", vgot, vwant)
				})
			}
		}
	}
}

func mustEqualSlice[T comparable](what string, got, want []T) {
	if len(got) != len(want) {
		panic(fmt.Sprintf("%s: length %d != %d", what, len(got), len(want)))
	}
	for i := range want {
		if got[i] != want[i] {
			panic(fmt.Sprintf("%s: [%d] = %v, want %v", what, i, got[i], want[i]))
		}
	}
}

func sparsityEqual(a, b *la.Sparsity) error {
	if a.NRows != b.NRows {
		return fmt.Errorf("rows %d vs %d", a.NRows, b.NRows)
	}
	if len(a.Indptr) != len(b.Indptr) || len(a.Cols) != len(b.Cols) {
		return fmt.Errorf("shape %d/%d vs %d/%d", len(a.Indptr), len(a.Cols), len(b.Indptr), len(b.Cols))
	}
	for i := range a.Indptr {
		if a.Indptr[i] != b.Indptr[i] {
			return fmt.Errorf("indptr[%d] %d vs %d", i, a.Indptr[i], b.Indptr[i])
		}
	}
	for i := range a.Cols {
		if a.Cols[i] != b.Cols[i] {
			return fmt.Errorf("cols[%d] %d vs %d", i, a.Cols[i], b.Cols[i])
		}
	}
	return nil
}

// TestRebindPatchedNoPlans: rebinding an assembler that holds no plans
// must not invent any (every rank agrees there is nothing to repair), and
// the next NewMatrix builds one from the patched mesh's connectivity.
func TestRebindPatchedNoPlans(t *testing.T) {
	par.Run(1, func(c *par.Comm) {
		old, patched, delta, _ := patchedPair(c, 2, 11)
		asm := NewAssembler(old, 2)
		asm.RebindPatched(patched, 1, delta)
		if asm.plan != nil || asm.vplan != nil {
			panic("RebindPatched invented plans from nothing")
		}
		loop, zipped := planTestKernels(asm, asm.Workers())
		mat := asm.NewMatrix(LayoutBAIJ)
		if asm.plan == nil {
			panic("NewMatrix after RebindPatched did not build a plan")
		}
		assembleOnce(asm, mat, LayoutBAIJ, loop, zipped)
		s := 0.0
		for _, v := range mat.Vals() {
			s += v * v
		}
		if s == 0 || math.IsNaN(s) {
			panic("assembly after RebindPatched produced a zero/NaN operator")
		}
	})
}
