package fem

import (
	"fmt"
	"math"
	"testing"

	"proteus/internal/la"
	"proteus/internal/mesh"
	"proteus/internal/par"
)

// planTestKernels builds deterministic ndof=2 kernels whose coefficient
// depends on the element's position (so they are partition-invariant),
// with per-worker scratch, so they are valid under the sharded element
// loop and produce bit-identical elemental matrices on every invocation.
func planTestKernels(asm *Assembler, nw int) (NodeMajorKernel, ZippedKernel) {
	r := asm.Ref
	npe := r.NPE
	type scr struct {
		blocks [][]float64
		tmp    []float64
	}
	ws := make([]scr, nw)
	for i := range ws {
		ws[i].blocks = make([][]float64, 4)
		for j := range ws[i].blocks {
			ws[i].blocks[j] = make([]float64, npe*npe)
		}
		ws[i].tmp = make([]float64, npe*npe)
	}
	coef := func(e int) float64 {
		x, y, z := asm.M.ElemOrigin(e)
		return 1 + x + 0.5*y + 0.25*z
	}
	loop := func(w, e int, h float64, ke []float64) {
		sc := &ws[w]
		c := coef(e)
		for _, b := range sc.blocks {
			for i := range b {
				b[i] = 0
			}
		}
		r.Mass(h, c, sc.blocks[0])
		r.Stiffness(h, 1, sc.blocks[0])
		r.Mass(h, 0.3*c, sc.blocks[1])
		r.Mass(h, c, sc.blocks[3])
		UnzipMat(2, npe, sc.blocks, ke)
	}
	zipped := func(w, e int, h float64, blocks [][]float64) {
		sc := &ws[w]
		c := coef(e)
		wk := asm.WorkN(w)
		r.MassGemm(wk, h, c, nil, blocks[0])
		r.StiffGemm(wk, h, 1, nil, sc.tmp)
		for i := range sc.tmp {
			blocks[0][i] += sc.tmp[i]
		}
		r.MassGemm(wk, h, 0.3*c, nil, blocks[1])
		r.MassGemm(wk, h, c, nil, blocks[3])
	}
	return loop, zipped
}

func assembleOnce(asm *Assembler, mat *la.BSRMat, layout Layout, loop NodeMajorKernel, zipped ZippedKernel) {
	if layout == LayoutZipped {
		asm.AssembleMatrixZipped(mat, zipped)
	} else {
		asm.AssembleMatrix(mat, layout, loop)
	}
}

// refMatrix is the test oracle for matrix assembly on one rank: the plain
// serial element / corner-pair / donor-pair scatter of a node-major
// kernel, through the hanging constraints, into a COO-built BAIJ matrix.
func refMatrix(m *mesh.Mesh, nd int, kern NodeMajorKernel) *la.BSRMat {
	mat := la.NewBAIJ(m, nd, m.NumOwned, m.NumLocal)
	cpe := m.CornersPerElem()
	n := cpe * nd
	ke := make([]float64, n*n)
	blk := make([]float64, nd*nd)
	for e := 0; e < m.NumElems(); e++ {
		clear(ke)
		kern(0, e, m.ElemSize(e), ke)
		for ca := 0; ca < cpe; ca++ {
			conA := &m.Conn[e*cpe+ca]
			for cb := 0; cb < cpe; cb++ {
				conB := &m.Conn[e*cpe+cb]
				for i := 0; i < int(conA.N); i++ {
					for j := 0; j < int(conB.N); j++ {
						w := conA.W[i] * conB.W[j]
						for di := 0; di < nd; di++ {
							for dj := 0; dj < nd; dj++ {
								blk[di*nd+dj] = w * ke[(ca*nd+di)*n+cb*nd+dj]
							}
						}
						mat.AddBlock(int(conA.Idx[i]), int(conB.Idx[j]), blk)
					}
				}
			}
		}
	}
	mat.Finalize()
	return mat
}

// unzipped adapts a zipped kernel to the node-major contract (worker 0).
func unzipped(asm *Assembler, zk ZippedKernel) NodeMajorKernel {
	npe, nd := asm.Ref.NPE, asm.Ndof
	blocks := make([][]float64, nd*nd)
	for i := range blocks {
		blocks[i] = make([]float64, npe*npe)
	}
	return func(w, e int, h float64, ke []float64) {
		for _, b := range blocks {
			clear(b)
		}
		zk(0, e, h, blocks)
		UnzipMat(nd, npe, blocks, ke)
	}
}

// blockKey names a node block by its global (row, col) node keys.
type blockKey struct{ Row, Col mesh.NodeKey }

// nodeBlocks returns every stored node block of mat keyed by node keys,
// reading scalar AIJ matrices through their per-dof entries.
func nodeBlocks(m *mesh.Mesh, mat *la.BSRMat, nd int) map[blockKey][]float64 {
	out := map[blockKey][]float64{}
	sp, vals, bs := mat.Sparsity(), mat.Vals(), mat.Bs
	for r := 0; r < sp.NRows; r++ {
		for s := sp.Indptr[r]; s < sp.Indptr[r+1]; s++ {
			c := int(sp.Cols[s])
			for bi := 0; bi < bs; bi++ {
				for bj := 0; bj < bs; bj++ {
					row, col := r*bs+bi, c*bs+bj
					k := blockKey{m.Keys[row/nd], m.Keys[col/nd]}
					if out[k] == nil {
						out[k] = make([]float64, nd*nd)
					}
					out[k][(row%nd)*nd+col%nd] = vals[int(s)*bs*bs+bi*bs+bj]
				}
			}
		}
	}
	return out
}

// TestWarmAssemblyMatchesColdBitwise is the plan-correctness contract.
// On one rank, plan-driven assembly — first and warm — must reproduce the
// plain serial scatter (refMatrix) bit for bit, for all three layouts, in
// 2D and 3D, on meshes with hanging-node constraints, with the plan's
// connectivity-built pattern equal to the COO-built one. Across ranks
// (exercising the prefilled off-process buffers and the receive-slot
// cache) every node block must match the one-rank assembly to roundoff:
// remote contributions arrive in a different order.
func TestWarmAssemblyMatchesColdBitwise(t *testing.T) {
	for _, dim := range []int{2, 3} {
		serial := map[Layout]map[blockKey][]float64{}
		for _, p := range []int{1, 3} {
			for _, layout := range []Layout{LayoutAIJ, LayoutBAIJ, LayoutZipped} {
				par.Run(p, func(c *par.Comm) {
					m := buildMesh(c, dim, 2, 4)
					if got := m.GlobalSum(float64(m.HangingCorners)); got == 0 {
						panic("plan test mesh has no hanging constraints")
					}
					asm := NewAssembler(m, 2)
					loop, zipped := planTestKernels(asm, asm.Workers())
					mat := asm.NewMatrix(layout)
					if asm.plan == nil || !mat.Finalized() {
						panic("NewMatrix did not build the plan")
					}
					assembleOnce(asm, mat, layout, loop, zipped)
					got := nodeBlocks(m, mat, 2)

					// Warm reassembly into the same matrix, and into a second
					// matrix sharing the frozen pattern.
					assembleOnce(asm, mat, layout, loop, zipped)
					mustSameBlocks(c, "warm-reassembly", dim, p, layout, got, nodeBlocks(m, mat, 2), 0)
					mat2 := asm.NewMatrix(layout)
					if mat2.Sparsity() != mat.Sparsity() {
						panic("Assembler.NewMatrix did not share the frozen sparsity")
					}
					assembleOnce(asm, mat2, layout, loop, zipped)
					mustSameBlocks(c, "fresh-shared-matrix", dim, p, layout, got, nodeBlocks(m, mat2, 2), 0)

					if p == 1 {
						refKern := loop
						if layout == LayoutZipped {
							refKern = unzipped(asm, zipped)
						}
						ref := refMatrix(m, 2, refKern)
						if err := sparsityEqual(asm.plan.sp, ref.Sparsity()); err != nil {
							panic(fmt.Sprintf("dim=%d layout=%d: connectivity sparsity differs from COO: %v", dim, layout, err))
						}
						mustSameBlocks(c, "serial-reference", dim, p, layout, nodeBlocks(m, ref, 2), got, 0)
						serial[layout] = got
						return
					}
					type kv struct {
						K blockKey
						V [4]float64
					}
					var local []kv
					for k, v := range got {
						local = append(local, kv{K: k, V: [4]float64(v)})
					}
					all := map[blockKey][]float64{}
					for _, e := range par.Allgatherv(c, local) {
						all[e.K] = e.V[:]
					}
					mustSameBlocks(c, "ranks-vs-serial", dim, p, layout, serial[layout], all, 1e-13)
				})
			}
		}
	}
}

// mustSameBlocks compares two node-block maps: bitwise when rtol == 0,
// else to rtol relative to the largest entry of the block.
func mustSameBlocks(c *par.Comm, what string, dim, p int, layout Layout, want, got map[blockKey][]float64, rtol float64) {
	if len(want) != len(got) {
		panic(fmt.Sprintf("%s dim=%d p=%d layout=%d: block count %d != %d", what, dim, p, layout, len(got), len(want)))
	}
	for k, wv := range want {
		gv, ok := got[k]
		if !ok {
			panic(fmt.Sprintf("%s dim=%d p=%d layout=%d: block %v missing", what, dim, p, layout, k))
		}
		scale := 0.0
		for _, v := range wv {
			scale = math.Max(scale, math.Abs(v))
		}
		for i := range wv {
			if d := math.Abs(gv[i] - wv[i]); d > rtol*scale || (rtol == 0 && gv[i] != wv[i]) {
				panic(fmt.Sprintf("%s dim=%d p=%d layout=%d rank=%d: block %v[%d] = %v, want %v (diff %g)",
					what, dim, p, layout, c.Rank(), k, i, gv[i], wv[i], gv[i]-wv[i]))
			}
		}
	}
}

// TestParallelWorkersMatchSerial checks the sharded element loop and
// gather: every worker count must reproduce the one-worker values bit for
// bit (the gather sums each entry in traversal order), in 2D and 3D, on
// one and three ranks, for all three layouts.
func TestParallelWorkersMatchSerial(t *testing.T) {
	for _, dim := range []int{2, 3} {
		for _, p := range []int{1, 3} {
			for _, layout := range []Layout{LayoutBAIJ, LayoutZipped, LayoutAIJ} {
				par.Run(p, func(c *par.Comm) {
					m := buildMesh(c, dim, 2, 4)
					asm := NewAssembler(m, 2)
					loop, zipped := planTestKernels(asm, 4)
					mat := asm.NewMatrix(layout)
					var serial []float64
					for _, nw := range []int{1, 2, 3, 4} {
						asm.SetWorkers(nw)
						assembleOnce(asm, mat, layout, loop, zipped)
						if nw == 1 {
							serial = append([]float64(nil), mat.Vals()...)
							continue
						}
						for i, v := range mat.Vals() {
							if v != serial[i] {
								panic(fmt.Sprintf("dim=%d p=%d layout=%d nw=%d rank=%d vals[%d]: serial %v sharded %v",
									dim, p, layout, nw, c.Rank(), i, serial[i], v))
							}
						}
					}
				})
			}
		}
	}
}

// TestWarmAssemblyZeroAllocs verifies that the steady-state element loop
// and gather perform no map operations and no heap allocation: a whole
// warm reassembly allocates nothing, serially and sharded on a pool.
func TestWarmAssemblyZeroAllocs(t *testing.T) {
	for _, nw := range []int{1, 2} {
		for _, layout := range []Layout{LayoutBAIJ, LayoutZipped, LayoutAIJ} {
			var allocs float64
			par.Run(1, func(c *par.Comm) {
				m := buildMesh(c, 2, 2, 4)
				asm := NewAssembler(m, 2)
				asm.SetWorkers(nw)
				pool := par.NewPool(nw)
				defer pool.Close()
				asm.SetPool(pool)
				loop, zipped := planTestKernels(asm, nw)
				mat := asm.NewMatrix(layout)
				assembleOnce(asm, mat, layout, loop, zipped)
				allocs = testing.AllocsPerRun(10, func() {
					assembleOnce(asm, mat, layout, loop, zipped)
				})
			})
			if allocs != 0 {
				t.Fatalf("nw=%d layout=%d: warm assembly allocates %v times per run, want 0", nw, layout, allocs)
			}
		}
	}
}
