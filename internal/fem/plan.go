package fem

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"proteus/internal/la"
	"proteus/internal/mesh"
)

// gatherPlan is the store-and-gather core shared by matrix and vector
// assembly. The sharded element loop writes each element's unweighted
// elemental contribution into its own slice of the assembler's
// contribution store (so element shards never contend); the gather then
// sums every target — a matrix block slot, a vector node — from its
// items, each a store offset and a constraint weight, in ascending
// traversal order. That is exactly the accumulation order of the serial
// element/corner/donor scatter, so the result is bitwise identical to it
// at any shard count.
type gatherPlan struct {
	// Target t sums items off[t]:off[t+1]; src holds the item store
	// offsets and wt[wi] their weights (products of hanging-node weights
	// take a handful of distinct values, so a byte index into a small
	// table stands in for a float64 per item). fill is the per-target
	// build cursor.
	off  []int32
	src  []int32
	wi   []uint8
	wt   []float64
	fill []int32
}

// reset sizes the gather for nTargets targets with zero counts, reusing
// existing capacity (a rebuild on a mesh that did not grow allocates
// nothing here).
func (g *gatherPlan) reset(nTargets int) {
	g.wt = g.wt[:0]
	g.off = fit(g.off, nTargets+1)
	clear(g.off)
	g.fill = fit(g.fill, nTargets)
}

// count registers one item for target t (build pass 1).
func (g *gatherPlan) count(t int32) { g.off[t+1]++ }

// seal turns the per-target counts into offsets and sizes the item lists.
func (g *gatherPlan) seal() {
	for t := range g.fill {
		g.off[t+1] += g.off[t]
	}
	copy(g.fill, g.off)
	n := int(g.off[len(g.fill)])
	g.src = fit(g.src, n)
	g.wi = fit(g.wi, n)
}

// put appends the next item of target t (build pass 2, traversal order).
func (g *gatherPlan) put(t, src int32, w float64) {
	i := slices.Index(g.wt, w)
	if i < 0 {
		if i = len(g.wt); i > math.MaxUint8 {
			panic("fem: more than 256 distinct constraint weights")
		}
		g.wt = append(g.wt, w)
	}
	k := g.fill[t]
	g.src[k], g.wi[k] = src, uint8(i)
	g.fill[t] = k + 1
}

func fit[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// AssemblyPlan freezes everything about matrix assembly that depends only
// on (mesh, ndof): the node-block sparsity of the owned rows, built from
// the mesh connectivity, and a gather plan over it. The element loop
// writes one node-major elemental matrix per element into the contribution
// store; each block slot's items are the (element, corner pair, donor
// pair) contributions landing on it.
// Contributions to remotely owned rows go to a prefilled off-process
// store exchanged with NBX (PETSc's off-process cache). All three Table I
// layouts share the plan: BAIJ and zipped write the block pattern, AIJ
// its scalar expansion.
type AssemblyPlan struct {
	ndof int
	sp   *la.Sparsity // node-block pattern
	ssp  *la.Sparsity // scalar AIJ expansion of sp, made on first use
	gatherPlan

	// slots[k] is traversal entry k's destination: a block slot (>= 0) or
	// the bit-complement of its offStore index. elemOff[e] is element e's
	// first entry. Both serve the in-place repair after a mesh patch.
	slots   []int32
	elemOff []int32

	// Off-process sends: keys prefilled at build, values rewritten each
	// assembly from offSrc/offW. offBufs are rank-major views into
	// offStore, ranks ascending (offDests).
	offStore []offProc
	offSrc   []int32
	offW     []float64
	offDests []int
	offBufs  [][]offProc

	// recv[src] caches the receive-side slots for src's (static) batch;
	// built on the first flush, validated against the keys on every later
	// flush.
	recv []*recvPlan
}

// scalarSparsity returns the AIJ pattern: sp itself for one unknown per
// node, else its block-regular scalar expansion.
func (p *AssemblyPlan) scalarSparsity() *la.Sparsity {
	if p.ndof == 1 {
		return p.sp
	}
	if p.ssp == nil {
		p.ssp = expandScalarSparsity(p.sp, p.ndof)
	}
	return p.ssp
}

// buildPlan builds the matrix plan from the mesh connectivity. With an
// old plan and the delta of a mesh patch (see RebindPatched) only dirty
// rows are recomputed and every entry of a clean element into a clean row
// carries its slot over; with op == nil every row is dirty. Either way
// the result is the same plan. The gather lists reuse op's allocations.
// Collective on more than one rank.
func (a *Assembler) buildPlan(op *AssemblyPlan, d *mesh.Delta) *AssemblyPlan {
	m := a.M
	nd := a.Ndof
	cpe := m.CornersPerElem()
	nn := cpe * nd
	me := int32(m.Comm.Rank())
	nE := m.NumElems()
	if d == nil {
		op = nil
	}
	var dirty []bool
	var oldOf []int32
	var oldSp *la.Sparsity
	if op != nil {
		dirty, oldSp = d.DirtyNode, op.sp
		oldOf = invertRemap(d.NodeRemap, m.NumLocal)
	}
	sp := patchNodeSparsity(m.NumOwned, oldSp, dirty, d, oldOf, a.dirtyRowPairs(dirty))
	p := &AssemblyPlan{ndof: nd, sp: sp}
	if op != nil {
		p.gatherPlan = op.gatherPlan
	}
	p.reset(sp.NNZ())

	// Pass 1: entry counts per element, local destinations and per-rank
	// off-process counts.
	p.elemOff = make([]int32, nE+1)
	total := 0
	for e := 0; e < nE; e++ {
		for ca := 0; ca < cpe; ca++ {
			na := int(m.Conn[e*cpe+ca].N)
			for cb := 0; cb < cpe; cb++ {
				total += na * int(m.Conn[e*cpe+cb].N)
			}
		}
		p.elemOff[e+1] = int32(total)
	}
	p.slots = make([]int32, total)
	rankCount := make([]int, m.Comm.Size())
	idx := 0
	for e := 0; e < nE; e++ {
		oldIdx := int32(-1)
		if op != nil && d.OldElem[e] >= 0 {
			oldIdx = op.elemOff[d.OldElem[e]]
		}
		for ca := 0; ca < cpe; ca++ {
			conA := &m.Conn[e*cpe+ca]
			for cb := 0; cb < cpe; cb++ {
				conB := &m.Conn[e*cpe+cb]
				for i := 0; i < int(conA.N); i++ {
					row := int(conA.Idx[i])
					for j := 0; j < int(conB.N); j++ {
						var s int32
						switch {
						case m.Owner[row] != me:
							rankCount[m.Owner[row]]++
							s = -1
						case oldIdx >= 0 && !dirty[row]:
							// Clean row of a clean element: the old entry at
							// the same traversal position resolved the same
							// (row, col); carry its offset within the row.
							os := op.slots[oldIdx]
							if os < 0 {
								panic("fem: clean patched entry was off-process in the old plan")
							}
							s = sp.Indptr[row] + (os - oldSp.Indptr[oldOf[row]])
						default:
							col := int(conB.Idx[j])
							if s = int32(sp.FindSlot(row, col)); s < 0 {
								panic(fmt.Sprintf("fem: plan block (%d,%d) missing from the connectivity sparsity", row, col))
							}
						}
						if s >= 0 {
							p.count(s)
						}
						p.slots[idx] = s
						idx++
						if oldIdx >= 0 {
							oldIdx++
						}
					}
				}
			}
		}
	}
	p.seal()

	// Off-process store, rank-major with ranks ascending; within a rank,
	// traversal order.
	rankStart := make([]int, len(rankCount))
	totalOff := 0
	for r, n := range rankCount {
		rankStart[r] = totalOff
		totalOff += n
		if n > 0 {
			p.offDests = append(p.offDests, r)
			p.offBufs = append(p.offBufs, nil)
		}
	}
	p.offStore = make([]offProc, totalOff)
	p.offSrc = make([]int32, totalOff)
	p.offW = make([]float64, totalOff)
	for i, r := range p.offDests {
		p.offBufs[i] = p.offStore[rankStart[r] : rankStart[r]+rankCount[r]]
	}

	// Pass 2: place every entry's store offset and weight, in traversal
	// order, on its block slot's gather list or its off-process slot.
	idx = 0
	for e := 0; e < nE; e++ {
		for ca := 0; ca < cpe; ca++ {
			conA := &m.Conn[e*cpe+ca]
			for cb := 0; cb < cpe; cb++ {
				conB := &m.Conn[e*cpe+cb]
				src := int32(e*nn*nn + ca*nd*nn + cb*nd)
				for i := 0; i < int(conA.N); i++ {
					row := int(conA.Idx[i])
					for j := 0; j < int(conB.N); j++ {
						w := conA.W[i] * conB.W[j]
						if s := p.slots[idx]; s >= 0 {
							p.put(s, src, w)
						} else {
							r := m.Owner[row]
							k := rankStart[r]
							rankStart[r]++
							p.offStore[k].Row = m.Keys[row]
							p.offStore[k].Col = m.Keys[conB.Idx[j]]
							p.offSrc[k], p.offW[k] = src, w
							p.slots[idx] = ^int32(k)
						}
						idx++
					}
				}
			}
		}
	}
	return p
}

// recvPlan caches the receive side of the off-process exchange for one
// source rank: the batch a fixed sender produces from a fixed mesh is
// static, so its destination block slots (and their rows, for AIJ
// addressing) are resolved once and only the keys are re-checked on later
// flushes.
type recvPlan struct {
	rows, cols []mesh.NodeKey
	slot, row  []int32
}

// recvPlanFor returns the cached receive plan for src, (re)building it
// when the batch shape or keys changed.
func (p *AssemblyPlan) recvPlanFor(m *mesh.Mesh, src int, batch []offProc) *recvPlan {
	if p.recv == nil {
		p.recv = make([]*recvPlan, m.Comm.Size())
	}
	if rp := p.recv[src]; rp != nil && rp.matches(batch) {
		return rp
	}
	rp := &recvPlan{
		rows: make([]mesh.NodeKey, len(batch)),
		cols: make([]mesh.NodeKey, len(batch)),
		slot: make([]int32, len(batch)),
		row:  make([]int32, len(batch)),
	}
	for k := range batch {
		ent := &batch[k]
		row, ok := m.NodeIndex(ent.Row)
		if !ok {
			panic(fmt.Sprintf("fem: off-process row %v unknown on owner", ent.Row))
		}
		col, ok := m.NodeIndex(ent.Col)
		if !ok {
			panic(fmt.Sprintf("fem: off-process column %v unknown on rank %d", ent.Col, m.Comm.Rank()))
		}
		s := p.sp.FindSlot(row, col)
		if s < 0 {
			panic(fmt.Sprintf("fem: received block (%d,%d) missing from frozen sparsity", row, col))
		}
		rp.rows[k], rp.cols[k] = ent.Row, ent.Col
		rp.slot[k], rp.row[k] = int32(s), int32(row)
	}
	p.recv[src] = rp
	return rp
}

func (rp *recvPlan) matches(batch []offProc) bool {
	if len(rp.rows) != len(batch) {
		return false
	}
	for k := range batch {
		if batch[k].Row != rp.rows[k] || batch[k].Col != rp.cols[k] {
			return false
		}
	}
	return true
}

// apply accumulates a received batch through the cached slots. The
// weights were folded in by the sender, so this is a plain add.
func (rp *recvPlan) apply(vals []float64, batch []offProc, sp *la.Sparsity, scalar bool, nd int) {
	bs2 := nd * nd
	for k := range batch {
		V := &batch[k].V
		base, stride := int(rp.slot[k])*bs2, nd
		if scalar {
			base, stride = aijBlock(sp, int(rp.row[k]), int(rp.slot[k]), nd)
		}
		for di := 0; di < nd; di++ {
			dst := vals[base+di*stride : base+di*stride+nd]
			for dj := range dst {
				dst[dj] += V[di*nd+dj]
			}
		}
	}
}

// aijBlock locates node block slot s (in block row r) in the scalar AIJ
// expansion of the block pattern sp: the scalar slot of its first entry
// and the stride between its dof rows (the scalar row length).
func aijBlock(sp *la.Sparsity, r, s, nd int) (base, stride int) {
	r0 := int(sp.Indptr[r])
	stride = (int(sp.Indptr[r+1]) - r0) * nd
	return r0*nd*nd + (s-r0)*nd, stride
}

// srcOrder returns indices of srcs in ascending source-rank order, so
// received contributions are applied in a deterministic order regardless
// of message arrival.
func srcOrder(srcs []int) []int {
	order := make([]int, len(srcs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return srcs[order[i]] < srcs[order[j]] })
	return order
}
