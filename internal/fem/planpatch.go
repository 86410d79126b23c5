// Plan construction from mesh connectivity, and its incremental repair:
// RebindPatched moves the assembler to a patched mesh (mesh.Patch)
// without rebuilding the plans from nothing. Clean rows — nodes the remesh
// did not touch — keep their column pattern (remapped through the mesh
// delta); only dirty rows are recomputed, from one flat sweep of the new
// constraint table plus an NBX of the off-process couplings. A
// from-scratch build is the same route with every row dirty, so the
// repaired plan is exactly the plan a fresh build on the new mesh makes,
// and assembly after RebindPatched is bitwise identical to it at any rank
// and worker count.
package fem

import (
	"fmt"
	"slices"
	"sort"

	"proteus/internal/la"
	"proteus/internal/mesh"
	"proteus/internal/par"
)

// nodePair is one off-process (row, col) coupling, keyed by node keys so
// the row owner can resolve it against its own numbering.
type nodePair struct {
	Row, Col mesh.NodeKey
}

// RebindPatched points the assembler at a patched mesh generation,
// repairing the cached plans in place of the full invalidation Rebind
// performs. epoch is recorded directly (SetEpoch would invalidate).
// Collective when any rank holds a matrix plan: the dirty-row patterns
// need the off-process couplings of the new mesh, which every rank
// contributes from its own constraint table.
func (a *Assembler) RebindPatched(m *mesh.Mesh, epoch uint64, d *mesh.Delta) {
	if m.Dim != a.M.Dim {
		panic("fem: Assembler.RebindPatched across dimensions")
	}
	old, oldVec := a.plan, a.vplan
	a.M, a.epoch = m, epoch
	a.plan, a.vplan = nil, nil
	anyPlan := old != nil
	if m.Comm.Size() > 1 {
		anyPlan = par.Allreduce(m.Comm, anyPlan, func(x, y bool) bool { return x || y })
	}
	if anyPlan {
		a.plan = a.buildPlan(old, d)
	}
	if oldVec != nil {
		a.vplan = a.buildVecPlan(oldVec)
	}
}

// invertRemap builds the new-to-old node index map from the old-to-new
// remap (-1 for nodes that did not survive: exactly the dirty new nodes).
func invertRemap(remap []int32, newLocal int) []int32 {
	inv := make([]int32, newLocal)
	for i := range inv {
		inv[i] = -1
	}
	for oi, ni := range remap {
		if ni >= 0 {
			inv[ni] = int32(oi)
		}
	}
	return inv
}

// dirtyRowPairs sweeps the constraint table once, collecting every
// coupling whose row is an owned dirty node (packed row<<32|col, in no
// particular order, duplicates kept) and exchanging the off-process
// couplings so the owners see the contributions remote elements will send
// during assembly. dirty == nil marks every row dirty. Collective when the
// communicator has more than one rank.
func (a *Assembler) dirtyRowPairs(dirty []bool) []int64 {
	m := a.M
	me := int32(m.Comm.Rank())
	cpe := m.CornersPerElem()
	isDirty := func(r int) bool { return dirty == nil || dirty[r] }
	var pairs []int64
	type destBuf struct {
		seen map[nodePair]bool
		buf  []nodePair
	}
	var dests map[int]*destBuf
	if m.Comm.Size() > 1 {
		dests = make(map[int]*destBuf)
	}
	for e := 0; e < m.NumElems(); e++ {
		for ca := 0; ca < cpe; ca++ {
			conA := &m.Conn[e*cpe+ca]
			for cb := 0; cb < cpe; cb++ {
				conB := &m.Conn[e*cpe+cb]
				for i := 0; i < int(conA.N); i++ {
					rowNode := int(conA.Idx[i])
					owner := m.Owner[rowNode]
					if owner == me && !isDirty(rowNode) {
						continue
					}
					for j := 0; j < int(conB.N); j++ {
						colNode := int(conB.Idx[j])
						if owner == me {
							pairs = append(pairs, int64(rowNode)<<32|int64(colNode))
							continue
						}
						if dests == nil {
							continue
						}
						np := nodePair{m.Keys[rowNode], m.Keys[colNode]}
						dd := dests[int(owner)]
						if dd == nil {
							dd = &destBuf{seen: make(map[nodePair]bool)}
							dests[int(owner)] = dd
						}
						if !dd.seen[np] {
							dd.seen[np] = true
							dd.buf = append(dd.buf, np)
						}
					}
				}
			}
		}
	}
	if c := m.Comm; c.Size() > 1 {
		dr := make([]int, 0, len(dests))
		for r := range dests {
			dr = append(dr, r)
		}
		sort.Ints(dr)
		bufs := make([][]nodePair, len(dr))
		for i, r := range dr {
			bufs[i] = dests[r].buf
		}
		srcs, recvd := par.NBXExchange(c, dr, bufs)
		for bi := range srcs {
			for _, np := range recvd[bi] {
				rowNode, ok := m.NodeIndex(np.Row)
				if !ok {
					panic(fmt.Sprintf("fem: off-process row %v unknown on owner", np.Row))
				}
				colNode, ok := m.NodeIndex(np.Col)
				if !ok {
					panic(fmt.Sprintf("fem: off-process column %v unknown on rank %d", np.Col, c.Rank()))
				}
				if isDirty(rowNode) {
					pairs = append(pairs, int64(rowNode)<<32|int64(colNode))
				}
			}
		}
	}
	return pairs
}

// patchNodeSparsity assembles the node-block pattern of nr owned rows:
// dirty rows take their sorted, deduplicated pairs; with an old pattern,
// clean rows keep their old row remapped through the delta (the delta
// guarantees a clean row's columns keep their relative order under the
// remap, so they stay sorted). dirty == nil marks every row dirty. A
// clean row receives no remote contributions (it is never an exchange
// target, or it would be dirty) and couples only to surviving elements,
// whose couplings remap one for one, so the result is exactly the pattern
// of a from-scratch build.
func patchNodeSparsity(nr int, old *la.Sparsity, dirty []bool, d *mesh.Delta, oldOf []int32, pairs []int64) *la.Sparsity {
	// Bucket the pairs by row (counting sort), then sort and deduplicate
	// each row's columns in place.
	start := make([]int32, nr+1)
	for _, p := range pairs {
		start[p>>32+1]++
	}
	for r := 0; r < nr; r++ {
		start[r+1] += start[r]
	}
	cols := make([]int32, len(pairs))
	fill := slices.Clone(start[:nr])
	for _, p := range pairs {
		r := p >> 32
		cols[fill[r]] = int32(p & 0xffffffff)
		fill[r]++
	}
	sp := &la.Sparsity{NRows: nr, Indptr: make([]int32, nr+1)}
	for r := 0; r < nr; r++ {
		c := cols[start[r]:start[r+1]]
		slices.Sort(c)
		n := len(slices.Compact(c))
		if dirty != nil && !dirty[r] {
			if n != 0 {
				panic("fem: dirty-row pairs reference an unflagged row")
			}
			or := oldOf[r]
			if or < 0 {
				panic("fem: clean patched row has no old counterpart")
			}
			n = old.RowLen(int(or))
		}
		fill[r] = int32(n)
		sp.Indptr[r+1] = sp.Indptr[r] + int32(n)
	}
	sp.Cols = make([]int32, sp.Indptr[nr])
	for r := 0; r < nr; r++ {
		dst := sp.Cols[sp.Indptr[r]:sp.Indptr[r+1]]
		if dirty == nil || dirty[r] {
			copy(dst, cols[start[r]:start[r]+fill[r]])
			continue
		}
		oc := old.Cols[old.Indptr[oldOf[r]]:]
		for k := range dst {
			nc := d.NodeRemap[oc[k]]
			if nc < 0 {
				panic("fem: clean patched row references a dropped node")
			}
			dst[k] = nc
		}
	}
	return sp
}

// expandScalarSparsity expands a node-block pattern to the scalar AIJ
// pattern: every block row becomes nd identical-pattern scalar rows,
// every block column nd consecutive scalar columns — the block-regular
// layout aijBlock addresses.
func expandScalarSparsity(b *la.Sparsity, nd int) *la.Sparsity {
	nr := b.NRows * nd
	sp := &la.Sparsity{NRows: nr, Indptr: make([]int32, nr+1)}
	for r := 0; r < b.NRows; r++ {
		bl := int32(b.RowLen(r) * nd)
		for di := 0; di < nd; di++ {
			sp.Indptr[r*nd+di+1] = sp.Indptr[r*nd+di] + bl
		}
	}
	sp.Cols = make([]int32, sp.Indptr[nr])
	idx := 0
	for r := 0; r < b.NRows; r++ {
		for di := 0; di < nd; di++ {
			for k := b.Indptr[r]; k < b.Indptr[r+1]; k++ {
				c := b.Cols[k] * int32(nd)
				for dj := 0; dj < nd; dj++ {
					sp.Cols[idx] = c + int32(dj)
					idx++
				}
			}
		}
	}
	return sp
}
