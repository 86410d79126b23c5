package fem

import (
	"proteus/internal/mesh"
	"proteus/internal/par"
)

// WorkerVecKernel fills the node-major elemental vector fe[a*ndof+d] for
// element e on element-loop shard w. The worker index follows the same
// per-shard contract as NodeMajorKernel: kernels with mutable scratch
// keep one copy per worker, sized by Assembler.Workers().
type WorkerVecKernel func(w, e int, h float64, fe []float64)

// WorkerZippedVecKernel fills the dof-major (zipped) elemental vector
// fz[d*npe+a] for element e on shard w — the stage-2 DGEMV layout,
// unzipped by the assembler into the contribution store.
type WorkerZippedVecKernel func(w, e int, h float64, fz []float64)

// VecPlan is the vector counterpart of AssemblyPlan: the same gather-plan
// shape, with one node-major elemental vector per element in the
// contribution store and one gather target per local node, whose items are the (element,
// corner, donor) contributions landing on it. It is built once per mesh
// generation and dropped or rebuilt with the matrix plan.
type VecPlan struct {
	ndof int
	gatherPlan
}

// buildVecPlan walks the constraint table exactly as the serial scatter
// does and records the per-node gather lists, into old's allocations when
// their capacity suffices (old may be nil). Purely local: vector assembly
// routes off-process contributions through the ghost segment.
func (a *Assembler) buildVecPlan(old *VecPlan) *VecPlan {
	m := a.M
	cpe := m.CornersPerElem()
	nd := a.Ndof
	nE := m.NumElems()
	p := &VecPlan{ndof: nd}
	if old != nil {
		p.gatherPlan = old.gatherPlan
	}
	p.reset(m.NumLocal)
	for _, con := range m.Conn[:nE*cpe] {
		for k := 0; k < int(con.N); k++ {
			p.count(con.Idx[k])
		}
	}
	p.seal()
	for ec := range m.Conn[:nE*cpe] {
		con := &m.Conn[ec]
		for k := 0; k < int(con.N); k++ {
			p.put(con.Idx[k], int32(ec*nd), con.W[k])
		}
	}
	return p
}

// AssembleVectorPlanned accumulates elemental vectors into v (full local
// layout) and pushes ghost contributions to their owners. The element
// loop runs sharded over the assembler's workers (on the pool when one is
// set), writing the contribution store, and the per-node gather sums the
// contributions in serial traversal order — bitwise identical at any
// worker count, with zero steady-state allocation. On multiple ranks the
// ghost segment is gathered first so its combining ghost write overlaps
// the owned-segment gather. The first call builds the plan. Collective.
func (a *Assembler) AssembleVectorPlanned(v []float64, kern WorkerVecKernel) {
	a.assembleVecPlanned(v, kern, nil)
}

// AssembleVectorZippedPlanned is AssembleVectorPlanned for zipped
// (dof-major) kernels: each shard unzips into the store. Collective.
func (a *Assembler) AssembleVectorZippedPlanned(v []float64, kern WorkerZippedVecKernel) {
	a.assembleVecPlanned(v, nil, kern)
}

func (a *Assembler) assembleVecPlanned(v []float64, kern WorkerVecKernel, zkern WorkerZippedVecKernel) {
	if a.vplan == nil {
		a.vplan = a.buildVecPlan(nil)
	}
	m := a.M
	nw := a.shards()
	if a.vecElemFn == nil {
		a.vecElemFn, a.vecGatherFn = a.runVecElemShard, a.runVecGatherShard
	}
	a.shVec, a.shVKern, a.shVZKern, a.shNW = v, kern, zkern, nw
	a.shStore = a.fitStore(m.NumElems() * m.CornersPerElem() * a.Ndof)

	a.runSharded(a.vecElemFn, nw)
	if m.Comm.Size() > 1 {
		// Gather the ghost segment first and push it while the owned
		// segment — the bulk of the vector — is still being gathered.
		a.shLo, a.shHi = m.NumOwned, m.NumLocal
		a.runSharded(a.vecGatherFn, nw)
		m.GhostWriteBegin(v, a.Ndof, 0)
		a.shLo, a.shHi = 0, m.NumOwned
		a.runSharded(a.vecGatherFn, nw)
		m.GhostWriteEnd(v, a.Ndof, mesh.Add)
	} else {
		a.shLo, a.shHi = 0, m.NumLocal
		a.runSharded(a.vecGatherFn, nw)
	}
	a.shVec, a.shVKern, a.shVZKern, a.shStore = nil, nil, nil, nil
}

// runVecElemShard runs the element loop over shard w's range, each
// element filling its own slice of the store.
func (a *Assembler) runVecElemShard(w int) {
	if w >= a.shNW {
		return
	}
	m := a.M
	lo, hi := par.Shard(w, a.shNW, m.NumElems())
	nd := a.Ndof
	cpe := m.CornersPerElem()
	ne := cpe * nd
	store := a.shStore
	fz := a.ws[w].fz
	for e := lo; e < hi; e++ {
		fe := store[e*ne : (e+1)*ne : (e+1)*ne]
		h := m.ElemSize(e)
		if a.shVKern != nil {
			clear(fe)
			a.shVKern(w, e, h, fe)
			continue
		}
		clear(fz)
		a.shVZKern(w, e, h, fz)
		UnzipVec(nd, cpe, fz, fe)
	}
}

// runVecGatherShard sums each node entry of shard w's part of the
// [shLo, shHi) node range from its store items, in ascending traversal
// order — the serial accumulation order, so the result is independent of
// the shard count.
func (a *Assembler) runVecGatherShard(w int) {
	if w >= a.shNW {
		return
	}
	lo, hi := par.Shard(w, a.shNW, a.shHi-a.shLo)
	p := a.vplan
	nd := a.Ndof
	v := a.shVec
	for i := lo + a.shLo; i < hi+a.shLo; i++ {
		var acc [4]float64
		for k := p.off[i]; k < p.off[i+1]; k++ {
			src := a.shStore[p.src[k] : int(p.src[k])+nd]
			wk := p.wt[p.wi[k]]
			for d, x := range src {
				acc[d] += wk * x
			}
		}
		copy(v[i*nd:i*nd+nd], acc[:nd])
	}
}
