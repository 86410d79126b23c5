package fem

import (
	"runtime"

	"proteus/internal/la"
	"proteus/internal/mesh"
	"proteus/internal/par"
)

// NodeMajorKernel fills the elemental matrix Ke for element e in
// node-major layout: Ke[(a*ndof+di)*(npe*ndof) + b*ndof+dj]. The worker
// index w names the element-loop shard invoking the kernel: kernels with
// mutable scratch must keep one copy per worker (index it by w, sized by
// Assembler.Workers) so the sharded loop stays race-free.
type NodeMajorKernel func(w, e int, h float64, ke []float64)

// ZippedKernel fills dof-pair-major blocks for element e:
// blocks[di*ndof+dj] is a contiguous npe x npe scalar block (the zipped
// layout produced by the GEMM operators). The worker index w follows the
// same per-shard contract as NodeMajorKernel; use Assembler.WorkN(w) for
// per-worker GEMM scratch.
type ZippedKernel func(w, e int, h float64, blocks [][]float64)

// offProc is a matrix contribution destined for a remote owner of the row
// node. Blocks are at most 4x4 (ndof <= 4).
type offProc struct {
	Row, Col mesh.NodeKey
	V        [16]float64
}

// Layout selects the storage/assembly strategy of Table I.
type Layout int

// Assembly layouts benchmarked in Table I.
const (
	// LayoutAIJ is the baseline: scalar CSR with per-DOF strided writes.
	LayoutAIJ Layout = iota
	// LayoutBAIJ is stage 1: node-blocked storage, one block write per
	// node pair.
	LayoutBAIJ
	// LayoutZipped is stage 2: GEMM-produced zipped blocks unzipped
	// directly into block storage.
	LayoutZipped
)

// workerScratch is one element-loop shard's private scratch for the
// zipped kernels (node-major kernels write the contribution store
// directly), so the parallel loop runs with zero shared mutable scratch
// and zero per-element allocation.
type workerScratch struct {
	blocks [][]float64
	wk     *GemmWork
	fz     []float64
}

// Assembler drives distributed matrix and vector assembly over a mesh.
// Every assembly is plan-driven: the matrix AssemblyPlan and the VecPlan
// are built from the mesh connectivity once per mesh generation. Each
// assembly runs a sharded element loop into the plan's contribution store
// and then a sharded gather that sums every entry in serial traversal
// order, so results are bitwise identical at any shard count.
type Assembler struct {
	M    *mesh.Mesh
	Ref  *Ref
	Ndof int

	// workers is the element-loop shard count (default: GOMAXPROCS
	// divided among the in-process ranks).
	workers int
	ws      []workerScratch

	// pool, when set, runs the shards on a persistent worker pool instead
	// of spawning goroutines per assembly — the same pool the solve-path
	// kernels dispatch to. The *Fn fields are the prebuilt shard closures
	// and the sh* fields their argument slots, so the dispatch itself
	// allocates nothing per assembly.
	pool                   *par.Pool
	matElemFn, matGatherFn func(w int)
	vecElemFn, vecGatherFn func(w int)
	shNW                   int
	shKern                 NodeMajorKernel
	shZKern                ZippedKernel
	shVals                 []float64
	shScalar               bool
	shVKern                WorkerVecKernel
	shVZKern               WorkerZippedVecKernel
	shVec                  []float64
	shLo, shHi             int
	shStore                []float64

	// store is the contribution store: one elemental matrix or vector per
	// element, rewritten by every assembly. Assemblers that never assemble
	// concurrently may share one (see ShareStore).
	store *[]float64

	plan  *AssemblyPlan
	vplan *VecPlan

	// epoch tags the mesh generation the plans were built for; see
	// SetEpoch.
	epoch uint64
}

// NewAssembler builds an assembler for ndof unknowns per node.
func NewAssembler(m *mesh.Mesh, ndof int) *Assembler {
	if ndof > 4 {
		panic("fem: ndof > 4 unsupported by off-process block buffer")
	}
	a := &Assembler{M: m, Ref: NewRef(m.Dim), Ndof: ndof, store: new([]float64)}
	a.workers = max(1, runtime.GOMAXPROCS(0)/m.Comm.Size())
	a.ensureWorkers(1)
	return a
}

// ensureWorkers grows the per-worker scratch pool to n entries.
func (a *Assembler) ensureWorkers(n int) {
	for len(a.ws) < n {
		npe := a.Ref.NPE
		s := workerScratch{wk: NewGemmWork(a.Ref), fz: make([]float64, npe*a.Ndof)}
		s.blocks = make([][]float64, a.Ndof*a.Ndof)
		for j := range s.blocks {
			s.blocks[j] = make([]float64, npe*npe)
		}
		a.ws = append(a.ws, s)
	}
}

// Workers returns the element-loop shard count kernels must size their
// per-worker scratch for.
func (a *Assembler) Workers() int { return a.workers }

// SetWorkers overrides the element-loop shard count (n >= 1). Results do
// not depend on it: the gather sums every entry in serial traversal order.
func (a *Assembler) SetWorkers(n int) { a.workers = max(1, n) }

// SetPool runs assemblies on the given persistent pool (sharing its
// workers with the solve-path kernels) instead of spawning goroutines per
// call. The shard count becomes min(Workers(), pool.Workers()).
func (a *Assembler) SetPool(p *par.Pool) { a.pool = p }

// ShareStore makes a use b's contribution store. The store is scratch
// that lives from an assembly's element loop to its gather, so assemblers
// that never assemble concurrently — the stage assemblers of one solver —
// can share one, sized for the largest of them.
func (a *Assembler) ShareStore(b *Assembler) { a.store = b.store }

// fitStore sizes the shared store for n values, growing it only when it
// is too small.
func (a *Assembler) fitStore(n int) []float64 {
	*a.store = fit(*a.store, n)
	return *a.store
}

// WorkN returns worker w's GEMM scratch.
func (a *Assembler) WorkN(w int) *GemmWork {
	a.ensureWorkers(w + 1)
	return a.ws[w].wk
}

// SetEpoch declares the mesh generation the assembler is running on.
// A change invalidates every cached plan (the sparsity of a remeshed
// domain is new).
func (a *Assembler) SetEpoch(e uint64) {
	if e == a.epoch {
		return
	}
	a.epoch = e
	a.plan, a.vplan = nil, nil
}

// Epoch returns the assembler's current mesh epoch.
func (a *Assembler) Epoch() uint64 { return a.epoch }

// Rebind points the assembler at a new mesh generation, preserving
// everything mesh-independent: the reference element, the per-worker
// kernel scratch and the pool wiring. The cached plans are dropped (a
// remeshed domain has a new sparsity).
func (a *Assembler) Rebind(m *mesh.Mesh) {
	if m.Dim != a.M.Dim {
		panic("fem: Assembler.Rebind across dimensions")
	}
	a.M = m
	a.plan, a.vplan = nil, nil
}

// NewMatrix returns a zero matrix on the plan's frozen pattern: scalar
// AIJ for the baseline layout, BAIJ otherwise. The plan is built from the
// mesh connectivity when missing, so the first call per mesh generation
// is collective.
func (a *Assembler) NewMatrix(layout Layout) *la.BSRMat {
	if a.plan == nil {
		a.plan = a.buildPlan(nil, nil)
	}
	m := a.M
	var mat *la.BSRMat
	if layout == LayoutAIJ {
		mat = la.NewAIJFromSparsity(m, a.Ndof, m.NumOwned, m.NumLocal, a.plan.scalarSparsity())
	} else {
		mat = la.NewBAIJFromSparsity(m, a.Ndof, m.NumOwned, m.NumLocal, a.plan.sp)
	}
	// Operators inherit the assembler's pool: SpMV shards across the same
	// workers as the element loop (bitwise-identical to serial).
	mat.SetPool(a.pool)
	return mat
}

// AssembleMatrix runs the element loop with the node-major kernel and
// overwrites mat's values (LayoutAIJ or LayoutBAIJ). mat must come from
// NewMatrix since the last plan invalidation. Contributions to rows owned
// remotely are exchanged with NBX at the end (PETSc's off-process
// assembly). Collective.
func (a *Assembler) AssembleMatrix(mat *la.BSRMat, layout Layout, kern NodeMajorKernel) {
	if layout == LayoutZipped {
		panic("fem: use AssembleMatrixZipped for the zipped layout")
	}
	a.assembleMatrix(mat, layout == LayoutAIJ, kern, nil)
}

// AssembleMatrixZipped runs the element loop with a zipped kernel, each
// shard unzipping its blocks into the store. Otherwise as AssembleMatrix
// with LayoutBAIJ. Collective.
func (a *Assembler) AssembleMatrixZipped(mat *la.BSRMat, kern ZippedKernel) {
	a.assembleMatrix(mat, false, nil, kern)
}

func (a *Assembler) assembleMatrix(mat *la.BSRMat, scalar bool, kern NodeMajorKernel, zkern ZippedKernel) {
	p := a.plan
	if p == nil || (scalar && mat.Sparsity() != p.scalarSparsity()) || (!scalar && mat.Sparsity() != p.sp) {
		panic("fem: matrix is not on the assembler's frozen pattern; allocate it with Assembler.NewMatrix")
	}
	nw := a.shards()
	if a.matElemFn == nil {
		a.matElemFn, a.matGatherFn = a.runMatElemShard, a.runMatGatherShard
	}
	a.shNW, a.shVals, a.shScalar, a.shKern, a.shZKern = nw, mat.Vals(), scalar, kern, zkern
	nn := a.Ref.NPE * a.Ndof
	a.shStore = a.fitStore(a.M.NumElems() * nn * nn)
	a.runSharded(a.matElemFn, nw)
	a.runSharded(a.matGatherFn, nw)
	a.shVals, a.shKern, a.shZKern, a.shStore = nil, nil, nil, nil
	a.flushPlanned(mat, p, scalar)
}

// shards returns the shard count of the next assembly: the worker count,
// clamped to the pool and to the element count.
func (a *Assembler) shards() int {
	nw := a.workers
	if a.pool != nil {
		nw = min(nw, a.pool.Workers())
	}
	nw = max(1, min(nw, a.M.NumElems()))
	a.ensureWorkers(nw)
	return nw
}

// runSharded dispatches one prebuilt shard function across nw workers:
// on the pool when it is large enough (allocation-free), otherwise on
// transient goroutines, and directly on the caller when nw == 1.
func (a *Assembler) runSharded(f func(w int), nw int) {
	switch {
	case nw == 1:
		f(0)
	case a.pool != nil && a.pool.Workers() >= nw:
		a.pool.Run(f)
	default:
		done := make(chan struct{}, nw-1)
		for w := 1; w < nw; w++ {
			go func(w int) {
				f(w)
				done <- struct{}{}
			}(w)
		}
		f(0)
		for w := 1; w < nw; w++ {
			<-done
		}
	}
}

// runMatElemShard runs the element loop over shard w's range, each
// element writing its node-major elemental matrix into its own slice of
// the store.
func (a *Assembler) runMatElemShard(w int) {
	if w >= a.shNW {
		return
	}
	m := a.M
	lo, hi := par.Shard(w, a.shNW, m.NumElems())
	nn := a.Ref.NPE * a.Ndof
	nn *= nn
	store := a.shStore
	blocks := a.ws[w].blocks
	for e := lo; e < hi; e++ {
		ke := store[e*nn : (e+1)*nn : (e+1)*nn]
		h := m.ElemSize(e)
		if a.shKern != nil {
			clear(ke)
			a.shKern(w, e, h, ke)
			continue
		}
		for _, b := range blocks {
			clear(b)
		}
		a.shZKern(w, e, h, blocks)
		UnzipMat(a.Ndof, a.Ref.NPE, blocks, ke)
	}
}

// runMatGatherShard sums every block slot of shard w's owned rows from
// its store items in ascending traversal order (the serial accumulation
// order, so the result is independent of the shard count), and fills
// shard w's part of the off-process store.
func (a *Assembler) runMatGatherShard(w int) {
	if w >= a.shNW {
		return
	}
	p := a.plan
	sp := p.sp
	nd := a.Ndof
	bs2 := nd * nd
	nn := a.Ref.NPE * nd
	vals := a.shVals
	lo, hi := par.Shard(w, a.shNW, sp.NRows)
	for r := lo; r < hi; r++ {
		for s := int(sp.Indptr[r]); s < int(sp.Indptr[r+1]); s++ {
			var acc [16]float64
			for k := p.off[s]; k < p.off[s+1]; k++ {
				src := a.shStore[p.src[k]:]
				wk := p.wt[p.wi[k]]
				for di := 0; di < nd; di++ {
					for dj, x := range src[di*nn : di*nn+nd] {
						acc[di*nd+dj] += wk * x
					}
				}
			}
			if !a.shScalar {
				copy(vals[s*bs2:s*bs2+bs2], acc[:bs2])
				continue
			}
			base, stride := aijBlock(sp, r, s, nd)
			for di := 0; di < nd; di++ {
				copy(vals[base+di*stride:base+di*stride+nd], acc[di*nd:di*nd+nd])
			}
		}
	}
	lo, hi = par.Shard(w, a.shNW, len(p.offStore))
	for k := lo; k < hi; k++ {
		src := a.shStore[p.offSrc[k]:]
		wk := p.offW[k]
		V := &p.offStore[k].V
		for di := 0; di < nd; di++ {
			for dj, x := range src[di*nn : di*nn+nd] {
				V[di*nd+dj] = wk * x
			}
		}
	}
}

// flushPlanned exchanges the plan's prefilled off-process buffers and
// applies received contributions through per-source receive plans in
// ascending source-rank order. The trailing barrier lets senders safely
// rewrite their buffers next assembly: payloads travel by reference in
// the in-process runtime.
func (a *Assembler) flushPlanned(mat *la.BSRMat, p *AssemblyPlan, scalar bool) {
	c := a.M.Comm
	if c.Size() == 1 {
		return
	}
	srcs, recvd := par.NBXExchange(c, p.offDests, p.offBufs)
	vals := mat.Vals()
	for _, bi := range srcOrder(srcs) {
		p.recvPlanFor(a.M, srcs[bi], recvd[bi]).apply(vals, recvd[bi], p.sp, scalar, a.Ndof)
	}
	c.Barrier()
}
