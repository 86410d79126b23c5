package la

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"proteus/internal/par"
)

// randomBAIJ is an owned x (owned+ghost) block matrix with a random
// pattern: every row has its diagonal block, a few random owned blocks,
// and (in about half the rows) ghost blocks, so both interior and
// boundary row sets are large. The diagonal dominates, so ILU(0) pivots
// are safe.
func randomBAIJ(rng *rand.Rand, bs, owned, ghosts int) *BSRMat {
	m := NewBAIJ(nil, bs, owned, owned+ghosts)
	blk := make([]float64, bs*bs)
	fill := func(diag bool) {
		for i := range blk {
			blk[i] = rng.Float64() - 0.5
		}
		if diag {
			for d := 0; d < bs; d++ {
				blk[d*bs+d] = 4*float64(bs) + rng.Float64()
			}
		}
	}
	for r := 0; r < owned; r++ {
		fill(true)
		m.AddBlock(r, r, blk)
		for k := 0; k < 6; k++ {
			fill(false)
			m.AddBlock(r, rng.Intn(owned), blk)
		}
		if rng.Intn(2) == 0 {
			for k := 0; k < 1+rng.Intn(3); k++ {
				fill(false)
				m.AddBlock(r, owned+rng.Intn(ghosts), blk)
			}
		}
	}
	m.Finalize()
	return m
}

// TestSpMVSpecializedMatchesGeneric: the block-size-specialized products
// equal the generic loop bitwise, at every block size, over the full,
// interior and boundary row sets, serial and sharded across 1-3 workers.
func TestSpMVSpecializedMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const owned, ghosts = 700, 90
	for bs := 1; bs <= maxBs; bs++ {
		m := randomBAIJ(rng, bs, owned, ghosts)
		x := make([]float64, m.FullLen())
		for i := range x {
			x[i] = rng.NormFloat64() * math.Ldexp(1, rng.Intn(20)-10)
		}
		interior, boundary := m.sp.RowSplit()
		if len(interior) < minParallelRows || len(boundary) < minParallelRows {
			t.Fatalf("bs=%d: row split %d/%d too small to shard", bs, len(interior), len(boundary))
		}
		sets := []struct {
			name string
			rows []int32
			n    int
		}{{"full", nil, owned}, {"interior", interior, len(interior)}, {"boundary", boundary, len(boundary)}}
		for _, set := range sets {
			want := make([]float64, m.Rows())
			m.applyGeneric(x, want, set.rows, 0, set.n)
			for _, workers := range []int{1, 2, 3} {
				pool := par.NewPool(workers)
				m.SetPool(pool)
				got := make([]float64, m.Rows())
				m.runApply(x, got, set.rows, set.n)
				pool.Close()
				m.SetPool(nil)
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("bs=%d %s rows, %d workers: y[%d] = %v, generic %v", bs, set.name, workers, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// refILU0Apply is PCBJacobiILU0.Apply as it was before the split-range
// loops: a break at the first column >= i in the forward solve and an
// ownedness test in the backward one.
func refILU0Apply(p *PCBJacobiILU0, r, z []float64) {
	n := p.n
	for i := 0; i < n; i++ {
		s := r[i]
		for j := p.indptr[i]; j < p.indptr[i+1]; j++ {
			c := int(p.cols[j])
			if c >= i {
				break
			}
			s -= p.lu[j] * z[c]
		}
		z[i] = s
	}
	for i := n - 1; i >= 0; i-- {
		s := z[i]
		for j := p.diag[i] + 1; j < p.indptr[i+1]; j++ {
			c := int(p.cols[j])
			if c < n {
				s -= p.lu[j] * z[c]
			}
		}
		d := p.lu[p.diag[i]]
		if d == 0 {
			d = 1
		}
		z[i] = s / d
	}
}

func checkILU0Apply(t *testing.T, what string, p *PCBJacobiILU0, rng *rand.Rand) {
	t.Helper()
	r := make([]float64, p.n)
	for i := range r {
		r[i] = rng.NormFloat64()
	}
	want := make([]float64, p.n)
	got := make([]float64, p.n)
	refILU0Apply(p, r, want)
	p.Apply(r, got)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: z[%d] = %v, reference %v", what, i, got[i], want[i])
		}
	}
}

// TestILU0ApplyMatchesReference: the split-range triangular solves equal
// the pre-change loops bitwise after a fresh factorization, a value
// refresh, and patched and from-scratch rebinds.
func TestILU0ApplyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, bs := range []int{1, 2, 3} {
		m := randomBAIJ(rng, bs, 300, 40)
		p := NewPCBJacobiILU0(m)
		checkILU0Apply(t, fmt.Sprintf("bs=%d new", bs), p, rng)

		for i := range m.vals {
			m.vals[i] *= 1 + 0.1*rng.Float64()
		}
		p.Refresh()
		checkILU0Apply(t, fmt.Sprintf("bs=%d refresh", bs), p, rng)

		// A same-pattern replacement matrix, rebound through a patch that
		// keeps every row (index carried) and through a nil patch (index
		// rebuilt).
		m2 := NewBAIJFromSparsity(nil, bs, m.NRowNodes, m.NColNodes, m.sp)
		for i := range m2.vals {
			m2.vals[i] = m.vals[i] * (1 + 0.1*rng.Float64())
		}
		n := m2.Rows()
		patch := &RowPatch{Remap: make([]int32, n), Dirty: make([]bool, n)}
		for i := range patch.Remap {
			patch.Remap[i] = int32(i)
		}
		if kept, _ := p.RebindPatched(m2, patch); kept != n {
			t.Fatalf("bs=%d: identity patch kept %d of %d rows", bs, kept, n)
		}
		checkILU0Apply(t, fmt.Sprintf("bs=%d rebind patched", bs), p, rng)
		p.RebindPatched(m, nil)
		checkILU0Apply(t, fmt.Sprintf("bs=%d rebind nil", bs), p, rng)
	}
}

// TestILU0RejectsUnsortedRow: the index build refuses a row whose columns
// are out of order, since the triangular solves read a row's lower part
// as the slots before its diagonal.
func TestILU0RejectsUnsortedRow(t *testing.T) {
	p := &PCBJacobiILU0{
		n:      3,
		indptr: []int32{0, 2, 5, 7},
		cols:   []int32{0, 1, 2, 0, 1, 1, 2}, // row 1 is {2, 0, 1}
		lu:     []float64{4, 1, 1, 4, 1, 1, 4},
		diag:   make([]int32, 3),
	}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "row 1") || !strings.Contains(msg, "not sorted") {
			t.Fatalf("buildIndex on an unsorted row: recovered %q, want a 'row 1 ... not sorted' panic", msg)
		}
	}()
	p.buildIndex()
}
