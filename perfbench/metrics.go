package main

import (
	"math"
	"sort"
)

// metric is one reported number, as BENCHMARK.json lists it. Bound
// (end-to-end only) is the share of the parent's median by which it may
// worsen. README.md names the end-to-end metric each per-layer metric
// should move.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the solver sees, measured untraced.
var endToEnd = []metric{
	{Name: "run_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "step_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "step_ms_tail", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "dof_steps_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "peak_mem_mb", Unit: "MB", Better: "lower", Bound: 0.15},
	{Name: "step_success_frac", Unit: "fraction", Better: "higher", Bound: 0.05},
}

// perLayer are the traced run's per-layer metrics, in README.md order.
var perLayer = []metric{
	{Name: "core.wall_ms", Unit: "ms", Better: "lower"},
	{Name: "core.adapt_ms", Unit: "ms", Better: "lower"},
	{Name: "core.adapt_rounds", Unit: "count", Better: "lower"},
	{Name: "core.mesh_changes", Unit: "count", Better: "lower"},
	{Name: "core.first_step_ms", Unit: "ms", Better: "lower"},
	{Name: "core.retries", Unit: "count", Better: "lower"},
	{Name: "core.recovery_ms", Unit: "ms", Better: "lower"},
	{Name: "core.fence_ms", Unit: "ms", Better: "lower"},
	{Name: "core.unattributed_ms", Unit: "ms", Better: "lower"},
	{Name: "core.trace_overhead", Unit: "ratio", Better: "lower"},
	{Name: "remesh.incr_build_rounds", Unit: "count", Better: "higher"},
	{Name: "remesh.migrate_build_rounds", Unit: "count", Better: "higher"},
	{Name: "remesh.full_build_rounds", Unit: "count", Better: "lower"},
	{Name: "remesh.dirty_fraction", Unit: "fraction", Better: "lower"},
	{Name: "chns.ch_ms", Unit: "ms", Better: "lower"},
	{Name: "chns.ns_ms", Unit: "ms", Better: "lower"},
	{Name: "chns.pp_ms", Unit: "ms", Better: "lower"},
	{Name: "chns.vu_ms", Unit: "ms", Better: "lower"},
	{Name: "chns.newton_iters", Unit: "count", Better: "lower"},
	{Name: "chns.ch_ms_per_newton", Unit: "ms", Better: "lower"},
	{Name: "la.ch_iters", Unit: "count", Better: "lower"},
	{Name: "la.ns_iters", Unit: "count", Better: "lower"},
	{Name: "la.pp_iters", Unit: "count", Better: "lower"},
	{Name: "la.vu_iters", Unit: "count", Better: "lower"},
	{Name: "la.pc_rows_kept", Unit: "count", Better: "higher"},
	{Name: "la.pc_rows_rebuilt", Unit: "count", Better: "lower"},
	{Name: "mg.levels_reused", Unit: "count", Better: "higher"},
	{Name: "mg.levels_patched", Unit: "count", Better: "higher"},
	{Name: "par.bytes.adapt", Unit: "B", Better: "lower"},
	{Name: "par.bytes.ch", Unit: "B", Better: "lower"},
	{Name: "par.bytes.ns", Unit: "B", Better: "lower"},
	{Name: "par.bytes.pp", Unit: "B", Better: "lower"},
	{Name: "par.bytes.vu", Unit: "B", Better: "lower"},
	{Name: "par.msgs.adapt", Unit: "count", Better: "lower"},
	{Name: "par.msgs.ch", Unit: "count", Better: "lower"},
	{Name: "par.msgs.ns", Unit: "count", Better: "lower"},
	{Name: "par.msgs.pp", Unit: "count", Better: "lower"},
	{Name: "par.msgs.vu", Unit: "count", Better: "lower"},
	{Name: "ckpt.write_ms", Unit: "ms", Better: "lower"},
	{Name: "ckpt.bytes", Unit: "B", Better: "lower"},
	{Name: "ckpt.restore_ms", Unit: "ms", Better: "lower"},
	{Name: "go.allocs_per_step", Unit: "count", Better: "lower"},
	{Name: "go.alloc_bytes_per_step", Unit: "B", Better: "lower"},
	{Name: "go.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "host.stream_triad_gbs", Unit: "GB/s", Better: "higher"},
}

// unattributedEps bounds |core.unattributed_ms| as a share of the traced
// wall.
const unattributedEps = 0.01

// spanMetrics maps a span to the suffix its par.* metrics use.
var spanMetrics = map[string]string{
	spanAdapt: "adapt", spanCH: "ch", spanNS: "ns", spanPP: "pp", spanVU: "vu",
}

// layerMetrics turns a traced rep into the per-layer metric values.
// untracedRunS is the median untraced run_s of the same run.
func layerMetrics(r repResult, untracedRunS float64, stream streamResult) map[string]float64 {
	t := r.Trace
	m := map[string]float64{
		"core.wall_ms":                t.WallMs,
		"core.adapt_ms":               t.SpanMs[spanAdapt],
		"core.adapt_rounds":           float64(t.AdaptRounds),
		"core.mesh_changes":           float64(r.Work.MeshChanges),
		"core.first_step_ms":          t.FirstStepMs,
		"core.retries":                float64(r.Work.Retries),
		"core.recovery_ms":            t.SpanMs[spanRecovery],
		"core.fence_ms":               t.FenceMs,
		"core.unattributed_ms":        t.unattributedMs(),
		"core.trace_overhead":         r.RunS / untracedRunS,
		"remesh.incr_build_rounds":    float64(t.IncrBuild),
		"remesh.migrate_build_rounds": float64(t.MigrateBuild),
		"remesh.full_build_rounds":    float64(t.FullBuild),
		"remesh.dirty_fraction":       t.DirtyFraction,
		"chns.ch_ms":                  t.SpanMs[spanCH],
		"chns.ns_ms":                  t.SpanMs[spanNS],
		"chns.pp_ms":                  t.SpanMs[spanPP],
		"chns.vu_ms":                  t.SpanMs[spanVU],
		"chns.newton_iters":           float64(t.NewtonIters),
		"la.ch_iters":                 float64(t.KrylovIters[spanCH]),
		"la.ns_iters":                 float64(t.KrylovIters[spanNS]),
		"la.pp_iters":                 float64(t.KrylovIters[spanPP]),
		"la.vu_iters":                 float64(t.KrylovIters[spanVU]),
		"la.pc_rows_kept":             float64(t.PCRowsKept),
		"la.pc_rows_rebuilt":          float64(t.PCRowsRebuilt),
		"mg.levels_reused":            float64(t.MGLevelsReused),
		"mg.levels_patched":           float64(t.MGLevelsPatched),
		"ckpt.write_ms":               t.SpanMs[spanCkpt],
		"ckpt.bytes":                  float64(t.CkptBytes),
		"ckpt.restore_ms":             t.RestoreMs,
		"go.gc_cycles":                float64(t.GCCycles),
		"host.stream_triad_gbs":       stream.TriadGBs,
	}
	// Ratios over an empty sample read 0.
	m["chns.ch_ms_per_newton"] = finite(t.SpanMs[spanCH] / float64(t.NewtonIters))
	m["go.allocs_per_step"] = finite(float64(t.Allocs) / float64(t.WarmSteps))
	m["go.alloc_bytes_per_step"] = finite(float64(t.AllocBytes) / float64(t.WarmSteps))
	for span, suffix := range spanMetrics {
		m["par.bytes."+suffix] = float64(t.SpanBytes[span])
		m["par.msgs."+suffix] = float64(t.SpanMsgs[span])
	}
	return m
}

// tailPercentile is the highest whole percentile with at least ten of n
// samples beyond it. A run fixes n from its minimum rep count, so the
// percentile does not shift with how many reps fit in the time budget.
func tailPercentile(n int) float64 {
	if n <= 10 {
		return 0
	}
	return math.Floor(100 * float64(n-10) / float64(n))
}

// quantile is the nearest-rank q-quantile (0 < q <= 1) of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// median is the midpoint median of xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
