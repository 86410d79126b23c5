package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"

	"proteus/internal/scenario"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, set := range [][]metric{endToEnd, perLayer} {
		for _, m := range set {
			if !nameRE.MatchString(m.Name) {
				t.Errorf("metric name %q does not match %s", m.Name, nameRE)
			}
			if !unitRE.MatchString(m.Unit) {
				t.Errorf("metric %s: unit %q does not match %s", m.Name, m.Unit, unitRE)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("metric %s: better = %q", m.Name, m.Better)
			}
			if seen[m.Name] {
				t.Errorf("metric %s declared twice", m.Name)
			}
			seen[m.Name] = true
		}
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.Name) || seen[w.Name] {
			t.Errorf("bad or duplicate workload name %q", w.Name)
		}
		seen[w.Name] = true
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the tables the
// program reports from in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metric                `json:"end_to_end"`
		PerLayer  []metric                `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	var steady []string
	for _, w := range workloads {
		if w.Unsteady == "" {
			steady = append(steady, w.Name)
		}
	}
	if len(bj.Workloads) != len(steady) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d steady ones", len(bj.Workloads), len(steady))
	}
	for i, name := range steady {
		if bj.Workloads[i].Name != name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, bj.Workloads[i].Name, name)
		}
	}
	for _, c := range []struct {
		name      string
		json, src []metric
	}{{"end_to_end", bj.EndToEnd, endToEnd}, {"per_layer", bj.PerLayer, perLayer}} {
		if len(c.json) != len(c.src) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", c.name, len(c.json), len(c.src))
		}
		for i := range c.src {
			if c.json[i] != c.src[i] {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", c.name, i, c.json[i], c.src[i])
			}
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{10, 0}, {20, 50}, {30, 66}, {60, 83}, {80, 87}, {160, 93}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(i)
		}
		if c.n > 10 {
			if beyond := float64(c.n-1) - quantile(xs, c.want/100); beyond < 10 {
				t.Errorf("n=%d: %v samples beyond the tail percentile, want >= 10", c.n, beyond)
			}
		}
	}
}

// smoke shrinks a workload to its smoke preset and a few steps.
func smoke(t *testing.T, name string, steps int) workload {
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	w.Preset, w.Steps = scenario.Smoke, steps
	if w.CkptEvery > 0 {
		w.CkptEvery = 2
	}
	return w
}

// TestTracedRunAccountsForItsWall checks, on every workload at smoke
// size, that the traced run's timed layer calls and fences sum to its
// wall within unattributedEps, that it does the untraced run's work,
// and that every per-layer metric is computed.
func TestTracedRunAccountsForItsWall(t *testing.T) {
	for _, name := range []string{"bubble2d", "jet3d", "rti-gmg", "swirl-serial"} {
		t.Run(name, func(t *testing.T) {
			w := smoke(t, name, 6)
			plain := runRep(w, 7, t.TempDir(), false)
			traced := runRep(w, 7, t.TempDir(), true)
			for _, r := range []repResult{plain, traced} {
				if r.Err != "" {
					t.Fatal(r.Err)
				}
				if f := r.Check.failure(); f != "" {
					t.Fatal(f)
				}
			}
			if plain.Work != traced.Work {
				t.Errorf("traced work %+v, untraced %+v", traced.Work, plain.Work)
			}
			tr := traced.Trace
			if u := tr.unattributedMs(); math.Abs(u) > unattributedEps*tr.WallMs {
				t.Errorf("%.3f ms of %.3f ms unattributed", u, tr.WallMs)
			}
			vals := layerMetrics(traced, plain.RunS, streamResult{TriadGBs: 1})
			for _, m := range perLayer {
				if _, ok := vals[m.Name]; !ok {
					t.Errorf("per-layer metric %s not computed", m.Name)
				}
			}
			if w.Ranks == 1 {
				for k, v := range vals {
					if len(k) > 4 && k[:4] == "par." && v != 0 {
						t.Errorf("%s = %v on a 1-rank workload", k, v)
					}
				}
			} else if vals["par.bytes.ch"] == 0 {
				t.Errorf("par.bytes.ch = 0 on a %d-rank workload", w.Ranks)
			}
			if w.CkptEvery > 0 && (vals["ckpt.bytes"] == 0 || tr.RestoreRanks == 0) {
				t.Errorf("checkpoint layer idle: %v bytes, restored at %d ranks", vals["ckpt.bytes"], tr.RestoreRanks)
			}
		})
	}
}

// TestTracedRunKeepsTheRetryLadder checks that the traced run recovers
// from swirl-serial's Newton stalls exactly as RunUntil does.
func TestTracedRunKeepsTheRetryLadder(t *testing.T) {
	if testing.Short() {
		t.Skip("bench-size run")
	}
	w, err := findWorkload("swirl-serial")
	if err != nil {
		t.Fatal(err)
	}
	plain := runRep(w, 0, t.TempDir(), false)
	traced := runRep(w, 0, t.TempDir(), true)
	if plain.Err != "" || traced.Err != "" {
		t.Fatalf("untraced: %q, traced: %q", plain.Err, traced.Err)
	}
	if plain.Work.Retries == 0 {
		t.Fatal("swirl-serial no longer retries; pick another workload for this test")
	}
	if plain.Work != traced.Work {
		t.Errorf("traced work %+v, untraced %+v", traced.Work, plain.Work)
	}
}

// TestSeedShiftsInterface checks that seed 0 is the registered case and
// other seeds shift it by at most shiftFrac of the finest cell per axis.
func TestSeedShiftsInterface(t *testing.T) {
	for _, w := range workloads {
		sc, _ := scenario.Get(w.Scenario)
		ref := sc.Build(w.Preset)
		_, sp0, err := w.spec(0)
		if err != nil {
			t.Fatal(err)
		}
		_, sp1, _ := w.spec(1)
		_, sp1b, _ := w.spec(1)
		x, y, z := 0.41, 0.52, 0.47
		if sp0.Phi0(x, y, z) != ref.Phi0(x, y, z) {
			t.Errorf("%s: seed 0 changed the initial interface", w.Name)
		}
		if sp1.Phi0(x, y, z) != sp1b.Phi0(x, y, z) {
			t.Errorf("%s: seed 1 is not reproducible", w.Name)
		}
		dx, dy, dz := w.offset(1, ref)
		h := math.Ldexp(1, -max(ref.Config.InterfaceLevel, ref.Config.FineLevel))
		if math.Max(math.Abs(dx), math.Max(math.Abs(dy), math.Abs(dz))) > shiftFrac*h || dx == 0 {
			t.Errorf("%s: offset (%g, %g, %g) is not a sub-cell shift (h = %g)", w.Name, dx, dy, dz, h)
		}
	}
}
