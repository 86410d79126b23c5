// Command perfbench is the repository's benchmark: it builds one CHNS
// workload through the public scenario/core API, runs it for a time
// budget in child processes (one simulation per child, so peak memory is
// the workload's own), checks the results, and prints the end-to-end
// metrics or, with --trace 1, the per-layer ledger of a separate traced
// run. The last line of standard output is the result object.
//
//	bash perfbench/run.sh --workload bubble2d --seed 0 --seconds 40 --trace 0
//
// See README.md for the workloads and metrics.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

// hardLimit bounds a whole run, which must end within 180 s.
const hardLimit = 170 * time.Second

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Uint64("seed", 0, "input seed (0: the registered case)")
	seconds := flag.Int("seconds", 40, "measurement budget in seconds")
	trace := flag.Int("trace", 0, "1: report the per-layer metrics of a traced run")
	root := flag.String("root", ".", "root of the source tree (for the host record)")
	state := flag.String("state", ".bench_build/perfbench", "directory for work files and the previous run's counts")
	child := flag.String("child", "", "internal: run one rep (untraced|traced) or the bandwidth probe (stream) and print it as JSON")
	workDir := flag.String("workdir", "", "internal: the child's work directory")
	flag.Parse()

	if *child != "" {
		if err := runChild(*child, *name, *seed, *workDir); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	w, err := findWorkload(*name)
	if err != nil {
		fail(err)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fail(fmt.Errorf("want --seconds >= 1 and --trace 0|1"))
	}
	r := &runner{w: w, seed: *seed, budget: time.Duration(*seconds) * time.Second, state: *state}
	out, err := r.run(*trace == 1, *root)
	if err != nil {
		fail(err)
	}
	fmt.Println(out)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

// runChild is the body of a child process: it prints one JSON object.
func runChild(mode, name string, seed uint64, workDir string) error {
	var v any
	switch mode {
	case "stream":
		s, err := streamTriad()
		if err != nil {
			return err
		}
		v = s
	case "untraced", "traced":
		w, err := findWorkload(name)
		if err != nil {
			return err
		}
		if err := os.MkdirAll(workDir, 0o755); err != nil {
			return err
		}
		defer os.RemoveAll(workDir)
		v = runRep(w, seed, workDir, mode == "traced")
	default:
		return fmt.Errorf("unknown child mode %q", mode)
	}
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", b)
	return err
}

// runner drives one benchmark run from the parent process.
type runner struct {
	w      workload
	seed   uint64
	budget time.Duration
	state  string
	start  time.Time
	ctx    context.Context
}

// result is the last line of standard output, the one callers parse.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// detail is the line before the result: everything a reader needs to
// trust or reproduce the numbers.
type detail struct {
	Workload string     `json:"workload"`
	Seed     uint64     `json:"seed"`
	Host     hostRecord `json:"host"`
	// StealFrac is the share of the host's CPU time stolen by the
	// hypervisor during the run.
	StealFrac      float64       `json:"steal_frac"`
	Reps           int           `json:"reps"`
	RepRunS        []float64     `json:"rep_run_s"`
	TailPercentile float64       `json:"tail_percentile"`
	StepSamples    int           `json:"step_samples"`
	FailedStepFrac float64       `json:"failed_step_frac"`
	Work           workCounts    `json:"work"`
	Checks         []checks      `json:"checks"`
	Problems       []string      `json:"problems,omitempty"`
	Notes          []string      `json:"notes,omitempty"`
	WorkChanged    string        `json:"work_changed_since_previous_run,omitempty"`
	Stream         *streamResult `json:"stream,omitempty"`
	Trace          *traceResult  `json:"trace,omitempty"`
}

func (r *runner) run(traced bool, root string) (string, error) {
	r.start = time.Now()
	ctx, cancel := context.WithDeadline(context.Background(), r.start.Add(hardLimit))
	defer cancel()
	r.ctx = ctx
	if err := os.MkdirAll(r.state, 0o755); err != nil {
		return "", err
	}
	det := detail{Workload: r.w.Name, Seed: r.seed, Host: host(r.w, root)}
	total0, steal0 := cpuTicks()
	var reps []repResult
	var repWall time.Duration
	minReps := r.w.MinReps
	if traced {
		minReps = 1
	}
	// Untraced reps fill the budget; a traced run keeps room for one
	// traced rep (about two untraced ones) and the bandwidth probe.
	for {
		if n := len(reps); n >= minReps {
			est := repWall / time.Duration(n)
			reserve := time.Duration(0)
			if traced {
				reserve = 2*est + 3*time.Second
			}
			if time.Since(r.start)+est+reserve > r.budget {
				break
			}
		}
		t0 := time.Now()
		rep, err := r.spawn("untraced")
		if err != nil {
			return "", err
		}
		repWall += time.Since(t0)
		reps = append(reps, rep)
	}
	res := result{Metrics: map[string]metricJSON{}}
	e2e := r.summarize(reps, &res, &det)
	if traced {
		tr, err := r.spawn("traced")
		if err != nil {
			return "", err
		}
		var stream streamResult
		if err := r.spawnJSON("stream", runtime.NumCPU(), "", &stream, nil); err != nil {
			// The probe needs three arrays of 4x the last-level cache; a
			// host without that memory still gets its per-layer ledger.
			det.Notes = append(det.Notes, "bandwidth probe: "+err.Error())
		}
		det.Stream, det.Trace = &stream, tr.Trace
		res.Attempted += r.w.Steps
		res.Failed += r.w.Steps - min(len(tr.StepMs), r.w.Steps)
		if tr.Err != "" {
			det.Problems = append(det.Problems, "traced rep: "+tr.Err)
		}
		if f := tr.Check.failure(); f != "" {
			det.Problems = append(det.Problems, "traced rep: "+f)
		}
		if tr.Work != det.Work {
			det.Problems = append(det.Problems, fmt.Sprintf("traced rep did different work than the untraced reps: %+v vs %+v", tr.Work, det.Work))
		}
		if tr.Err == "" {
			if u := tr.Trace.unattributedMs(); !(math.Abs(u) <= unattributedEps*tr.Trace.WallMs) {
				det.Problems = append(det.Problems, fmt.Sprintf("traced calls leave %.2f ms of %.2f ms unattributed (eps %.0f%%)",
					u, tr.Trace.WallMs, 100*unattributedEps))
			}
			vals := layerMetrics(tr, e2e["run_s"], stream)
			for _, m := range perLayer {
				res.Metrics[m.Name] = metricJSON{Value: finite(vals[m.Name]), Unit: m.Unit}
			}
		}
	} else {
		for _, m := range endToEnd {
			res.Metrics[m.Name] = metricJSON{Value: finite(e2e[m.Name]), Unit: m.Unit}
		}
	}
	res.Correct = len(det.Problems) == 0 && res.Failed == 0
	if len(res.Metrics) == 0 {
		// The traced rep failed; report zeros so the result line still
		// parses.
		for _, m := range perLayer {
			res.Metrics[m.Name] = metricJSON{Unit: m.Unit}
		}
	}
	det.WorkChanged = r.compareWithPrevious(det.Work)
	if total1, steal1 := cpuTicks(); total1 > total0 {
		det.StealFrac = float64(steal1-steal0) / float64(total1-total0)
	}

	b, err := json.Marshal(det)
	if err != nil {
		return "", err
	}
	fmt.Println(string(b))
	for _, pr := range det.Problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED CHECK:", pr)
	}
	if det.WorkChanged != "" {
		fmt.Fprintln(os.Stderr, "perfbench: work changed since the previous run of this workload and seed:", det.WorkChanged)
	}
	out, err := json.Marshal(res)
	return string(out), err
}

// summarize checks the untraced reps and computes the end-to-end metrics
// over the ones that completed. Failed steps and check failures land in
// res and det.
func (r *runner) summarize(reps []repResult, res *result, det *detail) map[string]float64 {
	var setups, steps, runS, rates, mem, success []float64
	first := -1
	for i, rep := range reps {
		res.Attempted += r.w.Steps
		det.Checks = append(det.Checks, rep.Check)
		// A checkpoint fallback replays steps, so OnStep can fire more
		// often than the budget.
		done := min(len(rep.StepMs), r.w.Steps)
		res.Failed += r.w.Steps - done
		// A run that errors counts its remaining steps as failed attempts.
		success = append(success, float64(done)/float64(r.w.Steps+rep.Work.Retries))
		if rep.Err != "" {
			det.Problems = append(det.Problems, fmt.Sprintf("rep %d: %s", i, rep.Err))
			continue
		}
		if f := rep.Check.failure(); f != "" {
			det.Problems = append(det.Problems, fmt.Sprintf("rep %d: %s", i, f))
		}
		if first < 0 {
			first = i
			det.Work = rep.Work
		} else if rep.Work != det.Work {
			det.Problems = append(det.Problems, fmt.Sprintf("rep %d did different work than rep %d: %+v vs %+v", i, first, rep.Work, det.Work))
		}
		setups = append(setups, rep.SetupS...)
		steps = append(steps, rep.StepMs...)
		runS = append(runS, rep.RunS)
		rates = append(rates, rep.DofSteps/rep.RunS)
		mem = append(mem, float64(rep.MaxRSSKB)*1024/1e6)
	}
	p := tailPercentile(r.w.MinReps * r.w.Steps)
	det.Reps, det.RepRunS = len(reps), runS
	det.TailPercentile, det.StepSamples = p, len(steps)
	det.FailedStepFrac = 1 - median(success)
	return map[string]float64{
		"run_s":             median(runS),
		"setup_s":           median(setups),
		"step_ms_p50":       median(steps),
		"step_ms_tail":      quantile(steps, p/100),
		"dof_steps_per_s":   median(rates),
		"peak_mem_mb":       median(mem),
		"step_success_frac": median(success),
	}
}

// finite maps the NaN and infinities of an empty or failed sample to 0,
// which JSON can carry.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// spawn runs one rep in a child process at the workload's GOMAXPROCS and
// adds the child's peak resident memory to its result. A child that
// fails becomes a failed rep; only running out of time is an error.
func (r *runner) spawn(mode string) (repResult, error) {
	rep := repResult{Workload: r.w.Name, Seed: r.seed}
	dir := filepath.Join(r.state, "work", fmt.Sprintf("%d-%s-%d", os.Getpid(), mode, time.Now().UnixNano()))
	var ru syscall.Rusage
	if err := r.spawnJSON(mode, r.w.procs(), dir, &rep, &ru); err != nil {
		if r.ctx.Err() != nil {
			return rep, err
		}
		rep.Err = err.Error()
	}
	rep.MaxRSSKB = ru.Maxrss
	return rep, nil
}

// spawnJSON runs this executable as a child and decodes the last line of
// its standard output into v.
func (r *runner) spawnJSON(mode string, procs int, dir string, v any, ru *syscall.Rusage) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.CommandContext(r.ctx, exe, "-child", mode, "-workload", r.w.Name,
		"-seed", strconv.FormatUint(r.seed, 10), "-workdir", dir)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if dir != "" {
		os.RemoveAll(dir)
	}
	if err != nil {
		if errors.Is(r.ctx.Err(), context.DeadlineExceeded) {
			return fmt.Errorf("child %s exceeded the %v run limit", mode, hardLimit)
		}
		return fmt.Errorf("child %s: %w", mode, err)
	}
	if ru != nil {
		if u, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			*ru = *u
		}
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	return json.Unmarshal(lines[len(lines)-1], v)
}

// compareWithPrevious reports how this run's work differs from the last
// run of the same workload and seed in this checkout, and records it.
func (r *runner) compareWithPrevious(w workCounts) string {
	path := filepath.Join(r.state, fmt.Sprintf("last-%s-seed%d.json", r.w.Name, r.seed))
	var msg string
	if b, err := os.ReadFile(path); err == nil {
		var prev workCounts
		if json.Unmarshal(b, &prev) == nil && prev != w {
			msg = fmt.Sprintf("%+v -> %+v", prev, w)
		}
	}
	if b, err := json.Marshal(w); err == nil {
		if err := os.WriteFile(path, b, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: cannot record work counts:", err)
		}
	}
	return msg
}
