package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// hostRecord identifies where and on what code a result was measured.
type hostRecord struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	// Commit is the git revision of the measured tree, "none" outside a
	// git checkout; SourceSHA256 identifies the tree either way.
	Commit       string `json:"commit"`
	SourceSHA256 string `json:"source_sha256"`
}

func host(w workload, root string) hostRecord {
	return hostRecord{
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   w.procs(),
		CPUModel:     cpuModel(),
		GoVersion:    runtime.Version(),
		Commit:       gitCommit(root),
		SourceSHA256: sourceDigest(root),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func gitCommit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "none"
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes every Go source and go.mod file under root, in path
// order, skipping hidden directories (build output lives there).
func sourceDigest(root string) string {
	var paths []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s\x00", rel)
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))
}

// cpuTicks reads the host's total and stolen CPU time (in clock ticks)
// from /proc/stat; a hypervisor that runs other guests on our CPUs shows
// up as steal, and slows every timing in the run.
func cpuTicks() (total, steal int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user.
	for _, f := range fields[1:9] {
		v, _ := strconv.ParseInt(f, 10, 64)
		total += v
	}
	steal, _ = strconv.ParseInt(fields[8], 10, 64)
	return total, steal
}

// streamResult is the host's sustainable memory bandwidth: the best of
// several STREAM triad passes a[i] = b[i] + s*c[i] over arrays each at
// least four times the last-level cache, counting 24 bytes per element.
type streamResult struct {
	LLCBytes   int64   `json:"llc_bytes"`
	ArrayBytes int64   `json:"array_bytes"`
	Threads    int     `json:"threads"`
	TriadGBs   float64 `json:"triad_gbs"`
}

// streamPasses is the number of timed triad passes; the best counts.
const streamPasses = 5

func streamTriad() (streamResult, error) {
	llc := lastLevelCache()
	if llc <= 0 {
		return streamResult{}, fmt.Errorf("stream: cannot read the last-level cache size")
	}
	n := int(4 * llc / 8)
	res := streamResult{LLCBytes: llc, ArrayBytes: int64(n) * 8, Threads: runtime.GOMAXPROCS(0)}
	a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
	const scalar = 3.0
	parallel(res.Threads, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			a[i], b[i], c[i] = 0, 1, 2
		}
	})
	best := math.Inf(1)
	for pass := 0; pass < streamPasses; pass++ {
		t0 := time.Now()
		parallel(res.Threads, n, func(lo, hi int) {
			aa, bb, cc := a[lo:hi], b[lo:hi], c[lo:hi]
			for i := range aa {
				aa[i] = bb[i] + scalar*cc[i]
			}
		})
		best = min(best, time.Since(t0).Seconds())
	}
	for _, i := range []int{0, n / 2, n - 1} {
		if a[i] != 1+scalar*2 {
			return res, fmt.Errorf("stream: triad result a[%d] = %g, want %g", i, a[i], 1+scalar*2)
		}
	}
	res.TriadGBs = 24 * float64(n) / best / 1e9
	return res, nil
}

// parallel splits [0, n) into one contiguous chunk per worker and waits
// for all of them.
func parallel(workers, n int, f func(lo, hi int)) {
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*n/workers, (w+1)*n/workers
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(lo, hi)
		}()
	}
	wg.Wait()
}

// lastLevelCache returns the size in bytes of the highest-level cache
// cpu0 reports, 0 if unknown.
func lastLevelCache() int64 {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	bestLevel, size := -1, int64(0)
	for _, d := range dirs {
		lv, err1 := os.ReadFile(filepath.Join(d, "level"))
		sz, err2 := os.ReadFile(filepath.Join(d, "size"))
		if err1 != nil || err2 != nil {
			continue
		}
		level, err := strconv.Atoi(strings.TrimSpace(string(lv)))
		if err != nil || level < bestLevel {
			continue
		}
		if b := parseSize(strings.TrimSpace(string(sz))); b > 0 {
			bestLevel, size = level, b
		}
	}
	return size
}

// parseSize reads a sysfs cache size such as "107520K".
func parseSize(s string) int64 {
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	case strings.HasSuffix(s, "G"):
		mult, s = 1<<30, strings.TrimSuffix(s, "G")
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0
	}
	return v * mult
}
