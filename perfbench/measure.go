package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuNow returns the CPU time (user + system) this process has used.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// clockTicks is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// times. It is 100 on every Linux architecture Go supports.
const clockTicks = 100

// procCPU returns the CPU time (user + system) of another process from
// /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3.
	s := string(data)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unparsable /proc/%d/stat", pid)
	}
	return time.Duration(utime+stime) * time.Second / clockTicks, nil
}

// peakRSSMB reads VmHWM (peak resident set) of a process in MiB; pid 0
// means this process.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", path)
}

// totalAlloc returns the cumulative bytes allocated on the heap.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// gcCPU samples the runtime's estimate of GC CPU time and total CPU
// time available to Go, both in CPU-seconds.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 || s[1].Value.Kind() != metrics.KindFloat64 {
		return 0, 0
	}
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// percentileName picks the highest percentile with at least ten samples
// beyond it, capped at p90. ok is false when even the median lacks ten
// samples beyond it (fewer than 20 samples).
func percentileName(n int) (p int, ok bool) {
	for _, c := range []int{90, 80, 75, 50} {
		if float64(n)*float64(100-c)/100 >= 10 {
			return c, true
		}
	}
	return 0, false
}

// quantile returns the Harrell-Davis estimate of the q-quantile (0 <
// q < 1) of xs, which need not be sorted: a Beta-weighted mean of all
// order statistics. Unlike the single order statistic, it does not jump
// when the quantile falls in a gap between the arms of a mixed workload.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := float64(len(s))
	a, b := q*(n+1), (1-q)*(n+1)
	var est, prev float64
	for i, x := range s {
		cur := betaInc(a, b, float64(i+1)/n)
		est += (cur - prev) * x
		prev = cur
	}
	return est
}

// betaInc is the regularized incomplete beta function I_x(a, b).
func betaInc(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log1p(-x))
	if x < (a+1)/(a+b+2) {
		return front * betaFrac(a, b, x) / a
	}
	return 1 - front*betaFrac(b, a, 1-x)/b
}

// betaFrac evaluates the continued fraction of the incomplete beta
// function by the modified Lentz method.
func betaFrac(a, b, x float64) float64 {
	const tiny = 1e-300
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1.0; m <= 1000; m++ {
		aa := m * (b - m) * x / ((a + 2*m - 1) * (a + 2*m))
		d = 1 / clamp(1+aa*d)
		c = clamp(1 + aa/c)
		h *= d * c
		aa = -(a + m) * (a + b + m) * x / ((a + 2*m) * (a + 2*m + 1))
		d = 1 / clamp(1+aa*d)
		c = clamp(1 + aa/c)
		del := d * c
		h *= del
		if math.Abs(del-1) < 1e-14 {
			break
		}
	}
	return h
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// hostStamp describes the machine and build a result came from, so
// numbers from different hosts or revisions cannot be compared unnoticed.
type hostStamp struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Revision   string `json:"vcs_revision"`
	Dirty      bool   `json:"vcs_dirty"`
}

func stampHost() hostStamp {
	h := hostStamp{
		CPUModel:   "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Revision:   "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	fromBuild := false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Revision, fromBuild = s.Value, true
			case "vcs.modified":
				h.Dirty = s.Value == "true"
			}
		}
	}
	if !fromBuild {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			h.Revision = strings.TrimSpace(string(out))
			if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil {
				h.Dirty = len(strings.TrimSpace(string(st))) > 0
			}
		}
	}
	return h
}
