// Command perfbench is the repository's benchmark: the CPU cost of
// simulated page loads on three workloads (mux-3g, http-wifi,
// sweep-lossy-lte), checked for correct output and split by layer in a
// separate traced run. See README.md.
//
//	bash perfbench/run.sh --workload mux-3g --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"time"

	"spdier/internal/fabric"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a run's metrics and output-check tallies.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Printed   map[string]metric `json:"-"` // printedOnly metrics
}

// printedOnly are metrics printed for people but left out of the result
// line. The first three read 0 on every healthy run, and a failure
// already shows in attempted and failed; stats folding happens in the
// sweep's workers, outside the profiled runs; wall-clock page_loads_per_s
// follows the shared host's load and does not repeat within a tenth.
var printedOnly = map[string]bool{
	"browser.incomplete_per_page": true,
	"fabric.respawns":             true,
	"fabric.fallbacks":            true,
	"stats.self_ms_per_run":       true,
	"page_loads_per_s":            true,
}

func newReport() *report {
	return &report{Metrics: map[string]metric{}, Printed: map[string]metric{}}
}

func (r *report) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	if printedOnly[name] {
		r.Printed[name] = metric{Value: v, Unit: unit}
		return
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func main() {
	if os.Getenv(workerEnv) == "1" {
		os.Exit(mainWorker())
	}
	os.Exit(run())
}

// mainWorker is the fabric worker mode of this binary.
func mainWorker() int { return fabric.WorkerMain(os.Stdin, os.Stdout) }

func run() int {
	start := time.Now()
	name := flag.String("workload", "", "workload: mux-3g, http-wifi or sweep-lossy-lte")
	seed := flag.Uint64("seed", defaultSeed, "input seed")
	seconds := flag.Float64("seconds", 25, "length of the timed loop, seconds")
	traceOn := flag.Int("trace", 0, "1 runs the traced run: per-layer metrics instead of end-to-end ones")
	pin := flag.Bool("pin", false, "write this workload's digests for the default seed to "+pinnedFile+" and exit")
	flag.Parse()

	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *traceOn != 0 && *traceOn != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if *pin {
		*seed = defaultSeed
	}

	var pinned map[string]string
	if !*pin {
		var err error
		if pinned, err = loadPinned(w.name); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	book := newDigestBook(nil)
	if *seed == defaultSeed {
		book = newDigestBook(pinned)
	}
	tr := newTracer(*traceOn == 1)
	host := stampHost()
	hj, _ := json.Marshal(host)
	fmt.Printf("host %s\n", hj)
	fmt.Printf("workload %s seed %d seconds %g trace %d\n", w.name, *seed, *seconds, *traceOn)

	rep := newReport()
	var failures []string
	var digests map[string]string
	if w.sweep {
		o, err := runSweep(w, *seed, *seconds, book, tr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		if *traceOn == 1 {
			if err := tracedSweep(w, o, tr, rep); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench:", err)
				return 1
			}
		} else {
			sweepMetrics(o, rep)
		}
		rep.Attempted, rep.Failed, failures, digests = o.attempted, o.failed, o.failures, o.digests
	} else {
		o := runSerial(w, *seed, *seconds, book, tr)
		if *traceOn == 1 {
			if err := tracedSerial(w, o, tr, rep); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench:", err)
				return 1
			}
		} else {
			serialMetrics(o, rep)
		}
		rep.Attempted, rep.Failed, failures, digests = o.attempted, o.failed, o.failures, o.digests
	}
	spot, spotFailures := spotCheck(w, pinned)
	rep.Attempted += len(w.arms)
	rep.Failed += len(spotFailures)
	failures = append(failures, spotFailures...)
	for k, d := range spot {
		digests[k] = d
	}
	if *pin {
		if len(failures) > 0 {
			fmt.Fprintln(os.Stderr, "perfbench: not pinning, outputs disagree:", failures[0])
			return 1
		}
		if err := writePinned(pinnedFile, w.name, digests); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		fmt.Printf("pinned %d digests for %s in %s\n", len(digests), w.name, pinnedFile)
		return 0
	}
	if err := tr.write(fmt.Sprintf(".bench_build/spans-%s-seed%d.jsonl", w.name, *seed)); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
	}
	for i, f := range failures {
		if i == 10 {
			fmt.Printf("check: ... %d more\n", len(failures)-i)
			break
		}
		fmt.Printf("check FAILED: %s\n", f)
	}
	fmt.Printf("fail_frac %.6f (%d of %d runs)\n", float64(rep.Failed)/float64(max(rep.Attempted, 1)), rep.Failed, rep.Attempted)
	fmt.Printf("process wall %.1f s\n", time.Since(start).Seconds())
	rep.Correct = rep.Failed == 0 && rep.Attempted > 0
	printMetrics(rep)
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// printMetrics lists every metric by name with its unit, the printed-only
// ones marked.
func printMetrics(rep *report) {
	for _, set := range []struct {
		ms   map[string]metric
		mark string
	}{{rep.Metrics, ""}, {rep.Printed, " (printed only)"}} {
		names := make([]string, 0, len(set.ms))
		for n := range set.ms {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			m := set.ms[n]
			fmt.Printf("  %-36s %14.6g %s%s\n", n, m.Value, m.Unit, set.mark)
		}
	}
}

// cpuPercentiles reports run_cpu_ms_p50 and run_cpu_ms_p90 with their
// sample count.
func cpuPercentiles(rep *report, cpuMS []float64, source string) {
	n := len(cpuMS)
	p, ok := percentileName(n)
	rep.set("run_cpu_ms_p50", "ms", median(cpuMS))
	if ok && p == 90 {
		rep.set("run_cpu_ms_p90", "ms", quantile(cpuMS, 0.9))
	} else {
		// Fewer than 100 runs cannot support p90; report the highest
		// percentile they do support under the fixed name, and say so.
		rep.set("run_cpu_ms_p90", "ms", quantile(cpuMS, float64(p)/100))
		fmt.Printf("warning: %d runs support only p%d; run_cpu_ms_p90 holds p%d\n", n, p, p)
	}
	fmt.Printf("run_cpu_ms percentiles over n=%d runs (%s)\n", n, source)
}

func serialMetrics(o *serialOutcome, rep *report) {
	cpuMS := make([]float64, 0, len(o.runs))
	for _, r := range o.runs {
		cpuMS = append(cpuMS, float64(r.cpu)/1e6)
	}
	rss, _ := peakRSSMB(0)
	rep.set("page_loads_per_cpu_s", "pages/CPU-s", float64(o.pages)/o.cpu.Seconds())
	cpuPercentiles(rep, cpuMS, "timed loop")
	rep.set("alloc_mb_per_page", "MB", float64(o.allocBytes)/1e6/float64(o.pages))
	rep.set("peak_rss_mb", "MB", rss)
	rep.set("page_loads_per_s", "pages/s", float64(o.pages)/o.wall.Seconds())
	rep.set("setup_s", "s", median(o.setup))
	fmt.Printf("timed loop: %d runs, %d pages, %.2f CPU-s, %.2f s wall, setup rounds %v CPU-s\n",
		len(o.runs), o.pages, o.cpu.Seconds(), o.wall.Seconds(), o.setup)
}

// armScaled pools per-run CPU times of several arms after scaling each
// arm's runs to the mean over all runs. On the sweep's lossy LTE path
// an h2 or quic run costs about half an http or spdy run; a plain median
// of the pooled runs falls in the gap between the two groups and jumps
// with their tails, while the scaled pool keeps each arm's run-to-run
// spread around one centre.
func armScaled(byArm [][]float64) []float64 {
	var all []float64
	for _, xs := range byArm {
		all = append(all, xs...)
	}
	mean := func(xs []float64) float64 {
		var s float64
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	m := mean(all)
	var out []float64
	for _, xs := range byArm {
		k := m / mean(xs)
		for _, x := range xs {
			out = append(out, x*k)
		}
	}
	return out
}

func sweepMetrics(o *sweepOutcome, rep *report) {
	rep.set("page_loads_per_cpu_s", "pages/CPU-s", float64(o.pages)/o.cpu.Seconds())
	cpuPercentiles(rep, armScaled(o.refCPUms), "in-process reference fold, each arm scaled to the common mean")
	rep.set("alloc_mb_per_page", "MB", float64(o.refAlloc)/1e6/float64(o.refPages))
	rep.set("peak_rss_mb", "MB", o.peakRSS)
	rep.set("page_loads_per_s", "pages/s", float64(o.pages)/o.wall.Seconds())
	rep.set("setup_s", "s", median(o.setup))
	fmt.Printf("timed loop: %d sweeps of %d runs over %d workers, %d pages, %.2f CPU-s, %.2f s wall; setup rounds %v CPU-s; reference fold %.1f s\n",
		len(o.sweeps), o.harness.Runs, o.workers, o.pages, o.cpu.Seconds(), o.wall.Seconds(), o.setup, o.refSeconds)
}
