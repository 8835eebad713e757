package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"spdier/internal/browser"
	"spdier/internal/experiment"
	"spdier/internal/fabric"
	"spdier/internal/netem"
	"spdier/internal/sim"
	"spdier/internal/stats"
	"spdier/internal/webpage"
)

// armSpec is one protocol arm: a browser mode plus its session layout.
type armSpec struct {
	name        string
	mode        browser.Mode
	sessions    int
	lateBinding bool
}

var (
	armHTTP    = armSpec{name: "http", mode: browser.ModeHTTP}
	armSPDY    = armSpec{name: "spdy", mode: browser.ModeSPDY}
	armSPDY4LB = armSpec{name: "spdy4lb", mode: browser.ModeSPDY, sessions: 4, lateBinding: true}
	armH2      = armSpec{name: "h2", mode: browser.ModeH2}
	armQUIC    = armSpec{name: "quic", mode: browser.ModeQUIC}

	// allArms are the arms the traced run profiles on every workload.
	allArms = []armSpec{armHTTP, armSPDY, armSPDY4LB, armH2, armQUIC}
)

// lossyImpair is the sweep's seeded Gilbert-Elliott burst loss plus
// reordering.
var lossyImpair = netem.Impairments{GEGoodToBad: 0.01, GEBadToGood: 0.25, GELossBad: 0.4, ReorderProb: 0.01}

// workload is one benchmark input: an access network, the arms it
// cycles through and whether it runs serially or as a fabric sweep.
type workload struct {
	name    string
	network experiment.NetworkKind
	lossy   bool // lossyImpair plus TLP, RACK and F-RTO
	arms    []armSpec
	sweep   bool
}

var workloads = []workload{
	{name: "mux-3g", network: experiment.Net3G, arms: []armSpec{armSPDY, armSPDY4LB, armH2, armQUIC}},
	{name: "http-wifi", network: experiment.NetWiFi, arms: []armSpec{armHTTP}},
	{name: "sweep-lossy-lte", network: experiment.NetLTE, lossy: true, arms: []armSpec{armHTTP, armSPDY, armH2, armQUIC}, sweep: true},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// options is the run configuration of arm a on this workload. Pages are
// left to the caller: serial runs pass generated pages, sweeps pass the
// canonical site list so the fabric can ship them.
func (w workload) options(a armSpec, seed uint64) experiment.Options {
	o := experiment.Options{
		Network:         w.network,
		Mode:            a.mode,
		Seed:            seed,
		LeanProbe:       true,
		SPDYSessions:    a.sessions,
		SPDYLateBinding: a.lateBinding,
	}
	if w.lossy {
		o.Impair = lossyImpair
		o.TLP, o.RACK, o.FRTO = true, true, true
	}
	return o
}

// serialSeeds is how many seeds a serial workload cycles through; every
// (arm, seed) pair repeats within one invocation.
const serialSeeds = 16

// minSerialRuns guarantees the 10 samples beyond p90 that
// run_cpu_ms_p90 needs.
const minSerialRuns = 100

// setupRounds is how many times a run repeats its set-up; setup_s is
// the median of their CPU times.
const setupRounds = 5

// sweepRuns is the number of runs per sweep: two 16-seed shards. It is
// fixed, not scaled with the host's CPUs, because the pinned sweep
// digests cover exactly this many runs; on a host with more than two
// CPUs the extra workers have no shard to fold.
const sweepRuns = 32

// sweepHarness is the sweep workload's harness for the seed argument.
func sweepHarness(seed uint64) experiment.Harness {
	return experiment.Harness{Runs: sweepRuns, Seed: deriveSeeds(seed, 1)[0]}
}

// deriveSeeds expands the seed argument into n simulation seeds.
func deriveSeeds(seed uint64, n int) []uint64 {
	r := sim.NewRNG(seed)
	out := make([]uint64, n)
	for i := range out {
		out[i] = r.Uint64() >> 1
	}
	return out
}

// runOnce executes one run, turning a panic into an error.
func runOnce(opts experiment.Options) (res *experiment.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("run panicked: %v", p)
		}
	}()
	return experiment.Run(opts), nil
}

// runObs is one timed serial run.
type runObs struct {
	arm    string
	key    string // arm/seed
	cpu    time.Duration
	pages  int
	facts  runFacts
	traced bool
}

// serialOutcome is what a serial workload's timed loop measured.
type serialOutcome struct {
	setup      []float64 // CPU seconds per set-up round
	runs       []runObs
	cpu        time.Duration // process CPU over the timed loop
	wall       time.Duration
	pages      int
	allocBytes uint64
	gcFrac     float64
	attempted  int
	failed     int
	failures   []string
	inputs     map[uint64][]*webpage.Page // generated inputs, by seed
	seeds      []uint64
	digests    map[string]string
}

// record counts one attempted run and checks its digest; a run that
// errored or whose digest disagrees counts as failed.
func (o *serialOutcome) record(key string, f runFacts, err error, book *digestBook) bool {
	o.attempted++
	if err == nil {
		d := f.digest()
		o.digests[key] = d
		if err = book.check(key, d); err == nil {
			return true
		}
	}
	o.failed++
	o.failures = append(o.failures, err.Error())
	return false
}

// runSerial sets up and runs a serial workload: one goroutine, runs
// round-robin over the workload's arms, seeds cycling through a fixed
// set.
func runSerial(w workload, seed uint64, seconds float64, book *digestBook, tr *tracer) *serialOutcome {
	out := &serialOutcome{seeds: deriveSeeds(seed, serialSeeds), digests: map[string]string{}}
	check := func(a armSpec, s uint64, res *experiment.Result, err error) (runFacts, bool) {
		var f runFacts
		if err == nil {
			f = factsOf(res)
		}
		return f, out.record(fmt.Sprintf("%s/%d", a.name, s), f, err, book)
	}

	for round := 0; round < setupRounds; round++ {
		runtime.GC()
		c0 := cpuNow()
		pages := map[uint64][]*webpage.Page{}
		for _, s := range out.seeds {
			sp := tr.begin("webpage.generate", 0, 0)
			pages[s] = experiment.GeneratePages(webpage.Table1(), s)
			tr.end(sp)
		}
		// Warm-up: one run per arm on the first seed.
		for _, a := range w.arms {
			opts := w.options(a, out.seeds[0])
			opts.Pages = pages[out.seeds[0]]
			res, err := runOnce(opts)
			check(a, out.seeds[0], res, err)
		}
		out.setup = append(out.setup, (cpuNow() - c0).Seconds())
		out.inputs = pages
	}

	runtime.GC()
	alloc0 := totalAlloc()
	gc0, tot0 := gcCPU()
	cpu0 := cpuNow()
	wall0 := time.Now()
	cycle := len(w.arms) * len(out.seeds)
	// The loop ends on a whole cycle over the arms, so every invocation
	// weighs the arms, whose costs differ by up to 3x, alike.
	for i := 0; i%len(w.arms) != 0 || time.Since(wall0).Seconds() < seconds || i < minSerialRuns; i++ {
		a := w.arms[i%len(w.arms)]
		s := out.seeds[(i/len(w.arms))%len(out.seeds)]
		opts := w.options(a, s)
		opts.Pages = out.inputs[s]
		// In a traced run, whole cycles over every (arm, seed) pair
		// alternate between traced and untraced, so the two halves see
		// the same inputs and their difference is the tracing overhead.
		traced := tr.enabled() && (i/cycle)%2 == 1
		var sp int
		if traced {
			sp = tr.begin("experiment.run", 0, tr.newRun())
		}
		c0 := cpuNow()
		res, err := runOnce(opts)
		c1 := cpuNow()
		if traced && err == nil {
			// The distillation a sweep would do, timed but outside the
			// run's CPU so it does not count as tracing overhead.
			rs := tr.begin("experiment.runstats", sp, tr.runOf(sp))
			experiment.NewRunStats(res)
			tr.end(rs)
		}
		if traced {
			tr.end(sp)
		}
		f, ok := check(a, s, res, err)
		if !ok {
			continue
		}
		pages := len(f.PLTBits) - f.Incomplete
		out.runs = append(out.runs, runObs{arm: a.name, key: fmt.Sprintf("%s/%d", a.name, s), cpu: c1 - c0, pages: pages, facts: f, traced: traced})
		out.pages += pages
	}
	out.wall = time.Since(wall0)
	out.cpu = cpuNow() - cpu0
	gc1, tot1 := gcCPU()
	if tot1 > tot0 {
		out.gcFrac = (gc1 - gc0) / (tot1 - tot0)
	}
	out.allocBytes = totalAlloc() - alloc0
	return out
}

// workerEnv puts a re-exec of this binary into fabric worker mode.
const workerEnv = "PERFBENCH_FABRIC_WORKER"

// newCoordinator starts a fabric coordinator whose workers are re-execs
// of this binary.
func newCoordinator(workers int) (*fabric.Coordinator, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	return fabric.NewCoordinator(fabric.Config{
		Workers:   workers,
		WorkerCmd: []string{exe},
		WorkerEnv: []string{workerEnv + "=1"},
	})
}

// shardObs is one shard the coordinator was offered.
type shardObs struct {
	dur      time.Duration
	remote   bool
	encoded  []byte // the shard's encoded folder, traced runs only
	encodeNS int64
}

// timedExecutor wraps a Coordinator's ExecuteShard to time every shard
// from the benchmark's side.
type timedExecutor struct {
	c      *fabric.Coordinator
	tr     *tracer
	parent int // span the shard spans hang under

	mu     sync.Mutex
	shards []shardObs
}

// Workers exposes the pool size so SweepStream widens its dispatch to
// every worker process, exactly as it does for the bare coordinator.
func (t *timedExecutor) Workers() int { return t.c.Workers() }

func (t *timedExecutor) ExecuteShard(h experiment.Harness, base experiment.Options, shard int, newShard func() experiment.Folder) experiment.Folder {
	sp := t.tr.begin("fabric.shard", t.parent, t.tr.runOf(t.parent))
	t0 := time.Now()
	f := t.c.ExecuteShard(h, base, shard, newShard)
	obs := shardObs{dur: time.Since(t0), remote: f != nil}
	if f != nil && t.tr.enabled() {
		es := t.tr.begin("stats.encode", sp, t.tr.runOf(sp))
		e0 := time.Now()
		b, err := experiment.EncodeFolder(f)
		obs.encodeNS = time.Since(e0).Nanoseconds()
		t.tr.end(es)
		if err == nil {
			obs.encoded = b
		}
	}
	t.tr.end(sp)
	t.mu.Lock()
	t.shards = append(t.shards, obs)
	t.mu.Unlock()
	return f
}

func (t *timedExecutor) take() []shardObs {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.shards
	t.shards = nil
	return s
}

func newPLTFolder() experiment.Folder {
	f, ok := experiment.NewFolder("plt")
	if !ok {
		panic(`folder "plt" is not registered`)
	}
	return f
}

// pltSummary reads the completed-page count and the median PLT out of a
// "plt" folder through its binary encoding: a version byte, then the
// length-prefixed stats.Moments and stats.QuantileSketch blobs.
func pltSummary(f experiment.Folder) (pages int, p50 float64, err error) {
	b, err := experiment.EncodeFolder(f)
	if err != nil {
		return 0, 0, err
	}
	b = b[1:]
	var m stats.Moments
	var q stats.QuantileSketch
	for _, u := range []interface{ UnmarshalBinary([]byte) error }{&m, &q} {
		if len(b) < 4 {
			return 0, 0, fmt.Errorf("truncated plt folder")
		}
		n := int(b[0]) | int(b[1])<<8 | int(b[2])<<16 | int(b[3])<<24
		if len(b) < 4+n {
			return 0, 0, fmt.Errorf("truncated plt folder blob")
		}
		if err := u.UnmarshalBinary(b[4 : 4+n]); err != nil {
			return 0, 0, err
		}
		b = b[4+n:]
	}
	return m.N(), q.Quantile(0.5), nil
}

// sweepObs is one timed sweep.
type sweepObs struct {
	arm    string
	cpu    time.Duration // coordinator and worker CPU during the sweep
	pages  int
	plt50  float64
	shards []shardObs
	traced bool
}

// sweepOutcome is what the sweep workload's timed loop measured.
type sweepOutcome struct {
	setup      []float64 // CPU seconds per set-up round, coordinator + workers
	refSeconds float64
	refCPUms   [][]float64 // per arm, per run of the in-process reference fold
	refAlloc   uint64
	refPages   int
	refGCFrac  float64
	workers    int
	sweeps     []sweepObs
	cpu        time.Duration // coordinator + workers over the timed loop
	wall       time.Duration
	sweepWall  time.Duration // wall time inside the sweeps alone
	pages      int
	peakRSS    float64
	stats      fabric.Stats
	attempted  int
	failed     int
	failures   []string
	offered    int
	fallbacks  int
	harness    experiment.Harness
	digests    map[string]string
	mergeNS    []int64 // per shard, traced sweeps
	encodedB   []int
}

// sweepCPU sums CPU time over the fabric's live workers, by pid.
func sweepCPU(c *fabric.Coordinator) map[int]time.Duration {
	out := map[int]time.Duration{}
	for _, pid := range c.WorkerPIDs() {
		if d, err := procCPU(pid); err == nil {
			out[pid] = d
		}
	}
	return out
}

// runSweep sets up a fabric of one worker per CPU and runs the sweep
// workload: SweepStream with the "plt" folder over each arm in turn,
// a fresh Runner (cold memo cache) per sweep.
func runSweep(w workload, seed uint64, seconds float64, book *digestBook, tr *tracer) (*sweepOutcome, error) {
	workers := runtime.NumCPU()
	out := &sweepOutcome{
		workers: workers,
		harness: sweepHarness(seed),
		digests: map[string]string{},
	}
	// Set-up: spawn the worker pool and warm every worker with one run.
	var coord *fabric.Coordinator
	for round := 0; round < setupRounds; round++ {
		if coord != nil {
			coord.Close()
		}
		runtime.GC()
		c0 := cpuNow()
		c, err := newCoordinator(workers)
		if err != nil {
			return nil, err
		}
		coord = c
		var wg sync.WaitGroup
		for i := 0; i < workers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				h := experiment.Harness{Runs: 1, Seed: out.harness.Seed + uint64(i)}
				coord.ExecuteShard(h, w.options(w.arms[i%len(w.arms)], 0), 0, newPLTFolder)
			}(i)
		}
		wg.Wait()
		cpu := cpuNow() - c0
		for _, d := range sweepCPU(coord) { // fresh workers: their whole CPU
			cpu += d
		}
		out.setup = append(out.setup, cpu.Seconds())
	}
	defer coord.Close()
	if n := len(coord.WorkerPIDs()); n != workers {
		return nil, fmt.Errorf("fabric set-up spawned %d of %d workers", n, workers)
	}

	// Reference: the same sweeps folded in-process, serially, with the
	// CPU time of every run recorded.
	t0 := time.Now()
	ref := map[string]string{}
	runtime.GC()
	alloc0 := totalAlloc()
	gc0, tot0 := gcCPU()
	for _, a := range w.arms {
		var cpuMS []float64
		last := cpuNow()
		f := foldInProcess(out.harness, w.options(a, 0), func() {
			now := cpuNow()
			cpuMS = append(cpuMS, float64(now-last)/1e6)
			last = now
		})
		out.refCPUms = append(out.refCPUms, cpuMS)
		d, err := folderDigest(f)
		if err != nil {
			return nil, err
		}
		pages, _, err := pltSummary(f)
		if err != nil {
			return nil, err
		}
		out.refPages += pages
		ref[a.name] = d
		out.digests[a.name] = d
		out.attempted += out.harness.Runs
		if err := book.check(a.name, d); err != nil {
			out.failed += out.harness.Runs
			out.failures = append(out.failures, "in-process reference: "+err.Error())
		}
	}
	out.refAlloc = totalAlloc() - alloc0
	if gc1, tot1 := gcCPU(); tot1 > tot0 {
		out.refGCFrac = (gc1 - gc0) / (tot1 - tot0)
	}
	out.refSeconds = time.Since(t0).Seconds()

	exec := &timedExecutor{c: coord, tr: tr}
	stats0 := coord.Stats()
	wcpu0 := sweepCPU(coord)
	cpu0 := cpuNow()
	wall0 := time.Now()
	for i := 0; i%len(w.arms) != 0 || time.Since(wall0).Seconds() < seconds; i++ {
		a := w.arms[i%len(w.arms)]
		traced := tr.enabled() && (i/len(w.arms))%2 == 1
		obs := sweepObs{arm: a.name, traced: traced}
		exec.parent = 0
		if traced {
			exec.parent = tr.begin("fabric.sweep", 0, tr.newRun())
		}
		wc0 := sweepCPU(coord)
		c0 := cpuNow()
		s0 := time.Now()
		f, err := sweepOnce(exec, out.harness, w.options(a, 0))
		out.sweepWall += time.Since(s0)
		obs.cpu = cpuNow() - c0
		for pid, d := range sweepCPU(coord) {
			obs.cpu += d - wc0[pid]
		}
		obs.shards = exec.take()
		if traced {
			tr.end(exec.parent)
		}
		out.attempted += out.harness.Runs
		if err == nil {
			var d string
			if d, err = folderDigest(f); err == nil {
				if d != ref[a.name] {
					err = fmt.Errorf("%s: fabric sweep digest %.12s differs from in-process %.12s", a.name, d, ref[a.name])
				} else {
					err = book.check(a.name, d)
				}
			}
		}
		if err == nil {
			obs.pages, obs.plt50, err = pltSummary(f)
		}
		if err != nil {
			out.failed += out.harness.Runs
			out.failures = append(out.failures, err.Error())
			continue
		}
		for _, s := range obs.shards {
			out.offered++
			if !s.remote {
				out.fallbacks++
			}
		}
		if traced {
			out.replayShards(obs.shards, tr, exec.parent)
		}
		out.pages += obs.pages
		out.sweeps = append(out.sweeps, obs)
	}
	out.wall = time.Since(wall0)
	out.cpu = cpuNow() - cpu0
	for pid, d := range sweepCPU(coord) {
		out.cpu += d - wcpu0[pid] // a respawned worker counts from zero
	}
	st := coord.Stats()
	out.stats = fabric.Stats{
		ShardsRemote: st.ShardsRemote - stats0.ShardsRemote,
		Respawns:     st.Respawns - stats0.Respawns,
	}
	rss, _ := peakRSSMB(0)
	for _, pid := range coord.WorkerPIDs() {
		if r, err := peakRSSMB(pid); err == nil {
			rss += r
		}
	}
	out.peakRSS = rss
	return out, nil
}

// foldInProcess folds a sweep exactly as SweepStream's in-process path
// does — one folder per shard, filled by FillShard, merged in shard
// order — calling onRun after every run.
func foldInProcess(h experiment.Harness, base experiment.Options, onRun func()) experiment.Folder {
	r := experiment.NewRunner(1)
	out := make([]experiment.Folder, experiment.ShardCount(h.Runs))
	for si := range out {
		out[si] = newPLTFolder()
		r.FillShard(h, base, si, out[si], onRun)
	}
	acc := out[0]
	for _, f := range out[1:] {
		acc.Merge(f)
	}
	return acc
}

// sweepOnce runs one sweep through the executor, turning a panic into
// an error.
func sweepOnce(ex experiment.ShardExecutor, h experiment.Harness, base experiment.Options) (f experiment.Folder, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("sweep panicked: %v", p)
		}
	}()
	r := experiment.NewRunner(0)
	r.SetShardExecutor(ex)
	return r.SweepStream(h, base, newPLTFolder), nil
}

// replayShards times the stats codecs and the shard-order merge on a
// traced sweep's shard folders, exactly as SweepStream merges them.
func (o *sweepOutcome) replayShards(shards []shardObs, tr *tracer, parent int) {
	var folders []experiment.Folder
	for _, s := range shards {
		if s.encoded == nil {
			continue
		}
		sp := tr.begin("stats.decode", parent, tr.runOf(parent))
		f, err := experiment.DecodeFolder("plt", s.encoded)
		tr.end(sp)
		if err != nil {
			continue
		}
		folders = append(folders, f)
		o.encodedB = append(o.encodedB, len(s.encoded))
	}
	if len(folders) < 2 {
		return
	}
	acc := folders[0]
	for _, f := range folders[1:] {
		sp := tr.begin("stats.merge", parent, tr.runOf(parent))
		t0 := time.Now()
		acc.Merge(f)
		o.mergeNS = append(o.mergeNS, time.Since(t0).Nanoseconds())
		tr.end(sp)
	}
}
