package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"spdier/internal/experiment"
	"spdier/internal/webpage"
)

// The traced run: the same workload loop with spans on in alternating
// cycles (their difference is the tracing overhead), then profiled
// in-process runs of every arm and the layer replays, all reported as
// per-layer metrics. The fabric and stats metrics come from the sweep's
// own shards and read 0 on the serial workloads, whose path has neither.

// probeRuns is how many runs each arm's profiled probe makes; a
// workload's own arms share ownProbeRuns between them.
const (
	probeRuns    = 8
	ownProbeRuns = 32
)

// armProbe is one arm's profiled in-process runs under the workload's
// conditions.
type armProbe struct {
	arm   armSpec
	cpuMS []float64
	facts []runFacts
	prof  *cpuProfile
}

// probeArm runs arm a probeRuns times under the CPU profiler. pages maps
// seed to generated pages; nil leaves generation to each run, as in a
// sweep.
func probeArm(w workload, a armSpec, runs int, seeds []uint64, pages map[uint64][]*webpage.Page, tr *tracer) (*armProbe, error) {
	p := &armProbe{arm: a}
	var runErr error
	prof, err := profileCPU(func() {
		for k := 0; k < runs; k++ {
			s := seeds[k%len(seeds)]
			opts := w.options(a, s)
			if pages != nil {
				opts.Pages = pages[s]
			}
			sp := tr.begin("experiment.run", 0, tr.newRun())
			c0 := cpuNow()
			res, err := runOnce(opts)
			c1 := cpuNow()
			if err != nil {
				tr.end(sp)
				runErr = fmt.Errorf("%s probe: %w", a.name, err)
				return
			}
			rs := tr.begin("experiment.runstats", sp, tr.runOf(sp))
			experiment.NewRunStats(res)
			tr.end(rs)
			tr.end(sp)
			p.cpuMS = append(p.cpuMS, float64(c1-c0)/1e6)
			p.facts = append(p.facts, factsOf(res))
		}
	})
	if err != nil {
		return nil, err
	}
	p.prof = prof
	return p, runErr
}

// pltSeconds lists the completed pages' PLTs of a set of runs.
func pltSeconds(fs []runFacts) []float64 {
	var out []float64
	for _, f := range fs {
		for _, b := range f.PLTBits {
			if b != math.MaxUint64 {
				out = append(out, math.Float64frombits(b))
			}
		}
	}
	return out
}

// visitPages lists a seed's pages in the order a run visits them.
func visitPages(pages []*webpage.Page) []*webpage.Page {
	out := make([]*webpage.Page, 0, len(pages))
	for _, i := range experiment.VisitOrder(len(pages)) {
		out = append(out, pages[i])
	}
	return out
}

// layerInputs is what the traced run measures per workload.
type layerInputs struct {
	w              workload
	seeds          []uint64
	pages          map[uint64][]*webpage.Page // nil: runs generate their own
	countRuns      []runFacts                 // the runs behind the per-page counts
	countCPU       time.Duration              // their CPU
	ownPLT         map[string][]float64       // PLTs per arm observed in the timed loop
	ownCPU         map[string][]float64       // untraced run CPU ms per arm, timed loop
	gcFrac         float64
	overhead       float64 // tracing overhead
	fabricPerRunMS float64
	shards         []shardObs
	shardWall      time.Duration // wall time inside the sweeps
	workers        int
	offered        int
	remote         int
	respawns       int
	fallbacks      int
	encodeNS       []int64
	mergeNS        []int64
	encodedB       []int
}

func tracedSerial(w workload, o *serialOutcome, tr *tracer, rep *report) error {
	in := &layerInputs{w: w, seeds: o.seeds, pages: o.inputs, ownPLT: map[string][]float64{}, ownCPU: map[string][]float64{}, gcFrac: o.gcFrac}
	costs := pairCosts{}
	for _, r := range o.runs {
		in.countRuns = append(in.countRuns, r.facts)
		in.countCPU += r.cpu
		in.ownPLT[r.arm] = append(in.ownPLT[r.arm], pltSeconds([]runFacts{r.facts})...)
		if !r.traced {
			in.ownCPU[r.arm] = append(in.ownCPU[r.arm], float64(r.cpu)/1e6)
		}
		costs.add(r.key, r.traced, r.pages, r.cpu)
	}
	in.overhead = costs.overhead()
	fmt.Printf("timed loop: %d runs (%d traced), %d pages, %.2f CPU-s\n", len(o.runs), countTraced(o.runs), o.pages, o.cpu.Seconds())
	return perLayer(in, tr, rep)
}

func countTraced(runs []runObs) int {
	n := 0
	for _, r := range runs {
		if r.traced {
			n++
		}
	}
	return n
}

// pairCost accumulates pages and CPU of one input (arm and seed), split
// into untraced [0] and traced [1] runs.
type pairCost struct {
	pages [2]int
	cpu   [2]time.Duration
}

type pairCosts map[string]*pairCost

func (m pairCosts) add(key string, traced bool, pages int, cpu time.Duration) {
	c, ok := m[key]
	if !ok {
		c = &pairCost{}
		m[key] = c
	}
	i := 0
	if traced {
		i = 1
	}
	c.pages[i] += pages
	c.cpu[i] += cpu
}

// overhead is the tracing overhead: the relative drop in pages per
// CPU-second of traced runs against untraced runs of the same inputs,
// the median over inputs seen both ways.
func (m pairCosts) overhead() float64 {
	var ratios []float64
	for _, c := range m {
		if c.pages[0] > 0 && c.pages[1] > 0 && c.cpu[0] > 0 {
			perT := c.cpu[1].Seconds() / float64(c.pages[1])
			perU := c.cpu[0].Seconds() / float64(c.pages[0])
			ratios = append(ratios, perT/perU)
		}
	}
	if len(ratios) == 0 {
		return 0
	}
	return 1 - 1/median(ratios)
}

func tracedSweep(w workload, o *sweepOutcome, tr *tracer, rep *report) error {
	seeds := make([]uint64, probeRuns)
	for i := range seeds {
		seeds[i] = o.harness.Seed + uint64(i) // the first shard's runs
	}
	in := &layerInputs{w: w, seeds: seeds, ownPLT: map[string][]float64{}, ownCPU: map[string][]float64{}, gcFrac: o.refGCFrac}
	costs := pairCosts{}
	for _, s := range o.sweeps {
		in.ownPLT[s.arm] = append(in.ownPLT[s.arm], s.plt50)
		in.shards = append(in.shards, s.shards...)
		costs.add(s.arm, s.traced, s.pages, s.cpu)
	}
	in.overhead = costs.overhead()
	in.shardWall = o.sweepWall
	in.workers, in.offered, in.remote = o.workers, o.offered, o.stats.ShardsRemote
	in.respawns, in.fallbacks = o.stats.Respawns, o.fallbacks
	in.mergeNS, in.encodedB = o.mergeNS, o.encodedB
	for _, s := range in.shards {
		if s.encoded != nil {
			in.encodeNS = append(in.encodeNS, s.encodeNS)
		}
	}
	runs := len(o.sweeps) * o.harness.Runs
	var ref float64
	var refRuns int
	for _, xs := range o.refCPUms {
		for _, c := range xs {
			ref += c
		}
		refRuns += len(xs)
	}
	if runs > 0 && refRuns > 0 {
		in.fabricPerRunMS = o.cpu.Seconds()*1e3/float64(runs) - ref/float64(refRuns)
	}
	fmt.Printf("timed loop: %d sweeps, %d pages, %.2f CPU-s (coordinator + workers), %d shards\n", len(o.sweeps), o.pages, o.cpu.Seconds(), len(in.shards))
	return perLayer(in, tr, rep)
}

// perLayer runs the profiled arm probes and the layer replays and sets
// every per-layer metric.
func perLayer(in *layerInputs, tr *tracer, rep *report) error {
	w := in.w
	// Pages for the replays, generated under spans.
	replayPages := map[uint64][]*webpage.Page{}
	for _, s := range in.seeds {
		sp := tr.begin("webpage.generate", 0, 0)
		replayPages[s] = visitPages(experiment.GeneratePages(webpage.Table1(), s))
		tr.end(sp)
	}

	probes := map[string]*armProbe{}
	for _, a := range allArms {
		runs := probeRuns
		for _, own := range w.arms {
			if own == a {
				runs = max(probeRuns, ownProbeRuns/len(w.arms))
			}
		}
		p, err := probeArm(w, a, runs, in.seeds, in.pages, tr)
		if err != nil {
			return err
		}
		probes[a.name] = p
	}
	if in.countRuns == nil { // sweep: runs happen in workers, count on the probes
		for _, a := range w.arms {
			in.countRuns = append(in.countRuns, probes[a.name].facts...)
			for _, c := range probes[a.name].cpuMS {
				in.countCPU += time.Duration(c * 1e6)
			}
		}
	}

	// Per-page counts from each run's public Result.
	var pages, attempted, objects, conns, segs, drops, reord, promos, incomplete int
	var fired uint64
	var retx [6]int
	for _, f := range in.countRuns {
		pages += len(f.PLTBits) - f.Incomplete
		attempted += len(f.PLTBits)
		objects += f.Objects
		conns += f.Conns
		segs += f.segments()
		drops += f.drops()
		reord += f.reordered()
		promos += f.Promotions
		incomplete += f.Incomplete
		fired += f.Fired
		for i, n := range f.Retx {
			retx[i] += n
		}
	}
	per := func(n int) float64 { return float64(n) / float64(max(pages, 1)) }
	rep.set("sim.events_per_page", "count", per(int(fired)))
	rep.set("netem.segments_per_page", "count", per(segs))
	rep.set("netem.drops_per_page", "count", per(drops))
	rep.set("netem.reordered_per_page", "count", per(reord))
	rep.set("rrc.promotions_per_page", "count", per(promos))
	rep.set("tcpsim.conns_per_page", "count", per(conns))
	rep.set("tcpsim.retx_per_page.rto", "count", per(retx[0]))
	rep.set("tcpsim.retx_per_page.fast", "count", per(retx[1]))
	rep.set("tcpsim.retx_per_page.tlp", "count", per(retx[2]))
	rep.set("tcpsim.retx_per_page.rack", "count", per(retx[3]))
	rep.set("tcpsim.spurious_per_page", "count", per(retx[4]))
	rep.set("tcpsim.frto_undos_per_page", "count", per(retx[5]))
	rep.set("browser.objects_per_page", "count", per(objects))
	rep.set("browser.incomplete_per_page", "count", float64(incomplete)/float64(max(attempted, 1)))
	rep.set("sim.cpu_ns_per_event", "ns", float64(in.countCPU.Nanoseconds())/float64(max(fired, 1)))
	for _, a := range allArms {
		plt, cpu := in.ownPLT[a.name], in.ownCPU[a.name]
		if len(plt) == 0 {
			plt = pltSeconds(probes[a.name].facts)
		}
		if len(cpu) == 0 {
			cpu = probes[a.name].cpuMS
		}
		rep.set("browser.plt_s_p50."+a.name, "s", median(plt))
		rep.set("experiment.run_cpu_ms_p50."+a.name, "ms", median(cpu))
	}
	rep.set("runtime.gc_cpu_frac", "ratio", in.gcFrac)
	rep.set("trace.overhead_frac", "ratio", in.overhead)

	// Spans around the benchmark's own calls.
	rep.set("webpage.generate_ms_per_run", "ms", spanMean(tr, "webpage.generate")/1e6)
	rep.set("experiment.runstats_us_per_run", "us", spanMean(tr, "experiment.runstats")/1e3)
	rep.set("stats.merge_us_per_shard", "us", meanI(in.mergeNS)/1e3)
	rep.set("stats.encode_us_per_shard", "us", meanI(in.encodeNS)/1e3)
	rep.set("stats.encoded_kb_per_shard", "KB", meanInt(in.encodedB)/1024)
	var durs []float64
	var busy time.Duration
	for _, s := range in.shards {
		durs = append(durs, s.dur.Seconds())
		busy += s.dur
	}
	sort.Float64s(durs)
	var maxDur, busyFrac float64
	if len(durs) > 0 {
		maxDur = durs[len(durs)-1]
		busyFrac = busy.Seconds() / (in.shardWall.Seconds() * float64(in.workers))
	}
	rep.set("fabric.shard_s_p50", "s", median(durs))
	rep.set("fabric.shard_s_max", "s", maxDur)
	rep.set("fabric.workers_busy_frac", "ratio", busyFrac)
	rep.set("fabric.shards_remote_frac", "ratio", float64(in.remote)/float64(max(in.offered, 1)))
	rep.set("fabric.respawns", "count", float64(in.respawns))
	rep.set("fabric.fallbacks", "count", float64(in.fallbacks))
	fmt.Printf("fabric: %d shards offered (n=%d durations), %d remote, %d respawns, %d fallbacks\n", in.offered, len(durs), in.remote, in.respawns, in.fallbacks)

	// Layer replays over the workload's own pages.
	var all, first []*webpage.Page
	for i, s := range in.seeds {
		all = append(all, replayPages[s]...)
		if i == 0 {
			first = replayPages[s]
		}
	}
	var objs []*webpage.Object
	for _, p := range first {
		objs = append(objs, p.Objects...)
	}
	if len(objs) > 300 {
		objs = objs[:300]
	}
	sp := tr.begin("httpwire.replay", 0, 0)
	hw := replayHTTPWire(all)
	tr.end(sp)
	sp = tr.begin("spdy.replay", 0, 0)
	sz := replaySPDY(all)
	tr.end(sp)
	sp = tr.begin("h2.replay", 0, 0)
	hp := replayH2(all)
	tr.end(sp)
	sp = tr.begin("tcpsim.bulk", 0, 0)
	bulk := replayBulk(first, profile3G())
	tr.end(sp)
	sp = tr.begin("tcpsim.short_conns", 0, 0)
	short := replayShortConns(objs, profileWiFi())
	tr.end(sp)
	sp = tr.begin("tcpsim.lossy", 0, 0)
	lossy := replayBulk(first, profileLossyLTE())
	tr.end(sp)
	sp = tr.begin("tcpsim.quic", 0, 0)
	quic := replayQUIC(first, pathOf(w))
	tr.end(sp)
	sp = tr.begin("netem.replay", 0, 0)
	netemNS := replayNetem(pathOf(w), 20000)
	tr.end(sp)
	sp = tr.begin("sim.replay", 0, 0)
	loopNS := replayLoop(fired / uint64(max(len(in.countRuns), 1)))
	tr.end(sp)
	perPacket := func(c transportCost) float64 { return float64(c.cpu.Nanoseconds()) / float64(max(c.packets, 1)) }
	rep.set("httpwire.ns_per_object", "ns", hw.nsPerOp)
	rep.set("httpwire.alloc_b_per_object", "B", hw.allocPerOp)
	rep.set("spdy.ns_per_frame", "ns", sz.nsPerOp)
	rep.set("spdy.alloc_b_per_frame", "B", sz.allocPerOp)
	rep.set("h2.ns_per_header_block", "ns", hp.nsPerOp)
	rep.set("tcpsim.bulk_ns_per_segment", "ns", perPacket(bulk))
	rep.set("tcpsim.short_conn_us", "us", float64(short.cpu.Microseconds())/float64(max(short.units, 1)))
	rep.set("tcpsim.lossy_ns_per_segment", "ns", perPacket(lossy))
	rep.set("tcpsim.quic_ns_per_packet", "ns", perPacket(quic))
	rep.set("netem.ns_per_send", "ns", netemNS)
	rep.set("sim.loop_ns_per_event", "ns", loopNS)
	fmt.Printf("replays: httpwire %d objects, spdy %d frames, h2 %d blocks, bulk %d/%d pages, short %d objects, lossy %d pages, quic %d pages\n",
		hw.ops, sz.ops, hp.ops, bulk.units, len(first), short.units, lossy.units, quic.units)

	// Shares that motivate the header-sizing, QUIC-ack and in-flight
	// optimisations, from the arms' CPU profiles.
	zlib := both(hasPkg("spdier/internal/spdy"), hasFrame("compress/flate.", "compress/zlib.", "hash/adler32."))
	inflight := hasFrame("tcpsim.(*Conn).pktsInFlight")
	shareOf := func(arms []string, m func([]string) bool) float64 {
		p := &cpuProfile{}
		for _, a := range arms {
			p.stacks = append(p.stacks, probes[a].prof.stacks...)
		}
		return p.share(m)
	}
	rep.set("share.spdy_zlib", "ratio", shareOf([]string{"spdy"}, zlib))
	rep.set("share.quic_ack", "ratio", shareOf([]string{"quic"}, hasFrame("tcpsim.ackRangesContain")))
	rep.set("share.httpwire", "ratio", shareOf([]string{"http"}, hasPkg("spdier/internal/httpwire")))
	rep.set("share.tcpsim_inflight", "ratio", shareOf([]string{"spdy", "h2"}, inflight))
	for _, a := range allArms {
		fmt.Printf("profile %-8s %4d samples over %d runs\n", a.name, len(probes[a.name].prof.stacks), len(probes[a.name].cpuMS))
	}

	selfTable(in, probes, tr, rep)
	return nil
}

// tableLayers are the layers the self-time table reports; "browser" is
// the remainder of the run.
var tableLayers = []string{"sim", "netem", "rrc", "tcpsim", "spdy", "h2", "httpwire", "webpage", "experiment", "stats", "fabric", "browser"}

// selfTable prints self time per layer: inside a run from the CPU
// profile of the workload's own arms, and for the benchmark's own calls
// from the spans.
func selfTable(in *layerInputs, probes map[string]*armProbe, tr *tracer, rep *report) {
	samples := map[string]int{}
	total := 0
	var cpuMS []float64
	for _, a := range in.w.arms {
		s, n := probes[a.name].prof.layerSelf()
		for k, v := range s {
			samples[k] += v
		}
		total += n
		cpuMS = append(cpuMS, probes[a.name].cpuMS...)
	}
	var runMS float64
	for _, c := range cpuMS {
		runMS += c
	}
	runMS /= float64(max(len(cpuMS), 1))
	tr.mu.Lock()
	spanSelf := selfTimes(tr.spans)
	spanCount := map[string]int{}
	for _, s := range tr.spans {
		spanCount[layerOf(s.Name)]++
	}
	tr.mu.Unlock()

	fmt.Printf("self time per layer, %s (in-run: CPU profile of %d runs of %v, %d samples, %.1f ms/run; spans: the benchmark's calls)\n",
		in.w.name, len(cpuMS), armNames(in.w.arms), total, runMS)
	fmt.Printf("  %-10s %12s %8s %8s %14s\n", "layer", "in-run ms", "share", "spans", "span self ms")
	named := 0
	for _, l := range tableLayers {
		var share float64
		switch l {
		case "browser":
			share = 1 - float64(named)/float64(max(total, 1))
		default:
			named += samples[l]
			share = float64(samples[l]) / float64(max(total, 1))
		}
		inRun := share * runMS
		if l == "fabric" && in.fabricPerRunMS != 0 {
			inRun = in.fabricPerRunMS // sweep CPU per run minus the in-process fold's
		}
		rep.set(l+".self_ms_per_run", "ms", inRun)
		fmt.Printf("  %-10s %12.3f %8.3f %8d %14.3f\n", l, inRun, share, spanCount[l], float64(spanSelf[l])/1e6)
	}
	fmt.Printf("  (browser is the remainder of the run: browser, proxy, transport, trace and runtime samples)\n")
	fmt.Printf("tracing overhead %.4f of pages per CPU-second\n", in.overhead)
	for _, k := range []string{"share.spdy_zlib", "share.quic_ack", "share.httpwire", "share.tcpsim_inflight"} {
		fmt.Printf("%s %.3f\n", k, rep.Metrics[k].Value)
	}
}

func armNames(arms []armSpec) []string {
	out := make([]string, len(arms))
	for i, a := range arms {
		out[i] = a.name
	}
	return out
}

// spanMean is the mean duration in ns of the spans called name.
func spanMean(tr *tracer, name string) float64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var sum, n float64
	for _, s := range tr.spans {
		if s.Name == name {
			sum += float64(s.End - s.Start)
			n++
		}
	}
	return sum / math.Max(n, 1)
}

func meanI(xs []int64) float64 {
	var s float64
	for _, x := range xs {
		s += float64(x)
	}
	return s / math.Max(float64(len(xs)), 1)
}

func meanInt(xs []int) float64 {
	var s float64
	for _, x := range xs {
		s += float64(x)
	}
	return s / math.Max(float64(len(xs)), 1)
}
