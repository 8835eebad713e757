package main

import (
	"time"

	"spdier/internal/experiment"
	"spdier/internal/h2"
	"spdier/internal/netem"
	"spdier/internal/proxy"
	"spdier/internal/rrc"
	"spdier/internal/sim"
	"spdier/internal/spdy"
	"spdier/internal/tcpsim"
	"spdier/internal/webpage"
)

// Layer replays feed a workload's generated pages through one layer's
// public entry points in isolation and time each call. Each replay runs
// inside its own span.

// replayMinCPU is how much CPU a call-level replay repeats its input
// for, so short replays are still timed over many calls.
const replayMinCPU = 200 * time.Millisecond

const userAgent = "Mozilla/5.0 (Windows NT 6.1) Chrome/23.0"

// contentType mirrors the proxy's Content-Type choice per object kind.
func contentType(k webpage.Kind) string {
	switch k {
	case webpage.KindHTML:
		return "text/html; charset=utf-8"
	case webpage.KindJS:
		return "text/javascript"
	case webpage.KindCSS:
		return "text/css"
	case webpage.KindImg:
		return "image/jpeg"
	default:
		return "text/plain"
	}
}

// callCost is the measured cost of one call-level replay.
type callCost struct {
	nsPerOp    float64
	allocPerOp float64
	ops        int
}

// repeatCalls runs pass (which returns how many operations it did)
// until replayMinCPU has elapsed, and returns CPU and heap bytes per
// operation.
func repeatCalls(pass func() int) callCost {
	a0, c0 := totalAlloc(), cpuNow()
	ops := 0
	for cpuNow()-c0 < replayMinCPU {
		ops += pass()
	}
	cpu := cpuNow() - c0
	alloc := totalAlloc() - a0
	return callCost{
		nsPerOp:    float64(cpu.Nanoseconds()) / float64(ops),
		allocPerOp: float64(alloc) / float64(ops),
		ops:        ops,
	}
}

// replayObjects counts the objects a page set requests.
func replayObjects(pages []*webpage.Page) int {
	n := 0
	for _, p := range pages {
		n += len(p.Objects)
	}
	return n
}

// replayHTTPWire sizes every object's proxied request and response head
// as the HTTP/1.1 arm does.
func replayHTTPWire(pages []*webpage.Page) callCost {
	sink := 0
	c := repeatCalls(func() int {
		for _, p := range pages {
			for _, o := range p.Objects {
				sink += proxy.HTTPReqSize(o) + proxy.HTTPRespHeadSize(o)
			}
		}
		return replayObjects(pages)
	})
	_ = sink
	return c
}

// replaySPDY prices one SYN_STREAM and one SYN_REPLY per object, in
// visit order, through one size oracle per page session.
func replaySPDY(pages []*webpage.Page) callCost {
	return repeatCalls(func() int {
		frames := 0
		for _, p := range pages {
			o := spdy.NewSizeOracle()
			for i, obj := range p.Objects {
				o.FrameSize(spdy.SynStream{
					StreamID: uint32(2*i + 1),
					Priority: spdy.PriorityForType(string(obj.Kind)),
					Fin:      true,
					Headers:  spdy.RequestHeaders("GET", "http", obj.Domain, obj.Path, userAgent),
				})
				o.FrameSize(spdy.SynReply{
					StreamID: uint32(2*i + 1),
					Headers:  spdy.ResponseHeaders("200 OK", contentType(obj.Kind), int64(obj.Size)),
				})
				frames += 2
			}
		}
		return frames
	})
}

// replayH2 prices each object's request and response HEADERS blocks
// through one HPACK sizer per direction per page session.
func replayH2(pages []*webpage.Page) callCost {
	sink := 0
	c := repeatCalls(func() int {
		blocks := 0
		for _, p := range pages {
			req, resp := h2.NewHeaderSizer(), h2.NewHeaderSizer()
			for _, obj := range p.Objects {
				sink += req.RequestSize("GET", "http", obj.Domain, obj.Path, userAgent)
				sink += resp.ResponseSize("200 OK", contentType(obj.Kind), int64(obj.Size))
				blocks += 2
			}
		}
		return blocks
	})
	_ = sink
	return c
}

// pathSpec is an access path for the transport replays.
type pathSpec struct {
	cfg      netem.PathConfig
	radio    func(*sim.Loop) *rrc.Machine // nil for WiFi
	recovery tcpsim.RecoveryPolicy
}

func profile3G() pathSpec {
	return pathSpec{cfg: netem.Profile3G(), radio: func(l *sim.Loop) *rrc.Machine { return rrc.NewMachine(l, rrc.Profile3G()) }}
}

func profileWiFi() pathSpec { return pathSpec{cfg: netem.ProfileWiFi()} }

func profileLossyLTE() pathSpec {
	return pathSpec{
		cfg:      netem.ProfileLTE().WithImpairments(lossyImpair),
		radio:    func(l *sim.Loop) *rrc.Machine { return rrc.NewMachine(l, rrc.ProfileLTE()) },
		recovery: tcpsim.ModernLinux(),
	}
}

// pathOf is the workload's own access path.
func pathOf(w workload) pathSpec {
	switch {
	case w.lossy:
		return profileLossyLTE()
	case w.network == experiment.NetWiFi:
		return profileWiFi()
	default:
		return profile3G()
	}
}

func (p pathSpec) network(seed uint64) (*sim.Loop, *tcpsim.Network, tcpsim.Config) {
	loop := sim.NewLoop()
	var radio *rrc.Machine
	if p.radio != nil {
		radio = p.radio(loop)
	}
	path := netem.NewPath(loop, p.cfg, sim.NewRNG(seed), radio)
	return loop, tcpsim.NewNetwork(loop, path), tcpsim.DefaultConfig().WithRecovery(p.recovery)
}

// transportCost is the measured cost of one transport replay.
type transportCost struct {
	cpu     time.Duration
	packets int // link sends, both directions
	fired   uint64
	units   int // pages or objects carried
}

func sentBoth(n *tcpsim.Network) int {
	return n.Path().AtoB.Stats().Sent + n.Path().BtoA.Stats().Sent
}

// replayBulk writes each page's total bytes over one TCP connection,
// the next page once the previous one is delivered.
func replayBulk(pages []*webpage.Page, p pathSpec) transportCost {
	loop, n, cfg := p.network(1)
	client, server := n.NewConnPair(cfg, cfg, "bulk", "proxy")
	next, got, want := 0, 0, 0
	send := func() {
		if next == len(pages) {
			loop.Stop()
			return
		}
		got, want = 0, pages[next].TotalBytes()
		next++
		server.Write(want)
	}
	client.OnDeliver(func(k int) {
		if got += k; got >= want {
			send()
		}
	})
	client.OnEstablished(send)
	c0 := cpuNow()
	client.Connect()
	loop.Run(sim.Time(time.Hour))
	return transportCost{cpu: cpuNow() - c0, packets: sentBoth(n), fired: loop.Fired(), units: next}
}

// replayShortConns carries each object on its own connection: connect,
// one response, close.
func replayShortConns(objs []*webpage.Object, p pathSpec) transportCost {
	loop, n, cfg := p.network(2)
	next := 0
	var open func()
	open = func() {
		if next == len(objs) {
			loop.Stop()
			return
		}
		size := objs[next].Size
		next++
		client, server := n.NewConnPair(cfg, cfg, "short", "proxy")
		got := 0
		client.OnEstablished(func() { server.Write(size) })
		client.OnDeliver(func(k int) {
			if got += k; got >= size {
				client.Close()
				server.Close()
				loop.After(0, open)
			}
		})
		client.Connect()
	}
	c0 := cpuNow()
	open()
	loop.Run(sim.Time(time.Hour))
	return transportCost{cpu: cpuNow() - c0, packets: sentBoth(n), fired: loop.Fired(), units: next}
}

// replayQUIC writes every object of a page as its own stream over one
// QUIC connection, the next page once the previous one is delivered.
func replayQUIC(pages []*webpage.Page, p pathSpec) transportCost {
	loop, n, cfg := p.network(3)
	client, server := n.NewQUICPair(cfg, cfg, "quic", "proxy")
	next, got, want := 0, 0, 0
	send := func() {
		if next == len(pages) {
			loop.Stop()
			return
		}
		pg := pages[next]
		next++
		got, want = 0, 0
		for i, obj := range pg.Objects {
			want += obj.Size
			server.WriteStream(uint32(2*i+1), obj.Size)
		}
	}
	client.OnStreamDeliver(func(_ uint32, k int) {
		if got += k; got >= want {
			send()
		}
	})
	client.OnEstablished(send)
	c0 := cpuNow()
	client.Connect()
	loop.Run(sim.Time(time.Hour))
	return transportCost{cpu: cpuNow() - c0, packets: sentBoth(n), fired: loop.Fired(), units: next}
}

// replayNetem pushes MSS payloads down the workload's path (radio gate
// included) at the downlink's line rate and returns CPU per send.
func replayNetem(p pathSpec, sends int) float64 {
	loop := sim.NewLoop()
	var radio *rrc.Machine
	if p.radio != nil {
		radio = p.radio(loop)
	}
	path := netem.NewPath(loop, p.cfg, sim.NewRNG(4), radio)
	path.AtoB.SetReceiver(func(netem.Payload) {})
	path.BtoA.SetReceiver(func(netem.Payload) {})
	const mss = 1460
	gap := time.Duration(float64(time.Second) * mss * 8 / float64(p.cfg.Down.BandwidthBPS))
	var payload struct{}
	sent := 0
	var tick func()
	tick = func() {
		path.BtoA.Send(&payload, mss)
		if sent++; sent%16 == 0 {
			path.AtoB.Send(&payload, 52) // the ACK stream
			sent++
		}
		if sent < sends {
			loop.After(gap, tick)
		}
	}
	c0 := cpuNow()
	tick()
	loop.RunUntilIdle()
	return float64((cpuNow() - c0).Nanoseconds()) / float64(sent)
}

// replayLoop drives the event loop alone: 64 self-rescheduling timers
// until events have fired, and returns CPU per event.
func replayLoop(events uint64) float64 {
	loop := sim.NewLoop()
	r := sim.NewRNG(5)
	var fire func()
	fire = func() {
		if loop.Fired() < events {
			loop.After(time.Duration(1+r.Intn(1000))*time.Microsecond, fire)
		}
	}
	for i := 0; i < 64; i++ {
		loop.After(time.Duration(i)*time.Microsecond, fire)
	}
	c0 := cpuNow()
	loop.RunUntilIdle()
	return float64((cpuNow() - c0).Nanoseconds()) / float64(loop.Fired())
}
