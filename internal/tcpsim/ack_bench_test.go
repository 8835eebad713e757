package tcpsim

import (
	"testing"
	"time"

	"spdier/internal/netem"
	"spdier/internal/sim"
)

// Per-ACK transport microbenchmarks on the paper's regime: a bulk
// server→client transfer over the 3G profile, frozen at the moment the
// sender's flight is longest. Each op restores the frozen sender and
// replays one step of ACK-clocked sending, so ns/op is the bookkeeping
// cost of one ACK at peak flight. Everything the step transmits is
// dropped by a link filter and recycled, and the sender's live timers
// are kept across the restore, so a warm op allocates nothing. The
// invariant checker the package's TestMain arms is off while they run.
//
//	go test -run '^$' -bench 'QUICHandleAck|TrySendLongFlight' -benchmem ./internal/tcpsim/

const benchBulkBytes = 4 << 20

// bench3GConfig is the default stack with Reno, whose window growth
// keeps no state outside the connection, so a restored sender repeats
// the same step exactly; a receive buffer large enough that the
// congestion window, not flow control, bounds the flight.
func bench3GConfig() Config {
	cfg := DefaultConfig()
	cfg.CC = "reno"
	cfg.RecvBuffer = 16 << 20
	return cfg
}

// peakStep runs build's transfer in 5 ms steps and returns the step at
// which flightLen peaks, so a second, identical build can stop there.
func peakStep(build func() (*sim.Loop, func() int)) int {
	loop, flightLen := build()
	best, at := -1, 0
	for step := 1; step <= 12000 && loop.Pending() > 0; step++ {
		loop.Run(sim.Time(step) * 5 * sim.Millisecond)
		if n := flightLen(); n > best {
			best, at = n, step
		}
	}
	return at
}

// quicBulk3G starts the QUIC transfer. The client keeps issuing small
// requests on fresh streams every 25 ms, as a browser does while a page
// parses; the server's ACK packets for them take PNs between its data
// packets, so the client's ack ranges fragment the way they do under a
// multiplexed page load.
func quicBulk3G() (*sim.Loop, *Network, *QUICConn, *QUICConn) {
	loop := sim.NewLoop()
	nw := NewNetwork(loop, netem.NewPath(loop, netem.Profile3G(), sim.NewRNG(3), nil))
	cfg := bench3GConfig()
	client, server := nw.NewQUICPair(cfg, cfg, "bench", "d")
	client.OnStreamDeliver(func(uint32, int) {})
	sid := uint32(1)
	var request func()
	request = func() {
		client.WriteStream(sid, 400)
		if sid += 2; sid < 400 {
			loop.After(25*time.Millisecond, request)
		}
	}
	client.OnEstablished(request)
	server.OnStreamDeliver(func(id uint32, _ int) {
		if id == 1 {
			server.WriteStream(1, benchBulkBytes)
		}
	})
	client.Connect()
	return loop, nw, client, server
}

func BenchmarkQUICHandleAck(b *testing.B) {
	DisableInvariants()
	defer EnableInvariants(nil)
	stop := peakStep(func() (*sim.Loop, func() int) {
		loop, _, _, server := quicBulk3G()
		return loop, func() int { return len(server.flight()) }
	})
	loop, nw, client, server := quicBulk3G()
	loop.Run(sim.Time(stop) * 5 * sim.Millisecond)
	nw.Path().BtoA.SetFilter(func(netem.Payload, int) bool { return false })

	// The ACK the client would send now, against the frozen flight.
	ack := &QUICPacket{
		Ack:        true,
		AckLargest: client.largestRcvd,
		AckRanges:  append([][2]uint64(nil), client.rcvRanges...),
	}
	// Headroom so the step's sends append in place, never reallocate.
	server.sent = append(make([]qSent, 0, len(server.sent)+4096), server.sent...)
	snap := *server
	sent := append([]qSent(nil), server.sent...)
	sendq := append([]qChunk(nil), server.sendq...)
	restore := func() {
		pto, dack := server.ptoTimer, server.delayedAck
		*server = snap
		server.ptoTimer, server.delayedAck = pto, dack
		copy(server.sent, sent)
		copy(server.sendq, sendq)
	}
	flight := len(server.flight())
	restore()
	server.handleAck(ack) // warm the packet pool and timer slots
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		restore()
		server.handleAck(ack)
	}
	b.ReportMetric(float64(flight), "flight")
	b.ReportMetric(float64(len(ack.AckRanges)), "ranges")
}

func tcpBulk3G() (*sim.Loop, *Network, *Conn) {
	loop := sim.NewLoop()
	nw := NewNetwork(loop, netem.NewPath(loop, netem.Profile3G(), sim.NewRNG(3), nil))
	cfg := bench3GConfig()
	client, server := nw.NewConnPair(cfg, cfg, "bench", "d")
	client.OnDeliver(func(int) {})
	client.OnEstablished(func() { client.Write(400) })
	server.OnDeliver(func(int) { server.Write(benchBulkBytes) })
	client.Connect()
	return loop, nw, server
}

// BenchmarkTrySendLongFlight opens the frozen sender's window by the
// four segments one slow-start ACK of two segments grants (two leave
// the flight, two are added to cwnd) and lets trySend fill it.
func BenchmarkTrySendLongFlight(b *testing.B) {
	DisableInvariants()
	defer EnableInvariants(nil)
	stop := peakStep(func() (*sim.Loop, func() int) {
		loop, _, server := tcpBulk3G()
		return loop, func() int { return len(server.infl()) }
	})
	loop, nw, server := tcpBulk3G()
	loop.Run(sim.Time(stop) * 5 * sim.Millisecond)
	nw.Path().BtoA.SetFilter(func(netem.Payload, int) bool { return false })

	server.inflight = append(make([]sentSeg, 0, len(server.inflight)+4096), server.inflight...)
	snap := *server
	snap.cwnd = float64(server.pktsInFlight() + 4)
	infl := append([]sentSeg(nil), server.inflight...)
	restore := func() {
		rto, dack, tlp := server.rtoTimer, server.delayedAck, server.tlp.timer
		*server = snap
		server.rtoTimer, server.delayedAck, server.tlp.timer = rto, dack, tlp
		copy(server.inflight, infl)
	}
	flight := len(server.infl())
	restore()
	server.trySend() // warm the segment pool and timer slots
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		restore()
		server.trySend()
	}
	b.ReportMetric(float64(flight), "flight")
}
