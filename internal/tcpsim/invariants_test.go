package tcpsim

import (
	"math"
	"strings"
	"testing"
	"time"

	"spdier/internal/netem"
	"spdier/internal/sim"
)

// captureViolations swaps the panic handler for a recorder for the
// duration of one test and restores panic-on-violation afterwards.
func captureViolations(t *testing.T) *[]InvariantViolation {
	t.Helper()
	var got []InvariantViolation
	EnableInvariants(func(v InvariantViolation) { got = append(got, v) })
	t.Cleanup(func() { EnableInvariants(nil) })
	return &got
}

func rules(vs []InvariantViolation) string {
	var b strings.Builder
	for _, v := range vs {
		b.WriteString(v.Rule)
		b.WriteString(";")
	}
	return b.String()
}

// establishedPair returns a connected pair on a clean wired path.
func establishedPair(t *testing.T, seed uint64) (*testWorld, *Conn, *Conn) {
	t.Helper()
	w := newWorld(cleanPath(), seed)
	client, server := w.net.NewConnPair(DefaultConfig(), DefaultConfig(), "inv", "d")
	client.OnEstablished(func() { client.Write(10) })
	client.Connect()
	w.loop.RunUntilIdle()
	if !client.Established() || !server.Established() {
		t.Fatal("pair did not establish")
	}
	return w, client, server
}

// TestInvariantCatchesForgedAck injects the classic corruption the
// checker exists for — an acknowledgment of data that was never sent —
// and asserts it is reported rather than silently clamped.
func TestInvariantCatchesForgedAck(t *testing.T) {
	got := captureViolations(t)
	_, client, _ := establishedPair(t, 42)

	forged := &Segment{Flags: flagACK, Ack: client.sndNxt + 1<<20, Wnd: 64 << 10}
	client.handleSegment(forged)

	found := false
	for _, v := range *got {
		if v.Rule == "ack-unsent" {
			found = true
		}
	}
	if !found {
		t.Fatalf("forged ACK not caught; violations: %s", rules(*got))
	}
}

// TestInvariantCatchesCwndCorruption poisons the congestion window with
// NaN — the kind of bug a broken CC increment would introduce — and
// asserts the next ACK-path audit flags it.
func TestInvariantCatchesCwndCorruption(t *testing.T) {
	got := captureViolations(t)
	w, _, server := establishedPair(t, 7)

	server.cwnd = math.NaN()
	server.Write(30 * 1380)
	w.loop.RunUntilIdle()

	found := false
	for _, v := range *got {
		if v.Rule == "cwnd-range" {
			found = true
		}
	}
	if !found {
		t.Fatalf("NaN cwnd not caught; violations: %s", rules(*got))
	}
}

// TestInvariantCatchesInflightCorruption shifts an in-flight sequence
// number — breaking byte accounting — and asserts the contiguity audit
// reports it when the next ACK arrives.
func TestInvariantCatchesInflightCorruption(t *testing.T) {
	got := captureViolations(t)
	w, _, server := establishedPair(t, 13)

	server.Write(20 * 1380)
	// Let some segments get in flight, then corrupt one mid-window.
	w.loop.Run(w.loop.Now().Add(25 * time.Millisecond))
	if fl := server.infl(); len(fl) > 1 {
		fl[1].seq += 77
	} else {
		t.Fatal("no in-flight window to corrupt")
	}
	w.loop.RunUntilIdle()

	found := false
	for _, v := range *got {
		if v.Rule == "inflight-gap" || v.Rule == "inflight-tail" || v.Rule == "inflight-head" {
			found = true
		}
	}
	if !found {
		t.Fatalf("inflight corruption not caught; violations: %s", rules(*got))
	}
}

// TestInvariantCatchesPktsInFlightDrift asserts the audit of trySend's
// running packets-in-flight count reports a count that disagrees with
// the deque. trySend keeps the count in a local, so the drift is forged
// at the check itself.
func TestInvariantCatchesPktsInFlightDrift(t *testing.T) {
	got := captureViolations(t)
	w, _, server := establishedPair(t, 17)

	server.Write(20 * 1380)
	w.loop.Run(w.loop.Now().Add(25 * time.Millisecond))
	n := server.pktsInFlight()
	if n == 0 {
		t.Fatal("no flight to count")
	}
	server.checkPktsInFlight("forged", n)
	if len(*got) != 0 {
		t.Fatalf("correct count reported: %s", rules(*got))
	}
	server.checkPktsInFlight("forged", n-1)
	if rules(*got) != "pkts-in-flight;" {
		t.Fatalf("drifted count not caught; violations: %s", rules(*got))
	}
}

// TestInvariantCatchesCoalescedDupAck forges the situation RFC 5681
// §4.2 forbids — a third duplicate ACK that the receiver's delayed-ACK
// timer released — and asserts the fast-retransmit entry point refuses
// to fire recovery off it. The real receiver can never produce this
// (arming the timer always advances the ACK value; out-of-order
// arrivals cancel it), so the forgery is the only way to prove the
// guard is wired in.
func TestInvariantCatchesCoalescedDupAck(t *testing.T) {
	got := captureViolations(t)
	w, _, server := establishedPair(t, 21)

	server.Write(20 * 1380)
	w.loop.Run(w.loop.Now().Add(25 * time.Millisecond))
	if len(server.infl()) == 0 {
		t.Fatal("no flight to forge duplicates against")
	}
	dup := func(delayed bool) *Segment {
		return &Segment{
			Flags: flagACK, Ack: server.sndUna, Wnd: 1 << 20,
			TSVal: w.loop.Now(), TSEcr: server.tsRecent, Delayed: delayed,
		}
	}
	server.receiveAck(dup(false))
	server.receiveAck(dup(false))
	server.receiveAck(dup(true)) // the firing duplicate claims timer origin

	found := false
	for _, v := range *got {
		if v.Rule == "coalesced-dupack" {
			found = true
		}
	}
	if !found {
		t.Fatalf("coalesced firing dupACK not caught; violations: %s", rules(*got))
	}
}

// TestInvariantsSilentOnImpairedTransfer runs a hostile link — bursty
// loss, reordering, duplication, a shallow queue — and asserts the
// checker stays silent: impairments must surface as protocol events
// (retransmits, DSACKs), never as state corruption. It runs once with
// the default stack and once with TLP, RACK and F-RTO all on, so every
// recovery path that drains the marked-lost backlog is audited.
func TestInvariantsSilentOnImpairedTransfer(t *testing.T) {
	if !InvariantsEnabled() {
		t.Fatal("invariants not armed by TestMain")
	}
	fixes := DefaultConfig()
	fixes.TLP, fixes.RACK, fixes.FRTO = true, true, true
	for _, tc := range []struct {
		name string
		cfg  Config
	}{{"default", DefaultConfig()}, {"tlp+rack+frto", fixes}} {
		t.Run(tc.name, func(t *testing.T) { impairedTransfer(t, tc.cfg) })
	}
}

func impairedTransfer(t *testing.T, ccfg Config) {
	loop := sim.NewLoop()
	cfg := netem.PathConfig{
		Up: netem.LinkConfig{
			BandwidthBPS: 2_000_000, Delay: 30 * time.Millisecond,
			Jitter: 10 * time.Millisecond, QueueBytes: 32 << 10, LossRate: 0.01,
		},
		Down: netem.LinkConfig{
			BandwidthBPS: 4_000_000, Delay: 30 * time.Millisecond,
			Jitter: 10 * time.Millisecond, QueueBytes: 16 << 10, LossRate: 0.01,
		},
	}.WithImpairments(netem.Impairments{
		GEGoodToBad: 0.01, GEBadToGood: 0.3, GELossBad: 0.5,
		ReorderProb: 0.02, ReorderDelay: 15 * time.Millisecond,
		DupProb:     0.02,
		ExtraJitter: 5 * time.Millisecond,
	})
	path := netem.NewPath(loop, cfg, sim.NewRNG(99), nil)
	nw := NewNetwork(loop, path)
	client, server := nw.NewConnPair(ccfg, ccfg, "imp", "d")
	done := false
	var asm StreamAssembler
	const total = 300 << 10
	client.OnDeliver(asm.Deliver)
	asm.Expect(total, func() { done = true })
	client.OnEstablished(func() { client.Write(200) })
	server.OnDeliver(func(int) { server.Write(total) })
	client.Connect()
	loop.RunUntilIdle()
	if !done {
		t.Fatal("impaired transfer did not complete")
	}
	// The impairments must actually have fired for this to mean much.
	down := path.BtoA.Stats()
	if down.DroppedBurst == 0 && down.Reordered == 0 && down.Duplicated == 0 {
		t.Fatalf("impairments inert: %+v", down)
	}
}

// TestSegmentPoolNoLeakUnderDropsAndImpairments is the pool-accounting
// audit: every segment handed out by the pool must retire exactly once,
// across queue-overflow drops, random and burst loss, duplication
// (which mints pool copies) and reordering. A quiesced network with a
// nonzero live count is a leak; a negative count is a double free.
func TestSegmentPoolNoLeakUnderDropsAndImpairments(t *testing.T) {
	for _, pooling := range []bool{true, false} {
		SetSegmentPooling(pooling)
		loop := sim.NewLoop()
		cfg := netem.PathConfig{
			Up: netem.LinkConfig{
				BandwidthBPS: 2_000_000, Delay: 20 * time.Millisecond,
				QueueBytes: 8 << 10, LossRate: 0.02,
			},
			Down: netem.LinkConfig{
				// Queue shallower than one IW10 burst: guarantees
				// overflow drops on the send path.
				BandwidthBPS: 3_000_000, Delay: 20 * time.Millisecond,
				QueueBytes: 6 << 10, LossRate: 0.02,
			},
		}.WithImpairments(netem.Impairments{
			GEGoodToBad: 0.02, GEBadToGood: 0.25, GELossBad: 0.5,
			ReorderProb: 0.03, DupProb: 0.05,
		})
		path := netem.NewPath(loop, cfg, sim.NewRNG(5), nil)
		nw := NewNetwork(loop, path)
		client, server := nw.NewConnPair(DefaultConfig(), DefaultConfig(), "leak", "d")
		client.OnDeliver(func(int) {})
		client.OnEstablished(func() { client.Write(500) })
		server.OnDeliver(func(int) { server.Write(150 << 10) })
		client.Connect()
		loop.RunUntilIdle()

		down := path.BtoA.Stats()
		if down.DroppedQueue == 0 {
			t.Fatalf("pooling=%v: no queue drops; the leak path was not exercised (%+v)", pooling, down)
		}
		if down.Duplicated == 0 {
			t.Fatalf("pooling=%v: no duplicates; the pool-copy path was not exercised", pooling)
		}
		if live := nw.LiveSegments(); live != 0 {
			t.Fatalf("pooling=%v: %d segments leaked (negative = double free)", pooling, live)
		}
	}
	SetSegmentPooling(true)
}
