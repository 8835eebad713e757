package tcpsim

import (
	"time"

	"spdier/internal/netem"
	"spdier/internal/sim"
)

// QUIC-style transport model. This is not QUIC-the-wire-protocol; it is
// the three architectural properties of QUIC that answer the paper's
// pathology, modeled at the same fidelity as the TCP Conn beside it:
//
//  1. Stream-level loss isolation: packets carry (stream, offset) data
//     and the receiver reassembles per stream, so a retransmission on
//     one stream never head-of-line-blocks delivery on another — the
//     transport-level contrast to SPDY-over-TCP, where one lost segment
//     stalls every multiplexed resource behind it.
//  2. Connection-level loss recovery decoupled from streams: packet
//     numbers are never reused (retransmissions get fresh PNs), so RTT
//     samples are never ambiguous (Karn's rule dissolves) and spurious
//     recovery is detected exactly — an original packet acknowledged
//     after its data was re-sent *proves* the loss declaration wrong.
//  3. 0-RTT resumption: a destination with cached metrics skips the
//     handshake round trips entirely, the QUIC answer to §6.2.4's
//     "cache more aggressively" direction.
//
// The sender reuses rttEstimator and CongestionControl verbatim — the
// composability the transport refactor is for: loss recovery and window
// growth are layers, not properties of TCP.

// quicHeaderBytes models the short-header QUIC packet overhead
// (flags + CID + PN) plus the UDP/IP headers — comparable to TCP's 40
// so protocol deltas come from behaviour, not header-size accounting.
const quicHeaderBytes = 38

// quicPacketThreshold is the reordering threshold (RFC 9002 §6.1.1):
// a packet is declared lost when one sent this many PNs later has been
// acknowledged. Matches the TCP stack's three-dupACK fast retransmit.
const quicPacketThreshold = 3

// quicInitialPad models the anti-amplification padding of Initial
// flights (RFC 9000 §14.1).
const quicInitialPad = 1200

// quicZeroRTTLen models the un-padded 0-RTT resumption ticket packet.
const quicZeroRTTLen = 300

// QUICPacket is the unit carried across the emulated path for a
// QUICConn: stream data addressed by (StreamID, Offset) plus optional
// ACK and handshake framing. Packets are pooled exactly like Segments.
type QUICPacket struct {
	to   *QUICConn
	From string

	PN       uint64
	StreamID uint32
	Offset   uint64
	Len      int
	Fin      bool

	// Hs marks handshake legs: 0 none, 1 client Initial, 2 server reply.
	Hs      int
	CtrlLen int

	Ack        bool
	AckLargest uint64
	AckRanges  [][2]uint64 // closed PN intervals, ascending
}

// wireSize is the number of bytes the packet occupies on the link.
func (p *QUICPacket) wireSize() int {
	n := quicHeaderBytes + p.Len + p.CtrlLen
	if p.Ack {
		n += 12 + 8*len(p.AckRanges)
	}
	return n
}

// DupPayload implements netem.Duplicable: like Segment.DupPayload, the
// duplicate must be an independent pooled copy with its own ranges
// backing array, because delivered packets are recycled.
func (p *QUICPacket) DupPayload() netem.Payload {
	var cp *QUICPacket
	if p.to != nil && p.to.net != nil {
		cp = p.to.net.getQPkt()
	} else {
		cp = &QUICPacket{}
	}
	ranges := append(cp.AckRanges[:0], p.AckRanges...)
	*cp = *p
	cp.AckRanges = ranges
	return cp
}

// qSent is the sender's record of one in-flight (or resolved) packet.
// Records retire from the front of the deque once acknowledged; a
// declared-lost record stays until its fate is known — acknowledged
// after all (spurious declaration) or superseded by an acknowledged
// retransmission (loss confirmed).
type qSent struct {
	pn       uint64
	streamID uint32
	offset   uint64
	length   int
	fin      bool
	sentAt   sim.Time
	origPN   uint64 // set when this packet re-sends an earlier packet's data
	hasOrig  bool
	lost     bool // declared lost (bytes already removed from flight)
	acked    bool // resolved: acknowledged, or loss confirmed via retx ack
}

// qChunk is one WriteStream call, packetized FIFO.
type qChunk struct {
	streamID  uint32
	offset    uint64
	remaining int
}

// qRange is a half-open byte range [start, end) buffered out of order.
type qRange struct{ start, end uint64 }

// qRecvStream reassembles one stream independently of its siblings —
// the no-transport-HoL-blocking property under test by the
// cross-protocol metamorphic oracles.
type qRecvStream struct {
	nxt uint64
	ooo []qRange // disjoint, ascending
}

// QUICConn is one endpoint of a simulated QUIC-style connection.
type QUICConn struct {
	loop *sim.Loop
	cfg  Config
	id   string
	dest string

	isClient bool
	peer     *QUICConn
	out      *netem.Link
	net      *Network

	state         int
	onEstablished func()
	onStreamDel   func(streamID uint32, n int)
	hsRetry       sim.Timer
	hsSentAt      sim.Time

	// --- sender half (shared layers: rttEstimator + CongestionControl) ---
	cc            CongestionControl
	rtt           rttEstimator
	cwnd          float64
	ssthresh      float64
	nextPN        uint64
	largestAcked  uint64
	ackedAny      bool
	sent          []qSent
	sentHead      int
	bytesInFlight int
	sendq         []qChunk
	sendqHead     int
	queuedBytes   int
	streamOffs    map[uint32]uint64
	everSent      bool
	lastDataSend  sim.Time

	// Loss episodes mirror the TCP stack's once-per-window reduction:
	// losses of packets below recoveryEnd belong to the episode that
	// already reduced the window.
	inRecovery   bool
	recoveryEnd  uint64
	undoValid    bool
	undoCwnd     float64
	undoSsthresh float64

	ptoTimer sim.Timer
	ptoFn    func()

	writableThresh int
	writableHook   func()
	inWritableHook bool

	// --- receiver half ---
	rcvRanges    [][2]uint64 // received PNs, merged, ascending
	largestRcvd  uint64
	pktsSinceAck int
	delayedAck   sim.Timer
	delayedAckFn func()
	streams      map[uint32]*qRecvStream

	// --- counters (mirror Conn's public ledger) ---
	BytesSentApp   int64
	Retransmits    int
	SpuriousRetx   int
	IdleRestarts   int
	ZeroRTTResumed bool
}

// NewQUICPair creates a client endpoint (side A, the device) and server
// endpoint (side B, the proxy) wired through the network, exactly
// mirroring NewConnPair. dest keys both metrics caches.
func (n *Network) NewQUICPair(clientCfg, serverCfg Config, id, dest string) (client, server *QUICConn) {
	client = newQUICConn(n.loop, clientCfg, id+":c", dest, true)
	server = newQUICConn(n.loop, serverCfg, id+":s", dest, false)
	client.net, server.net = n, n
	client.peer, server.peer = server, client
	client.out = n.path.AtoB
	server.out = n.path.BtoA
	n.qconns = append(n.qconns, client, server)
	return client, server
}

// QUICConns returns every QUIC endpoint created through this network.
func (n *Network) QUICConns() []*QUICConn { return n.qconns }

func newQUICConn(loop *sim.Loop, cfg Config, id, dest string, isClient bool) *QUICConn {
	if cfg.MSS <= 0 {
		cfg = DefaultConfig()
	}
	q := &QUICConn{
		loop:       loop,
		cfg:        cfg,
		id:         id,
		dest:       dest,
		isClient:   isClient,
		cc:         NewCC(cfg.CC),
		rtt:        newRTTEstimator(cfg.InitialRTO, cfg.MinRTO, cfg.MaxRTO),
		cwnd:       cfg.InitialCwnd,
		ssthresh:   1 << 20,
		streamOffs: map[uint32]uint64{},
		streams:    map[uint32]*qRecvStream{},
	}
	q.ptoFn = q.onPTO
	q.delayedAckFn = func() {
		if q.pktsSinceAck > 0 {
			q.sendAckNow()
		}
	}
	if e := cfg.Metrics.Lookup(dest); e != nil {
		if e.Ssthresh > 0 {
			q.ssthresh = e.Ssthresh
		}
		q.rtt.seed(e.SRTT, e.RTTVar)
	}
	return q
}

func (q *QUICConn) releaseRuntime() {
	q.sent, q.sentHead = nil, 0
	q.sendq, q.sendqHead = nil, 0
	q.streamOffs, q.streams = nil, nil
	q.rcvRanges = nil
	q.onEstablished, q.onStreamDel, q.writableHook = nil, nil, nil
	q.ptoFn, q.delayedAckFn = nil, nil
	q.ptoTimer, q.delayedAck, q.hsRetry = sim.Timer{}, sim.Timer{}, sim.Timer{}
	q.cfg.Probe = nil
}

// OnEstablished registers the connection-ready callback.
func (q *QUICConn) OnEstablished(fn func()) { q.onEstablished = fn }

// OnStreamDeliver registers the per-stream in-order delivery callback:
// fn(streamID, n) reports n contiguous new bytes on that stream.
func (q *QUICConn) OnStreamDeliver(fn func(streamID uint32, n int)) { q.onStreamDel = fn }

// Established reports whether the connection is ready to carry data.
func (q *QUICConn) Established() bool { return q.state == stEstablished }

// InFlightBytes returns unacknowledged stream bytes on the wire.
func (q *QUICConn) InFlightBytes() int { return q.bytesInFlight }

// BufferedBytes returns bytes written but not yet packetized.
func (q *QUICConn) BufferedBytes() int { return q.queuedBytes }

// SetWritableHook mirrors Conn.SetWritableHook for the proxy pump.
func (q *QUICConn) SetWritableHook(threshold int, fn func()) {
	q.writableThresh = threshold
	q.writableHook = fn
}

func (q *QUICConn) fireWritable() {
	if q.writableHook == nil || q.inWritableHook {
		return
	}
	if q.queuedBytes > q.writableThresh {
		return
	}
	q.inWritableHook = true
	q.writableHook()
	q.inWritableHook = false
}

// Connect starts the handshake. With ZeroRTT and cached metrics for the
// destination, the connection is usable immediately (resumption); the
// Initial still travels to wake the server side.
func (q *QUICConn) Connect() {
	if !q.isClient {
		panic("tcpsim: Connect on server QUIC endpoint")
	}
	if q.state != stClosed {
		return
	}
	if q.cfg.ZeroRTT && q.cfg.Metrics.Lookup(q.dest) != nil {
		q.ZeroRTTResumed = true
		q.state = stEstablished
		init := q.newPkt()
		init.Hs = 1
		init.CtrlLen = quicZeroRTTLen
		q.transmit(init)
		q.probe(EvEstablished)
		if q.onEstablished != nil {
			q.onEstablished()
		}
		return
	}
	q.state = stSynSent
	q.hsSentAt = q.loop.Now()
	init := q.newPkt()
	init.Hs = 1
	init.CtrlLen = quicInitialPad
	q.transmit(init)
	q.armHandshakeRetry(q.cfg.InitialRTO)
}

func (q *QUICConn) armHandshakeRetry(d time.Duration) {
	q.hsRetry.Stop()
	q.hsRetry = q.loop.After(d, func() {
		if q.state != stSynSent {
			return
		}
		init := q.newPkt()
		init.Hs = 1
		init.CtrlLen = quicInitialPad
		q.transmit(init)
		q.armHandshakeRetry(2 * d)
	})
}

// WriteStream queues n application bytes on the given stream.
func (q *QUICConn) WriteStream(streamID uint32, n int) {
	if n <= 0 {
		return
	}
	if q.state == stClosed && q.isClient {
		q.Connect()
	}
	q.BytesSentApp += int64(n)
	q.maybeIdleRestart()
	off := q.streamOffs[streamID]
	q.streamOffs[streamID] = off + uint64(n)
	// Coalesce with the tail chunk when contiguous on the same stream,
	// so chatty writers don't grow the queue one entry per call.
	if ln := len(q.sendq); ln > q.sendqHead {
		t := &q.sendq[ln-1]
		if t.streamID == streamID && t.offset+uint64(t.remaining) == off {
			t.remaining += n
			q.queuedBytes += n
			q.trySend()
			return
		}
	}
	q.sendq = append(q.sendq, qChunk{streamID: streamID, offset: off, remaining: n})
	q.queuedBytes += n
	q.trySend()
}

// Close flushes metrics to the cache. QUIC's CONNECTION_CLOSE is not
// modeled; experiments read counters, not teardown timing.
func (q *QUICConn) Close() {
	if q.state == stClosing || q.state == stClosed {
		return
	}
	q.storeMetrics()
	q.state = stClosing
}

func (q *QUICConn) storeMetrics() {
	if q.cfg.Metrics == nil {
		return
	}
	e := MetricsEntry{SRTT: q.rtt.srtt, RTTVar: q.rtt.rttvar}
	if q.ssthresh < 1<<20 {
		e.Ssthresh = q.ssthresh
	}
	if e.SRTT > 0 || e.Ssthresh > 0 {
		q.cfg.Metrics.Store(q.dest, e)
	}
}

// maybeIdleRestart applies the same congestion-window validation policy
// as the TCP stack — the layer composes unchanged onto a different
// transport, which is the refactor's point.
func (q *QUICConn) maybeIdleRestart() {
	if q.cfg.NoIdleDemotion || !q.everSent || q.bytesInFlight > 0 || q.queuedBytes > 0 {
		return
	}
	idle := q.loop.Now().Sub(q.lastDataSend)
	if idle <= q.rtt.base() {
		return
	}
	if q.cfg.SlowStartAfterIdle {
		if q.cwnd > q.cfg.InitialCwnd {
			q.cwnd = q.cfg.InitialCwnd
		}
		q.cc.Reset()
		q.IdleRestarts++
		q.probe(EvIdleRestart)
	}
	if q.cfg.ResetRTTAfterIdle {
		q.rtt.reset()
		q.probe(EvRTTReset)
	}
}

func (q *QUICConn) probe(ev ProbeEvent) {
	if q.cfg.Probe == nil {
		return
	}
	q.cfg.Probe.Sample(ProbeSample{
		At:       q.loop.Now(),
		ConnID:   q.id,
		Event:    ev,
		Cwnd:     q.cwnd,
		Ssthresh: q.ssthresh,
		InFlight: q.bytesInFlight,
		RTOms:    float64(q.rtt.current()) / float64(time.Millisecond),
		SRTTms:   float64(q.rtt.srtt) / float64(time.Millisecond),
	})
}

func (q *QUICConn) newPkt() *QUICPacket {
	if q.net != nil {
		return q.net.getQPkt()
	}
	return &QUICPacket{}
}

func (q *QUICConn) transmit(p *QUICPacket) {
	p.From = q.id
	p.to = q.peer
	if !q.out.Send(p, p.wireSize()) && q.net != nil {
		q.net.putQPkt(p)
	}
}

// trySend packetizes queued chunks while the congestion window allows,
// one stream frame per packet.
func (q *QUICConn) trySend() {
	if q.state != stEstablished {
		return
	}
	cwndBytes := int(q.cwnd) * q.cfg.MSS
	for q.sendqHead < len(q.sendq) && q.bytesInFlight < cwndBytes {
		ch := &q.sendq[q.sendqHead]
		n := ch.remaining
		if n > q.cfg.MSS {
			n = q.cfg.MSS
		}
		q.sendData(ch.streamID, ch.offset, n, false, 0, false)
		ch.offset += uint64(n)
		ch.remaining -= n
		q.queuedBytes -= n
		if ch.remaining == 0 {
			q.sendqHead++
			if q.sendqHead == len(q.sendq) {
				q.sendq = q.sendq[:0]
				q.sendqHead = 0
			}
		}
	}
	q.fireWritable()
}

// sendData emits one stream-frame packet with a fresh packet number and
// records it in flight. origPN marks retransmissions of earlier data.
func (q *QUICConn) sendData(sid uint32, off uint64, n int, hasOrig bool, origPN uint64, fin bool) {
	pn := q.nextPN
	q.nextPN++
	p := q.newPkt()
	p.PN = pn
	p.StreamID = sid
	p.Offset = off
	p.Len = n
	p.Fin = fin
	q.pushSent(qSent{
		pn: pn, streamID: sid, offset: off, length: n, fin: fin,
		sentAt: q.loop.Now(), origPN: origPN, hasOrig: hasOrig,
	})
	q.bytesInFlight += n
	q.everSent = true
	q.lastDataSend = q.loop.Now()
	q.transmit(p)
	q.probe(EvSend)
	q.armPTO()
}

func (q *QUICConn) pushSent(s qSent) {
	if len(q.sent) == cap(q.sent) && q.sentHead > 0 {
		n := copy(q.sent, q.sent[q.sentHead:])
		q.sent = q.sent[:n]
		q.sentHead = 0
	}
	q.sent = append(q.sent, s)
}

// flight returns the live window of the sent-packet deque.
func (q *QUICConn) flight() []qSent { return q.sent[q.sentHead:] }

// compactFlight retires resolved records from the front.
func (q *QUICConn) compactFlight() {
	for q.sentHead < len(q.sent) && q.sent[q.sentHead].acked {
		q.sentHead++
	}
	if q.sentHead == len(q.sent) {
		q.sent = q.sent[:0]
		q.sentHead = 0
	}
}

func (q *QUICConn) armPTO() {
	q.ptoTimer.Stop()
	if q.bytesInFlight == 0 {
		return
	}
	q.ptoTimer = q.loop.After(q.rtt.current(), q.ptoFn)
}

// onPTO handles a probe timeout: re-send the earliest outstanding data
// under a fresh packet number and back off the timer. Unlike a TCP RTO
// the window is NOT collapsed — loss is only declared by the packet
// threshold once acknowledgments return, or by persistent congestion
// after repeated fruitless probes (RFC 9002 §7.6). A stall that turns
// out to be a radio promotion therefore costs a duplicate packet, not
// the connection's whole window.
func (q *QUICConn) onPTO() {
	var tgt *qSent
	fl := q.flight()
	for i := range fl {
		if !fl[i].acked && !fl[i].lost {
			tgt = &fl[i]
			break
		}
	}
	if tgt == nil {
		return
	}
	q.Retransmits++
	// A probe of a probe tracks the nearest copy: spuriousness is a
	// per-declaration question, not a per-datum one.
	orig := tgt.pn
	q.probe(EvRetransmit)
	q.sendData(tgt.streamID, tgt.offset, tgt.length, true, orig, tgt.fin)
	q.rtt.backoff()
	// Persistent congestion: two consecutive fruitless probe timeouts
	// collapse the window to the minimum, as RFC 9002 §7.6.2 does for a
	// lost span exceeding the persistent-congestion duration. The undo
	// snapshot lets a later spurious proof restore everything.
	if q.rtt.backoffN >= 2 {
		q.congestionEvent(orig)
		if q.cwnd > 2 {
			q.cwnd = 2
		}
	}
	q.armPTO()
}

// congestionEvent applies the once-per-episode window reduction for a
// loss involving packet pn, snapshotting state for Eifel-style undo.
func (q *QUICConn) congestionEvent(pn uint64) {
	if q.inRecovery && pn < q.recoveryEnd {
		return
	}
	q.undoValid = true
	q.undoCwnd, q.undoSsthresh = q.cwnd, q.ssthresh
	q.cc.OnLoss(q.loop.Now(), q.cwnd)
	q.ssthresh = q.cc.SsthreshAfterLoss(q.cwnd)
	if q.ssthresh < 2 {
		q.ssthresh = 2
	}
	q.cwnd = q.ssthresh
	q.inRecovery = true
	q.recoveryEnd = q.nextPN
}

// undoCongestionEvent restores the pre-episode window after a spurious
// loss declaration is proven by the original packet's acknowledgment.
func (q *QUICConn) undoCongestionEvent() {
	if !q.undoValid || q.cfg.DisableUndo {
		return
	}
	q.cwnd, q.ssthresh = q.undoCwnd, q.undoSsthresh
	q.cc.OnUndo(q.loop.Now(), q.cwnd)
	q.undoValid = false
	q.probe(EvUndo)
}

// handlePacket is the receive demultiplexer for one endpoint.
func (q *QUICConn) handlePacket(p *QUICPacket) {
	if p.Hs == 1 {
		q.handleInitial()
		return
	}
	if p.Hs == 2 {
		q.handleHandshakeReply()
		return
	}
	if p.Ack {
		q.handleAck(p)
		return
	}
	// A data packet from the client also completes the server's
	// handshake view under 0-RTT (the Initial may have been lost).
	if q.state == stClosed && !q.isClient {
		q.becomeEstablished()
	}
	if q.state == stSynSent && q.isClient {
		// Data cannot arrive before the reply in FIFO order, but a
		// reordered reply can; treat any peer packet as proof.
		q.hsRetry.Stop()
		q.becomeEstablished()
	}
	q.receiveData(p)
}

func (q *QUICConn) handleInitial() {
	if q.isClient {
		return
	}
	if q.state == stClosed {
		q.becomeEstablished()
	}
	// Always (re-)send the reply: a duplicate Initial means the client
	// retried, so the previous reply was likely lost.
	rep := q.newPkt()
	rep.Hs = 2
	rep.CtrlLen = quicInitialPad
	q.transmit(rep)
}

func (q *QUICConn) handleHandshakeReply() {
	if !q.isClient || q.state != stSynSent {
		return
	}
	q.hsRetry.Stop()
	q.rtt.sample(q.loop.Now().Sub(q.hsSentAt))
	q.becomeEstablished()
}

func (q *QUICConn) becomeEstablished() {
	if q.state == stEstablished {
		return
	}
	q.state = stEstablished
	q.probe(EvEstablished)
	if q.onEstablished != nil {
		q.onEstablished()
	}
	q.trySend()
}

// handleAck processes an ACK packet: resolve newly acknowledged
// records, sample RTT on the largest, detect spurious retransmissions,
// then run packet-threshold loss detection.
func (q *QUICConn) handleAck(p *QUICPacket) {
	newlyAcked, largestNew := q.resolveAcked(p)
	q.applyAck(p, newlyAcked, largestNew)
}

// resolveAcked marks every flight record the ACK covers and reports how
// many were newly acknowledged and the largest of them. The flight and
// p.AckRanges both ascend, so one merge-walk resolves them in
// O(flight + ranges): r skips ranges that end below the record's PN,
// and the walk stops once the flight passes the last range.
func (q *QUICConn) resolveAcked(p *QUICPacket) (newlyAcked int, largestNew *qSent) {
	fl := q.flight()
	ranges := p.AckRanges
	r := 0
	for i := range fl {
		e := &fl[i]
		for r < len(ranges) && ranges[r][1] < e.pn {
			r++
		}
		if r == len(ranges) {
			break
		}
		if e.acked || e.pn < ranges[r][0] {
			continue
		}
		if e.lost {
			// Declared lost, retransmitted — and here is the original's
			// acknowledgment after all: the declaration was spurious.
			e.acked = true
			q.SpuriousRetx++
			q.probe(EvSpurious)
			q.undoCongestionEvent()
			continue
		}
		e.acked = true
		q.bytesInFlight -= e.length
		newlyAcked++
		if largestNew == nil || e.pn > largestNew.pn {
			largestNew = e
		}
		if e.hasOrig {
			q.resolveOriginal(e.origPN)
		} else {
			q.checkSpuriousProbe(e.pn, fl[i+1:])
		}
	}
	return newlyAcked, largestNew
}

// applyAck runs the rest of ACK processing once the covered records are
// resolved: RTT sampling, window growth, loss detection and the next
// send.
func (q *QUICConn) applyAck(p *QUICPacket, newlyAcked int, largestNew *qSent) {
	if newlyAcked == 0 {
		q.compactFlight()
		return
	}
	if p.AckLargest > q.largestAcked || !q.ackedAny {
		q.largestAcked = p.AckLargest
		q.ackedAny = true
	}
	// PNs are never reused, so every sample is unambiguous — no Karn
	// exclusion needed, which is exactly property (2) above.
	if largestNew != nil && largestNew.pn == p.AckLargest {
		q.rtt.sample(q.loop.Now().Sub(largestNew.sentAt))
	}
	q.rtt.progress()
	if q.inRecovery && q.largestAcked >= q.recoveryEnd {
		q.inRecovery = false
		q.undoValid = false
		q.cc.OnExitRecovery(q.loop.Now(), q.cwnd)
	}
	if !q.inRecovery {
		if q.cwnd < q.ssthresh {
			q.cwnd += float64(newlyAcked)
			if q.cwnd > q.ssthresh {
				q.cwnd = q.ssthresh
			}
		} else {
			q.cwnd += q.cc.OnAckCA(q.loop.Now(), q.cwnd, newlyAcked, q.rtt.srtt)
		}
	}
	q.probe(EvAck)
	q.detectLosses()
	q.compactFlight()
	q.armPTO()
	q.trySend()
}

// resolveOriginal marks the chain of earlier copies of just-acked
// retransmitted data as resolved: their loss is confirmed (the data
// only arrived via the retransmission), so they may retire.
func (q *QUICConn) resolveOriginal(pn uint64) {
	fl := q.flight()
	for {
		var e *qSent
		for i := range fl {
			if fl[i].pn == pn {
				e = &fl[i]
				break
			}
		}
		if e == nil || e.acked {
			return
		}
		e.acked = true
		if e.lost {
			// bytes already left the flight when declared lost
		} else {
			q.bytesInFlight -= e.length
		}
		if !e.hasOrig {
			return
		}
		pn = e.origPN
	}
}

// checkSpuriousProbe detects the PTO analogue of a spurious timeout:
// the original packet was acknowledged while an un-acked probe copy of
// its data is still in flight — the probe was unnecessary. fl need only
// hold the records after the original's: a copy always carries a fresh
// PN, above every PN already in flight.
func (q *QUICConn) checkSpuriousProbe(pn uint64, fl []qSent) {
	for i := range fl {
		r := &fl[i]
		if r.hasOrig && r.origPN == pn && !r.acked {
			q.SpuriousRetx++
			q.probe(EvSpurious)
			q.undoCongestionEvent()
			return
		}
	}
}

// detectLosses declares packets lost by the reordering threshold and
// retransmits their data under fresh packet numbers.
func (q *QUICConn) detectLosses() {
	if !q.ackedAny {
		return
	}
	fl := q.flight()
	for i := range fl {
		e := &fl[i]
		if e.acked || e.lost {
			continue
		}
		if e.pn+quicPacketThreshold > q.largestAcked {
			break // deque is PN-ordered; nothing further qualifies
		}
		e.lost = true
		q.bytesInFlight -= e.length
		if q.ackedRetxOf(e.pn) {
			// The data already arrived via an earlier probe copy; the
			// loss is real (count the episode) but nothing to resend.
			e.acked = true
			q.congestionEvent(e.pn)
			continue
		}
		q.Retransmits++
		q.probe(EvFastRetx)
		q.congestionEvent(e.pn)
		q.sendData(e.streamID, e.offset, e.length, true, e.pn, e.fin)
	}
}

// ackedRetxOf reports whether an acknowledged copy of packet pn's data
// is in flight. A copy's PN is above pn and the flight is PN-ordered, so
// only the tail above pn is scanned. The scan reads the live flight, not
// a caller's view of it: detectLosses holds a view that its own
// retransmissions can shift when pushSent compacts the deque.
func (q *QUICConn) ackedRetxOf(pn uint64) bool {
	fl := q.flight()
	for i := len(fl) - 1; i >= 0 && fl[i].pn > pn; i-- {
		if fl[i].hasOrig && fl[i].origPN == pn && fl[i].acked {
			return true
		}
	}
	return false
}

// --- receiver half ---

// receiveData handles a stream-data packet: PN-level dedup and ACK
// bookkeeping at the connection level, then per-stream reassembly.
func (q *QUICConn) receiveData(p *QUICPacket) {
	fresh := q.recordPN(p.PN)
	if fresh {
		q.deliverStream(p.StreamID, p.Offset, p.Len)
	}
	q.pktsSinceAck++
	if q.pktsSinceAck >= 2 {
		q.sendAckNow()
	} else {
		q.delayedAck.Stop()
		q.delayedAck = q.loop.After(q.cfg.DelayedAckTimeout, q.delayedAckFn)
	}
}

// recordPN merges pn into the received-PN interval set, reporting
// whether it was new. The set is kept small by construction: in-order
// arrival extends the last interval in place.
func (q *QUICConn) recordPN(pn uint64) bool {
	if pn > q.largestRcvd {
		q.largestRcvd = pn
	}
	rs := q.rcvRanges
	// Fast path: extend or duplicate at the tail.
	if n := len(rs); n > 0 {
		last := &rs[n-1]
		if pn >= last[0] && pn <= last[1] {
			return false
		}
		if pn == last[1]+1 {
			last[1] = pn
			return true
		}
		if pn > last[1] {
			q.rcvRanges = append(rs, [2]uint64{pn, pn})
			q.capRcvRanges()
			return true
		}
	} else {
		q.rcvRanges = append(rs, [2]uint64{pn, pn})
		return true
	}
	// Out-of-order: insert/merge in the ascending interval list.
	for i := range rs {
		r := &rs[i]
		if pn >= r[0] && pn <= r[1] {
			return false
		}
		if pn < r[0] {
			if pn == r[0]-1 {
				r[0] = pn
				q.mergeRcvAt(i)
				return true
			}
			if i > 0 && pn == rs[i-1][1]+1 {
				rs[i-1][1] = pn
				q.mergeRcvAt(i - 1)
				return true
			}
			q.rcvRanges = append(rs, [2]uint64{})
			copy(q.rcvRanges[i+1:], q.rcvRanges[i:])
			q.rcvRanges[i] = [2]uint64{pn, pn}
			q.capRcvRanges()
			return true
		}
	}
	return false // unreachable: tail cases handled above
}

func (q *QUICConn) mergeRcvAt(i int) {
	rs := q.rcvRanges
	if i+1 < len(rs) && rs[i][1]+1 >= rs[i+1][0] {
		if rs[i+1][1] > rs[i][1] {
			rs[i][1] = rs[i+1][1]
		}
		q.rcvRanges = append(rs[:i+1], rs[i+2:]...)
	}
}

// capRcvRanges bounds the interval set by forgetting the lowest ranges;
// those packets were acknowledged long ago.
func (q *QUICConn) capRcvRanges() {
	const maxRanges = 32
	if len(q.rcvRanges) > maxRanges {
		n := copy(q.rcvRanges, q.rcvRanges[len(q.rcvRanges)-maxRanges:])
		q.rcvRanges = q.rcvRanges[:n]
	}
}

func (q *QUICConn) sendAckNow() {
	q.delayedAck.Stop()
	q.pktsSinceAck = 0
	p := q.newPkt()
	p.PN = q.nextPN
	q.nextPN++
	p.Ack = true
	p.AckLargest = q.largestRcvd
	p.AckRanges = append(p.AckRanges[:0], q.rcvRanges...)
	q.transmit(p)
}

// deliverStream reassembles [off, off+n) on the given stream and
// delivers any newly contiguous bytes — entirely independently of every
// other stream (property 1: no transport HoL blocking).
func (q *QUICConn) deliverStream(sid uint32, off uint64, n int) {
	if n <= 0 {
		return
	}
	st := q.streams[sid]
	if st == nil {
		st = &qRecvStream{}
		q.streams[sid] = st
	}
	end := off + uint64(n)
	if end <= st.nxt {
		return // duplicate data from a spurious retransmission
	}
	if off > st.nxt {
		st.buffer(off, end)
		return
	}
	// Contiguous: advance, then drain any now-adjacent buffered ranges.
	old := st.nxt
	st.nxt = end
	for len(st.ooo) > 0 && st.ooo[0].start <= st.nxt {
		if st.ooo[0].end > st.nxt {
			st.nxt = st.ooo[0].end
		}
		st.ooo = st.ooo[1:]
	}
	if q.onStreamDel != nil {
		q.onStreamDel(sid, int(st.nxt-old))
	}
}

// buffer inserts [start, end) into the out-of-order set, merging
// overlaps, keeping the set disjoint and ascending.
func (st *qRecvStream) buffer(start, end uint64) {
	i := 0
	for i < len(st.ooo) && st.ooo[i].end < start {
		i++
	}
	if i == len(st.ooo) {
		st.ooo = append(st.ooo, qRange{start, end})
		return
	}
	if end < st.ooo[i].start {
		st.ooo = append(st.ooo, qRange{})
		copy(st.ooo[i+1:], st.ooo[i:])
		st.ooo[i] = qRange{start, end}
		return
	}
	// Overlaps/abuts run [i, j): merge into one.
	if st.ooo[i].start < start {
		start = st.ooo[i].start
	}
	j := i
	for j < len(st.ooo) && st.ooo[j].start <= end {
		if st.ooo[j].end > end {
			end = st.ooo[j].end
		}
		j++
	}
	st.ooo[i] = qRange{start, end}
	st.ooo = append(st.ooo[:i+1], st.ooo[j:]...)
}
