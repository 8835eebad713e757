package tcpsim

import (
	"fmt"
	"sort"
	"time"

	"spdier/internal/netem"
	"spdier/internal/sim"
)

// debugLog, when set by tests, receives verbose per-event diagnostics.
var debugLog func(string)

// SetDebugLog installs (or clears, with nil) the package debug logger.
func SetDebugLog(fn func(string)) { debugLog = fn }

// Config holds the tunables of one endpoint's TCP stack. Defaults mirror
// the Linux 3.x stack on the paper's proxy VM.
type Config struct {
	// MSS is the maximum segment payload in bytes.
	MSS int
	// InitialCwnd is the initial congestion window in segments (IW10,
	// the then-new Linux default discussed in §7 via RFC 6928).
	InitialCwnd float64
	// InitialRTO is the pre-measurement retransmission timeout
	// (RFC 6298 says 1 s, classic BSD used 3 s; the paper's fix relies
	// on this being "multiple seconds", larger than the promotion delay).
	InitialRTO time.Duration
	// MinRTO floors the computed RTO (Linux: 200 ms).
	MinRTO time.Duration
	// MaxRTO caps RTO backoff.
	MaxRTO time.Duration
	// DelayedAckTimeout is the receiver's delayed-ACK timer.
	DelayedAckTimeout time.Duration
	// RecvBuffer bounds the advertised receive window in bytes.
	RecvBuffer int
	// SlowStartAfterIdle enables Linux congestion-window validation:
	// after an idle period longer than the RTO, cwnd is reset to the
	// initial window (ssthresh and the RTT estimate are NOT touched —
	// precisely the asymmetry the paper identifies).
	SlowStartAfterIdle bool
	// ResetRTTAfterIdle is the paper's §6.2.1 proposal: on the same idle
	// trigger, also discard the RTT estimate and restore the initial
	// multi-second RTO so the radio promotion delay cannot beat it.
	ResetRTTAfterIdle bool
	// CC selects the congestion control variant: "cubic" or "reno".
	CC string
	// Metrics, when non-nil, seeds new connections from (and stores
	// results into) the shared per-destination cache (§6.2.4).
	Metrics *MetricsCache
	// Probe receives tcp_probe-style samples; may be nil.
	Probe Probe
	// TLS models an SSL handshake (two extra round trips of control
	// data) before the connection is reported established, as Chrome's
	// SPDY sessions require.
	TLS bool
	// NoIdleDemotion disables idle-restart entirely (for unit tests).
	NoIdleDemotion bool
	// DisableUndo turns off DSACK-based undo of spurious loss episodes,
	// modeling stacks whose undo machinery is ineffective — the ablation
	// that recovers the paper's full §6.2.1 claim.
	DisableUndo bool

	// --- loss-recovery fix arms (recovery.go / rack.go / frto.go).
	// Independently toggleable; all off reproduces the paper-era stack
	// bit for bit. ---

	// TLP enables tail loss probes: a probe timeout ≈ 2·srtt
	// retransmits the tail (or sends one new segment) before the longer
	// RTO can fire, converting tail-drop timeouts into ACK-driven
	// recovery and pushing the re-armed RTO past short radio stalls.
	TLP bool
	// RACK enables time-based loss detection: a segment is marked lost
	// when a segment sent at least a reordering window later has been
	// delivered, replacing pure dupACK-count thresholds.
	RACK bool
	// FRTO enables RFC 5682 spurious-timeout handling with the full
	// Eifel-style undo: when the first ACK after an RTO covers a
	// never-retransmitted segment, cwnd/ssthresh/backoff and the CC
	// variant's state are restored — the in-protocol fix for the
	// paper's §6 pathology, applied without resetting the estimator.
	FRTO bool

	// ZeroRTT enables 0-RTT resumption on QUIC-style endpoints: when the
	// metrics cache holds an entry for the destination, Connect skips
	// the handshake round trip entirely. Ignored by TCP Conns.
	ZeroRTT bool
}

// DefaultConfig returns the Linux-like defaults used by the experiments.
func DefaultConfig() Config {
	return Config{
		MSS:                1380,
		InitialCwnd:        10,
		InitialRTO:         3 * time.Second,
		MinRTO:             200 * time.Millisecond,
		MaxRTO:             120 * time.Second,
		DelayedAckTimeout:  40 * time.Millisecond,
		RecvBuffer:         256 << 10,
		SlowStartAfterIdle: true,
		CC:                 "cubic",
	}
}

// Connection lifecycle states.
const (
	stClosed = iota
	stSynSent
	stSynRcvd
	stEstablished
	stClosing
)

// Congestion state machine (RFC 5681 / Linux CA states).
const (
	caOpen = iota
	caRecovery
	caLoss
)

// Network binds TCP connections to a netem.Path, demultiplexing segments
// of many connections over the same emulated links — exactly how many
// browser connections share one radio bearer.
type Network struct {
	loop     *sim.Loop
	path     *netem.Path
	conns    []*Conn
	qconns   []*QUICConn
	segFree  []*Segment
	qpktFree []*QUICPacket
	// segsLive counts segments and QUIC packets handed out by
	// getSeg/getQPkt and not yet retired through putSeg/putQPkt. Every
	// unit retires exactly once — delivered, dropped at the
	// queue/loss/burst stage, or duplicated-and-delivered — so a
	// quiesced network must read zero; anything else is a pool leak or
	// a double free.
	segsLive int
}

// LiveSegments returns the number of outstanding pool segments. After
// the loop runs idle it must be zero (negative values indicate a
// double free).
func (n *Network) LiveSegments() int { return n.segsLive }

// Conns returns every connection endpoint created through this network.
func (n *Network) Conns() []*Conn { return n.conns }

// ReleaseRuntime frees simulation-time state a finished run no longer
// needs — the segment pool, per-connection queues, scratch buffers and
// application callbacks — while keeping every counter and accessor that
// results read (Conns, Path, Retransmits, String). A memoized Result
// then retains statistics, not the closure graph of the whole run.
func (n *Network) ReleaseRuntime() {
	n.segFree = nil
	n.qpktFree = nil
	for _, c := range n.conns {
		c.releaseRuntime()
	}
	for _, q := range n.qconns {
		q.releaseRuntime()
	}
}

func (c *Conn) releaseRuntime() {
	c.inflight, c.inflHead = nil, 0
	c.ooo = nil
	c.sackScratch = nil
	c.onEstablished, c.onDeliver, c.onClose = nil, nil, nil
	c.writableHook = nil
	c.onRTOFn, c.delayedAckFn, c.onTLPFn = nil, nil, nil
	c.rtoTimer, c.delayedAck = sim.Timer{}, sim.Timer{}
	c.tlp = tlpState{}
	c.cfg.Probe = nil
}

// NewNetwork installs segment demultiplexers on both directions of path.
func NewNetwork(loop *sim.Loop, path *netem.Path) *Network {
	n := &Network{loop: loop, path: path}
	deliver := func(p netem.Payload) {
		// TCP segments and QUIC packets share the path (and may share it
		// with non-transport traffic such as the Figure 14 keep-alive
		// pinger); dispatch by concrete type, ignore anything else.
		switch v := p.(type) {
		case *Segment:
			to := v.to
			to.handleSegment(v)
			n.putSeg(v)
		case *QUICPacket:
			to := v.to
			to.handlePacket(v)
			n.putQPkt(v)
		}
	}
	path.AtoB.SetReceiver(deliver)
	path.BtoA.SetReceiver(deliver)
	return n
}

// getSeg returns a zeroed segment, recycled from the pool when possible.
// Segments live exactly one send→link→deliver cycle: transmit hands them
// to the link, the network demuxer returns them after handleSegment, so
// steady-state traffic allocates no segments at all.
func (n *Network) getSeg() *Segment {
	n.segsLive++
	if ln := len(n.segFree); segPooling && ln > 0 {
		s := n.segFree[ln-1]
		n.segFree = n.segFree[:ln-1]
		return s
	}
	return &Segment{}
}

// putSeg zeroes a delivered segment and returns it to the pool, keeping
// the Sack backing array so later ACKs reuse it.
func (n *Network) putSeg(s *Segment) {
	n.segsLive--
	if !segPooling {
		return
	}
	sack := s.Sack[:0]
	*s = Segment{}
	s.Sack = sack
	n.segFree = append(n.segFree, s)
}

// getQPkt / putQPkt mirror getSeg / putSeg for QUIC packets, sharing the
// segsLive balance so LiveSegments covers both transports.
func (n *Network) getQPkt() *QUICPacket {
	n.segsLive++
	if ln := len(n.qpktFree); segPooling && ln > 0 {
		p := n.qpktFree[ln-1]
		n.qpktFree = n.qpktFree[:ln-1]
		return p
	}
	return &QUICPacket{}
}

// putQPkt zeroes a delivered packet and returns it to the pool, keeping
// the AckRanges backing array so later ACKs reuse it.
func (n *Network) putQPkt(p *QUICPacket) {
	n.segsLive--
	if !segPooling {
		return
	}
	ranges := p.AckRanges[:0]
	*p = QUICPacket{}
	p.AckRanges = ranges
	n.qpktFree = append(n.qpktFree, p)
}

// Loop returns the simulation loop.
func (n *Network) Loop() *sim.Loop { return n.loop }

// Path returns the underlying emulated path.
func (n *Network) Path() *netem.Path { return n.path }

// NewConnPair creates a client endpoint (side A, the device) and server
// endpoint (side B, the proxy) wired through the network. dest keys the
// server's metrics cache. The connection is idle until client.Connect().
func (n *Network) NewConnPair(clientCfg, serverCfg Config, id, dest string) (client, server *Conn) {
	client = newConn(n.loop, clientCfg, id+":c", dest, true)
	server = newConn(n.loop, serverCfg, id+":s", dest, false)
	client.net = n
	server.net = n
	client.peer = server
	server.peer = client
	client.out = n.path.AtoB
	server.out = n.path.BtoA
	n.conns = append(n.conns, client, server)
	return client, server
}

// PeerWnd returns the last advertised peer receive window.
func (c *Conn) PeerWnd() int { return c.peerWnd }

// Conn is one endpoint of a simulated TCP connection.
type Conn struct {
	loop *sim.Loop
	cfg  Config
	id   string
	dest string

	isClient bool
	peer     *Conn
	out      *netem.Link
	net      *Network

	state         int
	onEstablished func()
	onDeliver     func(int)
	onClose       func()
	tlsStep       int

	// --- sender half ---
	cc        CongestionControl
	rtt       rttEstimator
	cwnd      float64
	ssthresh  float64
	sndUna    uint64
	sndNxt    uint64
	sendQueue int
	// inflight is a head-indexed deque: acked segments advance inflHead
	// instead of reslicing away front capacity, so the backing array is
	// reused for the whole connection lifetime.
	inflight     []sentSeg
	inflHead     int
	dupAcks      int
	recoverPoint uint64
	caState      int
	// lossAcks counts cumulative ACKs processed since the last RTO.
	// F-RTO: retransmissions beyond the first segment are held back
	// until a second ACK arrives, so a spurious timeout (originals
	// merely delayed) is detected before a go-back-N storm starts.
	lossAcks int
	// wasCwndLimited records whether the last transmission opportunity
	// was cut short by the congestion window (RFC 7661 validation).
	wasCwndLimited bool
	rtoTimer       sim.Timer
	lastDataSend   sim.Time
	everSent       bool
	peerWnd        int
	finSent        bool

	// --- DSACK undo state (Linux tcp_try_undo_dsack): when every
	// retransmission of a loss episode is reported back as a duplicate,
	// the episode was spurious and the pre-collapse cwnd/ssthresh are
	// restored. This is what lets ssthresh "grow back quickly" in
	// Figure 12 after a promotion-delay timeout.
	undoActive   bool
	undoCwnd     float64
	undoSsthresh float64
	undoRetrans  int
	undoEpisode  int // total retransmissions in the episode
	Undos        int

	// --- loss-recovery fix-arm state (inert unless the arm is on) ---
	tlp  tlpState
	rack rackState

	// --- receiver half ---
	rcvNxt       uint64
	ooo          map[uint64]int
	oooBytes     int
	delayedAck   sim.Timer
	segsSinceAck int
	pendingDsack bool
	// sackScratch is reused across sackBlocks calls to sort the
	// out-of-order sequence numbers without allocating.
	sackScratch []uint64
	// tsRecent is the RFC 7323 TS.Recent value: the send timestamp of
	// the last segment that advanced the in-order window; echoed on
	// every ACK so the peer samples true round trips even when a single
	// repair releases a large cumulative ACK.
	tsRecent sim.Time
	finRcvd  bool

	// writable hook: invoked when the send queue drains to or below the
	// threshold, letting an application (the SPDY proxy pump) keep the
	// socket fed without deep buffering.
	writableThresh int
	writableHook   func()
	inWritableHook bool

	// Prebound timer callbacks: method values allocate a closure per use,
	// so the RTO and delayed-ACK callbacks — re-armed on nearly every
	// ACK — are bound once at construction.
	onRTOFn      func()
	delayedAckFn func()
	onTLPFn      func()

	// --- counters ---
	Retransmits      int // RTO-driven (and SACK-hole repairs inside an episode)
	FastRetransmits  int
	RACKRetransmits  int // retransmissions of RACK-marked segments
	TLPProbes        int // tail loss probes fired (retransmitted tail or new data)
	FrtoUndos        int // F-RTO spurious verdicts with full Eifel undo
	SpuriousArrivals int // duplicate data received (peer retransmitted needlessly)
	IdleRestarts     int
	BytesSentApp     int64
	BytesRcvdApp     int64

	// tlpNewData counts TLP probes that carried new data rather than a
	// retransmission; retxWire counts wire-level retransmissions (every
	// retransmitSeg call). Together they let the invariant checker prove
	// each retransmission is attributed to exactly one cause:
	// retxWire == Retransmits + FastRetransmits + RACKRetransmits +
	// (TLPProbes - tlpNewData).
	tlpNewData int
	retxWire   int
}

func newConn(loop *sim.Loop, cfg Config, id, dest string, isClient bool) *Conn {
	if cfg.MSS <= 0 {
		cfg = DefaultConfig()
	}
	c := &Conn{
		loop:     loop,
		cfg:      cfg,
		id:       id,
		dest:     dest,
		isClient: isClient,
		cc:       NewCC(cfg.CC),
		rtt:      newRTTEstimator(cfg.InitialRTO, cfg.MinRTO, cfg.MaxRTO),
		cwnd:     cfg.InitialCwnd,
		ssthresh: 1 << 20, // "infinite" until first loss
		peerWnd:  64 << 10,
	}
	c.onRTOFn = c.onRTO
	c.onTLPFn = c.onTLP
	c.delayedAckFn = func() {
		if c.segsSinceAck > 0 {
			c.sendAck(true)
		}
	}
	if invOn {
		c.cc = checkedCC{c.cc}
	}
	if e := cfg.Metrics.Lookup(dest); e != nil {
		// Linux tcp_metrics: seed ssthresh and RTT state from the cache.
		if e.Ssthresh > 0 {
			c.ssthresh = e.Ssthresh
		}
		c.rtt.seed(e.SRTT, e.RTTVar)
	}
	return c
}

// ID returns the connection identifier used in traces.
func (c *Conn) ID() string { return c.id }

// OnEstablished registers the callback fired when the handshake (and TLS
// exchange, if configured) completes at this endpoint.
func (c *Conn) OnEstablished(fn func()) { c.onEstablished = fn }

// OnDeliver registers the callback fired with the count of newly
// delivered in-order application bytes at this endpoint.
func (c *Conn) OnDeliver(fn func(int)) { c.onDeliver = fn }

// OnClose registers a callback fired when the peer's FIN arrives.
func (c *Conn) OnClose(fn func()) { c.onClose = fn }

// Established reports whether the connection is fully set up.
func (c *Conn) Established() bool { return c.state == stEstablished }

// Cwnd returns the congestion window in segments.
func (c *Conn) Cwnd() float64 { return c.cwnd }

// Ssthresh returns the slow-start threshold in segments.
func (c *Conn) Ssthresh() float64 { return c.ssthresh }

// SRTT returns the smoothed RTT estimate (zero if no sample yet).
func (c *Conn) SRTT() time.Duration { return c.rtt.srtt }

// RTO returns the current retransmission timeout.
func (c *Conn) RTO() time.Duration { return c.rtt.current() }

// InFlightBytes returns unacknowledged bytes (Figure 10's metric).
func (c *Conn) InFlightBytes() int { return int(c.sndNxt - c.sndUna) }

// BufferedBytes returns bytes written but not yet transmitted — the
// proxy-side response queue of Figure 8.
func (c *Conn) BufferedBytes() int { return c.sendQueue }

// InSlowStart reports whether the sender is below ssthresh.
func (c *Conn) InSlowStart() bool { return c.cwnd < c.ssthresh }

// SetWritableHook registers fn to be called whenever, after transmission
// opportunities are exhausted, the unsent backlog is at or below
// threshold bytes. The hook may call Write; re-entrant invocations are
// suppressed.
func (c *Conn) SetWritableHook(threshold int, fn func()) {
	c.writableThresh = threshold
	c.writableHook = fn
}

func (c *Conn) fireWritable() {
	if c.writableHook == nil || c.inWritableHook {
		return
	}
	if c.sendQueue > c.writableThresh {
		return
	}
	c.inWritableHook = true
	c.writableHook()
	c.inWritableHook = false
}

// Connect starts the client-side handshake.
func (c *Conn) Connect() {
	if !c.isClient {
		panic("tcpsim: Connect on server endpoint")
	}
	if c.state != stClosed {
		return
	}
	c.state = stSynSent
	syn := c.newSeg()
	syn.Flags = flagSYN
	c.transmit(syn)
	c.armHandshakeRetry()
}

func (c *Conn) armHandshakeRetry() {
	deadline := c.cfg.InitialRTO
	c.loop.After(deadline, func() {
		if c.state == stSynSent {
			syn := c.newSeg()
			syn.Flags = flagSYN
			c.transmit(syn)
			c.armHandshakeRetry()
		}
	})
}

// Write queues n application bytes for transmission.
func (c *Conn) Write(n int) {
	if n <= 0 {
		return
	}
	if c.state == stClosed && c.isClient {
		c.Connect()
	}
	c.BytesSentApp += int64(n)
	c.maybeIdleRestart()
	c.sendQueue += n
	c.trySend()
}

// Close sends a FIN and flushes metrics to the cache.
func (c *Conn) Close() {
	if c.state == stClosing || c.state == stClosed {
		return
	}
	c.storeMetrics()
	c.state = stClosing
	if !c.finSent {
		c.finSent = true
		fin := c.newSeg()
		fin.Flags = flagFIN | flagACK
		fin.Ack = c.rcvNxt
		fin.Wnd = c.recvWindow()
		c.transmit(fin)
	}
}

func (c *Conn) storeMetrics() {
	if c.cfg.Metrics == nil {
		return
	}
	e := MetricsEntry{SRTT: c.rtt.srtt, RTTVar: c.rtt.rttvar}
	if c.ssthresh < 1<<20 {
		e.Ssthresh = c.ssthresh
	}
	if e.SRTT > 0 || e.Ssthresh > 0 {
		c.cfg.Metrics.Store(c.dest, e)
	}
}

// maybeIdleRestart applies Linux congestion-window validation: if the
// connection has been idle (no data sent) for longer than one RTO, the
// cwnd snaps back to the initial window. With ResetRTTAfterIdle the RTT
// estimate is also discarded — the paper's fix.
func (c *Conn) maybeIdleRestart() {
	if c.cfg.NoIdleDemotion || !c.everSent || len(c.infl()) > 0 || c.sendQueue > 0 {
		return
	}
	idle := c.loop.Now().Sub(c.lastDataSend)
	// Compare against the un-backed-off timeout: whether the connection
	// went idle is a property of the path's RTT, not of how many times a
	// timer fired. Using the backed-off RTO here let a connection that
	// had just suffered (possibly spurious) timeouts dodge window
	// validation entirely, because its inflated RTO out-waited the idle
	// gap.
	if idle <= c.rtt.base() {
		return
	}
	if c.cfg.SlowStartAfterIdle {
		if c.cwnd > c.cfg.InitialCwnd {
			c.cwnd = c.cfg.InitialCwnd
		}
		c.cc.Reset()
		c.IdleRestarts++
		c.probe(EvIdleRestart)
	}
	if c.cfg.ResetRTTAfterIdle {
		c.rtt.reset()
		c.probe(EvRTTReset)
	}
}

func (c *Conn) probe(ev ProbeEvent) {
	if c.cfg.Probe == nil {
		return
	}
	c.cfg.Probe.Sample(ProbeSample{
		At:       c.loop.Now(),
		ConnID:   c.id,
		Event:    ev,
		Cwnd:     c.cwnd,
		Ssthresh: c.ssthresh,
		InFlight: c.InFlightBytes(),
		RTOms:    float64(c.rtt.current()) / float64(time.Millisecond),
		SRTTms:   float64(c.rtt.srtt) / float64(time.Millisecond),
	})
}

// infl returns the live window of the inflight deque.
func (c *Conn) infl() []sentSeg { return c.inflight[c.inflHead:] }

// pushInflight appends a segment record, compacting the deque in place
// before the backing array would have to grow.
func (c *Conn) pushInflight(s sentSeg) {
	if len(c.inflight) == cap(c.inflight) && c.inflHead > 0 {
		n := copy(c.inflight, c.inflight[c.inflHead:])
		c.inflight = c.inflight[:n]
		c.inflHead = 0
	}
	c.inflight = append(c.inflight, s)
}

// popInflightFront drops the oldest in-flight segment (it was acked).
func (c *Conn) popInflightFront() {
	c.inflHead++
	if c.inflHead == len(c.inflight) {
		c.inflight = c.inflight[:0]
		c.inflHead = 0
	}
}

// pktsInFlight counts outstanding segments not currently marked lost —
// the quantity congestion control paces against during loss recovery.
func (c *Conn) pktsInFlight() int {
	n := 0
	fl := c.infl()
	for i := range fl {
		if !fl[i].lost && !fl[i].sacked {
			n++
		}
	}
	return n
}

// trySend transmits as much queued data as the congestion and receive
// windows allow. Segments marked lost by a timeout are retransmitted
// first, paced by the (slow-starting) window — Linux's loss recovery —
// then new data follows.
//
// The packets-in-flight count is taken at most once per call, and only
// when something may be sent, so a call costs one pass over the flight.
// It is then kept current by hand: each retransmission un-marks one lost
// segment and each new segment joins the flight, so both add exactly one.
func (c *Conn) trySend() {
	if c.state != stEstablished && c.state != stClosing {
		return
	}
	// Loss recovery: retransmit marked-lost segments as the window opens.
	// The F-RTO window (exactly one ACK since the timeout) holds this
	// back: if the timeout was spurious, the very next ACK will cover an
	// original transmission and cancel the loss marks entirely.
	recovering := (c.caState == caLoss && c.lossAcks != 1) || c.caState == caRecovery
	counted := recovering || c.sendQueue > 0
	inFlight := 0
	if counted {
		inFlight = c.pktsInFlight()
	}
	if recovering {
		fl := c.infl()
		for i := range fl {
			if float64(inFlight) >= c.cwnd {
				break
			}
			if !fl[i].lost || fl[i].sacked {
				continue
			}
			cause := fl[i].lostBy
			fl[i].lost = false
			fl[i].retx = true
			fl[i].sentAt = c.loop.Now()
			inFlight++
			c.retransmitSeg(&fl[i])
			c.noteRetransmit(cause)
		}
		if invOn {
			c.checkPktsInFlight("trySend/retransmit", inFlight)
		}
	}
	c.wasCwndLimited = false
	for c.sendQueue > 0 {
		if float64(inFlight) >= c.cwnd {
			c.wasCwndLimited = true
			break
		}
		payload := c.cfg.MSS
		if payload > c.sendQueue {
			payload = c.sendQueue
		}
		if c.InFlightBytes()+payload > c.peerWnd {
			break
		}
		seg := c.newSeg()
		seg.Flags = flagACK
		seg.Seq = c.sndNxt
		seg.Len = payload
		seg.Ack = c.rcvNxt
		seg.Wnd = c.recvWindow()
		seg.TSVal = c.loop.Now()
		seg.TSEcr = c.tsRecent
		c.sndNxt += uint64(payload)
		c.sendQueue -= payload
		c.pushInflight(sentSeg{seq: seg.Seq, len: payload, sentAt: c.loop.Now()})
		inFlight++
		c.ackPiggybacked()
		c.transmit(seg)
		c.lastDataSend = c.loop.Now()
		c.everSent = true
		c.probe(EvSend)
		if !c.rtoTimer.Pending() {
			c.armRTO()
		}
	}
	if invOn && counted {
		c.checkPktsInFlight("trySend/new", inFlight)
	}
	c.maybeArmTLP()
	c.fireWritable()
}

// newSeg allocates or recycles a segment for transmission.
func (c *Conn) newSeg() *Segment {
	if c.net != nil {
		return c.net.getSeg()
	}
	return &Segment{}
}

func (c *Conn) transmit(seg *Segment) {
	seg.From = c.id
	seg.to = c.peer
	if debugLog != nil {
		debugLog(fmt.Sprintf("%v %s tx seq=%d len=%d ack=%d flags=%d", c.loop.Now(), c.id, seg.Seq, seg.Len, seg.Ack, seg.Flags))
	}
	if !c.out.Send(seg, seg.wireSize()) && c.net != nil {
		c.net.putSeg(seg)
	}
}

func (c *Conn) armRTO() {
	c.rtoTimer.Stop()
	c.rtoTimer = c.loop.After(c.rtt.current(), c.onRTOFn)
}

func (c *Conn) stopRTO() {
	c.rtoTimer.Stop()
}

// onRTO handles a retransmission timeout: collapse the window, back off
// the timer, retransmit the earliest unacknowledged segment. When the
// timeout is spurious — the original segments were merely stalled behind
// a radio promotion — all of this damage was for nothing, which is the
// paper's central finding.
func (c *Conn) onRTO() {
	if len(c.infl()) == 0 {
		return
	}
	c.abortTLP() // conventional timeout recovery owns the flight now
	if c.caState != caLoss {
		// Entering loss: snapshot for a possible DSACK undo, then
		// collapse ssthresh based on the current cwnd.
		c.undoActive = true
		c.undoCwnd = c.cwnd
		c.undoSsthresh = c.ssthresh
		c.undoRetrans = 0
		c.undoEpisode = 0

		c.ssthresh = c.cc.SsthreshAfterLoss(c.cwnd)
		c.cc.OnLoss(c.loop.Now(), c.cwnd)
		c.recoverPoint = c.sndNxt
	}
	c.caState = caLoss
	c.cwnd = 1
	c.dupAcks = 0
	c.lossAcks = 0
	c.Retransmits++

	// Mark every outstanding segment lost (Linux tcp_enter_loss):
	// the first is retransmitted immediately, the rest follow through
	// trySend as ACKs grow the window back.
	fl := c.infl()
	for i := range fl {
		if !fl[i].sacked {
			fl[i].lost = true
			fl[i].lostBy = causeRTO
		}
	}
	first := &fl[0]
	first.lost = false
	first.retx = true
	first.sentAt = c.loop.Now()
	c.retransmitSeg(first)
	c.probe(EvRetransmit)

	c.rtt.backoff()
	c.armRTO()
	if invOn {
		c.checkSender("onRTO")
	}
}

func (c *Conn) retransmitSeg(s *sentSeg) {
	c.retxWire++
	if c.undoActive {
		c.undoRetrans++
		c.undoEpisode++
	}
	seg := c.newSeg()
	seg.Flags = flagACK
	seg.Seq = s.seq
	seg.Len = s.len
	seg.Ack = c.rcvNxt
	seg.Wnd = c.recvWindow()
	seg.Retx = true
	seg.TSVal = c.loop.Now()
	seg.TSEcr = c.tsRecent
	c.transmit(seg)
	c.lastDataSend = c.loop.Now()
}

// handleSegment is the demuxed receive entry point.
func (c *Conn) handleSegment(seg *Segment) {
	switch {
	case seg.Flags&flagSYN != 0 && seg.Flags&flagACK == 0:
		c.handleSYN()
		return
	case seg.Flags&flagSYN != 0 && seg.Flags&flagACK != 0:
		c.handleSYNACK()
		return
	}
	if seg.Flags&flagCTRL != 0 {
		c.handleTLS(seg)
		return
	}
	if c.state == stSynRcvd {
		// First non-SYN segment from the client completes our side.
		c.becomeEstablished()
	}
	if seg.Len > 0 {
		c.receiveData(seg)
		if invOn {
			c.checkReceiver("receiveData")
		}
	}
	if seg.Flags&flagACK != 0 {
		c.receiveAck(seg)
		if invOn {
			c.checkSender("receiveAck")
		}
	}
	if seg.Flags&flagFIN != 0 && !c.finRcvd {
		c.finRcvd = true
		c.sendAckNow()
		if c.onClose != nil {
			c.onClose()
		}
	}
}

func (c *Conn) handleSYN() {
	if c.isClient {
		return // simultaneous open not modeled
	}
	if c.state == stClosed {
		c.state = stSynRcvd
		// Retransmit the SYN-ACK until the handshake completes: if the
		// client's final ACK is lost and the application never sends
		// upstream data, this timer is the only way out of SYN_RCVD.
		var retry func()
		retry = func() {
			if c.state != stSynRcvd {
				return
			}
			c.transmitSynAck()
			c.loop.After(c.cfg.InitialRTO, retry)
		}
		c.loop.After(c.cfg.InitialRTO, retry)
	}
	c.transmitSynAck()
}

func (c *Conn) transmitSynAck() {
	sa := c.newSeg()
	sa.Flags = flagSYN | flagACK
	sa.Wnd = c.recvWindow()
	c.transmit(sa)
}

func (c *Conn) handleSYNACK() {
	if !c.isClient {
		return
	}
	if c.state != stSynSent {
		// Duplicate SYN-ACK: our handshake ACK was lost. Re-ACK so the
		// server can leave SYN_RCVD.
		if c.state == stEstablished || c.state == stClosing {
			ack := c.newSeg()
			ack.Flags = flagACK
			ack.Ack = c.rcvNxt
			ack.Wnd = c.recvWindow()
			c.transmit(ack)
		}
		return
	}
	c.state = stEstablished
	// Handshake ACK.
	hack := c.newSeg()
	hack.Flags = flagACK
	hack.Wnd = c.recvWindow()
	c.transmit(hack)
	if c.cfg.TLS {
		c.tlsStep = 1
		c.transmitCtrl(250) // ClientHello
		return
	}
	c.finishEstablish()
}

func (c *Conn) becomeEstablished() {
	if c.state != stSynRcvd {
		return
	}
	c.state = stEstablished
	if !c.cfg.TLS {
		c.finishEstablish()
	}
}

func (c *Conn) finishEstablish() {
	c.probe(EvEstablished)
	if c.onEstablished != nil {
		fn := c.onEstablished
		c.onEstablished = nil
		fn()
	}
	c.trySend()
}

// handleTLS walks a modeled 2-RTT SSL exchange: ClientHello →
// ServerHello+cert → client Finished → server Finished. Control bytes
// ride the wire (and wake the radio) but occupy no TCP sequence space.
func (c *Conn) handleTLS(seg *Segment) {
	if c.state == stSynRcvd {
		c.state = stEstablished
	}
	if c.isClient {
		switch c.tlsStep {
		case 1: // got ServerHello+cert
			c.tlsStep = 2
			c.transmitCtrl(350) // key exchange + Finished
		case 2: // got server Finished
			c.tlsStep = 3
			c.finishEstablish()
		}
		return
	}
	// Server side.
	switch c.tlsStep {
	case 0: // got ClientHello
		c.tlsStep = 1
		c.transmitCtrl(3000) // ServerHello + certs
	case 1: // got client Finished
		c.tlsStep = 2
		c.transmitCtrl(60) // server Finished
		c.finishEstablish()
	}
}

func (c *Conn) transmitCtrl(n int) {
	seg := c.newSeg()
	seg.Flags = flagCTRL
	seg.CtrlLen = n
	c.transmit(seg)
}

func (c *Conn) recvWindow() int {
	w := c.cfg.RecvBuffer - c.oooBytes
	if w < 0 {
		w = 0
	}
	return w
}

// receiveData handles the receiver half: in-order delivery, out-of-order
// buffering with duplicate detection, delayed ACKs.
func (c *Conn) receiveData(seg *Segment) {
	end := seg.Seq + uint64(seg.Len)
	switch {
	case end <= c.rcvNxt:
		// Entirely old data: the peer retransmitted something we already
		// have. This is the observable signature of a spurious
		// retransmission; report it back as a DSACK.
		c.SpuriousArrivals++
		c.probe(EvSpurious)
		c.pendingDsack = true
		c.sendAckNow()
		return
	case seg.Seq > c.rcvNxt:
		// Hole: buffer and emit an immediate duplicate ACK.
		if _, dup := c.ooo[seg.Seq]; !dup {
			if c.ooo == nil {
				c.ooo = make(map[uint64]int, 8)
			}
			c.ooo[seg.Seq] = seg.Len
			c.oooBytes += seg.Len
		}
		c.sendAckNow()
		return
	}
	// In-order (possibly partially overlapping) delivery.
	c.tsRecent = seg.TSVal
	advance := int(end - c.rcvNxt)
	c.rcvNxt = end
	// Drain contiguous out-of-order buffer.
	for {
		l, ok := c.ooo[c.rcvNxt]
		if !ok {
			break
		}
		delete(c.ooo, c.rcvNxt)
		c.oooBytes -= l
		c.rcvNxt += uint64(l)
		advance += l
	}
	c.BytesRcvdApp += int64(advance)
	// Schedule the ACK before notifying the application: the app may
	// react by writing (e.g. the next HTTP request), whose piggybacked
	// ACK then cancels the pending delayed ACK. Doing this after the
	// callback would leave a stale timer that later fires a duplicate
	// pure ACK — which the peer would count toward fast retransmit.
	//
	// Note RFC 5681's SHOULD for immediately ACKing gap-fills is NOT
	// implemented: the sender's NewReno inflation/deflation model is
	// calibrated against coalesced partial ACKs, and per-fill immediate
	// ACKs defeat its deflation entirely (cwnd -= 1; cwnd++ per ACK),
	// which measurably inflates recovery-time sending on bursty links.
	// What RFC 5681 makes mandatory for the sender's heuristics — that a
	// duplicate ACK is never generated by the delayed-ACK timer — is
	// enforced structurally below (the hole and duplicate branches above
	// send immediately) and audited by the peer in processDupAck.
	c.scheduleAck()
	if c.onDeliver != nil {
		c.onDeliver(advance)
	}
}

// scheduleAck implements delayed ACKs: every second segment immediately,
// otherwise after the delayed-ACK timeout. A pending DSACK must never
// reach this path — duplicate arrivals report it with an immediate ACK,
// and sitting on it would starve the peer's undo accounting.
func (c *Conn) scheduleAck() {
	if invOn && c.pendingDsack {
		c.violateConn("scheduleAck", "delayed-ACK coalescing with a DSACK pending")
	}
	c.segsSinceAck++
	if c.segsSinceAck >= 2 {
		c.sendAckNow()
		return
	}
	if !c.delayedAck.Pending() {
		c.delayedAck = c.loop.After(c.cfg.DelayedAckTimeout, c.delayedAckFn)
	}
}

func (c *Conn) sendAckNow() { c.sendAck(false) }

// sendAck emits a pure ACK; delayed marks it as released by the
// delayed-ACK timer rather than triggered by an arrival, so the peer's
// invariant checker can prove fast retransmit never fires off a
// coalesced ACK.
func (c *Conn) sendAck(delayed bool) {
	c.ackPiggybacked()
	if debugLog != nil {
		debugLog(fmt.Sprintf("%v %s sendAck ack=%d dsack=%v", c.loop.Now(), c.id, c.rcvNxt, c.pendingDsack))
	}
	seg := c.newSeg()
	seg.Flags = flagACK
	seg.Ack = c.rcvNxt
	seg.Wnd = c.recvWindow()
	seg.Dsack = c.pendingDsack
	seg.Sack = c.appendSackBlocks(seg.Sack[:0])
	seg.TSEcr = c.tsRecent
	seg.Delayed = delayed
	c.transmit(seg)
	c.pendingDsack = false
}

// appendSackBlocks summarizes the out-of-order buffer as up to four
// merged byte ranges, ascending — the SACK option of RFC 2018. Blocks
// are appended into dst (the segment's own recycled backing array, never
// shared scratch: the segment is in flight while this endpoint's state
// advances, so it must own its blocks).
func (c *Conn) appendSackBlocks(dst [][2]uint64) [][2]uint64 {
	if len(c.ooo) == 0 {
		return dst[:0]
	}
	seqs := c.sackScratch[:0]
	for seq := range c.ooo {
		seqs = append(seqs, seq)
	}
	c.sackScratch = seqs
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	blocks := dst[:0]
	for _, seq := range seqs {
		end := seq + uint64(c.ooo[seq])
		if n := len(blocks); n > 0 && blocks[n-1][1] == seq {
			blocks[n-1][1] = end
			continue
		}
		blocks = append(blocks, [2]uint64{seq, end})
	}
	if len(blocks) > 4 {
		blocks = blocks[:4]
	}
	return blocks
}

// ackPiggybacked resets delayed-ACK state because an ACK is about to ride
// out (either pure or on a data segment).
func (c *Conn) ackPiggybacked() {
	c.segsSinceAck = 0
	c.delayedAck.Stop()
}

// receiveAck handles the sender half: cumulative ACK processing, RTT
// sampling under Karn's rule, window growth, NewReno recovery.
func (c *Conn) receiveAck(seg *Segment) {
	c.peerWnd = seg.Wnd
	c.applySack(seg)
	if seg.Dsack && c.cfg.TLP && c.tlp.probing && !c.tlp.newData {
		// The duplicate the receiver reports is the probe itself: the
		// original tail arrived, so the open TLP episode is spurious and
		// must resolve without a congestion penalty. Consume the DSACK
		// here — it must not also count toward the undo bookkeeping of a
		// loss episode the probe never opened.
		c.tlp.dsacked = true
	} else if seg.Dsack && c.undoActive && !c.cfg.DisableUndo {
		c.undoRetrans--
		if c.undoRetrans <= 0 {
			c.performUndo()
		}
	}
	if invOn {
		c.checkAckValid(seg)
	}
	ack := seg.Ack
	if ack > c.sndNxt {
		ack = c.sndNxt
	}
	if ack > c.sndUna {
		c.processNewAck(ack, seg)
	} else if ack == c.sndUna && seg.Len == 0 && len(c.infl()) > 0 {
		c.processDupAck(seg)
	}
	// RACK runs after cumulative/SACK processing advanced the
	// delivered-time watermark, and before transmission so trySend can
	// repair anything it marks.
	c.rackOnAck()
	c.trySend()
}

func (c *Conn) processNewAck(ack uint64, seg *Segment) {
	ackedSegs := 0
	ackedOriginal := false
	spuriousTimeout := false
	for {
		fl := c.infl()
		if len(fl) == 0 {
			break
		}
		s := fl[0]
		if s.seq+uint64(s.len) > ack {
			break
		}
		if !s.retx {
			ackedOriginal = true
			if c.cfg.RACK {
				c.rackSeen(s.sentAt, s.seq+uint64(s.len))
			}
			if s.lost {
				// F-RTO: the ACK covers a segment we marked lost but
				// never retransmitted — the original made it through, so
				// the timeout was spurious.
				spuriousTimeout = true
			}
		} else if c.cfg.RACK && seg.TSEcr > 0 && seg.TSEcr >= s.sentAt {
			// Retransmission proven delivered by its timestamp echo
			// (RFC 8985 §6.1): it advances the delivery watermark too.
			c.rackSeen(s.sentAt, s.seq+uint64(s.len))
		}
		c.popInflightFront()
		ackedSegs++
	}
	if spuriousTimeout {
		// Stop the go-back-N: nothing was actually lost.
		fl := c.infl()
		for i := range fl {
			fl[i].lost = false
		}
		if c.frtoEligible() {
			c.frtoUndo()
		}
	}
	c.sndUna = ack
	// Karn's rule (RFC 6298 §5): an ACK covering only retransmitted data
	// is ambiguous — it may acknowledge the original rather than the
	// copy — so without further evidence it must neither feed the
	// estimator nor clear the exponential backoff. A timestamp echo is
	// that further evidence (RFC 7323 §4): TSEcr names the transmission
	// that triggered the ACK, so the measured interval is one true round
	// trip regardless of retransmission — including any radio promotion
	// stall the segment sat through, which is how the paper's RTO "grows
	// large enough to accommodate the increased round trip time"
	// (§5.5.1).
	tsValid := seg.TSEcr > 0
	if ackedOriginal || tsValid {
		c.rtt.progress()
	}
	if tsValid {
		c.rtt.sample(c.loop.Now().Sub(seg.TSEcr))
	}
	c.resolveTLP(ack, seg)

	switch c.caState {
	case caOpen:
		c.growWindow(ackedSegs)
	case caRecovery:
		if ack >= c.recoverPoint {
			c.cwnd = c.ssthresh
			c.caState = caOpen
			c.dupAcks = 0
			c.cc.OnExitRecovery(c.loop.Now(), c.cwnd)
		} else {
			// NewReno partial ACK: retransmit the next hole, deflate. A
			// head already marked lost is owned by the paced recovery
			// loop in trySend — retransmitting it here as well would
			// bypass the pacing once per partial ACK, double the repair
			// machinery, and (with a receiver that correctly ACKs every
			// gap-fill immediately) flood the bad state of a bursty link
			// with unpaced copies.
			if fl := c.infl(); len(fl) > 0 && !fl[0].retx && !fl[0].lost {
				fl[0].retx = true
				fl[0].sentAt = c.loop.Now()
				c.retransmitSeg(&fl[0])
				c.FastRetransmits++
				c.probe(EvFastRetx)
			}
			c.cwnd -= float64(ackedSegs)
			if c.cwnd < 1 {
				c.cwnd = 1
			}
			c.cwnd++
		}
	case caLoss:
		c.lossAcks++
		c.growWindow(ackedSegs)
		if ack >= c.recoverPoint {
			c.caState = caOpen
			c.dupAcks = 0
		}
	}

	c.probe(EvAck)
	if len(c.infl()) == 0 {
		c.stopRTO()
		c.abortTLP()
	} else {
		c.armRTO()
		c.maybeArmTLP()
	}
}

// applySack marks inflight segments held by the receiver and infers
// losses: an unsacked segment with sacked data above it has been passed
// over on the wire (RFC 6675 reordering threshold, simplified), so it is
// queued for retransmission through the recovery path.
func (c *Conn) applySack(ack *Segment) {
	blocks := ack.Sack
	if len(blocks) == 0 {
		return
	}
	var highest uint64
	fl := c.infl()
	for _, b := range blocks {
		if b[1] > highest {
			highest = b[1]
		}
		for i := range fl {
			sg := &fl[i]
			if !sg.sacked && sg.seq >= b[0] && sg.seq+uint64(sg.len) <= b[1] {
				sg.sacked = true
				sg.lost = false
				// RACK delivery watermark: originals always advance it.
				// A SACKed retransmission is ambiguous under Karn's rule
				// — the SACK may be for the original — so it advances
				// the watermark only when the timestamp echo names the
				// copy, or when a full reordering window has elapsed
				// since the copy went out (Linux tcp_rack_advance's
				// too-low-RTT guard, inverted): an out-of-order ACK
				// does not refresh tsRecent, so elapsed time is the
				// usable disambiguator for SACKed tail-loss probes.
				if c.cfg.RACK && (!sg.retx ||
					(ack.TSEcr > 0 && ack.TSEcr >= sg.sentAt) ||
					c.loop.Now().Sub(sg.sentAt) >= c.rackReoWnd()) {
					c.rackSeen(sg.sentAt, sg.seq+uint64(sg.len))
				}
			}
		}
	}
	if c.caState == caOpen {
		return
	}
	// Loss inference only inside a recovery episode: holes below the
	// highest sacked byte are marked lost so the recovery loop repairs
	// them paced by cwnd, instead of one hole per RTT.
	for i := range fl {
		sg := &fl[i]
		if !sg.sacked && !sg.retx && sg.seq+uint64(sg.len) <= highest {
			sg.lost = true
			sg.lostBy = causeRTO
		}
	}
}

// performUndo rolls back a loss episode after DSACKs proved every
// retransmission unnecessary (the radio promotion stalled the originals;
// nothing was lost). The congestion window is restored, but — matching
// what the paper observes in Figure 12, where ssthresh stays depressed
// after a spurious timeout and the connection crawls through congestion
// avoidance — the collapsed ssthresh is left in place. That lasting
// damage is exactly what the §6.2.1 RTT-reset fix removes.
func (c *Conn) performUndo() {
	c.undoActive = false
	fl := c.infl()
	for i := range fl {
		fl[i].lost = false
	}
	if c.cwnd < c.undoCwnd {
		c.cwnd = c.undoCwnd
	}
	// A short episode (one spurious timeout plus at most one backoff)
	// undoes fully, ssthresh included — Figure 12's "ssthresh grows back
	// quickly". Longer backoff chains leave ssthresh collapsed (repeated
	// timeouts stop re-saving prior_ssthresh in Linux), which is the
	// lasting damage the §6.2.1 fix removes.
	if c.undoEpisode <= 2 && c.undoSsthresh > c.ssthresh {
		c.ssthresh = c.undoSsthresh
	}
	c.caState = caOpen
	c.dupAcks = 0
	c.Undos++
	c.probe(EvUndo)
	c.trySend()
}

func (c *Conn) growWindow(ackedSegs int) {
	if ackedSegs <= 0 {
		return
	}
	// Congestion window validation (RFC 7661): only grow while the
	// window was actually the limiting factor in the last transmission
	// round. Without this, cwnd grows without bound while the receive
	// window or the application caps transmission — the paper's Table 2
	// max cwnd (197 segments ≈ the client's receive buffer) reflects
	// exactly this behaviour.
	if !c.wasCwndLimited {
		return
	}
	if c.cwnd < c.ssthresh {
		// Slow start: one segment per ACKed segment.
		c.cwnd += float64(ackedSegs)
		if c.cwnd > c.ssthresh && c.caState == caOpen {
			c.cwnd = c.ssthresh + c.cc.OnAckCA(c.loop.Now(), c.ssthresh, ackedSegs, c.rtt.srtt)
		}
		return
	}
	c.cwnd += c.cc.OnAckCA(c.loop.Now(), c.cwnd, ackedSegs, c.rtt.srtt)
}

func (c *Conn) processDupAck(seg *Segment) {
	c.dupAcks++
	if debugLog != nil {
		debugLog(fmt.Sprintf("%v %s dupack#%d una=%d nxt=%d inflight=%d ca=%d",
			c.loop.Now(), c.id, c.dupAcks, c.sndUna, c.sndNxt, len(c.infl()), c.caState))
	}
	switch c.caState {
	case caOpen:
		if c.dupAcks >= 3 {
			c.checkNotCoalesced(seg, "fast-retransmit")
			// Fast retransmit + fast recovery.
			c.undoActive = true
			c.undoCwnd = c.cwnd
			c.undoSsthresh = c.ssthresh
			c.undoRetrans = 0
			c.undoEpisode = 0

			c.ssthresh = c.cc.SsthreshAfterLoss(c.cwnd)
			c.cc.OnLoss(c.loop.Now(), c.cwnd)
			c.recoverPoint = c.sndNxt
			c.caState = caRecovery
			c.cwnd = c.ssthresh + 3
			if fl := c.infl(); len(fl) > 0 {
				fl[0].retx = true
				fl[0].sentAt = c.loop.Now()
				c.retransmitSeg(&fl[0])
			}
			c.FastRetransmits++
			c.probe(EvFastRetx)
			c.armRTO()
		}
	case caRecovery:
		// Window inflation: each dup ACK signals a departed segment.
		c.cwnd++
	case caLoss:
		// Duplicate ACKs during timeout recovery mean the receiver is
		// taking delivery beyond the hole (out-of-order buffering), so
		// the hole — original and any retransmission — was lost. Repair
		// it on every third dupACK instead of waiting out the RTO
		// backoff, as SACK-based Linux recovery effectively does.
		fl := c.infl()
		if c.dupAcks%3 == 0 && len(fl) > 0 && !fl[0].sacked {
			c.checkNotCoalesced(seg, "loss-dupack-repair")
			first := &fl[0]
			// Only re-send the hole if it hasn't been retransmitted
			// within roughly one RTT — the copy may still be in flight.
			rtt := c.rtt.srtt
			if rtt <= 0 {
				rtt = c.cfg.MinRTO
			}
			if !first.retx || c.loop.Now().Sub(first.sentAt) > rtt {
				first.lost = false
				first.retx = true
				first.sentAt = c.loop.Now()
				c.retransmitSeg(first)
				c.FastRetransmits++
				c.probe(EvFastRetx)
				c.armRTO()
			}
		}
	}
}

// String renders a compact state summary for debugging.
func (c *Conn) String() string {
	return fmt.Sprintf("%s state=%d cwnd=%.1f ssthresh=%.1f una=%d nxt=%d q=%d inflight=%d",
		c.id, c.state, c.cwnd, c.ssthresh, c.sndUna, c.sndNxt, c.sendQueue, len(c.infl()))
}
