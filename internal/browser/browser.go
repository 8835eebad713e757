// Package browser models the Chrome 23 client of the paper's testbed:
// dependency-driven object discovery (JS/CSS waves with sequential
// processing), an HTTP mode with per-domain persistent-connection pools
// (6 per domain, 32 total, one outstanding request per connection, no
// pipelining) and a SPDY mode with one TLS session carrying prioritized
// concurrent streams — optionally striped over N sessions for the §6.1
// multi-connection experiment. It produces the per-object timelines the
// authors collected over Chrome's remote debugging interface.
package browser

import (
	"fmt"
	"time"

	"spdier/internal/h2"
	"spdier/internal/proxy"
	"spdier/internal/sim"
	"spdier/internal/spdy"
	"spdier/internal/tcpsim"
	"spdier/internal/trace"
	"spdier/internal/webpage"
)

// Mode selects the protocol the browser speaks to its proxy.
type Mode string

// Protocol modes.
const (
	ModeHTTP Mode = "http"
	ModeSPDY Mode = "spdy"
	// ModeH2 is HTTP/2-like framing over one TCP connection: HPACK-sized
	// headers and credit-based per-stream flow control.
	ModeH2 Mode = "h2"
	// ModeQUIC rides the QUIC-style transport: per-stream loss
	// isolation, connection-level recovery, optional 0-RTT resumption.
	ModeQUIC Mode = "quic"
)

// Config holds browser behaviour knobs.
type Config struct {
	Mode Mode

	// MaxConnsPerDomain and MaxTotalConns are Chrome's HTTP connection
	// budget (6 and 32).
	MaxConnsPerDomain int
	MaxTotalConns     int

	// SPDYSessions stripes SPDY over N connections with early binding
	// (requests assigned round-robin at issue time), reproducing the
	// §6.1 experiment. Normal SPDY operation is 1.
	SPDYSessions int

	// SPDYLateBinding switches striped SPDY to the remedy §6.2 proposes:
	// responses bind to whichever connection can transmit right now
	// instead of the one that carried the request.
	SPDYLateBinding bool

	// Pipelining enables HTTP/1.1 pipelining with PipelineDepth
	// outstanding requests per connection — the capability the paper
	// could not evaluate because Squid's support was rudimentary.
	Pipelining    bool
	PipelineDepth int

	// ClientTCP and ProxyTCP configure the two TCP stacks. The proxy
	// side is the data sender, so its config carries the probe, the
	// metrics cache and the idle-restart options under study.
	ClientTCP tcpsim.Config
	ProxyTCP  tcpsim.Config

	// IdleConnTimeout closes idle HTTP connections, as browsers do.
	IdleConnTimeout time.Duration

	// PageTimeout aborts a load that hasn't finished (browser stall
	// watchdog; the paper saw occasional stalls on site 2).
	PageTimeout time.Duration

	// Beacons enables the post-onLoad periodic transfers (ads,
	// analytics, refreshes) that §5.7 identifies as a trigger of
	// idle/active cycling during the user's think time.
	Beacons bool

	// H2EqualFraming makes the h2 mode price frames exactly as SPDY does
	// (shared zlib oracle, 8-byte DATA overhead) with never-binding
	// windows — the differential-oracle configuration under which h2 and
	// SPDY byte streams, and therefore PLTs, are identical.
	H2EqualFraming bool

	// QUICZeroRTT lets QUIC connections resume with 0-RTT when the
	// client's metrics cache knows the destination.
	QUICZeroRTT bool
}

// DefaultConfig returns the Chrome-like defaults for a mode.
func DefaultConfig(mode Mode) Config {
	clientTCP := tcpsim.DefaultConfig()
	proxyTCP := tcpsim.DefaultConfig()
	cfg := Config{
		Mode:              mode,
		MaxConnsPerDomain: 6,
		MaxTotalConns:     32,
		SPDYSessions:      1,
		ClientTCP:         clientTCP,
		ProxyTCP:          proxyTCP,
		IdleConnTimeout:   30 * time.Second,
		PageTimeout:       55 * time.Second,
		Beacons:           true,
	}
	if mode == ModeSPDY || mode == ModeH2 {
		cfg.ClientTCP.TLS = true
		cfg.ProxyTCP.TLS = true
	}
	if mode == ModeQUIC {
		// QUIC's crypto rides the transport handshake itself; the TCP TLS
		// surcharge does not apply. Resumption is on by default.
		cfg.QUICZeroRTT = true
	}
	return cfg
}

// Browser is one simulated client device running one protocol mode.
type Browser struct {
	loop *sim.Loop
	net  *tcpsim.Network
	prox *proxy.Proxy
	cfg  Config
	rng  *sim.RNG

	// HTTP state. poolOrder keeps deterministic pump order (map
	// iteration order would make runs unreproducible).
	pools      map[string]*domainPool
	poolOrder  []*domainPool
	totalConns int
	connSeq    int

	// SPDY state. group is non-nil in late-binding mode.
	sessions []*spdyHandle
	group    *proxy.SPDYGroup
	reqSeq   int

	// h2 and QUIC state: one session each, created on first use.
	h2sess   *h2Handle
	quicSess *quicHandle

	// All proxy-side endpoints ever created, for fleet-wide metrics
	// (bytes in flight, concurrent connection counts).
	proxyConns []*tcpsim.Conn
	proxyQUIC  []*tcpsim.QUICConn

	cur *pageLoad
}

// New creates a browser bound to a network and proxy host.
func New(loop *sim.Loop, net *tcpsim.Network, prox *proxy.Proxy, cfg Config, rng *sim.RNG) *Browser {
	return &Browser{
		loop:  loop,
		net:   net,
		prox:  prox,
		cfg:   cfg,
		rng:   rng,
		pools: make(map[string]*domainPool),
	}
}

// ProxyConns returns every proxy-side TCP endpoint created so far.
func (b *Browser) ProxyConns() []*tcpsim.Conn { return b.proxyConns }

// ProxyQUICConns returns every proxy-side QUIC endpoint created so far.
func (b *Browser) ProxyQUICConns() []*tcpsim.QUICConn { return b.proxyQUIC }

// H2Session returns the h2 proxy session, if the browser has opened one
// (for flow-conservation audits).
func (b *Browser) H2Session() *proxy.H2Session {
	if b.h2sess == nil {
		return nil
	}
	return b.h2sess.sess
}

// ActiveConns counts currently established HTTP connections plus SPDY
// sessions (the paper's "42.6 concurrent TCP connections" statistic).
func (b *Browser) ActiveConns() int {
	n := 0
	for _, p := range b.pools {
		for _, h := range p.conns {
			if h.established {
				n++
			}
		}
	}
	for _, s := range b.sessions {
		if s.established {
			n++
		}
	}
	if b.h2sess != nil && b.h2sess.established {
		n++
	}
	if b.quicSess != nil && b.quicSess.established {
		n++
	}
	return n
}

// --- page load bookkeeping ---

type pageLoad struct {
	page           *webpage.Page
	rec            *trace.PageRecord
	outstanding    int
	pendingReveals int
	finished       bool
	done           func(*trace.PageRecord)
	watchdog       sim.Timer
}

// LoadPage begins loading page; done fires at onLoad (or watchdog abort).
// Loads must not overlap: callers space them out (60 s in the paper).
func (b *Browser) LoadPage(page *webpage.Page, done func(*trace.PageRecord)) {
	pl := &pageLoad{
		page: page,
		rec:  &trace.PageRecord{Page: page, Start: b.loop.Now()},
		done: done,
	}
	b.cur = pl
	pl.watchdog = b.loop.After(b.cfg.PageTimeout, func() {
		if !pl.finished {
			pl.finished = true
			pl.rec.Aborted = true
			pl.rec.OnLoad = b.loop.Now()
			b.afterPage(pl)
		}
	})
	b.discover(pl, page.Main())
}

func (b *Browser) discover(pl *pageLoad, obj *webpage.Object) {
	if pl.finished {
		return
	}
	or := &trace.ObjectRecord{Obj: obj, Discovered: b.loop.Now()}
	pl.rec.Objects = append(pl.rec.Objects, or)
	pl.outstanding++
	onDone := func() { b.objectDone(pl, obj, or) }
	b.request(obj, or, onDone)
}

// request dispatches one object fetch to the mode's protocol machinery.
func (b *Browser) request(obj *webpage.Object, or *trace.ObjectRecord, onDone func()) {
	switch b.cfg.Mode {
	case ModeSPDY:
		b.requestSPDY(obj, or, onDone)
	case ModeH2:
		b.requestH2(obj, or, onDone)
	case ModeQUIC:
		b.requestQUIC(obj, or, onDone)
	default:
		b.requestHTTP(obj, or, onDone)
	}
}

func (b *Browser) objectDone(pl *pageLoad, obj *webpage.Object, or *trace.ObjectRecord) {
	pl.outstanding--
	children := pl.page.Children(obj.ID)
	if len(children) > 0 && !pl.finished {
		pl.pendingReveals++
		b.loop.After(time.Duration(obj.ProcessingDelay), func() {
			pl.pendingReveals--
			for _, c := range children {
				b.discover(pl, c)
			}
			b.checkDone(pl)
		})
	}
	b.checkDone(pl)
}

func (b *Browser) checkDone(pl *pageLoad) {
	if pl.finished || pl.outstanding > 0 || pl.pendingReveals > 0 {
		return
	}
	pl.finished = true
	pl.rec.OnLoad = b.loop.Now()
	pl.watchdog.Stop()
	b.afterPage(pl)
}

func (b *Browser) afterPage(pl *pageLoad) {
	if b.cfg.Beacons {
		b.scheduleBeacons(pl.page)
	}
	if pl.done != nil {
		pl.done(pl.rec)
	}
}

// scheduleBeacons models the periodic post-load transfers (analytics,
// ad refreshes) that keep poking the radio during think time.
func (b *Browser) scheduleBeacons(page *webpage.Page) {
	n := 2 + b.rng.Intn(2)
	at := b.loop.Now()
	for i := 0; i < n; i++ {
		at = at.Add(time.Duration(5+b.rng.Intn(14)) * time.Second)
		beacon := &webpage.Object{
			ID:     10000 + i,
			Kind:   webpage.KindText,
			Size:   300 + b.rng.Intn(1200),
			Domain: page.Main().Domain,
			Path:   fmt.Sprintf("/beacon/%d", i),
		}
		b.loop.At(at, func() {
			or := &trace.ObjectRecord{Obj: beacon, Discovered: b.loop.Now()}
			b.request(beacon, or, func() {})
		})
	}
}

// --- HTTP mode ---

type domainPool struct {
	domain  string
	conns   []*connHandle
	waiting []*pendingReq
}

type pendingReq struct {
	obj    *webpage.Object
	or     *trace.ObjectRecord
	onDone func()
}

type connHandle struct {
	id          string
	domain      string
	client      *tcpsim.Conn
	asm         *tcpsim.StreamAssembler
	hc          *proxy.HTTPConn
	established bool
	outstanding int // requests awaiting their response
	closed      bool
	idleTimer   sim.Timer
}

func (b *Browser) pool(domain string) *domainPool {
	p, ok := b.pools[domain]
	if !ok {
		p = &domainPool{domain: domain}
		b.pools[domain] = p
		b.poolOrder = append(b.poolOrder, p)
	}
	return p
}

// pumpAll services every waiting pool in deterministic order. Needed
// whenever a global connection slot frees up: the unblocked request may
// live in any domain's queue.
func (b *Browser) pumpAll() {
	for _, p := range b.poolOrder {
		b.pumpPool(p)
	}
}

func (b *Browser) requestHTTP(obj *webpage.Object, or *trace.ObjectRecord, onDone func()) {
	p := b.pool(obj.Domain)
	p.waiting = append(p.waiting, &pendingReq{obj: obj, or: or, onDone: onDone})
	b.pumpPool(p)
}

func (b *Browser) pumpPool(p *domainPool) {
	for len(p.waiting) > 0 {
		h := b.dispatchable(p)
		if h == nil {
			break
		}
		req := p.waiting[0]
		p.waiting = p.waiting[1:]
		b.dispatch(p, h, req)
	}
	// Open connections for queued requests not already covered by an
	// in-progress handshake, within the per-domain and global budgets.
	connecting := 0
	for _, h := range p.conns {
		if !h.established {
			connecting++
		}
	}
	for need := len(p.waiting) - connecting; need > 0; need-- {
		if len(p.conns) >= b.cfg.MaxConnsPerDomain {
			break
		}
		if b.totalConns >= b.cfg.MaxTotalConns {
			// Global pool full: steal an idle socket from another group,
			// as Chrome's socket pool does, else this domain starves.
			if !b.reclaimIdleConn(p) {
				break
			}
		}
		b.openConn(p)
	}
}

// reclaimIdleConn closes one established idle connection belonging to a
// pool with no queued work, freeing a global slot. Returns false if no
// connection is reclaimable.
func (b *Browser) reclaimIdleConn(needy *domainPool) bool {
	for _, p := range b.poolOrder {
		if p == needy || len(p.waiting) > 0 {
			continue
		}
		for _, h := range p.conns {
			if h.established && h.outstanding == 0 && !h.closed {
				b.closeConn(p, h)
				return true
			}
		}
	}
	return false
}

// dispatchable returns the established connection with spare request
// capacity (1 without pipelining, PipelineDepth with) that has the
// fewest outstanding requests.
func (b *Browser) dispatchable(p *domainPool) *connHandle {
	capacity := 1
	if b.cfg.Pipelining {
		capacity = b.cfg.PipelineDepth
		if capacity < 2 {
			capacity = 2
		}
	}
	var best *connHandle
	for _, h := range p.conns {
		if !h.established || h.closed || h.outstanding >= capacity {
			continue
		}
		if best == nil || h.outstanding < best.outstanding {
			best = h
		}
	}
	return best
}

func (b *Browser) openConn(p *domainPool) {
	b.connSeq++
	b.totalConns++
	id := fmt.Sprintf("h%03d.%s", b.connSeq, p.domain)
	client, server := b.net.NewConnPair(b.cfg.ClientTCP, b.cfg.ProxyTCP, id, "device")
	asm := &tcpsim.StreamAssembler{}
	client.OnDeliver(asm.Deliver)
	h := &connHandle{id: id, domain: p.domain, client: client, asm: asm}
	h.hc = proxy.NewHTTPConn(b.prox, server, asm)
	b.proxyConns = append(b.proxyConns, server)
	p.conns = append(p.conns, h)
	client.OnEstablished(func() {
		h.established = true
		b.armIdle(p, h)
		b.pumpPool(p)
	})
	client.Connect()
}

func (b *Browser) dispatch(p *domainPool, h *connHandle, req *pendingReq) {
	h.outstanding++
	h.idleTimer.Stop()
	req.or.Requested = b.loop.Now()
	req.or.ConnID = h.id
	reqSize := proxy.HTTPReqSize(req.obj)
	or := req.or
	h.hc.ExpectRequest(req.obj, reqSize, proxy.ResponseHooks{
		OnFirstByte: func() { or.FirstByte = b.loop.Now() },
		OnDone: func() {
			or.Done = b.loop.Now()
			h.outstanding--
			if h.outstanding == 0 {
				b.armIdle(p, h)
			}
			req.onDone()
			b.pumpAll()
		},
	})
	h.client.Write(reqSize)
}

func (b *Browser) armIdle(p *domainPool, h *connHandle) {
	h.idleTimer.Stop()
	h.idleTimer = b.loop.After(b.cfg.IdleConnTimeout, func() {
		if h.outstanding > 0 || h.closed {
			return
		}
		b.closeConn(p, h)
		b.pumpAll()
	})
}

func (b *Browser) closeConn(p *domainPool, h *connHandle) {
	h.closed = true
	h.client.Close()
	h.hc.Conn().Close()
	b.totalConns--
	for i, c := range p.conns {
		if c == h {
			p.conns = append(p.conns[:i], p.conns[i+1:]...)
			break
		}
	}
}

// --- SPDY mode ---

type spdyHandle struct {
	id          string
	client      *tcpsim.Conn
	asm         *tcpsim.StreamAssembler
	sess        *proxy.SPDYSession // exclusive with groupIdx
	groupIdx    int                // valid when the browser runs late-binding
	oracle      *spdy.SizeOracle
	established bool
	backlog     []*pendingReq
}

func (b *Browser) requestSPDY(obj *webpage.Object, or *trace.ObjectRecord, onDone func()) {
	if len(b.sessions) == 0 {
		n := b.cfg.SPDYSessions
		if n < 1 {
			n = 1
		}
		if b.cfg.SPDYLateBinding && n > 1 {
			b.group = proxy.NewSPDYGroup(b.prox)
		}
		for i := 0; i < n; i++ {
			b.sessions = append(b.sessions, b.openSession(i))
		}
	}
	// Early binding: round-robin at request-issue time (§6.1).
	s := b.sessions[b.reqSeq%len(b.sessions)]
	b.reqSeq++
	req := &pendingReq{obj: obj, or: or, onDone: onDone}
	if !s.established {
		s.backlog = append(s.backlog, req)
		return
	}
	b.sendSPDY(s, req)
}

func (b *Browser) openSession(i int) *spdyHandle {
	id := fmt.Sprintf("spdy%02d", i)
	client, server := b.net.NewConnPair(b.cfg.ClientTCP, b.cfg.ProxyTCP, id, "device")
	asm := &tcpsim.StreamAssembler{}
	client.OnDeliver(asm.Deliver)
	s := &spdyHandle{
		id:     id,
		client: client,
		asm:    asm,
		oracle: spdy.NewSizeOracle(),
	}
	if b.group != nil {
		s.groupIdx = b.group.AddSession(server, asm)
	} else {
		s.sess = proxy.NewSPDYSession(b.prox, server, asm)
	}
	b.proxyConns = append(b.proxyConns, server)
	client.OnEstablished(func() {
		s.established = true
		backlog := s.backlog
		s.backlog = nil
		for _, req := range backlog {
			b.sendSPDY(s, req)
		}
	})
	client.Connect()
	return s
}

func (b *Browser) sendSPDY(s *spdyHandle, req *pendingReq) {
	req.or.Requested = b.loop.Now()
	req.or.ConnID = s.id
	prio := spdy.PriorityForType(string(req.obj.Kind))
	size := s.oracle.RequestSize("GET", "http", req.obj.Domain, req.obj.Path, userAgent)
	or := req.or
	onDone := req.onDone
	hooks := proxy.ResponseHooks{
		OnFirstByte: func() { or.FirstByte = b.loop.Now() },
		OnDone: func() {
			or.Done = b.loop.Now()
			onDone()
		},
	}
	if b.group != nil {
		b.group.ExpectRequest(s.groupIdx, req.obj, size, prio, hooks)
	} else {
		s.sess.ExpectRequest(req.obj, size, prio, hooks)
	}
	s.client.Write(size)
}

// --- HTTP/2 mode ---

// userAgent is the Chrome 23 UA string every protocol mode sends.
const userAgent = "Mozilla/5.0 (Windows NT 6.1) Chrome/23.0"

type h2Handle struct {
	id          string
	client      *tcpsim.Conn
	asm         *tcpsim.StreamAssembler
	sess        *proxy.H2Session
	reqSizer    *h2.HeaderSizer  // HPACK request pricing
	reqOracle   *spdy.SizeOracle // equal-framing mode: SPDY-identical requests
	established bool
	backlog     []*pendingReq

	// WINDOW_UPDATE bookkeeping: response bytes delivered client-side
	// but not yet re-credited to the proxy. Lookup-only maps.
	pendingStream map[uint32]int64
	pendingConn   int64
}

func (b *Browser) requestH2(obj *webpage.Object, or *trace.ObjectRecord, onDone func()) {
	if b.h2sess == nil {
		b.h2sess = b.openH2()
	}
	h := b.h2sess
	req := &pendingReq{obj: obj, or: or, onDone: onDone}
	if !h.established {
		h.backlog = append(h.backlog, req)
		return
	}
	b.sendH2(h, req)
}

func (b *Browser) openH2() *h2Handle {
	id := "h2s00"
	client, server := b.net.NewConnPair(b.cfg.ClientTCP, b.cfg.ProxyTCP, id, "device")
	asm := &tcpsim.StreamAssembler{}
	client.OnDeliver(asm.Deliver)
	h := &h2Handle{
		id:            id,
		client:        client,
		asm:           asm,
		pendingStream: make(map[uint32]int64),
	}
	if b.cfg.H2EqualFraming {
		h.reqOracle = spdy.NewSizeOracle()
	} else {
		h.reqSizer = h2.NewHeaderSizer()
	}
	h.sess = proxy.NewH2Session(b.prox, server, asm, b.cfg.H2EqualFraming)
	if h.sess.NeedsWindowUpdates() {
		h.sess.OnClientChunk(func(sid uint32, payload int) { b.h2Consumed(h, sid, payload) })
	}
	b.proxyConns = append(b.proxyConns, server)
	client.OnEstablished(func() {
		h.established = true
		backlog := h.backlog
		h.backlog = nil
		for _, req := range backlog {
			b.sendH2(h, req)
		}
	})
	client.Connect()
	return h
}

func (b *Browser) sendH2(h *h2Handle, req *pendingReq) {
	req.or.Requested = b.loop.Now()
	req.or.ConnID = h.id
	prio := spdy.PriorityForType(string(req.obj.Kind))
	var size int
	if h.reqOracle != nil {
		// Equal-framing oracle mode: the request bytes must match SPDY's
		// exactly, SYN_STREAM framing included.
		size = h.reqOracle.RequestSize("GET", "http", req.obj.Domain, req.obj.Path, userAgent)
	} else {
		size = h.reqSizer.RequestSize("GET", "http", req.obj.Domain, req.obj.Path, userAgent)
	}
	or := req.or
	onDone := req.onDone
	hooks := proxy.ResponseHooks{
		OnFirstByte: func() { or.FirstByte = b.loop.Now() },
		OnDone: func() {
			or.Done = b.loop.Now()
			onDone()
		},
	}
	h.sess.ExpectRequest(req.obj, size, prio, hooks)
	h.client.Write(size)
}

// h2Consumed drives WINDOW_UPDATE generation: once half a stream's (or
// the connection's) window worth of DATA has landed, the browser
// re-credits the proxy with exactly the delivered bytes — the
// conservation the fuzz target and end-of-run audit check.
func (b *Browser) h2Consumed(h *h2Handle, sid uint32, n int) {
	h.pendingStream[sid] += int64(n)
	h.pendingConn += int64(n)
	if p := h.pendingStream[sid]; p >= h2.DefaultInitialWindow/2 {
		h.pendingStream[sid] = 0
		h.sess.ExpectWindowUpdate(sid, p, false)
		h.client.Write(h2.WindowUpdateFrameSize)
	}
	if p := h.pendingConn; p >= proxy.H2ConnWindow/2 {
		h.pendingConn = 0
		h.sess.ExpectWindowUpdate(0, p, true)
		h.client.Write(h2.WindowUpdateFrameSize)
	}
}

// --- QUIC mode ---

type quicHandle struct {
	id          string
	client      *tcpsim.QUICConn
	streams     *proxy.QUICClientStreams
	sess        *proxy.QUICSession
	sizer       *h2.HeaderSizer
	established bool
	backlog     []*pendingReq
	outstanding int
	idleTimer   sim.Timer
	closed      bool
}

func (b *Browser) requestQUIC(obj *webpage.Object, or *trace.ObjectRecord, onDone func()) {
	if b.quicSess == nil {
		b.quicSess = b.openQUIC()
	}
	q := b.quicSess
	q.outstanding++
	q.idleTimer.Stop()
	req := &pendingReq{obj: obj, or: or, onDone: onDone}
	if !q.established {
		q.backlog = append(q.backlog, req)
		return
	}
	b.sendQUIC(q, req)
}

// armQUICIdle closes the QUIC connection after the browser's idle
// timeout, flushing transport metrics to the shared cache. The next
// page then opens a fresh connection that — with QUICZeroRTT — resumes
// without a handshake round trip: the transfer rides the very radio
// promotion the handshake used to wait out.
func (b *Browser) armQUICIdle(q *quicHandle) {
	q.idleTimer.Stop()
	q.idleTimer = b.loop.After(b.cfg.IdleConnTimeout, func() {
		if q.outstanding > 0 || q.closed {
			return
		}
		q.closed = true
		q.client.Close()
		q.sess.Conn().Close()
		if b.quicSess == q {
			b.quicSess = nil
		}
	})
}

func (b *Browser) openQUIC() *quicHandle {
	id := "quic00"
	ccfg := b.cfg.ClientTCP
	ccfg.ZeroRTT = b.cfg.QUICZeroRTT
	client, server := b.net.NewQUICPair(ccfg, b.cfg.ProxyTCP, id, "device")
	streams := proxy.NewQUICClientStreams()
	client.OnStreamDeliver(streams.Deliver)
	q := &quicHandle{
		id:      id,
		client:  client,
		streams: streams,
		sizer:   h2.NewHeaderSizer(),
	}
	q.sess = proxy.NewQUICSession(b.prox, server, streams)
	b.proxyQUIC = append(b.proxyQUIC, server)
	client.OnEstablished(func() {
		q.established = true
		backlog := q.backlog
		q.backlog = nil
		for _, req := range backlog {
			b.sendQUIC(q, req)
		}
	})
	client.Connect()
	return q
}

func (b *Browser) sendQUIC(q *quicHandle, req *pendingReq) {
	req.or.Requested = b.loop.Now()
	req.or.ConnID = q.id
	prio := spdy.PriorityForType(string(req.obj.Kind))
	// Each request/response pair rides its own transport stream.
	sid := uint32(req.obj.ID*2 + 1)
	size := q.sizer.RequestSize("GET", "http", req.obj.Domain, req.obj.Path, userAgent)
	or := req.or
	onDone := req.onDone
	hooks := proxy.ResponseHooks{
		OnFirstByte: func() { or.FirstByte = b.loop.Now() },
		OnDone: func() {
			or.Done = b.loop.Now()
			q.outstanding--
			if q.outstanding == 0 {
				b.armQUICIdle(q)
			}
			onDone()
		},
	}
	q.sess.ExpectRequest(req.obj, sid, size, prio, hooks)
	q.client.WriteStream(sid, size)
}
