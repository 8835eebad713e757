package proxy

import (
	"fmt"

	"spdier/internal/h2"
	"spdier/internal/spdy"
	"spdier/internal/tcpsim"
	"spdier/internal/trace"
	"spdier/internal/webpage"
)

// H2ConnWindow is the connection-level flow-control window the h2 proxy
// advertises via SETTINGS/WINDOW_UPDATE at session start (per-stream
// windows stay at the RFC 7540 default).
const H2ConnWindow = 1 << 20

// equalFramingWindow is the effectively-infinite window used by the
// equal-framing oracle mode: flow control never binds, so the byte
// stream is identical to SPDY's.
const equalFramingWindow = 1 << 30

// h2Framing abstracts the one thing that differs between true-h2 and
// the equal-framing oracle mode: how response frames are priced.
type h2Framing interface {
	// ReplyHeadSize prices the response HEADERS (or SYN_REPLY) frame.
	ReplyHeadSize(obj *webpage.Object) int
	// DataOverhead is the per-DATA-frame framing cost.
	DataOverhead() int
}

// hpackFraming prices frames the HTTP/2 way: HPACK header blocks and
// 9-octet frame headers.
type hpackFraming struct{ sizer *h2.HeaderSizer }

func (f hpackFraming) ReplyHeadSize(obj *webpage.Object) int {
	return f.sizer.ResponseSize("200 OK", contentType(obj.Kind), int64(obj.Size))
}
func (f hpackFraming) DataOverhead() int { return h2.DataFrameOverhead }

// spdyEqualFraming prices frames exactly as the SPDY session does —
// same zlib oracle, same 8-byte DATA overhead. Combined with
// never-binding windows, an equal-framing H2Session emits a byte stream
// identical to SPDYSession's, which is what the zero-loss
// "h2 PLT == SPDY PLT" metamorphic oracle pins.
type spdyEqualFraming struct{ oracle *spdy.SizeOracle }

func (f spdyEqualFraming) ReplyHeadSize(obj *webpage.Object) int {
	return f.oracle.ReplySize("200 OK", contentType(obj.Kind), int64(obj.Size))
}
func (f spdyEqualFraming) DataOverhead() int { return spdy.DataFrameOverhead }

// H2Session is the proxy side of one HTTP/2 connection. It is the
// SPDYSession pump — same chunk size, same high-water mark, same strict
// priority with intra-class round-robin — composed with two h2-specific
// layers: HPACK-priced headers instead of the shared zlib stream, and
// credit-based per-stream flow control gating every DATA frame.
type H2Session struct {
	proxy     *Proxy
	conn      *tcpsim.Conn
	clientAsm *tcpsim.StreamAssembler
	reqAsm    tcpsim.StreamAssembler

	framing h2Framing
	fc      *h2.FlowController
	equal   bool

	queue   spdy.PriorityQueue[*h2Task]
	blocked []*h2Task // tasks parked on an empty flow-control window

	// onClientChunk, when set, fires as each DATA payload lands at the
	// client; the browser uses it to drive WINDOW_UPDATE generation.
	onClientChunk func(streamID uint32, payload int)

	// streamIDs records every stream ever opened, for the end-of-run
	// conservation audit.
	streamIDs []uint32

	// QueuedResponses gauges the pump backlog, as on the SPDY session.
	QueuedResponses int
}

// h2Task is one response in flight through the pump.
type h2Task struct {
	obj       *webpage.Object
	rec       *trace.ProxyRecord
	hooks     ResponseHooks
	priority  spdy.Priority
	sid       uint32
	headSize  int
	remaining int
	started   bool
}

// NewH2Session attaches an HTTP/2 proxy handler to the server-side
// endpoint. equalFraming selects the oracle mode: SPDY-identical frame
// pricing and never-binding windows, used by the differential tests.
func NewH2Session(p *Proxy, serverConn *tcpsim.Conn, clientAsm *tcpsim.StreamAssembler, equalFraming bool) *H2Session {
	s := &H2Session{
		proxy:     p,
		conn:      serverConn,
		clientAsm: clientAsm,
		equal:     equalFraming,
	}
	if equalFraming {
		s.framing = spdyEqualFraming{oracle: spdy.NewSizeOracle()}
		s.fc = h2.NewFlowController(equalFramingWindow, equalFramingWindow)
	} else {
		s.framing = hpackFraming{sizer: h2.NewHeaderSizer()}
		s.fc = h2.NewFlowController(H2ConnWindow, h2.DefaultInitialWindow)
	}
	serverConn.OnDeliver(s.reqAsm.Deliver)
	serverConn.SetWritableHook(sendHighWater, s.pump)
	return s
}

// Conn exposes the proxy-side TCP endpoint.
func (s *H2Session) Conn() *tcpsim.Conn { return s.conn }

// NeedsWindowUpdates reports whether the client must replenish windows
// (false in equal-framing mode, where flow control never binds).
func (s *H2Session) NeedsWindowUpdates() bool { return !s.equal }

// OnClientChunk registers the per-DATA-payload client-delivery callback.
func (s *H2Session) OnClientChunk(fn func(streamID uint32, payload int)) { s.onClientChunk = fn }

// CheckFlowConservation audits the credit books over every stream the
// session ever opened: windows must equal initial + granted − consumed.
func (s *H2Session) CheckFlowConservation() error {
	return s.fc.CheckConservation(s.streamIDs)
}

// ExpectRequest registers an inbound HEADERS frame of reqSize bytes for
// obj. The browser calls this immediately before writing the request
// bytes; many requests may be outstanding simultaneously.
func (s *H2Session) ExpectRequest(obj *webpage.Object, reqSize int, prio spdy.Priority, hooks ResponseHooks) {
	s.reqAsm.Expect(reqSize, func() {
		rec := s.proxy.record(obj)
		s.proxy.Origin.Fetch(obj,
			func() { rec.OriginFirstByte = s.proxy.Loop.Now() },
			func() {
				rec.OriginDone = s.proxy.Loop.Now()
				s.enqueue(obj, rec, prio, hooks)
			})
	})
}

// ExpectWindowUpdate registers an inbound WINDOW_UPDATE: when its bytes
// arrive, n octets are credited to the stream (or, with connLevel, the
// connection) and any starved responses resume. The browser calls this
// immediately before writing the frame bytes.
func (s *H2Session) ExpectWindowUpdate(streamID uint32, n int64, connLevel bool) {
	s.reqAsm.Expect(h2.WindowUpdateFrameSize, func() {
		var err error
		if connLevel {
			err = s.fc.GrantConn(n)
		} else {
			err = s.fc.Grant(streamID, n)
		}
		if err != nil {
			panic(fmt.Sprintf("proxy: h2 window update rejected: %v", err))
		}
		s.requeueBlocked()
		s.pump()
	})
}

// requeueBlocked returns every parked task to the priority queue; the
// pump re-parks any that are still starved.
func (s *H2Session) requeueBlocked() {
	for _, t := range s.blocked {
		s.queue.Push(t.priority, t)
	}
	s.blocked = s.blocked[:0]
}

func (s *H2Session) enqueue(obj *webpage.Object, rec *trace.ProxyRecord, prio spdy.Priority, hooks ResponseHooks) {
	sid := uint32(obj.ID*2 + 1)
	s.streamIDs = append(s.streamIDs, sid)
	s.queue.Push(prio, &h2Task{
		obj:       obj,
		rec:       rec,
		hooks:     hooks,
		priority:  prio,
		sid:       sid,
		headSize:  s.framing.ReplyHeadSize(obj),
		remaining: obj.Size,
	})
	s.QueuedResponses++
	s.pump()
}

// pump feeds the socket exactly like the SPDY pump, with one extra
// gate: a DATA chunk may not exceed the stream's flow-control credit.
// A response whose window is empty parks in blocked until the client's
// WINDOW_UPDATE arrives — HTTP/2's per-stream backpressure, the
// mechanism SPDY/3-as-deployed lacked.
func (s *H2Session) pump() {
	for s.conn.BufferedBytes() < sendHighWater {
		task, ok := s.queue.Pop()
		if !ok {
			return
		}
		now := s.proxy.Loop.Now()
		if !task.started {
			task.started = true
			task.rec.SendStart = now
			// HEADERS first; header frames are not flow controlled.
			hooks := task.hooks
			s.clientAsm.Expect(task.headSize, func() {
				if hooks.OnFirstByte != nil {
					hooks.OnFirstByte()
				}
			})
			s.conn.Write(task.headSize)
		}
		avail := s.fc.Avail(task.sid)
		if avail <= 0 {
			s.blocked = append(s.blocked, task)
			continue
		}
		n := task.remaining
		if n > chunkSize {
			n = chunkSize
		}
		if int64(n) > avail {
			n = int(avail)
		}
		if err := s.fc.Consume(task.sid, int64(n)); err != nil {
			panic(fmt.Sprintf("proxy: h2 pump overdraw: %v", err))
		}
		task.remaining -= n
		finished := task.remaining == 0
		rec := task.rec
		hooks := task.hooks
		sid := task.sid
		payload := n
		s.clientAsm.Expect(n+s.framing.DataOverhead(), func() {
			if s.onClientChunk != nil {
				s.onClientChunk(sid, payload)
			}
			if finished {
				rec.SendDone = s.proxy.Loop.Now()
				if hooks.OnDone != nil {
					hooks.OnDone()
				}
			}
		})
		s.conn.Write(n + s.framing.DataOverhead())
		if finished {
			s.QueuedResponses--
		} else {
			s.queue.Push(task.priority, task)
		}
	}
}
