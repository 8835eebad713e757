package proxy

import (
	"spdier/internal/spdy"
	"spdier/internal/tcpsim"
	"spdier/internal/trace"
	"spdier/internal/webpage"
)

// chunkSize is the DATA frame payload granularity the SPDY proxy uses
// when interleaving concurrent responses onto the session.
const chunkSize = 8 << 10

// sendHighWater bounds how far ahead of the TCP socket the pump writes:
// it keeps prioritization decisions late (in the pump's queue, where they
// can still reorder) rather than early (in the kernel buffer, where they
// cannot). When the client↔proxy link is the bottleneck, responses pile
// up in the pump queue — the Figure 8 effect of SPDY "moving the
// bottleneck from the client to the proxy".
const sendHighWater = 24 << 10

// SPDYSession is the proxy side of one SPDY connection: it demultiplexes
// request streams, fetches from the origin, and schedules response frames
// strictly by SPDY priority with round-robin interleave within a class.
type SPDYSession struct {
	proxy     *Proxy
	conn      *tcpsim.Conn
	clientAsm *tcpsim.StreamAssembler
	reqAsm    tcpsim.StreamAssembler

	oracle *spdy.SizeOracle // proxy→client header compression context
	queue  spdy.PriorityQueue[*respTask]

	// QueuedResponses gauges the pump backlog for Figure 8 analysis.
	QueuedResponses int
}

// respTask is one response in flight through the pump.
type respTask struct {
	obj       *webpage.Object
	rec       *trace.ProxyRecord
	hooks     ResponseHooks
	priority  spdy.Priority
	headSize  int
	remaining int
	started   bool
}

// NewSPDYSession attaches a SPDY proxy handler to the server-side
// endpoint. The pump re-fills the socket whenever its backlog drains.
func NewSPDYSession(p *Proxy, serverConn *tcpsim.Conn, clientAsm *tcpsim.StreamAssembler) *SPDYSession {
	s := &SPDYSession{
		proxy:     p,
		conn:      serverConn,
		clientAsm: clientAsm,
		oracle:    spdy.NewSizeOracle(),
	}
	serverConn.OnDeliver(s.reqAsm.Deliver)
	serverConn.SetWritableHook(sendHighWater, s.pump)
	return s
}

// Conn exposes the proxy-side TCP endpoint.
func (s *SPDYSession) Conn() *tcpsim.Conn { return s.conn }

// ExpectRequest registers an inbound SYN_STREAM of reqSize bytes for obj.
// The browser calls this immediately before writing the request bytes.
// Unlike HTTP, many requests may be outstanding simultaneously.
func (s *SPDYSession) ExpectRequest(obj *webpage.Object, reqSize int, prio spdy.Priority, hooks ResponseHooks) {
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

func (s *SPDYSession) enqueue(obj *webpage.Object, rec *trace.ProxyRecord, prio spdy.Priority, hooks ResponseHooks) {
	head := s.oracle.ReplySize("200 OK", contentType(obj.Kind), int64(obj.Size))
	s.queue.Push(prio, &respTask{
		obj:       obj,
		rec:       rec,
		hooks:     hooks,
		priority:  prio,
		headSize:  head,
		remaining: obj.Size,
	})
	s.QueuedResponses++
	s.pump()
}

// pump feeds the socket: highest priority first, one chunk at a time,
// re-queueing unfinished responses behind their priority peers so equal
// priority responses interleave — which is why parallel downloads each
// take longer (observed in Figure 7).
func (s *SPDYSession) pump() {
	for s.conn.BufferedBytes() < sendHighWater {
		task, ok := s.queue.Pop()
		if !ok {
			return
		}
		now := s.proxy.Loop.Now()
		if !task.started {
			task.started = true
			task.rec.SendStart = now
			// SYN_REPLY first.
			hooks := task.hooks
			s.clientAsm.Expect(task.headSize, func() {
				if hooks.OnFirstByte != nil {
					hooks.OnFirstByte()
				}
			})
			s.conn.Write(task.headSize)
		}
		n := task.remaining
		if n > chunkSize {
			n = chunkSize
		}
		task.remaining -= n
		finished := task.remaining == 0
		rec := task.rec
		hooks := task.hooks
		s.clientAsm.Expect(n+spdy.DataFrameOverhead, func() {
			if finished {
				rec.SendDone = s.proxy.Loop.Now()
				if hooks.OnDone != nil {
					hooks.OnDone()
				}
			}
		})
		s.conn.Write(n + spdy.DataFrameOverhead)
		if finished {
			s.QueuedResponses--
		} else {
			s.queue.Push(task.priority, task)
		}
	}
}
