package proxy

import (
	"spdier/internal/spdy"
	"spdier/internal/tcpsim"
	"spdier/internal/trace"
	"spdier/internal/webpage"
)

// SPDYGroup implements the remedy §6.2 of the paper proposes for the
// failed multi-connection experiment of §6.1: SPDY striped over several
// TCP connections with *late binding* — a response is bound to whichever
// connection is currently able to transmit, instead of being pinned to
// the connection that carried its request. A connection wedged by
// spurious retransmissions then delays only the chunks already handed to
// it, not every pending object.
type SPDYGroup struct {
	proxy   *Proxy
	members []*groupMember
	queue   spdy.PriorityQueue[*groupTask]

	// QueuedResponses gauges the shared backlog.
	QueuedResponses int
}

type groupMember struct {
	group     *SPDYGroup
	conn      *tcpsim.Conn
	clientAsm *tcpsim.StreamAssembler
	reqAsm    tcpsim.StreamAssembler
	oracle    *spdy.SizeOracle
}

type groupTask struct {
	obj      *webpage.Object
	rec      *trace.ProxyRecord
	hooks    ResponseHooks
	priority spdy.Priority
	// remaining counts bytes not yet written; deliveredLeft counts bytes
	// not yet delivered at the client. They differ because chunks of one
	// object may ride different connections and land out of order.
	remaining     int
	deliveredLeft int
	started       bool
}

// NewSPDYGroup creates an empty late-binding group.
func NewSPDYGroup(p *Proxy) *SPDYGroup {
	return &SPDYGroup{proxy: p}
}

// AddSession registers one proxy-side connection and its client-side
// assembler; it returns the session index used by ExpectRequest.
func (g *SPDYGroup) AddSession(serverConn *tcpsim.Conn, clientAsm *tcpsim.StreamAssembler) int {
	m := &groupMember{
		group:     g,
		conn:      serverConn,
		clientAsm: clientAsm,
		oracle:    spdy.NewSizeOracle(),
	}
	serverConn.OnDeliver(m.reqAsm.Deliver)
	serverConn.SetWritableHook(sendHighWater, g.pump)
	g.members = append(g.members, m)
	return len(g.members) - 1
}

// ExpectRequest registers an inbound SYN_STREAM of reqSize bytes on the
// given session. The response is *not* bound to that session.
func (g *SPDYGroup) ExpectRequest(session int, obj *webpage.Object, reqSize int, prio spdy.Priority, hooks ResponseHooks) {
	m := g.members[session]
	m.reqAsm.Expect(reqSize, func() {
		rec := g.proxy.record(obj)
		g.proxy.Origin.Fetch(obj,
			func() { rec.OriginFirstByte = g.proxy.Loop.Now() },
			func() {
				rec.OriginDone = g.proxy.Loop.Now()
				g.queue.Push(prio, &groupTask{
					obj: obj, rec: rec, hooks: hooks,
					priority: prio, remaining: obj.Size, deliveredLeft: obj.Size,
				})
				g.QueuedResponses++
				g.pump()
			})
	})
}

// bestMember returns the established connection with the shallowest
// unsent backlog — "available" in the paper's sense of having an open
// congestion window — or nil if every socket is saturated.
func (g *SPDYGroup) bestMember() *groupMember {
	var best *groupMember
	for _, m := range g.members {
		if !m.conn.Established() || m.conn.BufferedBytes() >= sendHighWater {
			continue
		}
		if best == nil || m.conn.BufferedBytes() < best.conn.BufferedBytes() {
			best = m
		}
	}
	return best
}

// pump drains the shared priority queue onto whichever connections can
// take data right now.
func (g *SPDYGroup) pump() {
	for {
		m := g.bestMember()
		if m == nil {
			return
		}
		task, ok := g.queue.Pop()
		if !ok {
			return
		}
		now := g.proxy.Loop.Now()
		if !task.started {
			task.started = true
			task.rec.SendStart = now
			head := m.oracle.ReplySize("200 OK", contentType(task.obj.Kind), int64(task.obj.Size))
			hooks := task.hooks
			m.clientAsm.Expect(head, func() {
				if hooks.OnFirstByte != nil {
					hooks.OnFirstByte()
				}
			})
			m.conn.Write(head)
		}
		n := task.remaining
		if n > chunkSize {
			n = chunkSize
		}
		task.remaining -= n
		t := task
		m.clientAsm.Expect(n+spdy.DataFrameOverhead, func() {
			t.deliveredLeft -= n
			if t.deliveredLeft == 0 {
				t.rec.SendDone = g.proxy.Loop.Now()
				if t.hooks.OnDone != nil {
					t.hooks.OnDone()
				}
			}
		})
		m.conn.Write(n + spdy.DataFrameOverhead)
		if task.remaining == 0 {
			g.QueuedResponses--
		} else {
			g.queue.Push(task.priority, task)
		}
	}
}
