// Package liveproxy is the live-socket track of the reproduction: a real
// HTTP/1.1 origin server, a real SPDY/3 proxy (the role Chromium's flip
// server played in the paper's testbed), an HTTP forward proxy (the
// Squid role), a SPDY client, and a latency/bandwidth-shaping conduit —
// all over actual TCP sockets using only the standard library and the
// internal/spdy and internal/httpwire codecs.
//
// The simulator answers the paper's questions; this package proves the
// protocol layer is real: frames marshal on the wire, the shared zlib
// header context survives a session, priorities reorder responses, and
// many streams multiplex over one connection.
package liveproxy

import (
	"bufio"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"

	"spdier/internal/httpwire"
)

// Origin is a minimal HTTP/1.1 origin server. Request paths of the form
// /size/<n> return n bytes of deterministic payload; /echo/<text>
// returns the text; anything else returns a small index page. Keep-alive
// connections are served until the client closes.
type Origin struct {
	ln net.Listener

	mu     sync.Mutex
	served int
	closed bool
}

// StartOrigin listens on addr ("127.0.0.1:0" for an ephemeral port).
func StartOrigin(addr string) (*Origin, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("liveproxy: origin listen: %w", err)
	}
	o := &Origin{ln: ln}
	go o.acceptLoop()
	return o, nil
}

// Addr returns the listening address.
func (o *Origin) Addr() string { return o.ln.Addr().String() }

// Served returns the number of requests parsed. A request is counted
// before its response is written, so a client holding a response always
// sees it counted.
func (o *Origin) Served() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.served
}

// Close stops the listener.
func (o *Origin) Close() error {
	o.mu.Lock()
	o.closed = true
	o.mu.Unlock()
	return o.ln.Close()
}

func (o *Origin) acceptLoop() {
	for {
		conn, err := o.ln.Accept()
		if err != nil {
			return
		}
		go o.serve(conn)
	}
}

func (o *Origin) serve(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReader(conn)
	for {
		req, err := httpwire.ReadRequest(br)
		if err != nil {
			return
		}
		// Count before writing: once the response is on the wire the
		// client may read it and ask Served() before this goroutine runs
		// again.
		o.mu.Lock()
		o.served++
		o.mu.Unlock()
		resp := o.respond(req)
		if _, err := conn.Write(resp.Marshal()); err != nil {
			return
		}
		if strings.EqualFold(req.Headers["Connection"], "close") {
			return
		}
	}
}

// Body generates the deterministic payload for a given size, so clients
// can verify integrity end to end.
func Body(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + (i % 26))
	}
	return b
}

func (o *Origin) respond(req *httpwire.Request) *httpwire.Response {
	path := req.Target
	// Absolute-form from proxies: strip scheme://host.
	if i := strings.Index(path, "://"); i >= 0 {
		rest := path[i+3:]
		if j := strings.IndexByte(rest, '/'); j >= 0 {
			path = rest[j:]
		} else {
			path = "/"
		}
	}
	var body []byte
	ctype := "text/plain"
	switch {
	case strings.HasPrefix(path, "/size/"):
		n, err := strconv.Atoi(strings.TrimPrefix(path, "/size/"))
		if err != nil || n < 0 || n > 64<<20 {
			return &httpwire.Response{Status: 400, Headers: map[string]string{"Content-Length": "0"}}
		}
		body = Body(n)
	case strings.HasPrefix(path, "/echo/"):
		body = []byte(strings.TrimPrefix(path, "/echo/"))
	default:
		body = []byte("<html><body>spdier test origin</body></html>")
		ctype = "text/html"
	}
	return &httpwire.Response{
		Status: 200,
		Headers: map[string]string{
			"Content-Type":   ctype,
			"Content-Length": strconv.Itoa(len(body)),
			"Server":         "spdier-origin/1.0",
		},
		Body: body,
	}
}
