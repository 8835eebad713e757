package spdy

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// TestTypedBlocksMatchMarshalPlain checks that the typed sizers append
// the same plain name/value block appendPlain builds from the
// RequestHeaders / ResponseHeaders maps, byte for byte.
func TestTypedBlocksMatchMarshalPlain(t *testing.T) {
	o := NewSizeOracle()
	requests := [][5]string{
		{"GET", "http", "www.example.com", "/index.html", "Mozilla/5.0 (Windows NT 6.1) Chrome/23.0"},
		{"GET", "http", "www.example.com", "/index.html", ""}, // no user-agent pair
		{"", "", "", "", ""},
		{"POST", "https", "a\x00b.example", strings.Repeat("/deep", 200), "ua"},
	}
	for _, r := range requests {
		o.RequestSize(r[0], r[1], r[2], r[3], r[4])
		if want := RequestHeaders(r[0], r[1], r[2], r[3], r[4]).appendPlain(nil); !bytes.Equal(o.plain, want) {
			t.Fatalf("request %q: typed block\n%q\nappendPlain\n%q", r, o.plain, want)
		}
	}
	lengths := []int64{0, 9, 10, 99, 100, 123456, -1, -10, math.MaxInt64, math.MinInt64}
	for i, n := range lengths {
		status, ct := "200 OK", "image/jpeg"
		if i%3 == 1 {
			status, ct = "", ""
		}
		o.ReplySize(status, ct, n)
		if want := ResponseHeaders(status, ct, n).appendPlain(nil); !bytes.Equal(o.plain, want) {
			t.Fatalf("reply (%q, %q, %d): typed block\n%q\nappendPlain\n%q", status, ct, n, o.plain, want)
		}
	}
}

// countingRW counts the bytes a Framer writes.
type countingRW struct{ n int }

func (w *countingRW) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }
func (*countingRW) Read([]byte) (int, error)      { return 0, io.EOF }

// randToken returns a printable token of length 0..max.
func randToken(rng *rand.Rand, max int) string {
	const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789-./_?=&"
	b := make([]byte, rng.Intn(max+1))
	for i := range b {
		b[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return string(b)
}

// TestSizeOracleMatchesFramerOverRandomSessions is the differential
// oracle for SizeOracle: over seeded random sessions, every size it
// reports must equal the bytes a real Framer writes for the same frame
// on a session of its own. Requests and replies go through the typed
// sizers and every other frame through FrameSize, interleaved, and each
// session compresses more than 32 KiB of plain header input, so the
// deflate window slides.
func TestSizeOracleMatchesFramerOverRandomSessions(t *testing.T) {
	const sessions = 200
	const windowBytes = 32 << 10
	uas := []string{"", "Mozilla/5.0 (Windows NT 6.1) Chrome/23.0", "spdier-client/1.0"}
	types := []string{"text/html; charset=utf-8", "text/css", "image/png", ""}
	for seed := int64(0); seed < sessions; seed++ {
		rng := rand.New(rand.NewSource(seed))
		hosts := make([]string, 1+rng.Intn(8))
		for i := range hosts {
			hosts[i] = randToken(rng, 40)
		}
		ua := uas[rng.Intn(len(uas))]
		o := NewSizeOracle()
		sink := &countingRW{}
		real := NewFramer(sink)
		plainBytes, target := 0, windowBytes+rng.Intn(windowBytes)
		for step := 0; plainBytes <= target; step++ {
			var fr Frame
			var got int
			switch k := rng.Intn(10); {
			case k < 5:
				host, path := hosts[rng.Intn(len(hosts))], "/"+randToken(rng, 120)
				got = o.RequestSize("GET", "http", host, path, ua)
				fr = SynStream{StreamID: uint32(2*step + 1), Priority: Priority(rng.Intn(8)), Fin: true,
					Headers: RequestHeaders("GET", "http", host, path, ua)}
			case k < 9:
				status, ct := "200 OK", types[rng.Intn(len(types))]
				n := rng.Int63n(1 << uint(rng.Intn(40)))
				got = o.ReplySize(status, ct, n)
				fr = SynReply{StreamID: uint32(2*step + 1), Headers: ResponseHeaders(status, ct, n)}
			default:
				others := []Frame{
					HeadersFrame{StreamID: uint32(2*step + 1), Fin: true, Headers: Headers{"x-trailer": randToken(rng, 30)}},
					DataFrame{StreamID: 1, Data: make([]byte, rng.Intn(3000))},
					&DataFrame{StreamID: 1, Fin: true},
					&SynReply{StreamID: 3, Headers: Headers{":status": "304 Not Modified"}},
					RstStream{StreamID: 5, Status: StatusCancel},
					SettingsFrame{Settings: make([]Setting, rng.Intn(4))},
					Ping{ID: 7},
					Goaway{LastStreamID: 9},
					WindowUpdate{StreamID: 1, Delta: 1 << 16},
				}
				fr = others[rng.Intn(len(others))]
				got = o.FrameSize(fr)
			}
			switch h := fr.(type) {
			case SynStream:
				plainBytes += len(h.Headers.appendPlain(nil))
			case SynReply:
				plainBytes += len(h.Headers.appendPlain(nil))
			}
			before := sink.n
			if err := real.WriteFrame(fr); err != nil {
				t.Fatalf("session %d step %d: write %T: %v", seed, step, fr, err)
			}
			if want := sink.n - before; got != want {
				t.Fatalf("session %d step %d (%T): oracle %d, framer wrote %d", seed, step, fr, got, want)
			}
		}
		real.Release()
	}
}

func TestSizeOraclePanicsOnUnwritableFrame(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("oversized DATA frame sized without panic")
		}
	}()
	NewSizeOracle().FrameSize(DataFrame{StreamID: 1, Data: make([]byte, maxFrameLen+1)})
}

var oracleSink int

func TestHeaderSizingAllocationFree(t *testing.T) {
	o := NewSizeOracle()
	size := func() {
		oracleSink += o.RequestSize("GET", "http", "www.example.com", "/img/logo.png", "Mozilla/5.0 (Windows NT 6.1) Chrome/23.0")
		oracleSink += o.ReplySize("200 OK", "image/png", 48213)
	}
	for i := 0; i < 10; i++ {
		size() // warm the plain and compressed buffers
	}
	if allocs := testing.AllocsPerRun(100, size); allocs != 0 {
		t.Fatalf("warm oracle RequestSize+ReplySize allocate %.1f times per call, want 0", allocs)
	}
}

// BenchmarkSizeOracleSession prices one run's worth of header frames
// through one oracle: 1,250 synthesized objects over 20 page domains,
// a SYN_STREAM and a SYN_REPLY each, about the frames of a 20-page run.
func BenchmarkSizeOracleSession(b *testing.B) {
	type object struct {
		host, path, ctype string
		size              int64
	}
	rng := rand.New(rand.NewSource(1))
	types := []string{"text/html; charset=utf-8", "text/css", "text/javascript", "image/png", "image/jpeg"}
	objects := make([]object, 1250)
	for i := range objects {
		page := i / 63
		objects[i] = object{
			host:  "www.site" + strconv.Itoa(page) + ".example.com",
			path:  "/static/" + randToken(rng, 40),
			ctype: types[rng.Intn(len(types))],
			size:  rng.Int63n(200 << 10),
		}
	}
	const ua = "Mozilla/5.0 (Windows NT 6.1) Chrome/23.0"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := NewSizeOracle()
		for _, obj := range objects {
			oracleSink += o.RequestSize("GET", "http", obj.host, obj.path, ua)
			oracleSink += o.ReplySize("200 OK", obj.ctype, obj.size)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*2*len(objects)), "ns/frame")
}
