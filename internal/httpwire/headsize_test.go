package httpwire

import (
	"math"
	"strconv"
	"testing"
)

// checkHeadSizes compares the arithmetic sizers against the full
// messages they stand for: the proxied GET for http://host+path and the
// typical 200 head for (contentType, contentLength).
func checkHeadSizes(t *testing.T, host, path, contentType string, contentLength int) {
	t.Helper()
	absURL := "http://" + host + path
	req := &Request{Method: "GET", Target: absURL, Headers: DefaultRequestHeaders(host)}
	if got, want := RequestSize(absURL, host), len(req.Marshal()); got != want {
		t.Fatalf("RequestSize(%q, %q) = %d, len(Marshal()) = %d", absURL, host, got, want)
	}
	resp := &Response{Status: 200, Headers: typicalResponseHeaders(contentType, strconv.Itoa(contentLength))}
	if got, want := ResponseHeadSize(contentType, contentLength), resp.HeadSize(); got != want {
		t.Fatalf("ResponseHeadSize(%q, %d) = %d, HeadSize() = %d", contentType, contentLength, got, want)
	}
}

// FuzzHeadSizes is the differential oracle for the arithmetic sizers:
// over any host, path, content type and length they must equal the size
// of the message Marshal builds. The checked-in corpus under testdata
// runs with every plain `go test`.
func FuzzHeadSizes(f *testing.F) {
	f.Add("www.example.com", "/index.html", "text/html; charset=utf-8", 0)
	f.Add("", "", "", -1)
	f.Add("cdn.example.net", "/a/b?c=d", "image/jpeg", 123456)
	f.Fuzz(func(t *testing.T, host, path, contentType string, contentLength int) {
		checkHeadSizes(t, host, path, contentType, contentLength)
	})
}

// TestHeadSizesDigitBoundaries walks Content-Length across every change
// in decimal width, both signs, where the digit count is what moves.
func TestHeadSizesDigitBoundaries(t *testing.T) {
	lengths := []int{0, math.MaxInt64, math.MinInt64}
	for i, p := 0, 1; i <= 18; i, p = i+1, p*10 {
		lengths = append(lengths, p-1, p, -p, -(p - 1))
	}
	for _, n := range lengths {
		checkHeadSizes(t, "m.example.org", "/obj/"+strconv.Itoa(n), "application/javascript", n)
	}
}

var headSizeSink int

func TestHeaderSizingAllocationFree(t *testing.T) {
	allocs := testing.AllocsPerRun(100, func() {
		headSizeSink += RequestSize("http://www.example.com/img/logo.png", "www.example.com")
		headSizeSink += ResponseHeadSize("image/png", 48213)
	})
	if allocs != 0 {
		t.Fatalf("RequestSize+ResponseHeadSize allocate %.1f times per call, want 0", allocs)
	}
}

// BenchmarkHeadSizes prices one object's request and response head, the
// per-object work the HTTP/1.1 arm does.
func BenchmarkHeadSizes(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		headSizeSink += RequestSize("http://www.example.com/img/logo.png", "www.example.com")
		headSizeSink += ResponseHeadSize("image/png", 48213+i)
	}
}
