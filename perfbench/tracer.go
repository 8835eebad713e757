package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer. Spans of one
// run share a run id; parent 0 means a root span.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Run    int    `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; write dumps them when the run ends. A
// nil or disabled tracer records nothing.
type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
	runs  int
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

func (t *tracer) enabled() bool { return t != nil && t.on }

// newRun allocates a run id.
func (t *tracer) newRun() int {
	if !t.enabled() {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.runs++
	return t.runs
}

// runOf returns the run id of span id (0 for none).
func (t *tracer) runOf(id int) int {
	if !t.enabled() || id == 0 {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id-1].Run
}

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, run int) int {
	if !t.enabled() {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Run: run, Name: name, Start: now})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if !t.enabled() || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// write dumps every span as JSON lines.
func (t *tracer) write(path string) error {
	if !t.enabled() {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	return f.Close()
}

// layerOf maps a span name ("tcpsim.bulk") to its layer ("tcpsim").
func layerOf(name string) string {
	l, _, _ := strings.Cut(name, ".")
	return l
}

// selfTimes returns, per layer, the summed self time of its spans: each
// span's duration minus the part of it its child spans cover.
func selfTimes(spans []span) map[string]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[layerOf(s.Name)] += time.Duration(s.End - s.Start - covered(s, children[s.ID]))
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	return total + curHi - curLo
}
