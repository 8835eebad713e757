package main

import (
	"bytes"
	"math"
	"os"
	"testing"

	"spdier/internal/experiment"
	"spdier/internal/webpage"
)

func TestMain(m *testing.M) {
	// The fabric test re-executes this test binary as its worker.
	if os.Getenv(workerEnv) == "1" {
		os.Exit(mainWorker())
	}
	os.Exit(m.Run())
}

func TestPercentileNameKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n, want int
		ok      bool
	}{
		{1000, 90, true}, {100, 90, true}, {99, 80, true}, {50, 80, true},
		{49, 75, true}, {40, 75, true}, {39, 50, true}, {20, 50, true}, {19, 0, false}, {0, 0, false},
	}
	for _, c := range cases {
		p, ok := percentileName(c.n)
		if p != c.want || ok != c.ok {
			t.Errorf("percentileName(%d) = p%d %v, want p%d %v", c.n, p, ok, c.want, c.ok)
		}
		if ok && float64(c.n)*float64(100-p)/100 < 10 {
			t.Errorf("n=%d: p%d leaves fewer than 10 samples beyond it", c.n, p)
		}
	}
}

func TestQuantileIsHarrellDavis(t *testing.T) {
	// Symmetric samples: the median estimate is the centre.
	if got := quantile([]float64{5, 1, 4, 2, 3}, 0.5); math.Abs(got-3) > 1e-9 {
		t.Errorf("median of 1..5 = %v, want 3", got)
	}
	// The weights sum to one: a constant sample estimates itself.
	if got := quantile([]float64{7, 7, 7, 7}, 0.9); math.Abs(got-7) > 1e-9 {
		t.Errorf("p90 of a constant sample = %v, want 7", got)
	}
	// Two equal groups with a gap: the median lies between them, and
	// moving one extreme value barely moves it.
	var xs []float64
	for i := 0; i < 64; i++ {
		xs = append(xs, 100+float64(i%8), 200+float64(i%8))
	}
	m1 := quantile(xs, 0.5)
	xs[0] = 107.9 // the cheap group's maximum grows
	m2 := quantile(xs, 0.5)
	if m1 <= 107 || m1 >= 200 || math.Abs(m2-m1) > 0.5 {
		t.Errorf("gap median %v then %v", m1, m2)
	}
	if p50, p90 := quantile(xs, 0.5), quantile(xs, 0.9); p90 <= p50 {
		t.Errorf("p90 %v not above p50 %v", p90, p50)
	}
}

// smallRun is a cheap real run: two sites over WiFi.
func smallRun(t *testing.T, seed uint64) (*experiment.Result, []*webpage.Page) {
	t.Helper()
	pages := experiment.GeneratePages(webpage.Table1()[:2], seed)
	w, _ := findWorkload("http-wifi")
	opts := w.options(armHTTP, seed)
	opts.Pages = pages
	return experiment.Run(opts), pages
}

func TestFlippedPLTBitFailsTheRun(t *testing.T) {
	res, _ := smallRun(t, 3)
	f := factsOf(res)
	o := &serialOutcome{digests: map[string]string{}}
	book := newDigestBook(nil)
	if !o.record("http/3", f, nil, book) {
		t.Fatalf("first run failed: %v", o.failures)
	}
	again := factsOf(res)
	if !o.record("http/3", again, nil, book) {
		t.Fatalf("identical run failed: %v", o.failures)
	}
	flipped := f
	flipped.PLTBits = append([]uint64(nil), f.PLTBits...)
	flipped.PLTBits[0] ^= 1
	if flipped.digest() == f.digest() {
		t.Fatal("flipping one PLT bit left the digest unchanged")
	}
	if o.record("http/3", flipped, nil, book) {
		t.Fatal("a run with a flipped PLT bit passed the check")
	}
	if o.attempted != 3 || o.failed != 1 {
		t.Fatalf("attempted %d failed %d, want 3 and 1", o.attempted, o.failed)
	}

	// Against a pinned digest, the first observation already fails.
	pinned := newDigestBook(map[string]string{"http/3": f.digest()})
	if err := pinned.check("http/3", flipped.digest()); err == nil {
		t.Fatal("a flipped PLT bit matched the pinned digest")
	}
}

// The sweep's input must not depend on the host: its in-process fold at
// the default seed must match the pinned digest on any number of CPUs.
func TestSweepFoldMatchesPin(t *testing.T) {
	w, _ := findWorkload("sweep-lossy-lte")
	pinned, err := loadPinned(w.name)
	if err != nil {
		t.Fatal(err)
	}
	d, err := folderDigest(foldInProcess(sweepHarness(defaultSeed), w.options(armH2, 0), nil))
	if err != nil {
		t.Fatal(err)
	}
	if d != pinned[armH2.name] {
		t.Fatalf("h2 sweep digest %.12s, pinned %.12s", d, pinned[armH2.name])
	}
}

func TestTimedExecutorMatchesBareCoordinator(t *testing.T) {
	h := experiment.Harness{Runs: 17, Seed: 11} // two shards
	base := experiment.Options{Network: experiment.NetWiFi, Mode: armHTTP.mode, Sites: webpage.Table1()[:2], LeanProbe: true}

	bare, err := newCoordinator(2)
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	r := experiment.NewRunner(0)
	r.SetShardExecutor(bare)
	want, err := experiment.EncodeFolder(r.SweepStream(h, base, newPLTFolder))
	if err != nil {
		t.Fatal(err)
	}

	wrapped, err := newCoordinator(2)
	if err != nil {
		t.Fatal(err)
	}
	defer wrapped.Close()
	ex := &timedExecutor{c: wrapped, tr: newTracer(true)}
	f, err := sweepOnce(ex, h, base)
	if err != nil {
		t.Fatal(err)
	}
	got, err := experiment.EncodeFolder(f)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("folder through the timed executor differs from the bare coordinator's")
	}
	if n := wrapped.Stats().ShardsRemote; n != 2 {
		t.Fatalf("%d shards went to workers, want 2", n)
	}
	if obs := ex.take(); len(obs) != 2 || !obs[0].remote || !obs[1].remote {
		t.Fatalf("executor observed %+v, want two remote shards", obs)
	}
	inProc, err := experiment.EncodeFolder(foldInProcess(h, base, nil))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(inProc, want) {
		t.Fatal("the in-process reference fold differs from the fabric sweep")
	}
}

func TestReplayCoversRequestedObjects(t *testing.T) {
	for _, w := range workloads {
		const seed = 5
		pages := experiment.GeneratePages(webpage.Table1(), seed)
		opts := w.options(w.arms[0], seed)
		opts.Pages = pages
		f := factsOf(experiment.Run(opts))
		if f.Incomplete != 0 {
			t.Fatalf("%s: %d incomplete pages", w.name, f.Incomplete)
		}
		if got := replayObjects(visitPages(pages)); got != f.Objects {
			t.Errorf("%s: replays cover %d objects, the run's records hold %d", w.name, got, f.Objects)
		}
	}
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "experiment.run", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "experiment.runstats", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "stats.merge", Start: 20, End: 50},
		{ID: 4, Parent: 1, Name: "stats.merge", Start: 90, End: 120},
	}
	self := selfTimes(spans)
	// Children cover [10,50] and [90,100] of the parent: 50 of 100.
	if self["experiment"] != 50+20 || self["stats"] != 30+30 {
		t.Fatalf("self times %v, want experiment 70 and stats 60", self)
	}
}

func TestProfileParsesOwnSamples(t *testing.T) {
	p, err := profileCPU(func() {
		for i := 0; i < 10; i++ {
			smallRun(t, uint64(i))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.stacks) == 0 {
		t.Skip("no CPU profile samples collected")
	}
	if s := p.share(hasPkg("spdier/internal/sim")); s <= 0 {
		t.Errorf("no sample has a sim frame (share %v)", s)
	}
}

func TestSpotCheckFailsOnAWrongPin(t *testing.T) {
	w, _ := findWorkload("http-wifi")
	digests, failures := spotCheck(w, nil)
	if len(failures) != 0 || len(digests) != 1 {
		t.Fatalf("unpinned spot check: digests %v failures %v", digests, failures)
	}
	if _, failures := spotCheck(w, digests); len(failures) != 0 {
		t.Fatalf("spot check against its own digests failed: %v", failures)
	}
	if _, failures := spotCheck(w, map[string]string{"spot/http": "0"}); len(failures) != 1 {
		t.Fatalf("a wrong pin gave failures %v, want one", failures)
	}
}
