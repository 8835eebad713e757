package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"

	"spdier/internal/experiment"
	"spdier/internal/netem"
	"spdier/internal/rrc"
	"spdier/internal/tcpsim"
	"spdier/internal/webpage"
)

// retxCauses are the Recorder counts a run's digest covers, in digest
// order.
var retxCauses = []tcpsim.ProbeEvent{
	tcpsim.EvRetransmit, tcpsim.EvFastRetx, tcpsim.EvTLPProbe,
	tcpsim.EvRACKRetx, tcpsim.EvSpurious, tcpsim.EvFRTOUndo,
}

// runFacts is what one simulated run produced, as far as the output
// checks and the per-layer counts are concerned. Everything in it is
// simulated and deterministic for a given (arm, seed).
type runFacts struct {
	PLTBits     []uint64 // math.Float64bits of each page's PLT seconds; ^0 marks an incomplete page
	Fired       uint64
	Retx        [6]int // counts of retxCauses
	Links       [2]netem.LinkStats
	Transitions int // RRC state transitions
	Promotions  int // transitions up from an idle state
	Incomplete  int
	Objects     int // objects in the page records
	Conns       int // TCP + QUIC endpoints
}

func factsOf(res *experiment.Result) runFacts {
	f := runFacts{Fired: res.Fired, Incomplete: res.Incomplete}
	for _, rec := range res.Records {
		if rec == nil {
			f.PLTBits = append(f.PLTBits, math.MaxUint64)
			continue
		}
		f.PLTBits = append(f.PLTBits, math.Float64bits(rec.PLT().Seconds()))
		f.Objects += len(rec.Objects)
	}
	if res.Recorder != nil {
		for i, ev := range retxCauses {
			f.Retx[i] = res.Recorder.Count(ev)
		}
	}
	if res.Net != nil {
		p := res.Net.Path()
		f.Links = [2]netem.LinkStats{p.AtoB.Stats(), p.BtoA.Stats()}
		f.Conns = len(res.Net.Conns()) + len(res.Net.QUICConns())
	}
	if res.Radio != nil {
		tr := res.Radio.Transitions()
		f.Transitions = len(tr)
		for _, t := range tr {
			if t.From == rrc.Idle3G || t.From == rrc.IdleLTE {
				f.Promotions++
			}
		}
	}
	return f
}

func (f *runFacts) segments() int { return f.Links[0].Sent + f.Links[1].Sent }

func (f *runFacts) drops() int {
	n := 0
	for _, l := range f.Links {
		n += l.DroppedQueue + l.DroppedLoss + l.DroppedBurst + l.DroppedFilter
	}
	return n
}

func (f *runFacts) reordered() int { return f.Links[0].Reordered + f.Links[1].Reordered }

// digest is a SHA-256 over every simulated statistic a speed-only change
// must leave untouched: per-page PLT bits, events fired, retransmits by
// cause, link counters in both directions, RRC transitions and
// incomplete pages.
func (f *runFacts) digest() string {
	h := sha256.New()
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(len(f.PLTBits)))
	for _, b := range f.PLTBits {
		put(b)
	}
	put(f.Fired)
	for _, n := range f.Retx {
		put(uint64(n))
	}
	for _, l := range f.Links {
		for _, n := range []int{l.Sent, l.Delivered, l.DroppedQueue, l.DroppedLoss, l.DroppedBurst, l.DroppedFilter, l.Reordered, l.Duplicated} {
			put(uint64(n))
		}
		put(uint64(l.Bytes))
	}
	put(uint64(f.Transitions))
	put(uint64(f.Incomplete))
	return hex.EncodeToString(h.Sum(nil))
}

// folderDigest hashes a sweep's merged folder through its bit-exact
// binary encoding.
func folderDigest(f experiment.Folder) (string, error) {
	b, err := experiment.EncodeFolder(f)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// digestBook checks each output against the first one seen for the same
// key in this invocation and, when given, against a pinned digest.
type digestBook struct {
	seen   map[string]string
	pinned map[string]string // nil unless the invocation runs the default seed
}

func newDigestBook(pinned map[string]string) *digestBook {
	return &digestBook{seen: map[string]string{}, pinned: pinned}
}

// check records d under key and reports whether it agrees with every
// earlier digest for key and with the pinned one.
func (b *digestBook) check(key, d string) error {
	if want, ok := b.seen[key]; ok && want != d {
		return fmt.Errorf("%s: digest %.12s differs from earlier %.12s in this invocation", key, d, want)
	}
	if _, ok := b.seen[key]; !ok {
		b.seen[key] = d
	}
	if b.pinned != nil {
		want, ok := b.pinned[key]
		if !ok {
			return fmt.Errorf("%s: no pinned digest for the default seed", key)
		}
		if want != d {
			return fmt.Errorf("%s: digest %.12s differs from pinned %.12s", key, d, want)
		}
	}
	return nil
}

// pinnedFile holds, per workload, the digest of every output the default
// seed produces. Regenerate it with -pin after a deliberate model change.
const pinnedFile = "pinned.json"

//go:embed pinned.json
var pinnedJSON []byte

// defaultSeed is the seed whose outputs are pinned.
const defaultSeed = 1

// spotCheck runs each of the workload's arms once on the first seed
// derived from the default seed and checks the run against its pin, so
// every invocation checks pinned outputs whatever its --seed. With
// pinned nil it only computes the digests.
func spotCheck(w workload, pinned map[string]string) (digests map[string]string, failures []string) {
	s := deriveSeeds(defaultSeed, 1)[0]
	pages := experiment.GeneratePages(webpage.Table1(), s)
	digests = map[string]string{}
	for _, a := range w.arms {
		key := "spot/" + a.name
		opts := w.options(a, s)
		opts.Pages = pages
		res, err := runOnce(opts)
		if err == nil {
			f := factsOf(res)
			d := f.digest()
			digests[key] = d
			if want, ok := pinned[key]; pinned != nil && (!ok || want != d) {
				err = fmt.Errorf("%s: digest %.12s differs from pinned %.12s", key, d, want)
			}
		}
		if err != nil {
			failures = append(failures, err.Error())
		}
	}
	return digests, failures
}

func loadPinned(workload string) (map[string]string, error) {
	var all map[string]map[string]string
	if err := json.Unmarshal(pinnedJSON, &all); err != nil {
		return nil, fmt.Errorf("%s: %w", pinnedFile, err)
	}
	m, ok := all[workload]
	if !ok {
		return nil, fmt.Errorf("%s has no digests for workload %q", pinnedFile, workload)
	}
	return m, nil
}

// writePinned merges one workload's digests into the pinned file at path.
func writePinned(path, workload string, digests map[string]string) error {
	all := map[string]map[string]string{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &all); err != nil {
			return err
		}
	}
	all[workload] = digests
	out, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
