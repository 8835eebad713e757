package tcpsim

import (
	"fmt"
	"testing"

	"spdier/internal/sim"
)

// Differential oracles for QUIC ACK resolution. resolveAcked walks the
// PN-ordered flight and the ascending ACK ranges together, and the copy
// scans (checkSpuriousProbe, ackedRetxOf) look only above the original's
// PN. The linear scans they replaced live on here as references; over
// seeded random flights and range sets both must leave every record and
// every counter in the same state.

// ackRangesContain is the per-record range lookup resolveAcked replaced.
func ackRangesContain(p *QUICPacket, pn uint64) bool {
	for _, r := range p.AckRanges {
		if pn >= r[0] && pn <= r[1] {
			return true
		}
	}
	return false
}

// resolveAckedLinear is resolveAcked before the merge-walk: every record
// is looked up in every range, and a spurious-probe check scans the
// whole flight.
func (q *QUICConn) resolveAckedLinear(p *QUICPacket) (newlyAcked int, largestNew *qSent) {
	fl := q.flight()
	for i := range fl {
		e := &fl[i]
		if e.acked || !ackRangesContain(p, e.pn) {
			continue
		}
		if e.lost {
			e.acked = true
			q.SpuriousRetx++
			q.probe(EvSpurious)
			q.undoCongestionEvent()
			continue
		}
		e.acked = true
		q.bytesInFlight -= e.length
		newlyAcked++
		if largestNew == nil || e.pn > largestNew.pn {
			largestNew = e
		}
		if e.hasOrig {
			q.resolveOriginal(e.origPN)
		} else {
			q.checkSpuriousProbe(e.pn, fl)
		}
	}
	return newlyAcked, largestNew
}

// ackedRetxOfLinear is ackedRetxOf scanning the whole flight.
func (q *QUICConn) ackedRetxOfLinear(pn uint64) bool {
	fl := q.flight()
	for i := range fl {
		if fl[i].hasOrig && fl[i].origPN == pn && fl[i].acked {
			return true
		}
	}
	return false
}

// ackCase is one randomized sender state plus the ACK it receives.
type ackCase struct {
	flight       []qSent
	nextPN       uint64
	cwnd         float64
	ssthresh     float64
	largestAcked uint64
	ackedAny     bool
	inRecovery   bool
	recoveryEnd  uint64
	undoValid    bool
	ranges       [][2]uint64
	ackLargest   uint64
}

// Range-set shapes the generator cycles through.
const (
	rangesMixed = iota
	rangesEmpty
	rangesBelow
	rangesAbove
	rangesCapped
	rangesCovering
	numRangeShapes
)

// randomAckCase builds a PN-ordered flight with acked, lost and copy
// records, and an ascending, disjoint range set of the given shape.
func randomAckCase(rng *sim.RNG, shape int) ackCase {
	var c ackCase
	pn := uint64(rng.Intn(50))
	n := rng.Intn(160)
	for i := 0; i < n; i++ {
		// ACK packets consume PNs too, so the flight has gaps.
		if rng.Bool(0.3) {
			pn += uint64(1 + rng.Intn(3))
		}
		e := qSent{
			pn:       pn,
			streamID: uint32(1 + 2*rng.Intn(3)),
			offset:   uint64(rng.Intn(1 << 20)),
			length:   1 + rng.Intn(1380),
			sentAt:   sim.Time(rng.Intn(900)) * sim.Millisecond,
		}
		switch x := rng.Float64(); {
		case x < 0.15:
			e.acked = true
		case x < 0.35:
			e.lost = true
		}
		if rng.Bool(0.3) && pn > 0 {
			e.hasOrig = true
			if i > 0 && rng.Bool(0.8) {
				e.origPN = c.flight[rng.Intn(i)].pn // a copy of a record in flight
			} else {
				e.origPN = uint64(rng.Intn(int(pn))) // its original already retired
			}
		}
		c.flight = append(c.flight, e)
		pn++
	}
	c.nextPN = pn + uint64(rng.Intn(4))
	c.cwnd = float64(2 + rng.Intn(300))
	c.ssthresh = float64(2 + rng.Intn(400))
	if rng.Bool(0.2) {
		c.ssthresh = 1 << 20
	}
	if c.ackedAny = rng.Bool(0.7); c.ackedAny && n > 0 {
		c.largestAcked = c.flight[rng.Intn(n)].pn
	}
	if c.inRecovery = rng.Bool(0.3); c.inRecovery {
		c.recoveryEnd = uint64(rng.Intn(int(c.nextPN) + 1))
	}
	c.undoValid = rng.Bool(0.5)

	lo, hi := uint64(0), c.nextPN+20
	if n > 0 {
		lo, hi = c.flight[0].pn, c.flight[n-1].pn
	}
	switch shape {
	case rangesEmpty:
	case rangesBelow:
		if lo > 0 {
			c.ranges = randomRanges(rng, 0, lo-1, 1+rng.Intn(8))
		}
	case rangesAbove:
		c.ranges = randomRanges(rng, hi+1, hi+200, 1+rng.Intn(8))
	case rangesCapped:
		c.ranges = randomRanges(rng, sub(lo, 10), hi+10, 32)
	case rangesCovering:
		c.ranges = [][2]uint64{{sub(lo, uint64(rng.Intn(5))), hi + uint64(rng.Intn(5))}}
	default:
		c.ranges = randomRanges(rng, sub(lo, 20), hi+20, 1+rng.Intn(32))
	}
	if k := len(c.ranges); k > 0 {
		c.ackLargest = c.ranges[k-1][1]
	}
	return c
}

func sub(a, b uint64) uint64 {
	if a < b {
		return 0
	}
	return a - b
}

// randomRanges returns at most k ascending, disjoint closed intervals
// inside [lo, hi]. Neighbours may abut, as the receiver's merge allows.
func randomRanges(rng *sim.RNG, lo, hi uint64, k int) [][2]uint64 {
	span := hi - lo + 1
	stride := span / uint64(k)
	if stride == 0 {
		stride = 1
	}
	var rs [][2]uint64
	at := lo
	for len(rs) < k && at <= hi {
		start := at + uint64(rng.Intn(int(stride)))
		if start > hi {
			break
		}
		end := start + uint64(rng.Intn(int(stride)))
		if end > hi {
			end = hi
		}
		rs = append(rs, [2]uint64{start, end})
		at = end + 1
	}
	return rs
}

// newAckFixture returns an established QUIC sender carrying c's state,
// on its own loop and network so the two sides of a comparison never
// share a scheduler or a packet pool.
func newAckFixture(c ackCase) (*QUICConn, *QUICPacket) {
	loop := sim.NewLoop()
	nw := wiredNet(loop, 1)
	q, _ := nw.NewQUICPair(DefaultConfig(), DefaultConfig(), "oracle", "d")
	loop.At(sim.Second, func() {})
	loop.RunUntilIdle()
	q.state = stEstablished
	q.sent = append([]qSent(nil), c.flight...)
	for i := range c.flight {
		if !c.flight[i].acked && !c.flight[i].lost {
			q.bytesInFlight += c.flight[i].length
		}
	}
	q.nextPN = c.nextPN
	q.cwnd, q.ssthresh = c.cwnd, c.ssthresh
	q.largestAcked, q.ackedAny = c.largestAcked, c.ackedAny
	q.inRecovery, q.recoveryEnd = c.inRecovery, c.recoveryEnd
	q.undoValid, q.undoCwnd, q.undoSsthresh = c.undoValid, c.cwnd+7, c.ssthresh+11
	p := &QUICPacket{
		Ack:        true,
		AckLargest: c.ackLargest,
		AckRanges:  append([][2]uint64(nil), c.ranges...),
	}
	return q, p
}

// senderCounters is the sender's scalar state an ACK can change.
type senderCounters struct {
	spurious, retx, inflight int
	cwnd, ssthresh           float64
	largestAcked             uint64
	ackedAny, inRecovery     bool
	recoveryEnd              uint64
	undoValid                bool
	nextPN                   uint64
}

func countersOf(q *QUICConn) senderCounters {
	return senderCounters{
		q.SpuriousRetx, q.Retransmits, q.bytesInFlight, q.cwnd, q.ssthresh,
		q.largestAcked, q.ackedAny, q.inRecovery, q.recoveryEnd, q.undoValid, q.nextPN,
	}
}

// senderState is everything an ACK can change that the comparison
// checks: each record's fate plus the sender's counters and window.
func senderState(q *QUICConn) string {
	s := fmt.Sprintf("%+v\n", countersOf(q))
	for _, e := range q.flight() {
		s += fmt.Sprintf("%d:a%v,l%v ", e.pn, e.acked, e.lost)
	}
	return s
}

// TestQUICAckMergeWalkMatchesLinearScan checks resolveAcked, and the
// whole of handleAck, against the linear scan over every range shape.
func TestQUICAckMergeWalkMatchesLinearScan(t *testing.T) {
	rng := sim.NewRNG(0x5bd1e995)
	resolved, spurious := 0, 0
	for i := 0; i < 3000; i++ {
		shape := i % numRangeShapes
		c := randomAckCase(rng, shape)

		// Resolution alone: the same records, counts and largest.
		walk, pw := newAckFixture(c)
		lin, pl := newAckFixture(c)
		nw, lw := walk.resolveAcked(pw)
		nl, ll := lin.resolveAckedLinear(pl)
		if nw != nl || (lw == nil) != (ll == nil) || (lw != nil && lw.pn != ll.pn) {
			t.Fatalf("case %d (shape %d): merge-walk newly=%d largest=%v, linear newly=%d largest=%v",
				i, shape, nw, lw, nl, ll)
		}
		if a, b := senderState(walk), senderState(lin); a != b {
			t.Fatalf("case %d (shape %d): resolution differs\nmerge-walk: %s\nlinear:     %s", i, shape, a, b)
		}
		if nw > 0 {
			resolved++
		}
		if walk.SpuriousRetx > 0 {
			spurious++
		}

		// The whole ACK: window, loss detection and retransmission
		// follow from the resolution, so they must agree too.
		walk, pw = newAckFixture(c)
		lin, pl = newAckFixture(c)
		walk.handleAck(pw)
		nl, ll = lin.resolveAckedLinear(pl)
		lin.applyAck(pl, nl, ll)
		if a, b := senderState(walk), senderState(lin); a != b {
			t.Fatalf("case %d (shape %d): handleAck differs\nmerge-walk: %s\nlinear:     %s", i, shape, a, b)
		}
	}
	// Guard the generator: ACKs must resolve records and prove some
	// declarations spurious, or the comparison shows little.
	if resolved < 1000 || spurious < 100 {
		t.Fatalf("generator too tame: %d cases resolved records, %d found spurious retransmissions", resolved, spurious)
	}
}

// TestQUICForwardCopyScansMatchFullScans checks the forward-only copy
// scans against whole-flight scans on every record of random flights.
// checkSpuriousProbe changes only counters and the window, so one pair
// of fixtures takes the whole sequence of calls and is compared after
// each.
func TestQUICForwardCopyScansMatchFullScans(t *testing.T) {
	rng := sim.NewRNG(0x2545f491)
	retxHits, probeHits := 0, 0
	for i := 0; i < 1500; i++ {
		c := randomAckCase(rng, rangesEmpty)
		fwd, _ := newAckFixture(c)
		full, _ := newAckFixture(c)
		for j := range c.flight {
			pn := c.flight[j].pn
			got, want := fwd.ackedRetxOf(pn), fwd.ackedRetxOfLinear(pn)
			if got != want {
				t.Fatalf("case %d: ackedRetxOf(%d) = %v, full scan %v", i, pn, got, want)
			}
			if got {
				retxHits++
			}

			before := fwd.SpuriousRetx
			fwd.checkSpuriousProbe(pn, fwd.flight()[j+1:])
			full.checkSpuriousProbe(pn, full.flight())
			if a, b := countersOf(fwd), countersOf(full); a != b {
				t.Fatalf("case %d: checkSpuriousProbe(%d) forward-only differs\nforward: %+v\nfull:    %+v", i, pn, a, b)
			}
			if fwd.SpuriousRetx > before {
				probeHits++
			}
		}
	}
	// Guard the generator: both scans must actually find copies.
	if retxHits == 0 || probeHits == 0 {
		t.Fatalf("generator produced no matches (ackedRetxOf hits=%d, spurious-probe hits=%d)", retxHits, probeHits)
	}
}
