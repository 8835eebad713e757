package tcpsim

import (
	"fmt"
	"time"

	"spdier/internal/sim"
)

// Protocol invariant checker. Enabled by the package's tests (and any
// caller that wants it), it audits every connection's sender and
// receiver state at the natural commit points — end of ACK processing,
// end of data receipt, end of an RTO — against the rules the model
// claims to implement: TCP sequence/byte accounting, cwnd/ssthresh
// legality per RFC 5681, RTO backoff monotonicity and clamping per
// RFC 6298, and "never acknowledge unsent data". The checks are pure
// reads; enabling them cannot perturb a simulation, only observe it.
//
// invOn is written only from EnableInvariants/DisableInvariants, which
// must not race with running simulations (tests flip it in TestMain,
// before any simulation goroutine exists).

// InvariantViolation describes one failed protocol invariant.
type InvariantViolation struct {
	Conn   string // connection ID, empty for component-level checks
	Rule   string // short rule identifier, e.g. "ack-unsent"
	Detail string
	At     sim.Time
}

func (v InvariantViolation) Error() string {
	return fmt.Sprintf("tcpsim invariant %q violated at %v on %s: %s", v.Rule, v.At, v.Conn, v.Detail)
}

var (
	invOn      bool
	invHandler func(InvariantViolation)
)

// EnableInvariants turns the checker on. A nil handler panics on the
// first violation — the right default for tests, where any violation is
// a simulator bug.
func EnableInvariants(handler func(InvariantViolation)) {
	invOn = true
	invHandler = handler
}

// DisableInvariants turns the checker off.
func DisableInvariants() {
	invOn = false
	invHandler = nil
}

// InvariantsEnabled reports whether the checker is active.
func InvariantsEnabled() bool { return invOn }

func violate(v InvariantViolation) {
	if invHandler != nil {
		invHandler(v)
		return
	}
	panic(v)
}

func (c *Conn) violateConn(rule, format string, args ...any) {
	violate(InvariantViolation{
		Conn:   c.id,
		Rule:   rule,
		Detail: fmt.Sprintf(format, args...),
		At:     c.loop.Now(),
	})
}

// checkAckValid rejects acknowledgments of data that was never sent.
// Called before the defensive clamp in receiveAck: the clamp keeps the
// production model robust, the invariant makes the corruption visible.
func (c *Conn) checkAckValid(seg *Segment) {
	if seg.Ack > c.sndNxt {
		c.violateConn("ack-unsent", "ack=%d beyond sndNxt=%d", seg.Ack, c.sndNxt)
	}
}

// checkSender audits sequence accounting and congestion state legality.
func (c *Conn) checkSender(where string) {
	if c.sndUna > c.sndNxt {
		c.violateConn("snd-order", "%s: sndUna=%d > sndNxt=%d", where, c.sndUna, c.sndNxt)
	}
	fl := c.infl()
	if len(fl) == 0 {
		if c.sndUna != c.sndNxt {
			c.violateConn("inflight-empty", "%s: empty inflight but sndUna=%d sndNxt=%d", where, c.sndUna, c.sndNxt)
		}
	} else {
		if fl[0].seq != c.sndUna {
			c.violateConn("inflight-head", "%s: head seq=%d, sndUna=%d", where, fl[0].seq, c.sndUna)
		}
		next := fl[0].seq
		for i := range fl {
			if fl[i].seq != next {
				c.violateConn("inflight-gap", "%s: segment %d at seq=%d, expected %d", where, i, fl[i].seq, next)
			}
			if fl[i].len <= 0 {
				c.violateConn("inflight-len", "%s: segment %d has len=%d", where, i, fl[i].len)
			}
			next = fl[i].seq + uint64(fl[i].len)
		}
		if next != c.sndNxt {
			c.violateConn("inflight-tail", "%s: inflight ends at %d, sndNxt=%d", where, next, c.sndNxt)
		}
	}
	// RFC 5681 legality: cwnd is at least one segment (the restart
	// window after an RTO), ssthresh never collapses below two segments.
	// The negated comparisons also catch NaN.
	if !(c.cwnd >= 1) || c.cwnd > 1<<24 {
		c.violateConn("cwnd-range", "%s: cwnd=%v", where, c.cwnd)
	}
	if !(c.ssthresh >= 2) {
		c.violateConn("ssthresh-min", "%s: ssthresh=%v", where, c.ssthresh)
	}
	if c.sendQueue < 0 {
		c.violateConn("sendq-negative", "%s: sendQueue=%d", where, c.sendQueue)
	}
	// Retransmit attribution: every wire retransmission is counted by
	// exactly one cause counter. TLP probes that carried new data are not
	// retransmissions and are excluded.
	attributed := c.Retransmits + c.FastRetransmits + c.RACKRetransmits + (c.TLPProbes - c.tlpNewData)
	if c.retxWire != attributed {
		c.violateConn("retx-attribution", "%s: %d wire retransmissions but %d attributed (rto=%d fast=%d rack=%d tlpRetx=%d)",
			where, c.retxWire, attributed, c.Retransmits, c.FastRetransmits, c.RACKRetransmits, c.TLPProbes-c.tlpNewData)
	}
	// Fix-arm gating: an arm that is off must leave no trace.
	if !c.cfg.TLP && (c.tlp.probing || c.TLPProbes > 0) {
		c.violateConn("tlp-gated", "%s: TLP state active with the arm off", where)
	}
	if !c.cfg.FRTO && c.FrtoUndos > 0 {
		c.violateConn("frto-gated", "%s: F-RTO undo fired with the arm off", where)
	}
	for i := range fl {
		if fl[i].lost && fl[i].sacked {
			c.violateConn("lost-sacked", "%s: segment %d both lost and sacked", where, i)
		}
		if fl[i].lost && fl[i].lostBy == causeRACK && !c.cfg.RACK {
			c.violateConn("rack-gated", "%s: RACK loss mark with the arm off", where)
		}
	}
	checkRTT(c, &c.rtt, where)
}

// checkPktsInFlight asserts that trySend's running packets-in-flight
// count, taken once and advanced per transmission, still equals
// a recount of the deque.
func (c *Conn) checkPktsInFlight(where string, counted int) {
	if n := c.pktsInFlight(); n != counted {
		c.violateConn("pkts-in-flight", "%s: running count %d, deque holds %d", where, counted, n)
	}
}

// checkNotCoalesced asserts that a loss-repair path is not being entered
// on the strength of an ACK the peer's delayed-ACK timer released. A
// timer release can never legitimately be the deciding duplicate: every
// event that arms the timer advances the ACK value past any duplicate's,
// and every out-of-order or duplicate arrival cancels the timer with an
// immediate ACK. Firing recovery off one would mean the receiver
// coalesced an ACK the sender's dupACK heuristics depend on (RFC 5681
// §4.2's prohibition on delaying out-of-order ACKs).
func (c *Conn) checkNotCoalesced(seg *Segment, path string) {
	if invOn && seg.Delayed {
		c.violateConn("coalesced-dupack", "%s triggered by a delayed-ACK-timer release (una=%d)", path, c.sndUna)
	}
}

// checkReceiver audits in-order byte accounting and the out-of-order
// buffer.
func (c *Conn) checkReceiver(where string) {
	if c.BytesRcvdApp != int64(c.rcvNxt) {
		c.violateConn("rcv-accounting", "%s: BytesRcvdApp=%d but rcvNxt=%d", where, c.BytesRcvdApp, c.rcvNxt)
	}
	sum := 0
	for seq, l := range c.ooo {
		if l <= 0 {
			c.violateConn("ooo-len", "%s: buffered segment at %d has len=%d", where, seq, l)
		}
		if seq <= c.rcvNxt {
			c.violateConn("ooo-below-window", "%s: buffered seq=%d at or below rcvNxt=%d", where, seq, c.rcvNxt)
		}
		sum += l
	}
	if sum != c.oooBytes {
		c.violateConn("ooo-bytes", "%s: buffered %d bytes but oooBytes=%d", where, sum, c.oooBytes)
	}
	if w := c.recvWindow(); w < 0 || w > c.cfg.RecvBuffer {
		c.violateConn("rwnd-range", "%s: advertised window %d outside [0,%d]", where, w, c.cfg.RecvBuffer)
	}
}

// checkRTT audits RFC 6298 clamping of the RTO estimator.
func checkRTT(c *Conn, e *rttEstimator, where string) {
	if e.rto < e.minRTO || e.rto > e.maxRTO {
		c.violateConn("rto-clamp", "%s: base rto=%v outside [%v,%v]", where, e.rto, e.minRTO, e.maxRTO)
	}
	if cur := e.current(); cur < e.rto && cur < e.maxRTO {
		c.violateConn("rto-backoff", "%s: backed-off rto=%v below base %v", where, cur, e.rto)
	}
	if e.valid && e.srtt <= 0 {
		c.violateConn("srtt-positive", "%s: srtt=%v with valid estimate", where, e.srtt)
	}
}

// checkBackoffMonotone asserts that one backoff step never shrinks the
// effective timeout (called from rttEstimator.backoff).
func checkBackoffMonotone(before, after time.Duration) {
	if after < before {
		violate(InvariantViolation{
			Rule:   "rto-backoff-monotone",
			Detail: fmt.Sprintf("backoff moved RTO %v -> %v", before, after),
		})
	}
}

// checkedCC wraps a CongestionControl and audits its outputs: the
// congestion-avoidance increment is non-negative and never exceeds
// slow-start pace (one segment per ACKed segment, RFC 5681 §3.1), and
// ssthresh after loss respects the two-segment floor.
type checkedCC struct {
	CongestionControl
}

func (cc checkedCC) OnAckCA(now sim.Time, cwnd float64, ackedSegs int, srtt time.Duration) float64 {
	inc := cc.CongestionControl.OnAckCA(now, cwnd, ackedSegs, srtt)
	if !(inc >= 0) || inc > float64(ackedSegs) {
		violate(InvariantViolation{
			Rule:   "cc-increment",
			At:     now,
			Detail: fmt.Sprintf("%s returned increment %v for %d acked segs (cwnd=%v)", cc.Name(), inc, ackedSegs, cwnd),
		})
	}
	return inc
}

func (cc checkedCC) SsthreshAfterLoss(cwnd float64) float64 {
	s := cc.CongestionControl.SsthreshAfterLoss(cwnd)
	if !(s >= 2) {
		violate(InvariantViolation{
			Rule:   "cc-ssthresh",
			Detail: fmt.Sprintf("%s returned ssthresh %v (cwnd=%v), below the 2-segment floor", cc.Name(), s, cwnd),
		})
	}
	return s
}
