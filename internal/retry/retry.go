// Package retry centralizes the dial retry/backoff policy shared by the
// substrate connect path (internal/core), the kernel TCP SYN retry loop
// (internal/tcpip), and the session reconnect layer (internal/sock). One
// Policy value expresses all three shapes: exponential backoff with a
// cap (substrate dial), fixed-interval retries (SYN retransmission), and
// jittered exponential backoff (session reconnect storms must not
// synchronize across clients).
//
// Jitter draws from the deterministic simulation PRNG, so two runs with
// the same seed retry at identical times — the chaos suite depends on
// that for reproducible failure timelines.
package retry

import "repro/internal/sim"

// Policy describes one retry sequence: how many retries, how long to
// wait between them, and how the wait grows.
type Policy struct {
	// Max is the number of retries after the initial attempt; 0 means
	// the first failure is final.
	Max int
	// Base is the delay before the first retry.
	Base sim.Duration
	// Factor multiplies the delay after each retry; values below 1 are
	// treated as 1 (fixed interval).
	Factor int
	// MaxBackoff caps the grown delay; 0 leaves it uncapped.
	MaxBackoff sim.Duration
	// Jitter randomizes each delay downward by up to this fraction
	// (0..1): a delay d becomes d - U[0, Jitter*d]. Zero disables
	// jitter, keeping legacy callers' timings bit-identical.
	Jitter float64
}

func (p Policy) normalized() Policy {
	if p.Max < 0 {
		p.Max = 0
	}
	if p.Factor < 1 {
		p.Factor = 1
	}
	if p.Base < 0 {
		p.Base = 0
	}
	if p.Jitter < 0 {
		p.Jitter = 0
	}
	if p.Jitter > 1 {
		p.Jitter = 1
	}
	return p
}

// Backoff reports the delay before retry number attempt (1-based),
// applying growth, cap, and jitter. A nil rnd (or zero Jitter) yields
// the deterministic undithered delay.
func (p Policy) Backoff(attempt int, rnd *sim.Rand) sim.Duration {
	p = p.normalized()
	if attempt < 1 {
		attempt = 1
	}
	d := p.Base
	for i := 1; i < attempt; i++ {
		d *= sim.Duration(p.Factor)
		if p.MaxBackoff > 0 && d >= p.MaxBackoff {
			d = p.MaxBackoff
			break
		}
	}
	if p.MaxBackoff > 0 && d > p.MaxBackoff {
		d = p.MaxBackoff
	}
	if p.Jitter > 0 && rnd != nil && d > 0 {
		d -= sim.Duration(p.Jitter * float64(d) * rnd.Float64())
	}
	return d
}

// loop tracks one retry sequence bounded by an optional absolute
// deadline (zero means no deadline). The caller runs its attempt, and on
// a retryable failure asks Next how long to wait before the next one.
type loop struct {
	pol      Policy
	rnd      *sim.Rand
	deadline sim.Time
	attempt  int
}

// New starts a retry loop. rnd supplies jitter and may be nil when the
// policy has none; deadline zero means unbounded in time.
func New(pol Policy, rnd *sim.Rand, deadline sim.Time) *loop {
	return &loop{pol: pol.normalized(), rnd: rnd, deadline: deadline}
}

// Attempt reports how many retries have been granted so far.
func (l *loop) Attempt() int { return l.attempt }

// expired reports whether the deadline has passed at time now.
func (l *loop) expired(now sim.Time) bool {
	return l.deadline != 0 && now >= l.deadline
}

// Next grants the next retry: it returns the delay to wait before
// reattempting (clamped so the wait never crosses the deadline) and true,
// or (0, false) when the retry budget or the deadline is exhausted.
func (l *loop) Next(now sim.Time) (sim.Duration, bool) {
	if l.attempt >= l.pol.Max {
		return 0, false
	}
	if l.expired(now) {
		return 0, false
	}
	l.attempt++
	d := l.pol.Backoff(l.attempt, l.rnd)
	if l.deadline != 0 {
		if remain := l.deadline.Sub(now); remain < d {
			d = remain
		}
	}
	if d < 0 {
		d = 0
	}
	return d, true
}
