// Session layer: reconnect-with-failover on top of any sock.Conn
// transport. A Session wraps one live transport connection at a time
// and survives its death: when the transport fails (NIC fault, host
// crash, link flap) or its health watchdog declares it wedged, the
// client side redials — working down an ordered target list that
// typically starts at the EMP substrate and degrades to kernel TCP —
// and resumes the byte stream exactly where the peer left off via a
// small offset-exchange handshake backed by a bounded replay buffer.
// The application above never observes ErrReset: it sees a brief stall
// while the session repairs itself, or a clean error once recovery is
// exhausted.
//
// Resume protocol. Each side counts recvOff, the bytes it has delivered
// to its application. On every (re)connect the client sends
// hello{ID, RecvOff}; the server answers welcome{ID, RecvOff, OK}. Each
// side then rewinds its send cursor to the peer's RecvOff and replays
// from its replay buffer, which retains every byte written since the
// last handshake (bounded by replayCap — spans dropped past the bound
// make resume impossible and the session fails rather than deliver a
// gap). ID zero in a hello asks the server to create a new session; the
// server allocates the ID and the listener surfaces the session via
// Accept.
//
// Division of labor: the client owns reconnection (it dials); the
// server side of a broken session parks in awaitReattach until the
// client's new transport arrives via the listener's greeter, or
// reattachWait expires — after which reads return EOF and writes
// ErrClosed, deliberately never ErrReset.
package sock

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/retry"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// errSessionResume reports a reconnect that found the peer unable to
// resume the stream: the session is unknown to it, or the bytes needed
// to fill the gap have been dropped from a replay buffer. The session
// fails rather than deliver a corrupted stream.
var errSessionResume = errors.New("sock: session resume refused")

// Wire sizes of the resume handshake messages. They ride the normal
// byte stream ahead of any application data, framed by fixed length.
const (
	helloBytes   = 24
	welcomeBytes = 24
)

type sessionHello struct {
	ID      uint64
	RecvOff int64
}

// sessionWelcome carries the server's incarnation number alongside the
// resume offsets (the fixed welcome frame has spare bytes for it): a
// client reattaching after a host reboot learns it reached a reborn
// peer, not merely a re-dialed one.
type sessionWelcome struct {
	ID      uint64
	RecvOff int64
	OK      bool
	Inc     uint64
}

// Target is one way to reach the peer: a transport network plus the
// address and port to dial. DialSession tries targets in order, so
// listing the EMP substrate first and kernel TCP second expresses the
// paper-native "fast path with a fallback" policy.
type Target struct {
	Name string
	Net  Network
	Addr Addr
	Port int
}

// The session timing every deployment shares.
const (
	// replayCap bounds the replay buffer in bytes. Bytes dropped past
	// the bound make a later resume needing them impossible (the
	// session fails instead of delivering a gap).
	replayCap = 1 << 20
	// helloTimeout bounds each hello/welcome exchange.
	helloTimeout = 20 * sim.Millisecond
	// reattachWait is how long a server-side session with a dead
	// transport waits for the client to reattach before detaching:
	// reads then return EOF and writes ErrClosed.
	reattachWait = 100 * sim.Millisecond
	// watchdogPeriod is the watchdog poll period; the watchdog aborts
	// the transport once it reads Wedged.
	watchdogPeriod = 1 * sim.Millisecond
)

// dialRetry is the per-target dial retry policy; its jitter draws from
// the engine's random source.
var dialRetry = retry.Policy{
	Max:        3,
	Base:       500 * sim.Microsecond,
	Factor:     2,
	MaxBackoff: 5 * sim.Millisecond,
	Jitter:     0.5,
}

// SessionConfig configures both DialSession and NewSessionListener.
// Zero values get sensible defaults from normalize; only Eng, Tel (and,
// for DialSession, Targets) are mandatory.
type SessionConfig struct {
	// Eng is the simulation engine (mandatory).
	Eng *sim.Engine
	// Name prefixes flight-recorder ids for this session's events.
	Name string
	// Targets is the ordered dial list (client side only). Index 0 is
	// the preferred transport; later indexes are failover paths.
	Targets []Target
	// Rounds is how many full passes over the target list a reconnect
	// makes before the session fails (default 3). Pass n sleeps
	// dialRetry.Backoff(n) before starting, so rounds back off too.
	Rounds int
	// Tel is the node's telemetry registry (mandatory): it receives the
	// session counters (layer "session") and flight events.
	Tel *telemetry.Registry
	// Store, on the server side, is the node's durable session-resume
	// ledger: ids are allocated from it and Cork/Uncork commits resume
	// state into it, so a listener reborn after a crash–restart (handed
	// the same store) can resume committed streams and reject stale
	// ones. NewSessionListener requires it; a dialing session ignores
	// it.
	Store *SessionStore
	// Incarnation is the hosting node's boot count, carried in every
	// welcome so clients can tell a reborn peer from a re-dialed one.
	// Zero reads as "incarnation not tracked".
	Incarnation uint64
}

func (c SessionConfig) normalize() SessionConfig {
	if c.Eng == nil {
		panic("sock: SessionConfig.Eng is required")
	}
	if c.Tel == nil {
		panic("sock: SessionConfig.Tel is required")
	}
	if c.Name == "" {
		c.Name = "session"
	}
	if c.Rounds <= 0 {
		c.Rounds = 3
	}
	return c
}

// replaySpan is one application write retained for replay: the byte
// range [start, end) of the logical stream plus the payload object
// attached to its final byte.
type replaySpan struct {
	start, end int64
	obj        any
}

// replayBuf retains the suffix of the logical send stream needed to
// replay after a reconnect. low is the lowest retained offset: a resume
// asking for bytes below low is impossible.
//
// No method writes inside the live window of spans: push appends past
// its end, and push and trimTo only reslice its front. A copy of the
// slice header therefore sees a frozen prefix, so a commit can share
// the backing array instead of copying the window.
type replayBuf struct {
	spans []replaySpan
	low   int64
	end   int64
	limit int64
}

func (b *replayBuf) push(n int, obj any) {
	b.spans = append(b.spans, replaySpan{start: b.end, end: b.end + int64(n), obj: obj})
	b.end += int64(n)
	for len(b.spans) > 0 && b.end-b.low > b.limit {
		b.low = b.spans[0].end
		b.spans = b.spans[1:]
	}
}

// trimTo drops spans the peer has acknowledged receiving (at handshake
// time), raising low to off.
func (b *replayBuf) trimTo(off int64) {
	if off <= b.low {
		return
	}
	b.low = off
	i := 0
	for i < len(b.spans) && b.spans[i].end <= off {
		i++
	}
	b.spans = b.spans[i:]
}

// chunkAt returns the replay chunk starting at offset off: the
// remainder of the span containing off, with the span's payload object
// (the chunk always runs to the span's end, where the object attaches).
// ok is false when off is below the retained range — the bytes are gone
// and resume is impossible.
func (b *replayBuf) chunkAt(off int64) (n int, obj any, ok bool) {
	if off < b.low || off >= b.end {
		return 0, nil, off >= b.low
	}
	i := sort.Search(len(b.spans), func(i int) bool { return b.spans[i].end > off })
	if i == len(b.spans) {
		return 0, nil, false
	}
	sp := b.spans[i]
	return int(sp.end - off), sp.obj, true
}

// transport is what a session needs of the connection it wraps: both
// transports provide all of it. Wedged reports that the connection has
// stopped making progress (or already failed) long enough that waiting
// it out is no longer the right call; it charges no simulated time, so
// the watchdog polls it freely. Abort fails the connection locally and
// at once: blocked reads and writes wake with ErrReset, and no peer
// handshake is awaited.
type transport interface {
	Conn
	Deadliner
	Wedged() bool
	Abort()
}

// Session is a self-healing Conn. See the package comment for the
// resume protocol; Sessions are built by DialSession (client) and
// sessionListener.Accept (server).
type Session struct {
	cfg    SessionConfig
	eng    *sim.Engine
	cond   *sim.Cond
	lis    *sessionListener // server side only
	client bool

	id       uint64
	flightID string // the flight-recorder name for id; see setID
	gen      int    // transport generation; bumped on every (re)install

	inner     transport
	repairing bool
	writing   bool

	closed   bool
	failed   bool
	detached bool // server gave up waiting for a reattach
	sawEOF   bool
	corked   bool // writes buffer without flushing until Uncork
	err      error

	peerInc uint64 // server incarnation seen in the last welcome

	logicalEnd int64 // bytes accepted from the application
	flushed    int64 // bytes handed to the current transport
	recvOff    int64 // bytes delivered to the application
	replay     replayBuf

	lastLocal, lastRemote Addr

	ctrReconnects *sim.Counter
	ctrReattaches *sim.Counter
	ctrFailovers  *sim.Counter
	ctrReplayed   *sim.Counter
	ctrWatchdog   *sim.Counter
	ctrFailed     *sim.Counter
	ctrDetached   *sim.Counter
}

var _ Conn = (*Session)(nil)

func newSession(cfg SessionConfig, client bool, lis *sessionListener) *Session {
	s := &Session{
		cfg:    cfg,
		eng:    cfg.Eng,
		cond:   sim.NewCond(cfg.Eng, "session"),
		lis:    lis,
		client: client,
		replay: replayBuf{limit: replayCap},
	}
	s.setID(0)
	tel := cfg.Tel
	s.ctrReconnects = tel.Counter("session", "reconnects")
	s.ctrReattaches = tel.Counter("session", "reattaches")
	s.ctrFailovers = tel.Counter("session", "failovers")
	s.ctrReplayed = tel.Counter("session", "replayed_bytes")
	s.ctrWatchdog = tel.Counter("session", "watchdog_aborts")
	s.ctrFailed = tel.Counter("session", "failed")
	s.ctrDetached = tel.Counter("session", "detached")
	return s
}

// DialSession establishes a new session to the first reachable target,
// failing over down the list per the config's retry policy.
func DialSession(p *sim.Proc, cfg SessionConfig) (*Session, error) {
	cfg = cfg.normalize()
	if len(cfg.Targets) == 0 {
		return nil, errors.New("sock: DialSession needs at least one target")
	}
	s := newSession(cfg, true, nil)
	if err := s.connect(p); err != nil {
		return nil, err
	}
	s.startWatchdog()
	return s, nil
}

func (s *Session) flight() *telemetry.Recorder {
	return s.cfg.Tel.Flight(s.flightID)
}

// setID gives the session its id and names its flight recorder after it.
func (s *Session) setID(id uint64) {
	s.id = id
	s.flightID = fmt.Sprintf("%s/%d", s.cfg.Name, id)
}

func (s *Session) startWatchdog() {
	s.eng.Spawn(fmt.Sprintf("%s-watchdog-%d", s.cfg.Name, s.id), s.watchdog)
}

// watchdog hard-kills the live transport once it reads Wedged: blocked
// reads and writes wake with ErrReset and the session's repair path
// takes over. It never judges the Session itself — a nil inner just
// means a repair is already in flight.
func (s *Session) watchdog(p *sim.Proc) {
	for {
		p.Sleep(watchdogPeriod)
		if s.closed || s.failed || s.detached {
			return
		}
		c := s.inner
		if c == nil || !c.Wedged() {
			continue
		}
		s.ctrWatchdog.Inc()
		s.flight().Recordf(p.Now(), "watchdog-abort", "gen=%d", s.gen)
		c.Abort()
	}
}

// recoverable reports whether a transport error should trigger a repair
// rather than surface to the application. ErrReset always does (aborts,
// watchdog kills, peer crashes); ErrClosed does unless this session
// closed the transport itself.
func (s *Session) recoverable(err error) bool {
	if err == ErrReset {
		return true
	}
	return err == ErrClosed && !s.closed
}

// connect (client side) works down the target list, retrying each
// target per the retry policy, for up to Rounds passes. ErrRefused
// fails over to the next target immediately — the host is there but
// that transport is not listening, so waiting will not help.
func (s *Session) connect(p *sim.Proc) error {
	lastErr := error(ErrRefused)
	for round := 0; round < s.cfg.Rounds; round++ {
		if round > 0 {
			p.Sleep(dialRetry.Backoff(round, s.eng.Rand()))
		}
		for idx, t := range s.cfg.Targets {
			loop := retry.New(dialRetry, s.eng.Rand(), 0)
			for {
				if s.closed {
					return ErrClosed
				}
				c, err := t.Net.Dial(p, t.Addr, t.Port)
				if err == nil {
					tc := c.(transport)
					err = s.shake(p, tc, idx)
					if err == nil {
						return nil
					}
					abortClose(p, tc)
					if err == errSessionResume {
						return err
					}
				}
				lastErr = err
				s.flight().Recordf(p.Now(), "dial-fail", "target=%s err=%v", t.Name, err)
				if err == ErrRefused {
					break
				}
				d, ok := loop.Next(p.Now())
				if !ok {
					break
				}
				p.Sleep(d)
			}
		}
	}
	return lastErr
}

// shake runs the client half of the resume handshake on a fresh
// transport and installs it on success.
func (s *Session) shake(p *sim.Proc, c transport, idx int) error {
	c.SetDeadline(p.Now().Add(helloTimeout))
	if err := WriteFull(p, c, helloBytes, &sessionHello{ID: s.id, RecvOff: s.recvOff}); err != nil {
		return err
	}
	_, objs, err := ReadFull(p, c, welcomeBytes)
	if err != nil {
		return err
	}
	w := findWelcome(objs)
	if w == nil {
		return ErrReset
	}
	if !w.OK {
		s.cfg.Tel.Counter("session", "resumes_stale").Inc()
		s.flight().Recordf(p.Now(), "resume-rejected-stale",
			"peer refused resume at recvoff=%d", s.recvOff)
		return errSessionResume
	}
	if s.id == 0 {
		s.setID(w.ID)
	} else if w.ID != s.id {
		return ErrReset
	}
	if w.RecvOff > s.logicalEnd || w.RecvOff < s.replay.low {
		return errSessionResume
	}
	c.SetDeadline(0)
	if w.Inc != 0 && s.peerInc != 0 && w.Inc != s.peerInc {
		s.cfg.Tel.Counter("session", "resumes_reborn").Inc()
		s.flight().Recordf(p.Now(), "resume-reborn",
			"peer incarnation %d -> %d", s.peerInc, w.Inc)
	}
	s.peerInc = w.Inc
	s.install(c, idx, w.RecvOff)
	return nil
}

// install makes c the session's live transport, rewinding the send
// cursor to what the peer actually received so flush replays the gap.
func (s *Session) install(c transport, idx int, peerRecvOff int64) {
	first := s.gen == 0
	if s.flushed > peerRecvOff {
		s.ctrReplayed.Add(s.flushed - peerRecvOff)
	}
	s.flushed = peerRecvOff
	s.replay.trimTo(peerRecvOff)
	s.inner = c
	s.gen++
	s.lastLocal, s.lastRemote = c.LocalAddr(), c.RemoteAddr()
	switch {
	case first:
		s.flight().Recordf(s.eng.Now(), "open", "target=%d", idx)
	case s.client:
		s.ctrReconnects.Inc()
		s.flight().Recordf(s.eng.Now(), "reconnect", "gen=%d target=%d resend=%d", s.gen, idx, s.logicalEnd-peerRecvOff)
	default:
		s.ctrReattaches.Inc()
		s.flight().Recordf(s.eng.Now(), "reattach", "gen=%d resend=%d", s.gen, s.logicalEnd-peerRecvOff)
	}
	if s.client && idx != 0 {
		s.ctrFailovers.Inc()
		s.flight().Recordf(s.eng.Now(), "failover", "target=%d", idx)
	}
	s.cond.Broadcast()
}

// repair recovers from the death of transport generation gen: the
// client redials (with failover), the server waits for the client to
// reattach. Concurrent callers coalesce — whoever arrives second waits
// for the first repair's outcome.
func (s *Session) repair(p *sim.Proc, gen int) {
	for {
		if s.closed || s.failed || s.detached || s.gen != gen {
			return
		}
		if !s.repairing {
			break
		}
		s.cond.WaitFor(p, func() bool {
			return s.gen != gen || s.failed || s.closed || s.detached || !s.repairing
		})
	}
	s.repairing = true
	old := s.inner
	s.inner = nil
	if old != nil {
		abortClose(p, old)
	}
	var err error
	if s.client {
		err = s.connect(p)
	} else {
		err = s.awaitReattach(p)
	}
	s.repairing = false
	if err != nil && !s.closed && !s.failed {
		if !s.client && err == ErrTimeout {
			s.setDetached()
		} else {
			s.fail(err)
		}
	}
	s.cond.Broadcast()
}

// awaitReattach (server side) parks until the listener's greeter
// installs the client's replacement transport, bounded by
// reattachWait.
func (s *Session) awaitReattach(p *sim.Proc) error {
	s.cond.WaitForTimeout(p, reattachWait, func() bool {
		return s.closed || s.failed || s.inner != nil
	})
	switch {
	case s.inner != nil:
		return nil
	case s.closed:
		return ErrClosed
	case s.failed:
		return s.err
	}
	return ErrTimeout
}

func (s *Session) fail(err error) {
	if s.failed || s.closed {
		return
	}
	s.failed = true
	s.err = err
	s.ctrFailed.Inc()
	s.flight().Recordf(s.eng.Now(), "session-fail", "%v", err)
	if s.lis != nil {
		delete(s.lis.sessions, s.id)
	}
	s.dropRecord()
	s.cond.Broadcast()
}

func (s *Session) setDetached() {
	if s.detached {
		return
	}
	s.detached = true
	s.ctrDetached.Inc()
	s.flight().Record(s.eng.Now(), "detach", "reattach timed out")
	if s.lis != nil {
		delete(s.lis.sessions, s.id)
	}
	s.dropRecord()
	s.cond.Broadcast()
}

// dropRecord erases the session's committed resume state, if this
// side's listener incarnation still owns it. Ownership matters: a
// session detaching under a dead listener must not erase the record a
// reborn listener has already adopted for the resumed stream.
func (s *Session) dropRecord() {
	if s.lis != nil {
		s.cfg.Store.delete(s.id, s.lis)
	}
}

// Read delivers the next bytes of the logical stream, repairing the
// transport underneath as needed. The application never sees ErrReset:
// a session that cannot be repaired fails with the terminal error; a
// detached server session reads EOF.
func (s *Session) Read(p *sim.Proc, max int) (int, []any, error) {
	for {
		switch {
		case s.closed:
			return 0, nil, ErrClosed
		case s.failed:
			return 0, nil, s.err
		case s.detached, s.sawEOF:
			return 0, nil, nil
		}
		c, gen := s.inner, s.gen
		if c == nil {
			s.repair(p, gen)
			s.flushPending(p)
			continue
		}
		n, objs, err := c.Read(p, max)
		if err == nil {
			if n == 0 {
				s.sawEOF = true
				s.flight().Record(p.Now(), "eof", "")
				return 0, nil, nil
			}
			s.recvOff += int64(n)
			return n, objs, nil
		}
		if !s.recoverable(err) {
			return 0, nil, err
		}
		s.flight().Recordf(p.Now(), "read-error", "gen=%d err=%v", gen, err)
		s.repair(p, gen)
		s.flushPending(p)
	}
}

// Write appends n bytes (with obj attached to the final byte) to the
// logical stream: the span enters the replay buffer first, then flush
// pushes it to the live transport, repairing and replaying as needed.
func (s *Session) Write(p *sim.Proc, n int, obj any) (int, error) {
	s.cond.WaitFor(p, func() bool {
		return !s.writing || s.closed || s.failed || s.detached
	})
	switch {
	case s.closed, s.detached:
		return 0, ErrClosed
	case s.failed:
		return 0, s.err
	}
	s.writing = true
	s.replay.push(n, obj)
	s.logicalEnd += int64(n)
	var err error
	if !s.corked {
		err = s.flush(p)
	}
	s.writing = false
	s.cond.Broadcast()
	if err != nil {
		return 0, err
	}
	return n, nil
}

// Cork suspends transport flushing: subsequent Writes append to the
// replay buffer and logical stream without reaching the wire until
// Uncork. Servers bracket each response in Cork/Uncork to get
// write-ahead commit ordering — resume state is committed to the
// durable store before any response byte the client could acknowledge
// is sent — so a crash can never strand a client beyond the committed
// window.
func (s *Session) Cork() { s.corked = true }

// Uncork commits the session's resume state to the configured store
// (server side) and then flushes everything written while corked.
// No-op if the session is not corked.
func (s *Session) Uncork(p *sim.Proc) error {
	if !s.corked {
		return nil
	}
	s.corked = false
	s.commitRecord()
	s.cond.WaitFor(p, func() bool {
		return !s.writing || s.closed || s.failed || s.detached
	})
	switch {
	case s.closed, s.detached:
		return ErrClosed
	case s.failed:
		return s.err
	}
	s.writing = true
	err := s.flush(p)
	s.writing = false
	s.cond.Broadcast()
	return err
}

// commitRecord snapshots the receive watermark and the retained
// response window into the durable store. Host bookkeeping only — no
// simulated time — modeling a synchronous commit to replicated session
// metadata. The record shares the replay window's frozen prefix (see
// replayBuf), so a commit costs the same however much is retained.
func (s *Session) commitRecord() {
	if s.lis == nil {
		return
	}
	s.cfg.Store.put(&sessionRecord{
		ID:      s.id,
		RecvOff: s.recvOff,
		SendLow: s.replay.low,
		SendEnd: s.replay.end,
		Spans:   s.replay.spans,
	}, s.lis)
}

// flush pushes [flushed, logicalEnd) to the live transport, one replay
// span (or span remainder) at a time. A recoverable transport error
// repairs and continues — the handshake rewinds flushed so replay is
// automatic. Callers hold the writing flag.
func (s *Session) flush(p *sim.Proc) error {
	for s.flushed < s.logicalEnd {
		switch {
		case s.closed:
			return ErrClosed
		case s.failed:
			return s.err
		case s.detached:
			return ErrClosed
		}
		c, gen := s.inner, s.gen
		if c == nil {
			s.repair(p, gen)
			continue
		}
		n, obj, ok := s.replay.chunkAt(s.flushed)
		if !ok || n == 0 {
			// The bytes owed to the transport were dropped from the
			// replay buffer: the stream can no longer be delivered
			// exactly once.
			s.fail(errSessionResume)
			return s.err
		}
		m, err := c.Write(p, n, obj)
		s.flushed += int64(m)
		if err == nil {
			continue
		}
		if !s.recoverable(err) {
			return err
		}
		s.flight().Recordf(p.Now(), "write-error", "gen=%d err=%v", gen, err)
		s.repair(p, gen)
	}
	return nil
}

// flushPending replays owed bytes after a repair initiated from the
// read path, where no writer is active to drive flush. No-op when a
// writer holds the flush (it will replay itself) or there is nothing
// to push.
func (s *Session) flushPending(p *sim.Proc) {
	if s.writing || s.corked || s.inner == nil || s.flushed >= s.logicalEnd ||
		s.closed || s.failed || s.detached {
		return
	}
	s.writing = true
	s.flush(p)
	s.writing = false
	s.cond.Broadcast()
}

// Close ends the session cleanly: the live transport's own close
// handshake tells the peer, whose reads drain and then see EOF.
func (s *Session) Close(p *sim.Proc) error {
	if s.closed {
		return ErrClosed
	}
	s.closed = true
	s.flight().Record(p.Now(), "close", "")
	if s.lis != nil {
		delete(s.lis.sessions, s.id)
	}
	s.dropRecord()
	s.cond.Broadcast()
	if c := s.inner; c != nil {
		s.inner = nil
		return c.Close(p)
	}
	return nil
}

func (s *Session) LocalAddr() Addr  { return s.lastLocal }
func (s *Session) RemoteAddr() Addr { return s.lastRemote }

// abortClose hard-kills then closes a transport: Abort wakes anything
// blocked on it with ErrReset and Close reclaims its resources without
// a lingering drain of a connection we no longer trust.
func abortClose(p *sim.Proc, c transport) {
	c.Abort()
	c.Close(p)
}

func findHello(objs []any) *sessionHello {
	for _, o := range objs {
		if h, ok := o.(*sessionHello); ok {
			return h
		}
	}
	return nil
}

func findWelcome(objs []any) *sessionWelcome {
	for _, o := range objs {
		if w, ok := o.(*sessionWelcome); ok {
			return w
		}
	}
	return nil
}

// sessionListener accepts sessions over one or more transport
// listeners (typically the substrate listener plus a TCP listener on
// the same port, so failover dials land on the same service). New
// sessions surface via Accept; reattaches are routed to the existing
// Session transparently.
type sessionListener struct {
	eng      *sim.Engine
	cfg      SessionConfig
	inner    []Listener
	sessions map[uint64]*Session
	backlog  []*Session
	ready    *sim.Cond
	closed   bool
}

var _ Listener = (*sessionListener)(nil)

// NewSessionListener wraps the given transport listeners. The config's
// Targets field is ignored on the server side; its Store is required.
func NewSessionListener(cfg SessionConfig, inner ...Listener) *sessionListener {
	cfg = cfg.normalize()
	if cfg.Store == nil {
		panic("sock: SessionConfig.Store is required by a listener")
	}
	l := &sessionListener{
		eng:      cfg.Eng,
		cfg:      cfg,
		inner:    inner,
		sessions: make(map[uint64]*Session),
		ready:    sim.NewCond(cfg.Eng, "session-listener"),
	}
	for i, in := range inner {
		in := in
		l.eng.Spawn(fmt.Sprintf("%s-accept-%d", cfg.Name, i), func(p *sim.Proc) {
			l.acceptLoop(p, in)
		})
	}
	return l
}

func (l *sessionListener) acceptLoop(p *sim.Proc, in Listener) {
	for {
		conn, err := in.Accept(p)
		if err != nil {
			return
		}
		c := conn.(transport)
		l.eng.Spawn(fmt.Sprintf("%s-greet", l.cfg.Name), func(p *sim.Proc) {
			l.greet(p, c)
		})
	}
}

// greet runs the server half of the resume handshake on a freshly
// accepted transport: route to a new Session (hello.ID == 0) or
// reattach an existing one. Anything malformed or unresumable gets a
// refusing welcome (best effort) and the transport closed.
func (l *sessionListener) greet(p *sim.Proc, c transport) {
	c.SetDeadline(p.Now().Add(helloTimeout))
	_, objs, err := ReadFull(p, c, helloBytes)
	if err != nil {
		abortClose(p, c)
		return
	}
	h := findHello(objs)
	if h == nil {
		abortClose(p, c)
		return
	}
	if h.ID == 0 {
		l.greetNew(p, c)
		return
	}
	s := l.sessions[h.ID]
	if s == nil {
		// Unknown in memory: this listener may be a reborn incarnation
		// that inherited the stream's committed state. Resurrect it if
		// the client's offset lies inside the committed window.
		if rec := l.cfg.Store.Get(h.ID); rec != nil &&
			h.RecvOff >= rec.SendLow && h.RecvOff <= rec.SendEnd {
			s = l.resurrect(p, rec)
		}
	}
	if s == nil || s.closed || s.failed || s.detached ||
		h.RecvOff < s.replay.low || h.RecvOff > s.logicalEnd {
		l.cfg.Tel.Counter("session", "resumes_stale").Inc()
		l.cfg.Tel.Flight(fmt.Sprintf("%s/%d", l.cfg.Name, h.ID)).Recordf(p.Now(),
			"resume-rejected-stale", "recvoff=%d no committed state", h.RecvOff)
		WriteFull(p, c, welcomeBytes, &sessionWelcome{ID: h.ID, OK: false, Inc: l.cfg.Incarnation})
		abortClose(p, c)
		return
	}
	if err := WriteFull(p, c, welcomeBytes, &sessionWelcome{
		ID: s.id, RecvOff: s.recvOff, OK: true, Inc: l.cfg.Incarnation}); err != nil {
		abortClose(p, c)
		return
	}
	c.SetDeadline(0)
	old := s.inner
	s.install(c, 0, h.RecvOff)
	if old != nil && old != c {
		// The previous transport died without the server noticing (the
		// failure was client-side); reclaim it. Anything blocked on it
		// wakes, sees the generation moved on, and continues on c.
		abortClose(p, old)
	}
	s.flushPending(p)
}

// resurrect rebuilds a server-side Session from its committed resume
// record: a reborn listener adopting a stream the dead incarnation
// owned. The fresh session surfaces via Accept so the (re-run) app
// bootstrap serves its remaining requests; the caller completes the
// reattach handshake as for any known session.
func (l *sessionListener) resurrect(p *sim.Proc, rec *sessionRecord) *Session {
	s := newSession(l.cfg, false, l)
	s.setID(rec.ID)
	s.recvOff = rec.RecvOff
	s.logicalEnd = rec.SendEnd
	s.flushed = rec.SendEnd // install rewinds to the client's offset
	s.replay.low = rec.SendLow
	s.replay.end = rec.SendEnd
	// Copied: the record's array still backs the dead incarnation's
	// buffer past the record's end, where the reborn session appends.
	s.replay.spans = append([]replaySpan(nil), rec.Spans...)
	l.cfg.Store.put(rec, l) // adopt: the dead incarnation can no longer erase it
	l.sessions[s.id] = s
	l.backlog = append(l.backlog, s)
	l.ready.Broadcast()
	s.startWatchdog()
	l.cfg.Tel.Counter("session", "resumes_reborn").Inc()
	s.flight().Recordf(p.Now(), "resume-reborn",
		"incarnation %d adopted recvoff=%d send=[%d,%d)",
		l.cfg.Incarnation, rec.RecvOff, rec.SendLow, rec.SendEnd)
	return s
}

func (l *sessionListener) greetNew(p *sim.Proc, c transport) {
	if l.closed {
		abortClose(p, c)
		return
	}
	s := newSession(l.cfg, false, l)
	// Durable allocation: ids never repeat across the node's
	// incarnations, and the empty committed record marks the stream
	// resumable from offset zero should the host reboot at once.
	s.setID(l.cfg.Store.allocID())
	s.commitRecord()
	if err := WriteFull(p, c, welcomeBytes, &sessionWelcome{
		ID: s.id, OK: true, Inc: l.cfg.Incarnation}); err != nil {
		abortClose(p, c)
		return
	}
	c.SetDeadline(0)
	s.install(c, 0, 0)
	l.sessions[s.id] = s
	l.backlog = append(l.backlog, s)
	l.ready.Broadcast()
	s.startWatchdog()
}

// Accept returns the next new session (reattaches never surface here).
func (l *sessionListener) Accept(p *sim.Proc) (Conn, error) {
	l.ready.WaitFor(p, func() bool { return len(l.backlog) > 0 || l.closed })
	if len(l.backlog) > 0 {
		s := l.backlog[0]
		l.backlog = l.backlog[1:]
		return s, nil
	}
	return nil, ErrClosed
}

// Close stops accepting new sessions and closes the transport
// listeners. Established sessions live on until closed individually.
func (l *sessionListener) Close(p *sim.Proc) error {
	if l.closed {
		return ErrClosed
	}
	l.closed = true
	l.ready.Broadcast()
	for _, in := range l.inner {
		in.Close(p)
	}
	return nil
}

func (l *sessionListener) Addr() Addr {
	if len(l.inner) > 0 {
		return l.inner[0].Addr()
	}
	return 0
}

func (l *sessionListener) Port() int {
	if len(l.inner) > 0 {
		return l.inner[0].Port()
	}
	return 0
}
