// Package sock defines the generic sockets interface the example
// applications are written against. The kernel TCP/IP stack (package
// tcpip) and the user-level EMP substrate (package core) both implement
// it, so an application runs unchanged over either transport — the
// paper's central claim, enforced here by the type system instead of by
// LD_PRELOAD symbol interposition.
package sock

import (
	"errors"

	"repro/internal/ethernet"
	"repro/internal/sim"
)

// Addr is a host address (a station on the Ethernet fabric).
type Addr = ethernet.Addr

// Errors returned by socket operations.
var (
	// ErrRefused reports that no listener accepted the connection.
	ErrRefused = errors.New("sock: connection refused")
	// ErrClosed reports an operation on a closed socket.
	ErrClosed = errors.New("sock: socket closed")
	// ErrReset reports a connection reset by the peer.
	ErrReset = errors.New("sock: connection reset")
	// ErrTimeout reports an operation that exceeded its deadline.
	ErrTimeout = errors.New("sock: timeout")
	// ErrInUse reports a bind to an occupied port.
	ErrInUse = errors.New("sock: port in use")
	// ErrMessageTruncated reports a datagram read smaller than the
	// arriving message (the remainder is discarded, as with UDP).
	ErrMessageTruncated = errors.New("sock: message truncated")
)

// Conn is a connected byte-stream (or, for datagram-mode substrate
// sockets, message-boundary-preserving) socket.
//
// Read consumes up to max bytes, returning the count and the payload
// objects whose byte ranges completed within the consumed span (see
// package stream). A zero count with a nil error means end-of-stream.
//
// Write queues n bytes for transmission, attaching obj (which may be
// nil) to the write's final byte.
type Conn interface {
	Read(p *sim.Proc, max int) (int, []any, error)
	Write(p *sim.Proc, n int, obj any) (int, error)
	Close(p *sim.Proc) error
	LocalAddr() Addr
	RemoteAddr() Addr
}

// Listener accepts incoming connections on a bound port.
type Listener interface {
	Accept(p *sim.Proc) (Conn, error)
	Close(p *sim.Proc) error
	Addr() Addr
	Port() int
}

// Network is one host's socket layer: the entry point applications use.
// Readiness multiplexing is the Poller's job; transports only provide
// pollable objects.
type Network interface {
	// Listen binds and listens on a port with the given backlog.
	Listen(p *sim.Proc, port, backlog int) (Listener, error)
	// Dial connects to addr:port.
	Dial(p *sim.Proc, addr Addr, port int) (Conn, error)
	// Addr reports this host's address.
	Addr() Addr
}

// Deadliner is the optional deadline face of a Conn: both transports
// implement it. A deadline is an absolute simulated time after which
// blocked reads (respectively writes) give up with ErrTimeout; the zero
// time means no deadline. Deadlines are consulted when an operation
// blocks — setting one does not interrupt an operation already in
// flight — and persist until changed, so every subsequent operation on
// the socket observes them. A timed-out socket remains usable: the
// operation failed, not the connection.
type Deadliner interface {
	// SetDeadline sets both the read and the write deadline.
	SetDeadline(t sim.Time)
	// SetReadDeadline bounds blocked Reads (and datagram receives).
	SetReadDeadline(t sim.Time)
	// SetWriteDeadline bounds blocked Writes (credit or buffer waits).
	SetWriteDeadline(t sim.Time)
}

// Closer is the optional half-close face of a Conn: both transports
// implement it, mirroring shutdown(2).
//
// CloseWrite signals end-of-stream to the peer (the substrate's
// shutdown message, TCP's FIN) while reads keep draining whatever the
// peer still sends; writes after CloseWrite return ErrClosed. The peer
// drains any bytes already in flight and then observes EOF.
//
// CloseRead is local only: subsequent Reads return EOF and data
// arriving afterwards is discarded, but the connection's flow-control
// resources keep cycling so the peer is not wedged mid-write.
//
// Both are idempotent; calling either after Close returns ErrClosed.
type Closer interface {
	CloseRead(p *sim.Proc) error
	CloseWrite(p *sim.Proc) error
}

// ReadFull reads exactly n bytes from c, accumulating payload objects.
// It returns an error if the stream ends early.
func ReadFull(p *sim.Proc, c Conn, n int) (int, []any, error) {
	var objs []any
	got := 0
	for got < n {
		m, o, err := c.Read(p, n-got)
		objs = append(objs, o...)
		got += m
		if err != nil {
			return got, objs, err
		}
		if m == 0 {
			return got, objs, ErrClosed
		}
	}
	return got, objs, nil
}

// WriteFull writes exactly n bytes to c. Conn.Write already blocks until
// everything is queued, so this is a thin convenience wrapper that
// normalizes short-write errors.
func WriteFull(p *sim.Proc, c Conn, n int, obj any) error {
	m, err := c.Write(p, n, obj)
	if err != nil {
		return err
	}
	if m != n {
		return ErrClosed
	}
	return nil
}
