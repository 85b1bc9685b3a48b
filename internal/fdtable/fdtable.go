// Package fdtable implements the paper's solution to the function
// name-space overloading problem (Section 5.4): UNIX applications use the
// same read()/write()/close() calls on files, pipes and sockets, so a
// substrate loaded under an application must track which descriptors are
// sockets and route each call either into the EMP substrate or on to the
// ordinary system function. This package is that tracking layer: a
// per-process descriptor space whose generic calls dispatch on the
// descriptor's tracked kind. The example applications (notably FTP,
// which mixes file reads and socket reads in one loop) run entirely
// through it.
package fdtable

import (
	"fmt"

	"repro/internal/ramfs"
	"repro/internal/sim"
	"repro/internal/sock"
)

// Kind is a descriptor's tracked type.
type Kind int

const (
	// KindFile descriptors route to the file system.
	KindFile Kind = iota
	// KindConn descriptors route to the socket layer (a connection).
	KindConn
	// KindListener descriptors route to the socket layer (passive).
	KindListener
)

func (k Kind) String() string {
	switch k {
	case KindFile:
		return "file"
	case KindConn:
		return "socket"
	case KindListener:
		return "listener"
	}
	return "?"
}

type entry struct {
	kind Kind
	file *ramfs.Handle
	conn sock.Conn
	lst  sock.Listener
}

// Space is one process's descriptor table over a socket layer and a file
// system.
type Space struct {
	net  sock.Network
	fs   *ramfs.FS
	ents map[int]*entry
	next int
}

// New returns an empty descriptor space.
func New(net sock.Network, fs *ramfs.FS) *Space {
	return &Space{net: net, fs: fs, ents: make(map[int]*entry), next: 3}
}

// Network exposes the underlying socket layer (for select on raw
// waitables).
func (s *Space) Network() sock.Network { return s.net }

// FS exposes the underlying file system.
func (s *Space) FS() *ramfs.FS { return s.fs }

func (s *Space) install(e *entry) int {
	fd := s.next
	s.next++
	s.ents[fd] = e
	return fd
}

func (s *Space) lookup(fd int) (*entry, error) {
	e, ok := s.ents[fd]
	if !ok {
		return nil, fmt.Errorf("fdtable: bad descriptor %d", fd)
	}
	return e, nil
}

// Open opens a file and returns its descriptor.
func (s *Space) Open(p *sim.Proc, name string) (int, error) {
	h, err := s.fs.Open(p, name)
	if err != nil {
		return -1, err
	}
	return s.install(&entry{kind: KindFile, file: h}), nil
}

// Create opens (creating if needed) a file for writing.
func (s *Space) Create(p *sim.Proc, name string) int {
	return s.install(&entry{kind: KindFile, file: s.fs.OpenCreate(p, name)})
}

// Listen opens a passive socket on port.
func (s *Space) Listen(p *sim.Proc, port, backlog int) (int, error) {
	l, err := s.net.Listen(p, port, backlog)
	if err != nil {
		return -1, err
	}
	return s.install(&entry{kind: KindListener, lst: l}), nil
}

// Accept blocks on a listener descriptor and returns the new
// connection's descriptor.
func (s *Space) Accept(p *sim.Proc, lfd int) (int, error) {
	e, err := s.lookup(lfd)
	if err != nil {
		return -1, err
	}
	if e.kind != KindListener {
		return -1, fmt.Errorf("fdtable: accept on non-listener %d (%s)", lfd, e.kind)
	}
	c, err := e.lst.Accept(p)
	if err != nil {
		return -1, err
	}
	return s.install(&entry{kind: KindConn, conn: c}), nil
}

// Connect opens an active socket to addr:port.
func (s *Space) Connect(p *sim.Proc, addr sock.Addr, port int) (int, error) {
	c, err := s.net.Dial(p, addr, port)
	if err != nil {
		return -1, err
	}
	return s.install(&entry{kind: KindConn, conn: c}), nil
}

// Read is the overloaded generic call: it dispatches to the file system
// or the socket layer according to the descriptor's tracked kind —
// the substrate's answer to read() having multiple interpretations.
func (s *Space) Read(p *sim.Proc, fd, max int) (int, []any, error) {
	e, err := s.lookup(fd)
	if err != nil {
		return 0, nil, err
	}
	switch e.kind {
	case KindFile:
		n, obj, err := e.file.Read(p, max)
		if obj != nil {
			return n, []any{obj}, err
		}
		return n, nil, err
	case KindConn:
		return e.conn.Read(p, max)
	}
	return 0, nil, fmt.Errorf("fdtable: read on %s descriptor %d", e.kind, fd)
}

// Write is the overloaded generic call for output.
func (s *Space) Write(p *sim.Proc, fd, n int, obj any) (int, error) {
	e, err := s.lookup(fd)
	if err != nil {
		return 0, err
	}
	switch e.kind {
	case KindFile:
		return e.file.Write(p, n, obj)
	case KindConn:
		return e.conn.Write(p, n, obj)
	}
	return 0, fmt.Errorf("fdtable: write on %s descriptor %d", e.kind, fd)
}

// Close releases any descriptor kind.
func (s *Space) Close(p *sim.Proc, fd int) error {
	e, err := s.lookup(fd)
	if err != nil {
		return err
	}
	delete(s.ents, fd)
	switch e.kind {
	case KindFile:
		e.file.Close(p)
		return nil
	case KindConn:
		return e.conn.Close(p)
	case KindListener:
		return e.lst.Close(p)
	}
	return nil
}

// KindOf reports a descriptor's tracked kind.
func (s *Space) KindOf(fd int) (Kind, error) {
	e, err := s.lookup(fd)
	if err != nil {
		return 0, err
	}
	return e.kind, nil
}

// Conn returns the socket behind a connection descriptor.
func (s *Space) Conn(fd int) (sock.Conn, error) {
	e, err := s.lookup(fd)
	if err != nil {
		return nil, err
	}
	if e.kind != KindConn {
		return nil, fmt.Errorf("fdtable: descriptor %d is a %s", fd, e.kind)
	}
	return e.conn, nil
}

// OpenCount reports live descriptors (leak checks in tests).
func (s *Space) OpenCount() int { return len(s.ents) }
