package core

import (
	"cmp"
	"slices"

	"repro/internal/emp"
	"repro/internal/ethernet"
)

// connTable is the substrate's active-socket table plus the two demux
// indexes the hot paths need:
//
//   - byPeer groups sockets by remote station, so failing every
//     connection to an unreachable peer is O(that peer's sockets)
//     instead of O(all sockets).
//   - outbound maps (peer, outbound tag) to the one socket that sends
//     on that channel, so routing an EMP reliability event
//     (connByOutbound) is a lookup instead of a table walk. Both
//     directions' tags are dialer-allocated and unique per dialer, so
//     the key never collides among live sockets.
//
// The table itself charges no simulated time; it is host bookkeeping.
type connTable struct {
	conns    map[*Conn]struct{}
	byPeer   map[ethernet.Addr]map[*Conn]struct{}
	outbound map[chanKey]*Conn
}

func newConnTable() *connTable {
	return &connTable{
		conns:    make(map[*Conn]struct{}),
		byPeer:   make(map[ethernet.Addr]map[*Conn]struct{}),
		outbound: make(map[chanKey]*Conn),
	}
}

func (t *connTable) add(c *Conn) {
	t.conns[c] = struct{}{}
	peers := t.byPeer[c.peer]
	if peers == nil {
		peers = make(map[*Conn]struct{})
		t.byPeer[c.peer] = peers
	}
	peers[c] = struct{}{}
	t.outbound[chanKey{c.peer, c.dataOutTag}] = c
	t.outbound[chanKey{c.peer, c.ackOutTag}] = c
}

func (t *connTable) remove(c *Conn) {
	if _, ok := t.conns[c]; !ok {
		return
	}
	delete(t.conns, c)
	if peers := t.byPeer[c.peer]; peers != nil {
		delete(peers, c)
		if len(peers) == 0 {
			delete(t.byPeer, c.peer)
		}
	}
	// Another socket may have reused a freed tag before this removal
	// (it can't while c is live, but guard the index anyway).
	if t.outbound[chanKey{c.peer, c.dataOutTag}] == c {
		delete(t.outbound, chanKey{c.peer, c.dataOutTag})
	}
	if t.outbound[chanKey{c.peer, c.ackOutTag}] == c {
		delete(t.outbound, chanKey{c.peer, c.ackOutTag})
	}
}

func (t *connTable) size() int { return len(t.conns) }

// forEach visits every active socket in no particular order. The
// visitor must not add or remove sockets.
func (t *connTable) forEach(f func(*Conn)) {
	for c := range t.conns {
		f(c)
	}
}

// peerConns visits every socket connected to addr.
func (t *connTable) peerConns(addr ethernet.Addr, f func(*Conn)) {
	for c := range t.byPeer[addr] {
		f(c)
	}
}

// lookupOutbound returns the socket that sends to dst on tag, if any.
func (t *connTable) lookupOutbound(dst ethernet.Addr, tag emp.Tag) *Conn {
	return t.outbound[chanKey{dst, tag}]
}

// snapshotSorted returns the active sockets ordered by (peer,
// localPort, remotePort) — the deterministic walk order the sweep,
// Drain, and Kill use so map iteration never leaks into simulated time.
func (t *connTable) snapshotSorted() []*Conn {
	conns := make([]*Conn, 0, len(t.conns))
	t.forEach(func(c *Conn) { conns = append(conns, c) })
	sortConns(conns)
	return conns
}

func sortConns(conns []*Conn) {
	slices.SortFunc(conns, func(a, b *Conn) int {
		if c := cmp.Compare(a.peer, b.peer); c != 0 {
			return c
		}
		if c := cmp.Compare(a.localPort, b.localPort); c != 0 {
			return c
		}
		return cmp.Compare(a.remotePort, b.remotePort)
	})
}
