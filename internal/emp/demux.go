package emp

import (
	"repro/internal/ethernet"
)

// This file holds the firmware's two lookup structures. Both replace
// the paper's linear lists with hashed indexes, Linux inet_hashtables
// style, while preserving the lists' observable semantics exactly:
//
//   - descTable: the pre-posted receive descriptors. The paper's NIC
//     walks them front to back (550 ns per descriptor examined, charged
//     via nic.TagMatch); matching must pick the FIRST descriptor in
//     post order whose (src, tag) pattern covers the arrival. The table
//     keeps that global post order as a doubly-linked list AND buckets
//     every descriptor by its exact (src, tag) pair — wildcard-source
//     descriptors go in a per-tag side chain — so the same
//     first-in-post-order answer falls out of comparing two bucket
//     heads. Post-order sequence numbers are the tiebreaker.
//
//   - uqTable: the unexpected-message queue. Claims must take the
//     OLDEST matching entry (FIFO), and the byte-cap eviction must drop
//     the oldest unprotected entry in global arrival order. The table
//     keeps the global FIFO list and a per-tag chain for O(1)-expected
//     claims; within one tag the chain order equals the global order,
//     so "oldest matching" is the chain walk's first hit.
//
// Neither structure charges simulated time itself: the only simulated
// cost tied to lookup length is the tag-match walk, charged by the
// caller through nic.TagMatch: base plus one step per descriptor
// walked (linear, paper-faithful) or per bucket entry probed (hashed).
// Everything else — claims,
// unposts, purges — was always "host/firmware bookkeeping" with flat
// modeled cost, so indexing it changes no timing in either mode.

// descKey is the exact-match bucket key for pre-posted descriptors.
type descKey struct {
	src ethernet.Addr
	tag Tag
}

// descChain is one bucket: head and tail of a post-ordered chain.
// Tracking the tail keeps appends O(1) even for the huge chains a
// backlog-sized wildcard prepost creates on one listen tag.
type descChain struct {
	head, tail *recvDesc
}

// descTable indexes the pre-posted receive descriptors: global
// post-order list plus (src, tag) buckets with a wildcard-source side
// chain per tag.
type descTable struct {
	head, tail *recvDesc
	n          int
	seq        uint64

	exact map[descKey]*descChain // post-ordered chains
	wild  map[Tag]*descChain     // AnySource chains, post-ordered
}

func newDescTable() *descTable {
	return &descTable{
		exact: make(map[descKey]*descChain),
		wild:  make(map[Tag]*descChain),
	}
}

func (t *descTable) len() int { return t.n }

// chain returns d's bucket, or nil if it has none yet.
func (t *descTable) chain(d *recvDesc) *descChain {
	if d.h.src == AnySource {
		return t.wild[d.h.tag]
	}
	return t.exact[descKey{d.h.src, d.h.tag}]
}

func (t *descTable) chainFor(d *recvDesc) *descChain {
	if c := t.chain(d); c != nil {
		return c
	}
	c := &descChain{}
	if d.h.src == AnySource {
		t.wild[d.h.tag] = c
	} else {
		t.exact[descKey{d.h.src, d.h.tag}] = c
	}
	return c
}

func (t *descTable) dropChain(d *recvDesc) {
	if d.h.src == AnySource {
		delete(t.wild, d.h.tag)
	} else {
		delete(t.exact, descKey{d.h.src, d.h.tag})
	}
}

// add appends d at the tail of the post order and of its bucket chain.
func (t *descTable) add(d *recvDesc) {
	t.seq++
	d.seq = t.seq
	d.tbl = t
	d.prev, d.next = t.tail, nil
	if t.tail != nil {
		t.tail.next = d
	} else {
		t.head = d
	}
	t.tail = d
	// Bucket chain: append at tail (chains stay post-ordered).
	d.bprev, d.bnext = nil, nil
	c := t.chainFor(d)
	if c.tail == nil {
		c.head = d
	} else {
		c.tail.bnext, d.bprev = d, c.tail
	}
	c.tail = d
	t.n++
}

// remove unlinks d from the post order and its bucket chain.
func (t *descTable) remove(d *recvDesc) {
	if d.tbl != t {
		return
	}
	d.tbl = nil
	if d.prev != nil {
		d.prev.next = d.next
	} else {
		t.head = d.next
	}
	if d.next != nil {
		d.next.prev = d.prev
	} else {
		t.tail = d.prev
	}
	c := t.chain(d)
	if d.bprev != nil {
		d.bprev.bnext = d.bnext
	} else {
		c.head = d.bnext
	}
	if d.bnext != nil {
		d.bnext.bprev = d.bprev
	} else {
		c.tail = d.bprev
	}
	if c.head == nil {
		t.dropChain(d)
	}
	d.prev, d.next, d.bprev, d.bnext = nil, nil, nil, nil
	t.n--
}

// descMatches reports whether descriptor d covers an arrival from src
// with the given tag; need >= 0 additionally requires the posted buffer
// to hold need bytes (the host-side claim's constraint — the NIC-side
// tag match ignores buffer size and truncates on overflow instead).
func descMatches(d *recvDesc, src ethernet.Addr, tag Tag, need int) bool {
	return d.h.tag == tag &&
		(d.h.src == AnySource || d.h.src == src) &&
		(need < 0 || d.h.maxLen >= need)
}

// matchLinear walks the global post order exactly as the paper's NIC
// does and returns the first covering descriptor plus the walk length:
// the matched descriptor's 1-based position, or the full list length on
// a miss — precisely what nic.TagMatch charges at 550 ns per step.
func (t *descTable) matchLinear(src ethernet.Addr, tag Tag, need int) (*recvDesc, int) {
	walked := 0
	for d := t.head; d != nil; d = d.next {
		walked++
		if descMatches(d, src, tag, need) {
			return d, walked
		}
	}
	return nil, t.n
}

// matchHashed answers the same question from the buckets: the first
// covering descriptor is the earlier-posted of the exact (src, tag)
// chain's first fit and the wildcard tag chain's first fit. It returns
// the descriptor and the number of chain entries probed, which
// nic.TagMatch charges instead of the full-list walk.
func (t *descTable) matchHashed(src ethernet.Addr, tag Tag, need int) (*recvDesc, int) {
	probed := 0
	firstFit := func(head *recvDesc) *recvDesc {
		for d := head; d != nil; d = d.bnext {
			probed++
			if need < 0 || d.h.maxLen >= need {
				return d
			}
		}
		return nil
	}
	chainHead := func(c *descChain) *recvDesc {
		if c == nil {
			return nil
		}
		return c.head
	}
	var e *recvDesc
	if src != AnySource {
		e = firstFit(chainHead(t.exact[descKey{src, tag}]))
	}
	w := firstFit(chainHead(t.wild[tag]))
	switch {
	case e == nil:
		e = w
	case w != nil && w.seq < e.seq:
		e = w
	}
	return e, probed
}

// forEach visits every descriptor in post order. The visitor must not
// mutate the table.
func (t *descTable) forEach(f func(*recvDesc)) {
	for d := t.head; d != nil; d = d.next {
		f(d)
	}
}

// reset drops every descriptor (endpoint death).
func (t *descTable) reset() {
	for d := t.head; d != nil; {
		next := d.next
		d.tbl, d.prev, d.next, d.bprev, d.bnext = nil, nil, nil, nil, nil
		d = next
	}
	t.head, t.tail, t.n = nil, nil, 0
	t.exact = make(map[descKey]*descChain)
	t.wild = make(map[Tag]*descChain)
}

// uqTable indexes the unexpected queue: global FIFO plus per-tag
// chains. Entries carry concrete sources (they describe arrivals), so
// one chain per tag suffices; a claim filters by source along the
// chain, which in practice is one step — tags are per-connection.
type uqTable struct {
	head, tail *uqEntry
	n          int
	byTag      map[Tag]*uqChain
}

// uqChain is one tag's FIFO-ordered chain, tail-tracked so pushes stay
// O(1) when many arrivals share a tag (a listen-tag connect storm).
type uqChain struct {
	head, tail *uqEntry
}

func newUQTable() *uqTable {
	return &uqTable{byTag: make(map[Tag]*uqChain)}
}

func (t *uqTable) len() int { return t.n }

// chainHead returns the oldest entry on tag's chain, or nil.
func (t *uqTable) chainHead(tag Tag) *uqEntry {
	if c := t.byTag[tag]; c != nil {
		return c.head
	}
	return nil
}

// push appends msg at the FIFO tail and returns its entry.
func (t *uqTable) push(msg Message) *uqEntry {
	e := &uqEntry{msg: msg}
	e.prev = t.tail
	if t.tail != nil {
		t.tail.next = e
	} else {
		t.head = e
	}
	t.tail = e
	c := t.byTag[msg.Tag]
	if c == nil {
		c = &uqChain{}
		t.byTag[msg.Tag] = c
	}
	if c.tail == nil {
		c.head = e
	} else {
		c.tail.bnext, e.bprev = e, c.tail
	}
	c.tail = e
	t.n++
	return e
}

// remove unlinks e from the FIFO and its tag chain.
func (t *uqTable) remove(e *uqEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		t.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		t.tail = e.prev
	}
	c := t.byTag[e.msg.Tag]
	if e.bprev != nil {
		e.bprev.bnext = e.bnext
	} else {
		c.head = e.bnext
	}
	if e.bnext != nil {
		e.bnext.bprev = e.bprev
	} else {
		c.tail = e.bprev
	}
	if c.head == nil {
		delete(t.byTag, e.msg.Tag)
	}
	e.prev, e.next, e.bprev, e.bnext = nil, nil, nil, nil
	t.n--
}

// uqMatches is the one claim predicate: src may be AnySource (the
// claimant takes from anyone), maxLen < 0 skips the capacity check
// (peek/count callers).
func uqMatches(e *uqEntry, src ethernet.Addr, tag Tag, maxLen int) bool {
	return tag == e.msg.Tag &&
		(src == AnySource || src == e.msg.Src) &&
		(maxLen < 0 || maxLen >= e.msg.Len)
}

// find returns the oldest matching entry without removing it. The tag
// chain is FIFO-ordered within its tag, so its first hit is the global
// oldest match.
func (t *uqTable) find(src ethernet.Addr, tag Tag, maxLen int) *uqEntry {
	for e := t.chainHead(tag); e != nil; e = e.bnext {
		if uqMatches(e, src, tag, maxLen) {
			return e
		}
	}
	return nil
}

// count reports how many entries match (src, tag).
func (t *uqTable) count(src ethernet.Addr, tag Tag) int {
	n := 0
	for e := t.chainHead(tag); e != nil; e = e.bnext {
		if uqMatches(e, src, tag, -1) {
			n++
		}
	}
	return n
}

// oldestWhere returns the first entry in global FIFO order for which
// ok reports true (the byte-cap eviction's victim search).
func (t *uqTable) oldestWhere(ok func(*uqEntry) bool) *uqEntry {
	for e := t.head; e != nil; e = e.next {
		if ok(e) {
			return e
		}
	}
	return nil
}

// forEach visits every entry in FIFO order. The visitor must not
// mutate the table; collect-then-remove for purges.
func (t *uqTable) forEach(f func(*uqEntry)) {
	for e := t.head; e != nil; e = e.next {
		f(e)
	}
}

// reset drops every entry (endpoint death).
func (t *uqTable) reset() {
	for e := t.head; e != nil; {
		next := e.next
		e.prev, e.next, e.bprev, e.bnext = nil, nil, nil, nil
		e = next
	}
	t.head, t.tail, t.n = nil, nil, 0
	t.byTag = make(map[Tag]*uqChain)
}
