package tcpip

import "sort"

// connTable is the stack's established-connection demultiplexer,
// shaped like Linux's inet_hashtables ehash: a power-of-two array of
// buckets keyed by a hash of the connection 4-tuple (the local address
// is constant per stack, so (lport, raddr, rport) identifies it), each
// bucket an insertion-ordered chain. The table doubles when the load
// factor reaches 1/2, keeping the expected chain length — and so the
// per-segment demux cost — constant at any connection count. The
// per-port listener table (Stack.listeners) is the companion lhash:
// SYNs that miss here resolve by destination port alone.
//
// Lookups/Probes count demux-path lookups and the chain entries they
// examined; Probes/Lookups is the mean demux cost the connscale bench
// gate asserts stays flat. Existence checks off the demux path
// (handshake bookkeeping, drains) use get, which counts nothing.
type connTable struct {
	buckets [][]*conn
	n       int

	// Lookups / Probes cover demux-path lookups only.
	Lookups int64
	Probes  int64
}

const connTableMinBuckets = 16

func newConnTable() *connTable {
	return &connTable{buckets: make([][]*conn, connTableMinBuckets)}
}

// hash is FNV-1a over the 4-tuple fields with a final avalanche step:
// the tuples are small sequential integers (ephemeral ports count up,
// peer addresses are dense), and word-granularity FNV alone leaves
// enough low-bit structure to lengthen chains noticeably under the
// power-of-two mask.
func (t *connTable) hash(k connKey) uint32 {
	h := uint32(2166136261)
	mix := func(v uint32) {
		h ^= v
		h *= 16777619
	}
	mix(uint32(k.lport))
	mix(uint32(k.raddr))
	mix(uint32(k.rport))
	h ^= h >> 16
	h *= 0x85ebca6b
	h ^= h >> 13
	h *= 0xc2b2ae35
	h ^= h >> 16
	return h
}

func (t *connTable) bucket(k connKey) int {
	return int(t.hash(k) & uint32(len(t.buckets)-1))
}

// lookup resolves a segment's 4-tuple on the demux path, counting the
// chain entries examined.
func (t *connTable) lookup(k connKey) *conn {
	t.Lookups++
	for _, c := range t.buckets[t.bucket(k)] {
		t.Probes++
		if c.key() == k {
			return c
		}
	}
	return nil
}

// get resolves a 4-tuple without touching the demux counters
// (handshake bookkeeping, drain walks).
func (t *connTable) get(k connKey) *conn {
	for _, c := range t.buckets[t.bucket(k)] {
		if c.key() == k {
			return c
		}
	}
	return nil
}

// insert adds c under its current 4-tuple. The caller ensures the key
// is not already present (the SYN path checks first). Growth triggers
// at load factor 1/2, keeping the mean successful-lookup chain walk
// near 1.2 probes at any population — flat enough for the connscale
// gate's 1.5x bound against the 8-connection baseline.
func (t *connTable) insert(c *conn) {
	if 2*(t.n+1) > len(t.buckets) {
		t.grow()
	}
	b := t.bucket(c.key())
	t.buckets[b] = append(t.buckets[b], c)
	t.n++
}

// remove deletes the connection registered under k, preserving its
// chain's insertion order.
func (t *connTable) remove(k connKey) {
	b := t.bucket(k)
	chain := t.buckets[b]
	for i, c := range chain {
		if c.key() == k {
			t.buckets[b] = append(chain[:i], chain[i+1:]...)
			t.n--
			return
		}
	}
}

// grow doubles the bucket array, redistributing chains. Old chains are
// walked in bucket-then-insertion order, so relative insertion order
// within every new chain is preserved and rehashing stays
// deterministic.
func (t *connTable) grow() {
	old := t.buckets
	t.buckets = make([][]*conn, 2*len(old))
	for _, chain := range old {
		for _, c := range chain {
			b := t.bucket(c.key())
			t.buckets[b] = append(t.buckets[b], c)
		}
	}
}

func (t *connTable) len() int { return t.n }

// forEach visits every connection in bucket-then-insertion order. The
// visitor must not insert or remove.
func (t *connTable) forEach(f func(*conn)) {
	for _, chain := range t.buckets {
		for _, c := range chain {
			f(c)
		}
	}
}

// keys snapshots every registered 4-tuple (for sorted drain walks).
func (t *connTable) keys() []connKey {
	out := make([]connKey, 0, t.n)
	t.forEach(func(c *conn) { out = append(out, c.key()) })
	return out
}

// sortConnKeys orders 4-tuples deterministically so table walks never
// leak hash order into simulated time.
func sortConnKeys(keys []connKey) {
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.lport != b.lport {
			return a.lport < b.lport
		}
		if a.raddr != b.raddr {
			return a.raddr < b.raddr
		}
		return a.rport < b.rport
	})
}
