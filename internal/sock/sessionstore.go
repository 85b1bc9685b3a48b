// Session resume store: the durable half of crash–restart recovery.
//
// A SessionStore models the small, synchronously replicated ledger a
// production service keeps outside the crashing host: per-session
// resume state (committed receive watermark plus the committed tail of
// the response stream) and the session-id allocator. A reborn
// listener, handed the store that survived the crash, can resume
// exactly the streams whose state was committed before the power went
// out — and reject everything else with a typed error instead of a
// hang. Servers commit via Session.Cork/Uncork *before* response bytes
// reach the wire, so a client's acknowledged offset never runs ahead
// of the committed window (write-ahead ordering: crash-before-commit
// merely replays an idempotent request, never strands the client past
// the committed end).
package sock

// SessionRecord is the committed resume state of one server-side
// session: the receive watermark (request bytes consumed by committed
// responses) and the retained response window [SendLow, SendEnd) with
// its replay spans.
type SessionRecord struct {
	ID      uint64
	RecvOff int64
	SendLow int64
	SendEnd int64
	Spans   []replaySpan

	// owner is the listener incarnation that last committed the record;
	// a dead incarnation's teardown cannot delete state the reborn
	// listener has adopted.
	owner any
}

// SessionStore holds the replicated session ledger of one node. All
// methods are host bookkeeping — no simulated time, no randomness — so
// an unused store never perturbs a run.
type SessionStore struct {
	nextID uint64
	recs   map[uint64]*SessionRecord
}

// NewSessionStore returns an empty store; ids start at 1.
func NewSessionStore() *SessionStore {
	return &SessionStore{nextID: 1, recs: make(map[uint64]*SessionRecord)}
}

// AllocID hands out the next session id. Allocation is durable: ids
// never repeat across the owning node's incarnations, so a reborn
// listener cannot collide with sessions the dead incarnation created.
func (st *SessionStore) AllocID() uint64 {
	id := st.nextID
	st.nextID++
	return id
}

// Put commits a record under the given owner, replacing any previous
// version.
func (st *SessionStore) Put(rec *SessionRecord, owner any) {
	rec.owner = owner
	st.recs[rec.ID] = rec
}

// Get returns the committed record for id, or nil.
func (st *SessionStore) Get(id uint64) *SessionRecord {
	return st.recs[id]
}

// Delete removes id's record if owner still owns it: a session closing
// under a dead listener incarnation must not erase state the reborn
// incarnation has adopted.
func (st *SessionStore) Delete(id uint64, owner any) {
	if rec := st.recs[id]; rec != nil && rec.owner == owner {
		delete(st.recs, id)
	}
}

// Len reports how many sessions have committed state.
func (st *SessionStore) Len() int {
	return len(st.recs)
}
