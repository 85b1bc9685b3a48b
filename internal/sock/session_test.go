package sock

import (
	"runtime"
	"slices"
	"testing"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// TestReplayBufCommittedPrefixFrozen checks the invariant a commit
// relies on to share the replay window: a copy of the spans header
// taken at commit time reads the same spans after later pushes (with
// room to append in place), window slides past the limit, and trims.
func TestReplayBufCommittedPrefixFrozen(t *testing.T) {
	b := replayBuf{spans: make([]replaySpan, 0, 64), limit: 100}
	for i := 0; i < 8; i++ {
		b.push(10, i)
	}
	committed := b.spans
	want := slices.Clone(committed)
	b.push(10, 8) // appends in place, next to the committed spans
	b.trimTo(25)  // still inside the committed spans
	for i := 9; i < 20; i++ {
		b.push(10, i) // 100 → 200 bytes: the window slides past the limit
	}
	if b.low <= want[len(want)-1].start {
		t.Fatalf("window low %d never passed the committed spans", b.low)
	}
	if !slices.Equal(committed, want) {
		t.Fatalf("committed spans changed:\n got %v\nwant %v", committed, want)
	}
}

// newCommitSession returns a server-side session whose replay window
// retains the given number of 32-byte spans, all already flushed, so
// an Uncork only commits.
func newCommitSession(e *sim.Engine, spans int) *Session {
	cfg := SessionConfig{Eng: e, Tel: telemetry.New(), Store: NewSessionStore()}.normalize()
	s := newSession(cfg, false, &SessionListener{})
	for i := 0; i < spans; i++ {
		s.replay.push(32, nil)
	}
	s.logicalEnd, s.flushed = s.replay.end, s.replay.end
	return s
}

// TestSessionCommitCostFlat checks that a commit's cost does not grow
// with the retained replay window: an Uncork allocates the same bytes
// with 16 retained spans as with 1,000.
func TestSessionCommitCostFlat(t *testing.T) {
	perUncork := func(spans int) float64 {
		e := sim.NewEngine()
		s := newCommitSession(e, spans)
		if got := len(s.replay.spans); got != spans {
			t.Fatalf("%d spans retained, want %d", got, spans)
		}
		const rounds = 200
		var before, after runtime.MemStats
		e.Spawn("server", func(p *sim.Proc) {
			s.Cork()
			s.Uncork(p) // warm: the store's map takes the session's id
			runtime.ReadMemStats(&before)
			for i := 0; i < rounds; i++ {
				s.Cork()
				if err := s.Uncork(p); err != nil {
					t.Errorf("uncork: %v", err)
					return
				}
			}
			runtime.ReadMemStats(&after)
		})
		e.Run()
		if rec := s.cfg.Store.Get(s.id); rec == nil || len(rec.Spans) != spans {
			t.Fatalf("committed record %+v, want %d spans", rec, spans)
		}
		return float64(after.TotalAlloc-before.TotalAlloc) / rounds
	}
	small, large := perUncork(16), perUncork(1000)
	if large > small+8 {
		t.Fatalf("an Uncork allocates %.1f B with 1000 retained spans and %.1f B with 16", large, small)
	}
}

// BenchmarkSessionCommit times a Cork/Uncork commit of a session that
// retains 1,000 spans of 32 bytes.
func BenchmarkSessionCommit(b *testing.B) {
	e := sim.NewEngine()
	s := newCommitSession(e, 1000)
	e.Spawn("server", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			s.Cork()
			s.Uncork(p)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}
