package sock

import (
	"testing"

	"repro/internal/sim"
)

// fakeConn is a scripted Conn for exercising the helpers.
type fakeConn struct {
	reads  []int // byte counts returned by successive Read calls
	objs   []any
	err    error
	writes []int
	closed bool
}

func (f *fakeConn) Read(p *sim.Proc, max int) (int, []any, error) {
	if len(f.reads) == 0 {
		return 0, nil, f.err
	}
	n := f.reads[0]
	f.reads = f.reads[1:]
	if n > max {
		n = max
	}
	var objs []any
	if len(f.objs) > 0 {
		objs = []any{f.objs[0]}
		f.objs = f.objs[1:]
	}
	return n, objs, nil
}

func (f *fakeConn) Write(p *sim.Proc, n int, obj any) (int, error) {
	f.writes = append(f.writes, n)
	return n, nil
}

func (f *fakeConn) Close(p *sim.Proc) error { f.closed = true; return nil }
func (f *fakeConn) LocalAddr() Addr         { return 0 }
func (f *fakeConn) RemoteAddr() Addr        { return 1 }

func run(t *testing.T, body func(p *sim.Proc)) {
	t.Helper()
	e := sim.NewEngine()
	e.Spawn("t", body)
	e.Run()
}

func TestReadFullAccumulates(t *testing.T) {
	run(t, func(p *sim.Proc) {
		c := &fakeConn{reads: []int{3, 4, 5}, objs: []any{"a", "b"}}
		n, objs, err := ReadFull(p, c, 10)
		if err != nil || n != 10 {
			t.Errorf("ReadFull = %d, %v", n, err)
		}
		if len(objs) != 2 {
			t.Errorf("objs = %v", objs)
		}
	})
}

func TestReadFullEOFMidway(t *testing.T) {
	run(t, func(p *sim.Proc) {
		c := &fakeConn{reads: []int{3}}
		n, _, err := ReadFull(p, c, 10)
		if err != ErrClosed {
			t.Errorf("err = %v, want ErrClosed", err)
		}
		if n != 3 {
			t.Errorf("n = %d", n)
		}
	})
}

func TestReadFullPropagatesError(t *testing.T) {
	run(t, func(p *sim.Proc) {
		c := &fakeConn{err: ErrReset}
		if _, _, err := ReadFull(p, c, 5); err != ErrReset {
			t.Errorf("err = %v, want ErrReset", err)
		}
	})
}

func TestWriteFull(t *testing.T) {
	run(t, func(p *sim.Proc) {
		c := &fakeConn{}
		if err := WriteFull(p, c, 100, "x"); err != nil {
			t.Errorf("WriteFull: %v", err)
		}
		if len(c.writes) != 1 || c.writes[0] != 100 {
			t.Errorf("writes = %v", c.writes)
		}
	})
}

func TestErrorsDistinct(t *testing.T) {
	errs := []error{ErrRefused, ErrClosed, ErrReset, ErrTimeout, ErrInUse, ErrMessageTruncated}
	for i, a := range errs {
		for j, b := range errs {
			if i != j && a == b {
				t.Fatalf("errors %d and %d alias", i, j)
			}
		}
	}
}
