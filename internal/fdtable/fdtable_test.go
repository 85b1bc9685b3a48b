package fdtable

import (
	"testing"

	"repro/internal/core"
	"repro/internal/ethernet"
	"repro/internal/kernel"
	"repro/internal/nic"
	"repro/internal/ramfs"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// bed builds two substrate-backed descriptor spaces over one fabric.
type bed struct {
	eng    *sim.Engine
	spaces []*Space
}

func newBed(n int) *bed {
	b := &bed{eng: sim.NewEngine()}
	sw := ethernet.NewSwitch(b.eng)
	for i := 0; i < n; i++ {
		h := kernel.NewHost(b.eng, "h", 4)
		nc := nic.New(b.eng, "n", nic.DefaultConfig())
		nc.Attach(sw)
		sub := core.New(b.eng, h, nc, telemetry.New(), core.DefaultOptions())
		b.spaces = append(b.spaces, New(sub, ramfs.New(h)))
	}
	return b
}

func TestGenericReadDispatchesFileAndSocket(t *testing.T) {
	// The Section 5.4 scenario: the same Read call must serve a file
	// descriptor and a socket descriptor, distinguished only by the
	// table's tracked state.
	b := newBed(2)
	b.spaces[0].fs.Create("file.txt", 1000, "file-data")
	var fileN, sockN int
	var fileKind, sockKind kind
	b.eng.Spawn("server", func(p *sim.Proc) {
		s := b.spaces[0]
		ffd, err := s.Open(p, "file.txt")
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		lfd, _ := s.Listen(p, 80, 4)
		cfd, err := s.Accept(p, lfd)
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		fileKind = s.ents[ffd].kind
		sockKind = s.ents[cfd].kind
		fileN, _, _ = s.Read(p, ffd, 4096)
		sockN, _, _ = s.Read(p, cfd, 4096)
		s.Close(p, cfd)
		s.Close(p, ffd)
		s.Close(p, lfd)
	})
	b.eng.Spawn("client", func(p *sim.Proc) {
		p.Sleep(10 * sim.Microsecond)
		s := b.spaces[1]
		fd, err := s.Connect(p, b.spaces[0].net.Addr(), 80)
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		s.Write(p, fd, 500, "net-data")
		s.Close(p, fd)
	})
	b.eng.RunUntil(sim.Time(10 * sim.Second))
	if fileKind != kindFile || sockKind != kindConn {
		t.Fatalf("kinds: file=%v sock=%v", fileKind, sockKind)
	}
	if fileN != 1000 || sockN != 500 {
		t.Fatalf("reads: file=%d sock=%d", fileN, sockN)
	}
}

func TestBadDescriptorErrors(t *testing.T) {
	b := newBed(1)
	var readErr, writeErr, closeErr error
	b.eng.Spawn("p", func(p *sim.Proc) {
		s := b.spaces[0]
		_, _, readErr = s.Read(p, 42, 10)
		_, writeErr = s.Write(p, 42, 10, nil)
		closeErr = s.Close(p, 42)
	})
	b.eng.Run()
	if readErr == nil || writeErr == nil || closeErr == nil {
		t.Fatal("operations on a bad descriptor must error")
	}
}

func TestKindMismatchErrors(t *testing.T) {
	b := newBed(1)
	b.spaces[0].fs.Create("f", 10, nil)
	var acceptErr, readErr error
	b.eng.Spawn("p", func(p *sim.Proc) {
		s := b.spaces[0]
		ffd, _ := s.Open(p, "f")
		_, acceptErr = s.Accept(p, ffd) // accept on a file
		lfd, _ := s.Listen(p, 99, 1)
		_, _, readErr = s.Read(p, lfd, 10) // read on a listener
		s.Close(p, lfd)
		s.Close(p, ffd)
	})
	b.eng.RunUntil(sim.Time(sim.Second))
	if acceptErr == nil || readErr == nil {
		t.Fatal("kind mismatches must error")
	}
}

func TestCloseRemovesDescriptor(t *testing.T) {
	b := newBed(1)
	b.spaces[0].fs.Create("f", 10, nil)
	b.eng.Spawn("p", func(p *sim.Proc) {
		s := b.spaces[0]
		fd, _ := s.Open(p, "f")
		if len(s.ents) != 1 {
			t.Errorf("open count = %d", len(s.ents))
		}
		s.Close(p, fd)
		if len(s.ents) != 0 {
			t.Errorf("descriptor leaked: %d", len(s.ents))
		}
		if err := s.Close(p, fd); err == nil {
			t.Error("double close should error")
		}
	})
	b.eng.Run()
}

func TestCreateAndConnAccessors(t *testing.T) {
	b := newBed(2)
	b.eng.Spawn("server", func(p *sim.Proc) {
		s := b.spaces[0]
		// Create a new file through the descriptor space.
		fd := s.Create(p, "new.dat")
		s.Write(p, fd, 1234, "data")
		s.Close(p, fd)
		if size, ok := s.fs.Stat("new.dat"); !ok || size != 1234 {
			t.Errorf("created file = %d, %v", size, ok)
		}
		lfd, _ := s.Listen(p, 80, 2)
		cfd, err := s.Accept(p, lfd)
		if err != nil {
			return
		}
		if k := s.ents[lfd].kind; k.String() != "listener" {
			t.Errorf("kind = %v", k)
		}
		s.Read(p, cfd, 16)
		s.Close(p, cfd)
		s.Close(p, lfd)
	})
	b.eng.Spawn("client", func(p *sim.Proc) {
		p.Sleep(100 * sim.Microsecond)
		s := b.spaces[1]
		fd, err := s.Connect(p, b.spaces[0].net.Addr(), 80)
		if err != nil {
			return
		}
		s.Write(p, fd, 16, nil)
		s.Close(p, fd)
	})
	b.eng.RunUntil(sim.Time(10 * sim.Second))
}
