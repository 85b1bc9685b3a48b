package ramfs

import (
	"testing"

	"repro/internal/kernel"
	"repro/internal/sim"
)

func newFS() (*sim.Engine, *FS) {
	e := sim.NewEngine()
	h := kernel.NewHost(e, "h", 4)
	return e, New(h)
}

func TestCreateStatOpenRead(t *testing.T) {
	e, fs := newFS()
	fs.Create("a.bin", 100000, "payload")
	if size, ok := fs.Stat("a.bin"); !ok || size != 100000 {
		t.Fatalf("stat = %d, %v", size, ok)
	}
	var total int
	var got any
	e.Spawn("r", func(p *sim.Proc) {
		h, err := fs.Open(p, "a.bin")
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		for {
			n, obj, _ := h.Read(p, 4096)
			if n == 0 {
				break
			}
			total += n
			if obj != nil {
				got = obj
			}
		}
		h.Close(p)
	})
	e.Run()
	if total != 100000 || got != "payload" {
		t.Fatalf("read %d bytes, obj %v", total, got)
	}
	if fs.BytesRead.Value != 100000 {
		t.Fatalf("counter = %d", fs.BytesRead.Value)
	}
}

func TestOpenMissingFails(t *testing.T) {
	e, fs := newFS()
	var err error
	e.Spawn("r", func(p *sim.Proc) {
		_, err = fs.Open(p, "nope")
	})
	e.Run()
	if err == nil {
		t.Fatal("open of missing file succeeded")
	}
}

func TestWriteExtendsFile(t *testing.T) {
	e, fs := newFS()
	e.Spawn("w", func(p *sim.Proc) {
		h := fs.OpenCreate(p, "out.bin")
		h.Write(p, 5000, nil)
		h.Write(p, 5000, "tail")
		h.Close(p)
	})
	e.Run()
	if size, ok := fs.Stat("out.bin"); !ok || size != 10000 {
		t.Fatalf("size = %d", size)
	}
}

func TestReadCostScalesWithSize(t *testing.T) {
	e, fs := newFS()
	fs.Create("big.bin", 10<<20, nil)
	var elapsed sim.Duration
	e.Spawn("r", func(p *sim.Proc) {
		h, _ := fs.Open(p, "big.bin")
		start := p.Now()
		for {
			n, _, _ := h.Read(p, 1<<20)
			if n == 0 {
				break
			}
		}
		elapsed = p.Now().Sub(start)
	})
	e.Run()
	// 10 MB at ~200 MB/s is about 50 ms.
	if ms := elapsed.Seconds() * 1e3; ms < 40 || ms > 65 {
		t.Fatalf("10MB read took %.1f ms, want ~50 ms", ms)
	}
}

func TestSeek(t *testing.T) {
	e, fs := newFS()
	fs.Create("f", 100, nil)
	e.Spawn("r", func(p *sim.Proc) {
		h, _ := fs.Open(p, "f")
		h.Seek(90)
		n, _, _ := h.Read(p, 100)
		if n != 10 {
			t.Errorf("read after seek = %d, want 10", n)
		}
		h.Seek(-5) // clamps to 0
		if h.Size() != 100 {
			t.Errorf("size = %d", h.Size())
		}
	})
	e.Run()
}

func TestRemove(t *testing.T) {
	_, fs := newFS()
	fs.Create("f", 10, nil)
	fs.Remove("f")
	if _, ok := fs.Stat("f"); ok {
		t.Fatal("file still present after Remove")
	}
}
