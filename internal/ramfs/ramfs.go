// Package ramfs models the RAM disks the paper's FTP experiment uses "to
// remove the effects of disk access and caching": a flat in-memory file
// system whose reads and writes cost system calls plus page-cache-speed
// memory copies. The file-system overhead this charges is exactly why
// the paper's FTP numbers sit below the raw socket bandwidth.
package ramfs

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/sim"
)

// FS is one host's RAM-disk file system.
type FS struct {
	host  *kernel.Host
	files map[string]*file
	// Bandwidth is the file read/write copy rate in bytes/sec: the
	// page-cache-to-user copy of an uncached large transfer on the
	// testbed's memory system.
	Bandwidth int64

	// Stats.
	Reads, Writes sim.Counter
	BytesRead     sim.Counter
	BytesWritten  sim.Counter
}

type file struct {
	name string
	size int
	data any
}

// New returns an empty RAM disk on host.
func New(host *kernel.Host) *FS {
	return &FS{host: host, files: make(map[string]*file), Bandwidth: 200 << 20}
}

// Host reports the host this file system lives on.
func (fs *FS) Host() *kernel.Host { return fs.host }

// copyTime is the duration of moving n file bytes.
func (fs *FS) copyTime(n int) sim.Duration {
	if n <= 0 {
		return 0
	}
	return kernel.CopySetup + sim.BytesToDuration(n, fs.Bandwidth*8)
}

// Create installs a file of the given size with an opaque payload
// object; it costs nothing (test fixture setup).
func (fs *FS) Create(name string, size int, data any) {
	fs.files[name] = &file{name: name, size: size, data: data}
}

// Stat reports a file's size.
func (fs *FS) Stat(name string) (int, bool) {
	f, ok := fs.files[name]
	if !ok {
		return 0, false
	}
	return f.size, true
}

// Remove deletes a file.
func (fs *FS) Remove(name string) { delete(fs.files, name) }

// Handle is an open file with a position.
type Handle struct {
	fs  *FS
	f   *file
	off int
}

// Open opens an existing file for reading/writing, charging the open(2)
// path (syscall + name lookup).
func (fs *FS) Open(p *sim.Proc, name string) (*Handle, error) {
	fs.host.SyscallD(p, 500*sim.Nanosecond)
	f, ok := fs.files[name]
	if !ok {
		return nil, fmt.Errorf("ramfs: open %q: no such file", name)
	}
	return &Handle{fs: fs, f: f}, nil
}

// OpenCreate opens a file, creating it empty if absent.
func (fs *FS) OpenCreate(p *sim.Proc, name string) *Handle {
	fs.host.SyscallD(p, 500*sim.Nanosecond)
	f, ok := fs.files[name]
	if !ok {
		f = &file{name: name}
		fs.files[name] = f
	}
	return &Handle{fs: fs, f: f}
}

// Read consumes up to max bytes from the current position, charging
// syscall plus page-cache copy. The file's payload object is returned
// with the read that consumes the final byte.
func (h *Handle) Read(p *sim.Proc, max int) (int, any, error) {
	h.fs.host.Syscall(p)
	if max < 0 {
		max = 0
	}
	n := h.f.size - h.off
	if n > max {
		n = max
	}
	if n <= 0 {
		return 0, nil, nil // EOF
	}
	p.Sleep(h.fs.copyTime(n))
	h.off += n
	h.fs.Reads.Inc()
	h.fs.BytesRead.Add(int64(n))
	var obj any
	if h.off == h.f.size {
		obj = h.f.data
	}
	return n, obj, nil
}

// Write appends n bytes at the current position (extending the file),
// charging syscall plus copy. A non-nil obj replaces the file's payload
// object.
func (h *Handle) Write(p *sim.Proc, n int, obj any) (int, error) {
	h.fs.host.Syscall(p)
	if n < 0 {
		n = 0
	}
	p.Sleep(h.fs.copyTime(n))
	h.off += n
	if h.off > h.f.size {
		h.f.size = h.off
	}
	if obj != nil {
		h.f.data = obj
	}
	h.fs.Writes.Inc()
	h.fs.BytesWritten.Add(int64(n))
	return n, nil
}

// Seek repositions the handle (absolute offset, clamped).
func (h *Handle) Seek(off int) {
	if off < 0 {
		off = 0
	}
	if off > h.f.size {
		off = h.f.size
	}
	h.off = off
}

// Size reports the file's current size.
func (h *Handle) Size() int { return h.f.size }

// Close releases the handle (one syscall).
func (h *Handle) Close(p *sim.Proc) { h.fs.host.Syscall(p) }
