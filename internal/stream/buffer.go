// Package stream provides a byte-stream accounting buffer used by both
// the kernel TCP socket buffers and the substrate's data-streaming temp
// buffers. The model never moves real payload bytes — copies are charged
// as virtual time — but applications still need their payload *objects*
// (a file block, a matrix tile, an HTTP request) delivered through the
// byte stream. A Buffer counts bytes and carries each attached object at
// the stream offset where its serialization ends, releasing it to the
// reader exactly when the last byte of its range is consumed, no matter
// how the stream was segmented in between.
package stream

import "fmt"

// Buffer is a FIFO of stream bytes with attached objects. Offsets are
// absolute from the start of the stream, so a Buffer can also account a
// TCP send queue where the base advances as acknowledgments arrive.
type Buffer struct {
	base int64 // absolute offset of the first buffered byte
	end  int64 // absolute offset just past the last buffered byte
	objs []objAt
}

// NewBuffer returns an empty buffer starting at absolute offset base.
func NewBuffer(base int64) *Buffer {
	return &Buffer{base: base, end: base}
}

// Len reports the buffered byte count.
func (b *Buffer) Len() int { return int(b.end - b.base) }

// Base reports the absolute offset of the first buffered byte.
func (b *Buffer) Base() int64 { return b.base }

// End reports the absolute offset just past the last buffered byte.
func (b *Buffer) End() int64 { return b.end }

// Append adds n bytes to the tail; if obj is non-nil it is attached so
// that it is released when the n-th of these bytes is consumed.
func (b *Buffer) Append(n int, obj any) {
	if n < 0 {
		panic("stream: negative append")
	}
	b.end += int64(n)
	if obj != nil {
		b.objs = append(b.objs, objAt{End: b.end, Obj: obj})
	}
}

// Read consumes up to max bytes from the head, returning the count and
// any objects whose byte ranges completed within the consumed span.
func (b *Buffer) Read(max int) (int, []any) {
	if max <= 0 {
		return 0, nil
	}
	n := b.Len()
	if n > max {
		n = max
	}
	b.base += int64(n)
	var out []any
	for len(b.objs) > 0 && b.objs[0].End <= b.base {
		out = append(out, b.objs[0].Obj)
		b.objs = b.objs[1:]
	}
	return n, out
}

// objAt pairs an object with the absolute stream offset just past its
// last byte.
type objAt struct {
	End int64
	Obj any
}

// ObjectsAt returns the objects whose ranges end within (from, to], each
// with its end offset; TCP segmentation uses it to attach objects to the
// segment that carries each object's final byte, and to preserve their
// placement when a retransmission re-segments the stream. The objects
// remain in the buffer (they also need to survive retransmission).
func (b *Buffer) ObjectsAt(from, to int64) []objAt {
	var out []objAt
	for _, o := range b.objs {
		if o.End > from && o.End <= to {
			out = append(out, o)
		}
	}
	return out
}

// TrimTo discards buffered bytes below offset newBase (acknowledged
// data), releasing their objects. It panics if newBase is outside the
// buffered range.
func (b *Buffer) TrimTo(newBase int64) {
	if newBase < b.base || newBase > b.end {
		panic(fmt.Sprintf("stream: TrimTo(%d) outside [%d,%d]", newBase, b.base, b.end))
	}
	b.base = newBase
	for len(b.objs) > 0 && b.objs[0].End <= b.base {
		b.objs = b.objs[1:]
	}
}
