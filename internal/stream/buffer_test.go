package stream

import (
	"testing"
	"testing/quick"
)

func TestAppendRead(t *testing.T) {
	b := NewBuffer(0)
	b.Append(10, "a")
	b.Append(5, "b")
	if b.Len() != 15 {
		t.Fatalf("len = %d", b.Len())
	}
	n, objs := b.Read(10)
	if n != 10 || len(objs) != 1 || objs[0] != "a" {
		t.Fatalf("read = %d %v", n, objs)
	}
	n, objs = b.Read(100)
	if n != 5 || len(objs) != 1 || objs[0] != "b" {
		t.Fatalf("read = %d %v", n, objs)
	}
	if b.Len() != 0 {
		t.Fatal("buffer not drained")
	}
}

func TestObjectReleasedOnlyWhenFullyConsumed(t *testing.T) {
	b := NewBuffer(0)
	b.Append(10, "x")
	n, objs := b.Read(9)
	if n != 9 || len(objs) != 0 {
		t.Fatalf("partial read released object early: %d %v", n, objs)
	}
	n, objs = b.Read(1)
	if n != 1 || len(objs) != 1 || objs[0] != "x" {
		t.Fatalf("final byte did not release object: %d %v", n, objs)
	}
}

func TestReadZeroAndNegative(t *testing.T) {
	b := NewBuffer(0)
	b.Append(5, nil)
	if n, _ := b.Read(0); n != 0 {
		t.Fatal("Read(0) consumed bytes")
	}
	if n, _ := b.Read(-3); n != 0 {
		t.Fatal("Read(-3) consumed bytes")
	}
}

func TestAppendNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative append did not panic")
		}
	}()
	NewBuffer(0).Append(-1, nil)
}

func TestNilObjectsNotTracked(t *testing.T) {
	b := NewBuffer(0)
	b.Append(100, nil)
	if b.ObjectCount() != 0 {
		t.Fatal("nil object was tracked")
	}
	_, objs := b.Read(100)
	if len(objs) != 0 {
		t.Fatal("phantom object returned")
	}
}

func TestObjectsInRange(t *testing.T) {
	b := NewBuffer(1000)
	b.Append(10, "a") // ends at 1010
	b.Append(10, "b") // ends at 1020
	b.Append(10, "c") // ends at 1030
	if got := b.ObjectsAt(1000, 1010); len(got) != 1 || got[0] != (ObjAt{End: 1010, Obj: "a"}) {
		t.Fatalf("ObjectsAt(1000,1010) = %v", got)
	}
	if got := b.ObjectsAt(1010, 1030); len(got) != 2 {
		t.Fatalf("ObjectsAt(1010,1030) = %v", got)
	}
	if got := b.ObjectsAt(1010, 1019); len(got) != 0 {
		t.Fatalf("ObjectsAt excluding ends = %v", got)
	}
	if b.ObjectCount() != 3 {
		t.Fatal("ObjectsAt must not remove objects")
	}
}

func TestTrimTo(t *testing.T) {
	b := NewBuffer(0)
	b.Append(10, "a")
	b.Append(10, "b")
	b.TrimTo(10)
	if b.Len() != 10 || b.Base() != 10 {
		t.Fatalf("after trim: len=%d base=%d", b.Len(), b.Base())
	}
	if b.ObjectCount() != 1 {
		t.Fatalf("trim did not release object a: %d left", b.ObjectCount())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("TrimTo outside range did not panic")
		}
	}()
	b.TrimTo(5)
}

func TestBaseOffsetNonZero(t *testing.T) {
	b := NewBuffer(1 << 40)
	b.Append(3, "x")
	n, objs := b.Read(3)
	if n != 3 || len(objs) != 1 {
		t.Fatal("non-zero base broke accounting")
	}
}

// Property: total bytes out equals total bytes in, and objects are
// released exactly once, in attachment order, regardless of read sizes.
func TestConservationProperty(t *testing.T) {
	f := func(writes []uint8, reads []uint8) bool {
		b := NewBuffer(0)
		totalIn := 0
		objsIn := 0
		for i, w := range writes {
			var obj any
			if w%2 == 0 {
				obj = i
				objsIn++
			}
			b.Append(int(w), obj)
			totalIn += int(w)
		}
		totalOut := 0
		var objsOut []any
		for _, r := range reads {
			n, objs := b.Read(int(r))
			totalOut += n
			objsOut = append(objsOut, objs...)
		}
		n, objs := b.Read(1 << 30)
		totalOut += n
		objsOut = append(objsOut, objs...)
		if totalOut != totalIn {
			return false
		}
		if len(objsOut) != objsIn {
			return false
		}
		prev := -1
		for _, o := range objsOut {
			v := o.(int)
			if v <= prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
