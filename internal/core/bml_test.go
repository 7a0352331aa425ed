package core

import (
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/policy"
)

// The BML hands out buffers whose capacity is the rounded class: the
// smallest power of two, at least policy.MinClass, that holds the request.
func TestClassForPowersOfTwo(t *testing.T) {
	b := NewBML(4 << 20)
	for _, c := range []struct {
		n    int
		want int
	}{
		{0, 4096}, {1, 4096}, {4096, 4096}, {4097, 8192},
		{8192, 8192}, {10000, 16384}, {1 << 20, 1 << 20}, {(1 << 20) + 1, 2 << 20},
	} {
		buf := b.Get(c.n)
		if len(buf) != c.n || cap(buf) != c.want {
			t.Errorf("Get(%d): len=%d cap=%d, want cap %d", c.n, len(buf), cap(buf), c.want)
		}
		b.Put(buf)
	}
}

func TestClassForProperty(t *testing.T) {
	b := NewBML(1 << 20)
	prop := func(n uint16) bool {
		buf := b.Get(int(n))
		defer b.Put(buf)
		c := int64(cap(buf))
		// Power of two, at least the minimum class, and holds n without
		// wasting more than half (above the minimum class).
		if c&(c-1) != 0 || c < policy.MinClass || c < int64(n) {
			return false
		}
		return int64(n) <= policy.MinClass || c < 2*int64(n)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
	if used := b.Used(); used != 0 {
		t.Fatalf("pool holds %d bytes after every buffer was returned", used)
	}
}

func TestBMLReuse(t *testing.T) {
	b := NewBML(1 << 20)
	buf := b.Get(5000)
	if len(buf) != 5000 || cap(buf) != 8192 {
		t.Fatalf("len=%d cap=%d", len(buf), cap(buf))
	}
	b.Put(buf)
	buf2 := b.Get(6000)
	if cap(buf2) != 8192 {
		t.Fatalf("second cap %d", cap(buf2))
	}
	st := b.Stats()
	if st.Allocs != 2 || st.Fresh != 1 {
		t.Fatalf("stats %+v, want 2 allocs 1 fresh", st)
	}
	b.Put(buf2)
	if b.Used() != 0 {
		t.Fatalf("used %d after all returned", b.Used())
	}
}

func TestBMLNeverExceedsCapacity(t *testing.T) {
	const capacity = 64 * 1024
	b := NewBML(capacity)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				buf := b.Get(5000)
				if u := b.Used(); u > capacity {
					t.Errorf("used %d exceeds capacity", u)
				}
				time.Sleep(time.Microsecond)
				b.Put(buf)
			}
		}()
	}
	wg.Wait()
	if b.Used() != 0 {
		t.Fatalf("used %d at end", b.Used())
	}
	if st := b.Stats(); st.Peak > capacity {
		t.Fatalf("peak %d exceeds capacity", st.Peak)
	}
}

func TestBMLBlocksUntilPut(t *testing.T) {
	b := NewBML(8192)
	first := b.Get(8000)
	released := make(chan struct{})
	got := make(chan struct{})
	go func() {
		b.Get(8000) // must block: pool is full
		close(got)
	}()
	go func() {
		time.Sleep(20 * time.Millisecond)
		close(released)
		b.Put(first)
	}()
	select {
	case <-got:
		select {
		case <-released:
		default:
			t.Fatal("second Get returned before Put")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("second Get never returned")
	}
	if b.Stats().Stalls == 0 {
		t.Fatal("no stall recorded")
	}
}

func TestBMLOversizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for over-capacity class")
		}
	}()
	NewBML(8192).Get(9000)
}

func TestBMLPutForeignBufferPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for non-pool buffer")
		}
	}()
	NewBML(8192).Put(make([]byte, 1000))
}
