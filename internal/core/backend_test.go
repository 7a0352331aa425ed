package core

import (
	"bytes"
	"errors"
	"testing"
	"time"
)

func TestMemBackendGrowAndOverwrite(t *testing.T) {
	b := NewMemBackend()
	h, err := b.Open("f", true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.WriteAt([]byte("world"), 6); err != nil {
		t.Fatal(err)
	}
	if _, err := h.WriteAt([]byte("hello "), 0); err != nil {
		t.Fatal(err)
	}
	size, _ := h.Size()
	if size != 11 {
		t.Fatalf("size %d", size)
	}
	buf := make([]byte, 11)
	n, err := h.ReadAt(buf, 0)
	if err != nil || n != 11 || string(buf) != "hello world" {
		t.Fatalf("read %q n=%d err=%v", buf[:n], n, err)
	}
	// Read past EOF returns 0 bytes, no error (protocol-level short read).
	if n, err := h.ReadAt(buf, 100); n != 0 || err != nil {
		t.Fatalf("past-EOF read n=%d err=%v", n, err)
	}
}

// TestMemBackendAppendAmortised: an append stream grows capacity
// geometrically (allocations O(log n), not one whole-file copy per write),
// Size stays exact, the data is byte-identical, and a sparse write past EOF
// into reused capacity reads zeros in the hole.
func TestMemBackendAppendAmortised(t *testing.T) {
	const chunk, n = 4 << 10, 4096
	b := NewMemBackend()
	h, err := b.Open("f", true)
	if err != nil {
		t.Fatal(err)
	}
	block := make([]byte, chunk)
	want := make([]byte, 0, chunk*n)
	for i := 0; i < n; i++ {
		for j := range block {
			block[j] = byte(i + j)
		}
		if _, err := h.WriteAt(block, int64(i*chunk)); err != nil {
			t.Fatal(err)
		}
		want = append(want, block...)
	}
	if size, _ := h.Size(); size != chunk*n {
		t.Fatalf("size %d, want %d", size, chunk*n)
	}
	if got, _ := b.Bytes("f"); !bytes.Equal(got, want) {
		t.Fatal("appended data differs")
	}

	allocs := testing.AllocsPerRun(1, func() {
		g, _ := NewMemBackend().Open("g", true)
		for i := 0; i < n; i++ {
			_, _ = g.WriteAt(block, int64(i*chunk))
		}
	})
	if allocs > 40 { // log2(4096) = 12 growths plus the backend and file
		t.Fatalf("%v allocs for %d appends, want O(log n)", allocs, n)
	}

	// Sparse extend inside reused capacity: the hole reads as zeros even
	// though the spare capacity holds stale bytes.
	s, _ := NewMemBackend().Open("s", true)
	mf := s.(*memFile)
	mf.data = bytes.Repeat([]byte{0xAA}, 64)[:4]
	if _, err := s.WriteAt([]byte("tail"), 32); err != nil {
		t.Fatal(err)
	}
	if size, _ := s.Size(); size != 36 {
		t.Fatalf("sparse size %d, want 36", size)
	}
	hole := make([]byte, 28)
	if _, err := s.ReadAt(hole, 4); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(hole, make([]byte, 28)) {
		t.Fatalf("hole exposes stale bytes: %x", hole)
	}
	if cap(mf.data) != 64 {
		t.Fatalf("sparse extend reallocated (cap %d), want reused capacity", cap(mf.data))
	}
}

func TestMemBackendOpenMissing(t *testing.T) {
	b := NewMemBackend()
	if _, err := b.Open("missing", false); !errors.Is(err, ENOENT) {
		t.Fatalf("err = %v", err)
	}
}

func TestNullBackend(t *testing.T) {
	h, err := NullBackend{}.Open("whatever", false)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := h.WriteAt(make([]byte, 1000), 0); n != 1000 || err != nil {
		t.Fatalf("write n=%d err=%v", n, err)
	}
	buf := []byte{1, 2, 3}
	if _, err := h.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, []byte{0, 0, 0}) {
		t.Fatal("null read not zeroed")
	}
}

func TestFileBackend(t *testing.T) {
	dir := t.TempDir()
	b := NewFileBackend(dir)
	h, err := b.Open("sub/dir/file.bin", true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.WriteAt([]byte("persisted"), 0); err != nil {
		t.Fatal(err)
	}
	if err := h.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	h2, err := b.Open("sub/dir/file.bin", false)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 9)
	if _, err := h2.ReadAt(buf, 0); err != nil || string(buf) != "persisted" {
		t.Fatalf("read back %q err=%v", buf, err)
	}
	_ = h2.Close()
	if _, err := b.Open("nope", false); !errors.Is(err, ENOENT) {
		t.Fatalf("missing file: %v", err)
	}
}

func TestFileBackendConfinesPaths(t *testing.T) {
	dir := t.TempDir()
	b := NewFileBackend(dir)
	// Escaping paths are cleaned into the root rather than walking out.
	h, err := b.Open("../../etc/escape-attempt", true)
	if err != nil {
		t.Fatal(err)
	}
	_ = h.Close()
	if _, err := b.Open("etc/escape-attempt", false); err != nil {
		t.Fatalf("cleaned path not under root: %v", err)
	}
}

func TestSinkBackendThrottles(t *testing.T) {
	// 1 MiB/s sink: a 128 KiB write must take ~125 ms.
	b := NewSinkBackend(NewMemBackend(), 1<<20, 0)
	h, err := b.Open("slow", true)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := h.WriteAt(make([]byte, 128<<10), 0); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 100*time.Millisecond {
		t.Fatalf("write completed in %v; throttle not applied", d)
	}
}

func TestSinkBackendSerializesConcurrentOps(t *testing.T) {
	b := NewSinkBackend(NewMemBackend(), 1<<20, 0)
	h, _ := b.Open("slow", true)
	start := time.Now()
	done := make(chan struct{}, 2)
	for i := 0; i < 2; i++ {
		i := i
		go func() {
			_, _ = h.WriteAt(make([]byte, 64<<10), int64(i)*64<<10)
			done <- struct{}{}
		}()
	}
	<-done
	<-done
	// Two 62.5 ms operations through a serial sink take ~125 ms total.
	if d := time.Since(start); d < 100*time.Millisecond {
		t.Fatalf("concurrent ops completed in %v; sink did not serialize", d)
	}
}
