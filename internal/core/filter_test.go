package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"net"
	"testing"
)

func TestSubsampleFilter(t *testing.T) {
	f := &SubsampleFilter{RecordBytes: 4, Keep1InN: 2}
	in := []byte("aaaabbbbccccdddd")
	out, err := f.Apply("x", 0, in)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "aaaacccc" {
		t.Fatalf("subsample = %q", out)
	}
	// Degenerate configuration passes through.
	pass, _ := (&SubsampleFilter{}).Apply("x", 0, in)
	if !bytes.Equal(pass, in) {
		t.Fatal("degenerate subsample altered data")
	}
}

func TestChecksumFilterObserves(t *testing.T) {
	f := NewChecksumFilter()
	a := []byte("hello ")
	b := []byte("world")
	if out, _ := f.Apply("obj", 0, a); !bytes.Equal(out, a) {
		t.Fatal("checksum filter altered data")
	}
	_, _ = f.Apply("obj", 6, b)
	want := crc32.ChecksumIEEE([]byte("hello world"))
	if got := f.Sum("obj"); got != want {
		t.Fatalf("running crc %#x, want %#x", got, want)
	}
}

func TestMinMaxFilter(t *testing.T) {
	f := NewMinMaxFilter()
	samples := []float64{3.5, -2.25, 7.75, 0}
	buf := make([]byte, 8*len(samples))
	for i, v := range samples {
		binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(v))
	}
	if _, err := f.Apply("field", 0, buf); err != nil {
		t.Fatal(err)
	}
	lo, hi, n := f.Range("field")
	if lo != -2.25 || hi != 7.75 || n != 4 {
		t.Fatalf("range = [%v, %v] n=%d", lo, hi, n)
	}
}

func TestFilterChainComposesAndAccounts(t *testing.T) {
	chain := NewFilterChain(
		&SubsampleFilter{RecordBytes: 2, Keep1InN: 2},
		&TruncateFilter{Max: 4},
	)
	out, err := chain.Apply("x", 0, []byte("aabbccddee"))
	if err != nil {
		t.Fatal(err)
	}
	// Subsample keeps aa, cc, ee (6 bytes); truncate caps at 4.
	if string(out) != "aacc" {
		t.Fatalf("chain output %q", out)
	}
	in, outN := chain.Reduction()
	if in != 10 || outN != 4 {
		t.Fatalf("reduction %d->%d", in, outN)
	}
}

func TestFilterChainErrorPropagates(t *testing.T) {
	boom := errors.New("bad record")
	chain := NewFilterChain(filterFunc(func(name string, off int64, d []byte) ([]byte, error) {
		return nil, boom
	}))
	if _, err := chain.Apply("x", 0, []byte("data")); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

// TestServerSideReduction is the paper's future-work scenario end to end:
// the forwarding node subsamples the stream, so storage receives less than
// the application wrote while the application sees full-size acknowledged
// writes.
func TestServerSideReduction(t *testing.T) {
	backend := NewMemBackend()
	chain := NewFilterChain(&SubsampleFilter{RecordBytes: 8, Keep1InN: 4})
	srv := NewServer(Config{Mode: ModeAsync, Workers: 2, Backend: backend, Filters: chain})
	cc, sc := net.Pipe()
	go func() { _ = srv.ServeConn(sc) }()
	c := pipeClient(t, ClientConfig{}, cc)
	defer c.Close()
	defer srv.Close()

	f, err := c.Open(context.Background(), "reduced")
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("01234567"), 128) // 1024 bytes, 128 records
	for i := 0; i < 4; i++ {
		n, err := f.Write(payload)
		if err != nil || n != len(payload) {
			t.Fatalf("write: n=%d err=%v", n, err)
		}
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	size, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	want := int64(4 * 1024 / 4) // one record in four survives
	if size != want {
		t.Fatalf("stored %d bytes, want %d", size, want)
	}
	if in, out := chain.Reduction(); in != 4096 || out != uint64(want) {
		t.Fatalf("chain accounted %d->%d", in, out)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestObserveOnlyFilterKeepsDataIntact runs a checksum filter in the write
// path and verifies both the stored bytes and the observed checksum.
func TestObserveOnlyFilterKeepsDataIntact(t *testing.T) {
	backend := NewMemBackend()
	sum := NewChecksumFilter()
	srv := NewServer(Config{Mode: ModeWorkQueue, Workers: 1, Backend: backend, Filters: NewFilterChain(sum)})
	cc, sc := net.Pipe()
	go func() { _ = srv.ServeConn(sc) }()
	c := pipeClient(t, ClientConfig{}, cc)
	defer c.Close()
	defer srv.Close()

	f, err := c.Open(context.Background(), "intact")
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0xAB}, 9000)
	if _, err := f.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, ok := backend.Bytes("intact")
	if !ok || !bytes.Equal(got, payload) {
		t.Fatal("observe-only filter corrupted data")
	}
	if sum.Sum("intact") != crc32.ChecksumIEEE(payload) {
		t.Fatal("checksum mismatch")
	}
}

// filterFunc adapts a function to Filter for tests.
type filterFunc func(name string, off int64, data []byte) ([]byte, error)

func (f filterFunc) Name() string { return "func" }
func (f filterFunc) Apply(name string, off int64, data []byte) ([]byte, error) {
	return f(name, off, data)
}
