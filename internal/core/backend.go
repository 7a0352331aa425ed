package core

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Backend supplies the terminal I/O a forwarding server executes on behalf
// of its clients — the role the ION's local filesystem, GPFS mount, or
// analysis-node socket plays on the real machine.
type Backend interface {
	// Open opens (creating if create is set) the named object.
	Open(name string, create bool) (Handle, error)
}

// Handle is one open backend object.
type Handle interface {
	WriteAt(b []byte, off int64) (int, error)
	ReadAt(b []byte, off int64) (int, error)
	Sync() error
	Size() (int64, error)
	Close() error
}

// --- Memory backend ---

// MemBackend keeps objects in memory; it is the default for tests and for
// benchmarks that must not measure the local disk. The name map is guarded
// by an RWMutex so the hot path (opening an object that already exists)
// never serializes against other readers; each file carries its own lock,
// so traffic to different objects does not contend at all.
type MemBackend struct {
	mu    sync.RWMutex
	files map[string]*memFile
}

// NewMemBackend returns an empty in-memory backend.
func NewMemBackend() *MemBackend {
	return &MemBackend{files: make(map[string]*memFile)}
}

// Open implements Backend.
func (m *MemBackend) Open(name string, create bool) (Handle, error) {
	m.mu.RLock()
	f, ok := m.files[name]
	m.mu.RUnlock()
	if ok {
		return f, nil
	}
	if !create {
		return nil, ENOENT
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if f, ok := m.files[name]; ok {
		return f, nil
	}
	f = &memFile{}
	m.files[name] = f
	return f, nil
}

// Bytes returns a copy of the named object's contents, for verification.
func (m *MemBackend) Bytes(name string) ([]byte, bool) {
	m.mu.RLock()
	f, ok := m.files[name]
	m.mu.RUnlock()
	if !ok {
		return nil, false
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	out := make([]byte, len(f.data))
	copy(out, f.data)
	return out, true
}

type memFile struct {
	mu   sync.RWMutex
	data []byte
}

func (f *memFile) WriteAt(b []byte, off int64) (int, error) {
	if off < 0 {
		return 0, EINVAL
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	end := off + int64(len(b))
	if old := int64(len(f.data)); end > old {
		// Grow capacity geometrically so an append stream is amortised
		// O(1) per byte, and zero a hole a sparse write leaves in reused
		// capacity so it never exposes stale bytes.
		if end > int64(cap(f.data)) {
			grown := make([]byte, end, max(end, 2*int64(cap(f.data))))
			copy(grown, f.data)
			f.data = grown
		} else {
			f.data = f.data[:end]
			if off > old {
				clear(f.data[old:off])
			}
		}
	}
	copy(f.data[off:end], b)
	return len(b), nil
}

func (f *memFile) ReadAt(b []byte, off int64) (int, error) {
	if off < 0 {
		return 0, EINVAL
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	if off >= int64(len(f.data)) {
		return 0, nil
	}
	n := copy(b, f.data[off:])
	return n, nil
}

func (f *memFile) Sync() error { return nil }

func (f *memFile) Size() (int64, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return int64(len(f.data)), nil
}

func (f *memFile) Close() error { return nil }

// --- Null backend ---

// NullBackend discards writes and reads zeros — the /dev/null target of the
// paper's collective-network microbenchmark (Section III-A).
type NullBackend struct{}

// Open implements Backend.
func (NullBackend) Open(name string, create bool) (Handle, error) { return nullHandle{}, nil }

type nullHandle struct{}

func (nullHandle) WriteAt(b []byte, off int64) (int, error) { return len(b), nil }
func (nullHandle) ReadAt(b []byte, off int64) (int, error) {
	for i := range b {
		b[i] = 0
	}
	return len(b), nil
}
func (nullHandle) Sync() error          { return nil }
func (nullHandle) Size() (int64, error) { return 0, nil }
func (nullHandle) Close() error         { return nil }

// --- OS file backend ---

// FileBackend stores objects as files under a root directory.
type FileBackend struct {
	Root string
}

// NewFileBackend returns a backend rooted at dir.
func NewFileBackend(dir string) *FileBackend { return &FileBackend{Root: dir} }

// Open implements Backend. Paths are confined to the root.
func (b *FileBackend) Open(name string, create bool) (Handle, error) {
	clean := filepath.Clean("/" + name)
	full := filepath.Join(b.Root, clean)
	flags := os.O_RDWR
	if create {
		flags |= os.O_CREATE
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			return nil, fmt.Errorf("core: mkdir for %q: %w", name, err)
		}
	}
	f, err := os.OpenFile(full, flags, 0o644)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, ENOENT
		}
		return nil, err
	}
	return osHandle{f}, nil
}

type osHandle struct{ f *os.File }

func (h osHandle) WriteAt(b []byte, off int64) (int, error) { return h.f.WriteAt(b, off) }
func (h osHandle) ReadAt(b []byte, off int64) (int, error) {
	n, err := h.f.ReadAt(b, off)
	if err != nil && n > 0 {
		err = nil // short read at EOF is fine for this protocol
	} else if err != nil && err.Error() == "EOF" {
		err = nil
	}
	return n, err
}
func (h osHandle) Sync() error { return h.f.Sync() }
func (h osHandle) Size() (int64, error) {
	st, err := h.f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}
func (h osHandle) Close() error { return h.f.Close() }

// --- Rate-limited sink backend ---

// SinkBackend wraps a Backend and throttles its data path to a fixed
// bandwidth, emulating the slow external sink (a shared 10 GbE link, a busy
// parallel filesystem) that makes overlap worth having. It is what lets the
// benchmarks reproduce the paper's crossovers on a development machine whose
// local I/O is far faster than its CPUs are relative to Intrepid's.
type SinkBackend struct {
	Inner Backend
	// BytesPerSec is the sustained bandwidth of the sink.
	BytesPerSec int64
	// PerOp is a fixed latency added to every operation.
	PerOp time.Duration

	mu    sync.Mutex
	avail time.Time // time at which the sink is next free
}

// NewSinkBackend wraps inner with a bandwidth throttle.
func NewSinkBackend(inner Backend, bytesPerSec int64, perOp time.Duration) *SinkBackend {
	return &SinkBackend{Inner: inner, BytesPerSec: bytesPerSec, PerOp: perOp}
}

// Open implements Backend.
func (s *SinkBackend) Open(name string, create bool) (Handle, error) {
	h, err := s.Inner.Open(name, create)
	if err != nil {
		return nil, err
	}
	return &sinkHandle{b: s, inner: h}, nil
}

// wait blocks the caller for n bytes of sink time. The sink is a shared
// serial resource: concurrent operations queue, like streams sharing a
// link.
func (s *SinkBackend) wait(n int) {
	cost := s.PerOp
	if s.BytesPerSec > 0 {
		cost += time.Duration(float64(n) / float64(s.BytesPerSec) * float64(time.Second))
	}
	if cost <= 0 {
		return
	}
	s.mu.Lock()
	now := time.Now()
	start := s.avail
	if start.Before(now) {
		start = now
	}
	s.avail = start.Add(cost)
	ready := s.avail
	s.mu.Unlock()
	time.Sleep(time.Until(ready))
}

type sinkHandle struct {
	b     *SinkBackend
	inner Handle
}

func (h *sinkHandle) WriteAt(b []byte, off int64) (int, error) {
	h.b.wait(len(b))
	return h.inner.WriteAt(b, off)
}

func (h *sinkHandle) ReadAt(b []byte, off int64) (int, error) {
	h.b.wait(len(b))
	return h.inner.ReadAt(b, off)
}

func (h *sinkHandle) Sync() error          { return h.inner.Sync() }
func (h *sinkHandle) Size() (int64, error) { return h.inner.Size() }
func (h *sinkHandle) Close() error         { return h.inner.Close() }
