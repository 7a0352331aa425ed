package policy

import (
	"errors"
	"slices"
	"testing"
	"testing/quick"
)

func TestClass(t *testing.T) {
	for _, c := range []struct{ n, want int64 }{
		{0, 4096}, {1, 4096}, {4096, 4096}, {4097, 8192}, {8192, 8192},
		{10000, 16384}, {1 << 20, 1 << 20}, {(1 << 20) + 1, 2 << 20},
	} {
		if got := Class(c.n); got != c.want {
			t.Errorf("Class(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	// A power of two, at least MinClass, that holds n and wastes at most
	// half of itself above MinClass.
	prop := func(n uint32) bool {
		c := Class(int64(n))
		return c&(c-1) == 0 && c >= MinClass && c >= int64(n) && (int64(n) <= MinClass || c < 2*int64(n))
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHome(t *testing.T) {
	for _, c := range []struct {
		key  uint64
		n    int
		want int
	}{{0, 1, 0}, {7, 1, 0}, {3, 4, 3}, {4, 4, 0}, {9, 4, 1}, {1<<64 - 1, 3, 0}} {
		if got := Home(c.key, c.n); got != c.want {
			t.Errorf("Home(%d, %d) = %d, want %d", c.key, c.n, got, c.want)
		}
	}
}

// op is a queued task in the take tests: descriptor d, its n-th operation.
type op struct {
	d string
	n int
}

func opDesc(o op) string { return o.d }

func TestTake(t *testing.T) {
	a1, a2, a3, b1, b2, c1 := op{"a", 1}, op{"a", 2}, op{"a", 3}, op{"b", 1}, op{"b", 2}, op{"c", 1}
	for _, c := range []struct {
		name      string
		queue     []op
		executing map[string]int
		limit     int
		batch     []op
		rest      []op
	}{
		{"whole queue", []op{a1, b1, a2}, nil, 8, []op{a1, b1, a2}, []op{}},
		{"limit cuts the FIFO", []op{a1, b1, a2, c1}, nil, 2, []op{a1, b1}, []op{a2, c1}},
		{"limit 0", []op{a1, b1}, nil, 0, []op{}, []op{a1, b1}},
		{"empty queue", nil, nil, 4, []op{}, []op{}},
		// a's earlier tasks run on another worker: none of a's may leave,
		// not even behind a task this batch holds.
		{"executing elsewhere", []op{a2, b1, a3, b2}, map[string]int{"a": 1}, 8, []op{b1, b2}, []op{a2, a3}},
		// A thief's half of the queue: a whole prefix of a, then b.
		{"stolen prefix", []op{a1, a2, a3, b1}, nil, 2, []op{a1, a2}, []op{a3, b1}},
		{"a blocked descriptor takes no slot", []op{a2, a3, c1}, map[string]int{"a": 2}, 1, []op{c1}, []op{a2, a3}},
	} {
		t.Run(c.name, func(t *testing.T) {
			exec := map[string]int{}
			for k, v := range c.executing {
				exec[k] = v
			}
			// Runnable holds exactly when Take, given room, returns a task.
			if runnable := Runnable(c.queue, opDesc, exec); c.limit > 0 && runnable != (len(c.batch) > 0) {
				t.Fatalf("Runnable = %v for a batch of %v", runnable, c.batch)
			}
			rest, batch := Take(slices.Clone(c.queue), nil, c.limit, opDesc, exec)
			if !slices.Equal(batch, c.batch) || !slices.Equal(rest, c.rest) {
				t.Fatalf("batch %v rest %v, want batch %v rest %v", batch, rest, c.batch, c.rest)
			}
			for _, o := range c.batch {
				if exec[o.d] <= c.executing[o.d] {
					t.Fatalf("taken descriptor %s not counted executing: %v", o.d, exec)
				}
			}
			Finish(batch, opDesc, exec)
			if !sameCounts(exec, c.executing) {
				t.Fatalf("after Finish executing = %v, want %v", exec, c.executing)
			}
		})
	}

	// A stolen prefix blocks the rest of its descriptor on the victim until
	// the thief finishes, then the owner takes the rest.
	exec := map[string]int{}
	queue, stolen := Take([]op{a1, a2, b1, a3}, nil, 2, opDesc, exec)
	queue, owned := Take(queue, nil, 8, opDesc, exec)
	if !slices.Equal(stolen, []op{a1, a2}) || !slices.Equal(owned, []op{b1}) || !slices.Equal(queue, []op{a3}) {
		t.Fatalf("stolen %v, owner took %v, left %v", stolen, owned, queue)
	}
	if Runnable(queue, opDesc, exec) {
		t.Fatal("a3 is runnable while the thief holds a1 and a2")
	}
	Finish(stolen, opDesc, exec)
	if !Runnable(queue, opDesc, exec) {
		t.Fatal("a3 is not runnable after the thief finished")
	}
	if queue, owned = Take(queue, nil, 8, opDesc, exec); !slices.Equal(owned, []op{a3}) || len(queue) != 0 {
		t.Fatalf("after the thief finished the owner took %v, left %v", owned, queue)
	}

	// The batch reuses out's array: no allocation while it has room.
	out := make([]op, 0, 4)
	q := []op{a1, b1, c1}
	if allocs := testing.AllocsPerRun(100, func() {
		_, b := Take(q[:3:3], out, 4, opDesc, exec)
		Finish(b, opDesc, exec)
		q = append(q[:0], a1, b1, c1)
	}); allocs != 0 {
		t.Fatalf("Take allocated %.0f times per call", allocs)
	}
}

// sameCounts reports whether got holds exactly want's non-zero counts.
func sameCounts(got, want map[string]int) bool {
	n := 0
	for k, v := range want {
		if v != 0 {
			n++
			if got[k] != v {
				return false
			}
		}
	}
	return len(got) == n
}

func TestSteal(t *testing.T) {
	for _, c := range []struct {
		depth, limit int
		drain        bool
		want         int
	}{
		{1, 8, false, 1}, {2, 8, false, 1}, {5, 8, false, 3}, {20, 8, false, 8},
		{5, 8, true, 5}, {20, 8, true, 8}, {0, 8, true, 0}, {5, 0, false, 0},
	} {
		if got := StealCount(c.depth, c.limit, c.drain); got != c.want {
			t.Errorf("StealCount(%d, %d, drain=%v) = %d, want %d", c.depth, c.limit, c.drain, got, c.want)
		}
	}
	depth := func(d int) int { return d }
	for _, c := range []struct {
		depths []int
		own    int
		want   int
	}{
		{[]int{0, 3, 3}, 0, 1},    // a tie goes to the lowest index
		{[]int{3, 0, 3}, 1, 0},    // likewise with own between them
		{[]int{9, 2, 5}, 0, 2},    // own is never the victim, however deep
		{[]int{4, 0, 0}, 0, -1},   // every sibling empty
		{[]int{0}, 0, -1},         // no siblings
		{[]int{1, 2, 7, 7}, 3, 2}, // the deepest sibling, not the nearest
	} {
		if got := Victim(c.depths, c.own, depth); got != c.want {
			t.Errorf("Victim(%v, own %d) = %d, want %d", c.depths, c.own, got, c.want)
		}
	}
}

func TestDeferred(t *testing.T) {
	first, second := errors.New("first"), errors.New("second")
	var d Deferred
	d.Record(1, nil)
	if op, err := d.Take(); err != nil || op != 0 {
		t.Fatalf("nothing failed, Take = %d, %v", op, err)
	}
	d.Record(2, first)
	d.Record(3, second)
	d.Record(4, nil)
	if op, err := d.Take(); err != first || op != 2 {
		t.Fatalf("Take = %d, %v, want the first error, from op 2", op, err)
	}
	if op, err := d.Take(); err != nil || op != 0 {
		t.Fatalf("second Take = %d, %v, want nothing: an error is reported once", op, err)
	}
	d.Record(5, second)
	if op, err := d.Take(); err != second || op != 5 {
		t.Fatalf("Take after clearing = %d, %v, want the next error, from op 5", op, err)
	}
}
