package fault

import (
	"strings"
	"testing"
)

// points stands in for the list the code under test exports (wal.CrashPoints).
var points = []string{"mid-batch-append", "before-truncate", "after-truncate", "p"}

func TestParseCrash(t *testing.T) {
	cs, err := ParseCrash("mid-batch-append:3, before-truncate:1 ,after-truncate", points)
	if err != nil {
		t.Fatal(err)
	}
	if !cs.Armed() {
		t.Fatal("parsed spec is not armed")
	}
	want := map[string]uint64{"mid-batch-append": 3, "before-truncate": 1, "after-truncate": 1}
	for point, n := range want {
		if cs.plan[point] != n {
			t.Fatalf("plan[%s] = %d, want %d", point, cs.plan[point], n)
		}
	}
	if len(cs.plan) != len(want) {
		t.Fatalf("plan has %d points, want %d", len(cs.plan), len(want))
	}
}

func TestParseCrashEmpty(t *testing.T) {
	cs, err := ParseCrash("", points)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Armed() {
		t.Fatal("empty spec must not arm any point")
	}
	cs.Fire("anything") // must be a no-op, not a kill
	if cs.Hits("anything") != 1 {
		t.Fatal("unplanned hits must still be counted")
	}
}

func TestParseCrashErrors(t *testing.T) {
	for _, spec := range []string{
		"before-truncate:0",               // N must be >= 1
		"before-truncate:x",               // N must be a number
		":3",                              // empty point name
		"before-truncate,before-truncate", // duplicate point
		"before-trunctae:1",               // a point nothing fires: the drill could never kill
	} {
		if _, err := ParseCrash(spec, points); err == nil {
			t.Fatalf("ParseCrash(%q) accepted a bad spec", spec)
		}
	}
	_, err := ParseCrash("no-such-point", points)
	if err == nil || !strings.Contains(err.Error(), strings.Join(points, ", ")) {
		t.Fatalf("unknown point error %v does not list the valid points", err)
	}
}

func TestFireKillsAtNthHit(t *testing.T) {
	cs, err := ParseCrash("p:3", points)
	if err != nil {
		t.Fatal(err)
	}
	var killed []string
	cs.Kill = func(point string) { killed = append(killed, point) }
	for i := 0; i < 5; i++ {
		cs.Fire("p")
		cs.Fire("other") // unplanned point never kills
	}
	if len(killed) != 1 || killed[0] != "p" {
		t.Fatalf("killed = %v, want exactly one kill of p", killed)
	}
	if cs.Hits("p") != 5 || cs.Hits("other") != 5 {
		t.Fatalf("hits = %d/%d, want 5/5", cs.Hits("p"), cs.Hits("other"))
	}
}

func TestFireNilReceiver(t *testing.T) {
	var cs *CrashSet
	cs.Fire("p") // must not panic
	if cs.Armed() || cs.Hits("p") != 0 {
		t.Fatal("nil CrashSet must be inert")
	}
}
