package fault

import (
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
)

// CrashSet schedules deterministic process kills at named crash points —
// the recovery-drill side of fault injection. Code under test (the WAL
// spill tier) calls Fire("before-truncate") etc. at its crash points; a
// CrashSet armed with "before-truncate:3" SIGKILLs the process on the third
// hit of that point. The schedule is a pure function of the per-point hit
// count (an op index, not a clock or an RNG), so a kill/restart drill is
// exactly reproducible: same workload, same kill site.
//
// The zero kill function is a real self-SIGKILL — no deferred functions,
// no flushes, exactly what a node power loss looks like to the WAL. Tests
// that only want to observe firing override Kill.
type CrashSet struct {
	mu   sync.Mutex
	plan map[string]uint64 // point -> 1-based hit number to kill at
	hits map[string]uint64

	// Kill is invoked when a planned hit is reached. Nil means SIGKILL the
	// current process (which never returns).
	Kill func(point string)
}

// ParseCrash builds a CrashSet from a compact flag spec, e.g.
//
//	mid-batch-append:3,before-truncate:1
//
// Each element is point:N, killing at the Nth hit of that point (N >= 1);
// a bare point name means its first hit. valid is every point the code
// under test fires: a name outside it would arm a drill that never kills
// and reads as a pass, so it is rejected.
func ParseCrash(spec string, valid []string) (*CrashSet, error) {
	cs := &CrashSet{plan: make(map[string]uint64), hits: make(map[string]uint64)}
	if spec == "" {
		return cs, nil
	}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		point, ns, hasN := strings.Cut(part, ":")
		if !slices.Contains(valid, point) {
			return nil, fmt.Errorf("fault: unknown crash point %q (valid: %s)", point, strings.Join(valid, ", "))
		}
		n := uint64(1)
		if hasN {
			var err error
			n, err = strconv.ParseUint(ns, 10, 64)
			if err != nil || n == 0 {
				return nil, fmt.Errorf("fault: crash point %q wants point:N with N >= 1", part)
			}
		}
		if _, dup := cs.plan[point]; dup {
			return nil, fmt.Errorf("fault: crash point %q configured twice", point)
		}
		cs.plan[point] = n
	}
	return cs, nil
}

// Armed reports whether any crash point is planned.
func (cs *CrashSet) Armed() bool {
	if cs == nil {
		return false
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return len(cs.plan) > 0
}

// Fire records one hit of the named crash point and kills the process if
// the plan says this hit is the one. It is safe on a nil receiver (no-op),
// so call sites can pass cs.Fire around unconditionally.
func (cs *CrashSet) Fire(point string) {
	if cs == nil {
		return
	}
	cs.mu.Lock()
	cs.hits[point]++
	kill := cs.plan[point] != 0 && cs.hits[point] == cs.plan[point]
	fn := cs.Kill
	cs.mu.Unlock()
	if !kill {
		return
	}
	if fn != nil {
		fn(point)
		return
	}
	// A real crash: no exit handlers, no flushes. Kill never fails against
	// our own pid; if the signal is somehow delayed, hard-exit anyway so
	// the drill cannot continue past its kill site.
	_ = syscall.Kill(os.Getpid(), syscall.SIGKILL)
	os.Exit(137)
}

// Hits returns how many times the named point has fired, for tests.
func (cs *CrashSet) Hits(point string) uint64 {
	if cs == nil {
		return 0
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.hits[point]
}
