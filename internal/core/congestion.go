package core

import (
	"context"
	"sync"
	"time"
)

// admission caps a Client's in-flight operations at WindowConfig.Max. It is
// a counting semaphore whose slots are the elements buffered in a channel:
// every operation takes a slot before it touches the wire and gives it back
// when its response (or deadline) arrives. A caller that finds every slot
// taken parks on the channel send. The runtime queues parked senders in
// arrival order and moves the oldest one's element into the slot a release
// frees, so a release hands its slot to the oldest waiter and a newcomer
// cannot overtake a parked caller.
//
// The cap does no congestion control of its own. The server's
// back-pressure is the control (a reply that waits for the backend or for
// staging memory); the cap bounds what one client can have queued there,
// and a full cap is the coalescer's signal that writes are already waiting.
type admission struct {
	slots chan struct{}
	done  chan struct{} // closed by close, after err is set
	err   error
	once  sync.Once

	mu   sync.Mutex
	srtt time.Duration
}

func newAdmission(max int) *admission {
	return &admission{slots: make(chan struct{}, max), done: make(chan struct{})}
}

// acquire blocks until an in-flight slot is free, the context ends, or the
// client fails terminally. A caller whose context ends while it is parked
// leaves without a slot, so the count stays exact.
func (a *admission) acquire(ctx context.Context) error {
	select {
	case <-a.done:
		return a.err
	default:
	}
	select {
	case a.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-a.done:
		return a.err
	}
}

// release returns a slot taken by acquire.
func (a *admission) release() { <-a.slots }

// hasRoom reports whether a slot is free right now. The coalescer uses it as
// the merge trigger: a full cap means writes are already waiting, so merging
// them costs no extra latency. The probe is advisory — a slot it sees may be
// taken before the caller acquires it — which at worst turns one coalescing
// opportunity into a short wait. While any caller is parked every slot is
// taken, so a parked caller also reads as no room.
func (a *admission) hasRoom() bool { return len(a.slots) < cap(a.slots) }

// close delivers err to every parked and future acquire. Slots already held
// stay held; their operations are failed by Client.failLocked.
func (a *admission) close(err error) {
	a.once.Do(func() {
		a.err = err
		close(a.done)
	})
}

// sample folds the round trip of a clean, non-replayed operation into the
// smoothed RTT (gain 1/8, the RFC 6298 weight). Only Stats reads it.
func (a *admission) sample(rtt time.Duration) {
	a.mu.Lock()
	if a.srtt == 0 {
		a.srtt = rtt
	} else {
		a.srtt += (rtt - a.srtt) / 8
	}
	a.mu.Unlock()
}

// snapshot returns the cap, the smoothed RTT and the in-flight count for
// Stats.
func (a *admission) snapshot() (limit int, srtt time.Duration, inflight int) {
	a.mu.Lock()
	srtt = a.srtt
	a.mu.Unlock()
	return cap(a.slots), srtt, len(a.slots)
}
