package serve

import (
	"context"
	"errors"
	"sync/atomic"
	"time"
)

// errShed is the admission-control rejection; handlers map it to 429
// with a Retry-After header.
var errShed = errors.New("serve: saturated, request shed")

// queueWait bounds how long a queued request waits for a slot before
// it is shed.
const queueWait = 100 * time.Millisecond

// admission is a bounded in-flight semaphore with a short
// deadline-aware wait queue as deep as the semaphore. Slots model
// requests executing on the engine; the queue absorbs bursts slightly
// above capacity without letting latency grow unboundedly — a waiter
// is shed when the queue is full on arrival, when its bounded wait
// elapses, or when its own deadline expires first.
type admission struct {
	slots  chan struct{} // buffered to maxInflight; len() = in flight
	wait   time.Duration // queueWait; a test may lengthen it
	queued atomic.Int64
}

func newAdmission(maxInflight int) *admission {
	return &admission{slots: make(chan struct{}, maxInflight), wait: queueWait}
}

// acquire takes an in-flight slot, waiting in the bounded queue if
// none is free. A nil return must be balanced by release.
func (a *admission) acquire(ctx context.Context) error {
	// Fast path: a slot is free, skip the queue accounting entirely.
	select {
	case a.slots <- struct{}{}:
		return nil
	default:
	}
	if a.queued.Add(1) > int64(cap(a.slots)) {
		a.queued.Add(-1)
		return errShed
	}
	defer a.queued.Add(-1)
	t := time.NewTimer(a.wait)
	defer t.Stop()
	select {
	case a.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return errShed
	case <-t.C:
		return errShed
	}
}

func (a *admission) release() { <-a.slots }

// inflight reports currently executing requests; queuedNow the
// current queue occupancy.
func (a *admission) inflight() int  { return len(a.slots) }
func (a *admission) queuedNow() int { return int(a.queued.Load()) }
