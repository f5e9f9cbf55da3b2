package fault

import (
	"context"
	"sync"
	"time"
)

// Clock abstracts time for everything in this package that waits:
// injected latency and retry backoff. Production code uses RealClock;
// tests use a FakeClock so backoff schedules are asserted exactly, with
// no time.Sleep in the test body and no flaky timing margins.
type Clock interface {
	// Sleep blocks for d (uninterruptible; used for injected latency).
	Sleep(d time.Duration)
	// SleepCtx blocks for d or until ctx is done, returning ctx.Err()
	// when interrupted — the retry path's cancellable backoff wait.
	SleepCtx(ctx context.Context, d time.Duration) error
}

// realClock is the wall clock.
type realClock struct{}

func (realClock) Sleep(d time.Duration) { time.Sleep(d) }

func (realClock) SleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// RealClock returns the wall clock.
func RealClock() Clock { return realClock{} }

// FakeClock is a manually advanced clock. Sleepers block until Advance
// moves the clock past their wake time; tests drive time forward
// explicitly and assert on the recorded sleep durations. Safe for
// concurrent use.
type FakeClock struct {
	mu      sync.Mutex
	now     time.Time
	waiters []*fakeWaiter
	// slept records every Sleep/SleepCtx duration in call order — the
	// backoff schedule assertion surface.
	slept []time.Duration
}

type fakeWaiter struct {
	wake time.Time
	ch   chan struct{}
}

// NewFakeClock returns a fake clock starting at a fixed, arbitrary
// epoch (determinism: two fake clocks always agree).
func NewFakeClock() *FakeClock {
	return &FakeClock{now: time.Unix(1_700_000_000, 0)}
}

// Sleep blocks until Advance moves the clock by at least d.
func (c *FakeClock) Sleep(d time.Duration) {
	_ = c.SleepCtx(context.Background(), d)
}

// SleepCtx blocks until Advance covers d or ctx is done.
func (c *FakeClock) SleepCtx(ctx context.Context, d time.Duration) error {
	c.mu.Lock()
	c.slept = append(c.slept, d)
	if d <= 0 {
		c.mu.Unlock()
		return ctx.Err()
	}
	w := &fakeWaiter{wake: c.now.Add(d), ch: make(chan struct{})}
	c.waiters = append(c.waiters, w)
	c.mu.Unlock()
	select {
	case <-w.ch:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Advance moves the clock forward, waking every sleeper whose deadline
// is covered.
func (c *FakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	var rest []*fakeWaiter
	var wake []*fakeWaiter
	for _, w := range c.waiters {
		if !w.wake.After(c.now) {
			wake = append(wake, w)
		} else {
			rest = append(rest, w)
		}
	}
	c.waiters = rest
	c.mu.Unlock()
	for _, w := range wake {
		close(w.ch)
	}
}

// Slept returns a copy of every sleep duration requested so far, in
// call order.
func (c *FakeClock) Slept() []time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]time.Duration(nil), c.slept...)
}

// Sleepers reports how many goroutines are currently blocked in
// Sleep/SleepCtx — tests use it to wait for a sleeper to park before
// advancing.
func (c *FakeClock) Sleepers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.waiters)
}
