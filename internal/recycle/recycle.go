// Package recycle hands memory a finished task gave back to the next
// task that asks, whichever goroutine and processor that task runs on.
//
// A sync.Pool alone keeps an item on the P (the scheduler's processor)
// that put it, in a slot no other P reads. A serial caller whose
// goroutine resumes on another P — after a collection, which blocks it,
// or after a preemption — finds the pool empty and pays for a fresh
// item, so what one request allocates depends on where the scheduler
// ran the one before it. A Pool keeps one item where every P finds it —
// for a serial caller, the one it put last — and only what is put while
// that slot is full in a sync.Pool.
package recycle

import (
	"runtime/metrics"
	"sync"
)

// Pool is a sync.Pool of *T with one slot in front that belongs to no P.
// Get takes the slot's item, else one from the sync.Pool, else a new T;
// Put fills the slot when it is empty and gives to the sync.Pool when it
// is not. The slot keeps the sync.Pool's promise and no more: an item
// lives through one collection after its Put and is dropped, never
// handed out, once a second has completed. A Pool's zero value is ready
// for use; a Pool must not be copied after first use.
type Pool[T any] struct {
	mu     sync.Mutex
	parked *T
	gc     uint64 // collections completed when parked was put
	gcNow  [1]metrics.Sample
	more   sync.Pool
}

// Get returns an item nobody else holds: one put back earlier when there
// is one, as it was put.
func (p *Pool[T]) Get() *T {
	p.mu.Lock()
	x := p.parked
	p.parked = nil
	if x != nil && p.collections() > p.gc+1 {
		x = nil
	}
	p.mu.Unlock()
	if x != nil {
		return x
	}
	if x, ok := p.more.Get().(*T); ok {
		return x
	}
	return new(T)
}

// Put gives x up for a later Get. The caller must hold nothing of x any
// more, and must put it once.
func (p *Pool[T]) Put(x *T) {
	p.mu.Lock()
	if p.parked == nil {
		p.parked, p.gc = x, p.collections()
		x = nil
	}
	p.mu.Unlock()
	if x != nil {
		p.more.Put(x)
	}
}

// collections reads the count of completed collections; p.mu must be
// held.
func (p *Pool[T]) collections() uint64 {
	if p.gcNow[0].Name == "" {
		p.gcNow[0].Name = "/gc/cycles/total:gc-cycles"
	}
	metrics.Read(p.gcNow[:])
	return p.gcNow[0].Value.Uint64()
}
