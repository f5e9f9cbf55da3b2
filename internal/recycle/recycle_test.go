package recycle

import (
	"runtime"
	"sync"
	"testing"
)

type item struct{ buf [64]int64 }

// raceEnabled is set by race_test.go: under the race detector a
// sync.Pool drops a share of what it is given on purpose.
var raceEnabled bool

// TestPoolHandsBackAcrossProcessors: an item put back is the one the
// next Get returns, on another goroutine, after a collection — wherever
// the scheduler runs the two. Goroutines on two Ps take turns, each
// round separated by a collection, as a serial client's requests are
// whenever a collection blocks it: a sync.Pool alone hands each P's Get
// only what that P put, and misses about every other round.
func TestPoolHandsBackAcrossProcessors(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	var p Pool[item]
	first := p.Get()
	p.Put(first)
	for round := 0; round < 50; round++ {
		runtime.GC()
		got := make(chan *item)
		go func() {
			x := p.Get()
			p.Put(x)
			got <- x
		}()
		if x := <-got; x != first {
			t.Fatalf("round %d: Get made a new item; the one put back before one collection was parked", round)
		}
	}
}

// TestPoolDropsAfterTwoCollections: the slot keeps an item through one
// collection, as a sync.Pool's victim cache does, and never hands it out
// after a second.
func TestPoolDropsAfterTwoCollections(t *testing.T) {
	var p Pool[item]
	x := p.Get()
	x.buf[0] = 7
	p.Put(x)
	runtime.GC()
	if y := p.Get(); y != x || y.buf[0] != 7 {
		t.Fatal("an item put back before one collection was not handed out as it was put")
	}
	p.Put(x)
	runtime.GC()
	runtime.GC()
	if y := p.Get(); y == x {
		t.Fatal("an item put back before two collections was handed out")
	}
}

// TestPoolSpillsToSyncPool: what is put while the slot is full goes to
// the sync.Pool behind it, and every item comes back out once.
func TestPoolSpillsToSyncPool(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops what it is given")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // the sync.Pool keeps what this P puts
	var p Pool[item]
	a, b := p.Get(), p.Get()
	if a == b {
		t.Fatal("two Gets returned one item")
	}
	p.Put(a)
	p.Put(b)
	c, d := p.Get(), p.Get()
	if c == d || (c != a && c != b) || (d != a && d != b) {
		t.Fatalf("put back %p and %p, got %p and %p", a, b, c, d)
	}
}

// TestAllocPoolSteadyState: a serial Get and Put allocate nothing.
func TestAllocPoolSteadyState(t *testing.T) {
	var p Pool[item]
	p.Put(p.Get())
	if n := testing.AllocsPerRun(100, func() { p.Put(p.Get()) }); n != 0 {
		t.Fatalf("a Get and a Put allocate %.0f times", n)
	}
}

// TestPoolConcurrent: items taken at the same time are distinct, under
// the race detector too (go test -race).
func TestPoolConcurrent(t *testing.T) {
	var p Pool[item]
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				x := p.Get()
				x.buf[0] = int64(g)
				runtime.Gosched()
				if x.buf[0] != int64(g) {
					t.Errorf("goroutine %d: an item it held was written by another", g)
					return
				}
				p.Put(x)
			}
		}(g)
	}
	wg.Wait()
}
