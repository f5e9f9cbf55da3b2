// Package fault is minequery's deterministic fault-injection framework:
// the seam through which chaos tests (and operators reproducing
// incidents) make the storage layer return transient page-read errors,
// stall morsel-scan workers, delay index seeks, or hold server worker
// slots — all from a single seed, so every failure schedule replays
// exactly.
//
// Design constraints, in order:
//
//  1. Zero cost when disabled. Every injection point in the hot path is
//     a nil-pointer check on an *Injector field; production binaries
//     never construct one, so the instrumentation budget of the
//     observability layer (PR 3) is untouched.
//  2. Deterministic under concurrency. Rules fire on per-site hit
//     numbers. Which goroutine draws hit #17 of "storage.page_read.seq"
//     is scheduler-dependent, but *whether* hit #17 fires is a pure
//     function of (seed, site, 17) — so a chaos scenario's fault
//     schedule is stable even under -race with morsel workers racing on
//     the counter.
//  3. Typed failures only. Injected errors wrap qerr.ErrTransient (or a
//     caller-supplied error); no layer may turn one into a wrong answer
//     — the chaos suite's core assertion.
package fault

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"minequery/internal/qerr"
)

// Canonical injection-site names. Sites are plain strings so tests can
// add their own, but the stack's built-in injection points use these.
const (
	// SitePageReadSeq fires once per heap page read by a sequential
	// scan, before the page is touched.
	SitePageReadSeq = "storage.page_read.seq"
	// SitePageReadRand fires once per RID-addressed (random) page read.
	SitePageReadRand = "storage.page_read.rand"
	// SiteIndexSeek fires once per B+-tree descent in an index seek or
	// index-union arm, before the range scan starts.
	SiteIndexSeek = "exec.index_seek"
	// SiteMorselClaim fires each time a worker of the executor's morsel
	// pool claims a unit — a heap morsel or a column group, of a parallel
	// scan or of a partial aggregate — after the claim, before the unit's
	// leaf reads it: the stall point for worker-hang scenarios.
	SiteMorselClaim = "exec.morsel_claim"
	// SiteBatch fires once per NextBatch call of a sequential scan leaf —
	// the heap scan or the columnar one — on whichever goroutine runs it:
	// the query's own, or a parallel scan's or partial aggregate's worker.
	// Mid-query, between batches of one operator, in every unit.
	SiteBatch = "exec.batch"
	// SiteAdmission fires after a server worker slot is acquired and
	// before query execution, holding the slot for the injected delay —
	// the queue-pressure scenario.
	SiteAdmission = "server.admission"
	// SiteWALAppend fires once per WAL frame append, before the frame
	// bytes reach the device — a crash here loses the whole frame.
	SiteWALAppend = "wal.append"
	// SiteWALSync fires once per WAL fsync, after the frame was written
	// but before it is made durable — a crash here may leave a torn
	// frame at the tail of the log.
	SiteWALSync = "wal.sync"
)

// Rule arms one injection site. The zero trigger fields never fire; set
// exactly the trigger you mean:
//
//   - OnHit n: fire on the site's nth hit (1-based), once.
//   - EveryN n: fire on every nth hit (n, 2n, 3n, ...).
//   - Prob p: fire on each hit with probability p, decided by a hash of
//     (seed, site, hit number) — deterministic for a fixed seed.
//
// Limit caps total fires (0 = unlimited). A fired rule injects Delay
// (if nonzero) and then returns Err (which may be nil for latency-only
// rules). Err should wrap or be qerr.ErrTransient for failures the
// stack is expected to absorb; ErrInjected is the ready-made choice.
type Rule struct {
	Site   string
	OnHit  int64
	EveryN int64
	Prob   float64
	Limit  int64
	Err    error
	Delay  time.Duration
}

// ErrInjected is the default injected failure: a transient error
// (wrapping qerr.ErrTransient) that retry and fallback paths must
// absorb. Rules that want a permanent failure set Err to something that
// does not wrap qerr.ErrTransient.
var ErrInjected = fmt.Errorf("%w (injected)", qerr.ErrTransient)

// siteState is one site's armed rules plus its hit/fire accounting.
type siteState struct {
	rules []Rule
	hits  atomic.Int64
	fired atomic.Int64
	// firedByRule counts fires per rule index, for Limit enforcement.
	firedByRule []atomic.Int64
}

// Injector evaluates armed rules at injection points. It is safe for
// concurrent use: hot-path state is atomic, and the rule set is frozen
// at construction. A nil *Injector is the disabled state — every
// injection point must nil-check before calling Hit.
type Injector struct {
	seed  int64
	clock Clock

	mu    sync.RWMutex
	sites map[string]*siteState
}

// NewInjector builds an injector from a seed and an armed rule set.
// The seed drives probabilistic rules and nothing else; hit-count rules
// ignore it.
func NewInjector(seed int64, rules ...Rule) *Injector {
	in := &Injector{seed: seed, clock: RealClock(), sites: map[string]*siteState{}}
	for _, r := range rules {
		st := in.sites[r.Site]
		if st == nil {
			st = &siteState{}
			in.sites[r.Site] = st
		}
		st.rules = append(st.rules, r)
	}
	for _, st := range in.sites {
		st.firedByRule = make([]atomic.Int64, len(st.rules))
	}
	return in
}

// WithClock replaces the clock used for Delay injection (the default is
// the real clock). Returns the injector for chaining at construction.
func (in *Injector) WithClock(c Clock) *Injector {
	in.clock = c
	return in
}

// Hit records one arrival at site and returns the injected error, if
// any armed rule fires. Latency rules sleep on the injector's clock
// before returning. A nil receiver is legal and free.
func (in *Injector) Hit(site string) error {
	if in == nil {
		return nil
	}
	in.mu.RLock()
	st := in.sites[site]
	in.mu.RUnlock()
	if st == nil {
		return nil
	}
	n := st.hits.Add(1)
	var delay time.Duration
	var err error
	fired := false
	for i := range st.rules {
		r := &st.rules[i]
		if !ruleFires(r, in.seed, site, n) {
			continue
		}
		if r.Limit > 0 && st.firedByRule[i].Add(1) > r.Limit {
			continue
		}
		fired = true
		if r.Delay > delay {
			delay = r.Delay
		}
		if err == nil {
			err = r.Err
		}
	}
	if !fired {
		return nil
	}
	st.fired.Add(1)
	if delay > 0 {
		in.clock.Sleep(delay)
	}
	return err
}

// ruleFires decides whether rule r triggers on the site's nth hit.
func ruleFires(r *Rule, seed int64, site string, n int64) bool {
	switch {
	case r.OnHit > 0:
		return n == r.OnHit
	case r.EveryN > 0:
		return n%r.EveryN == 0
	case r.Prob > 0:
		return hitDraw(seed, site, n) < r.Prob
	}
	return false
}

// Hits reports how many times site has been reached (fired or not).
func (in *Injector) Hits(site string) int64 {
	if in == nil {
		return 0
	}
	in.mu.RLock()
	st := in.sites[site]
	in.mu.RUnlock()
	if st == nil {
		return 0
	}
	return st.hits.Load()
}

// Fired reports how many hits at site triggered at least one rule.
func (in *Injector) Fired(site string) int64 {
	if in == nil {
		return 0
	}
	in.mu.RLock()
	st := in.sites[site]
	in.mu.RUnlock()
	if st == nil {
		return 0
	}
	return st.fired.Load()
}

// hitDraw maps (seed, site, hit) to a uniform [0,1) draw via a
// splitmix64 finalizer over an FNV-mixed key. Deterministic: the same
// triple always draws the same value, regardless of which goroutine
// made the hit.
func hitDraw(seed int64, site string, n int64) float64 {
	h := uint64(1469598103934665603) // FNV offset basis
	for i := 0; i < len(site); i++ {
		h ^= uint64(site[i])
		h *= 1099511628211
	}
	x := h ^ uint64(seed) ^ (uint64(n) * 0x9E3779B97F4A7C15)
	// splitmix64 finalizer.
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53)
}
