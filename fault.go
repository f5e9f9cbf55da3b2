// Fault injection and resilience knobs on the public API: re-exports of
// internal/fault so tests and operators can inject deterministic
// storage/executor failures, tune the transient-retry policy, and drive
// backoff with a fake clock — without importing internal packages.
package minequery

import (
	"minequery/internal/fault"
	"minequery/internal/qerr"
	"minequery/internal/wal"
)

// Re-exported fault-injection types. A FaultInjector is seeded and
// deterministic: whether a rule fires on the Nth visit to a site is a
// pure function of (seed, site, N), so a failing chaos run replays
// exactly from its seed, even under the race detector.
type (
	// FaultInjector evaluates injection rules at named sites.
	FaultInjector = fault.Injector
	// FaultRule is one injection rule: at Site, fire OnHit/EveryN/Prob
	// up to Limit times, returning Err and/or sleeping Delay.
	FaultRule = fault.Rule
	// RetryPolicy bounds retries of transient failures with
	// exponential backoff and deterministic jitter.
	RetryPolicy = fault.RetryPolicy
	// Clock abstracts time for retry backoff; see NewFakeClock.
	Clock = fault.Clock
	// FakeClock is a manually advanced Clock for sleep-free tests.
	FakeClock = fault.FakeClock
)

// Fault site names accepted in FaultRule.Site.
const (
	// FaultSitePageReadSeq fires once per heap page during sequential
	// scans, before any record on the page is delivered.
	FaultSitePageReadSeq = fault.SitePageReadSeq
	// FaultSitePageReadRand fires on random (RID) page reads.
	FaultSitePageReadRand = fault.SitePageReadRand
	// FaultSiteIndexSeek fires at the start of each B+-tree range seek.
	FaultSiteIndexSeek = fault.SiteIndexSeek
	// FaultSiteMorselClaim fires when a scan worker claims a morsel.
	FaultSiteMorselClaim = fault.SiteMorselClaim
	// FaultSiteBatch fires once per batch of a sequential scan leaf, on
	// whichever goroutine runs it: serial, or a parallel worker's.
	FaultSiteBatch = fault.SiteBatch
	// FaultSiteAdmission fires in the server's admission path.
	FaultSiteAdmission = fault.SiteAdmission
	// FaultSiteWALAppend fires once per WAL frame append, before the
	// frame bytes reach the device — a crash here loses the statement.
	FaultSiteWALAppend = fault.SiteWALAppend
	// FaultSiteWALSync fires once per WAL fsync, after the frame was
	// written but before it is durable — a crash here may leave a torn
	// frame at the tail of the log.
	FaultSiteWALSync = fault.SiteWALSync
)

// ErrWALCrash is the ready-made non-transient failure for crash tests
// arming the WAL sites: it breaks the log (no retry, no degradation)
// the way a process kill at a durability boundary would.
var ErrWALCrash = wal.ErrCrash

// ErrTransient classifies failures the retry layer may absorb and the
// degradation path may survive; injected faults wrap it, and callers
// can match it with errors.Is on surfaced query errors.
var ErrTransient = qerr.ErrTransient

// ErrInjected is the ready-made transient failure for FaultRule.Err
// (it wraps ErrTransient). A rule whose Err is nil injects only its
// Delay — latency without failure.
var ErrInjected = fault.ErrInjected

// NewFaultInjector builds a deterministic injector from a seed and a
// rule set.
func NewFaultInjector(seed int64, rules ...FaultRule) *FaultInjector {
	return fault.NewInjector(seed, rules...)
}

// DefaultRetryPolicy is the engine's default transient-retry policy:
// 3 attempts, 1ms base backoff doubling to a 50ms cap, 50% jitter.
func DefaultRetryPolicy() RetryPolicy { return fault.DefaultRetryPolicy() }

// NewFakeClock returns a manually advanced clock for timing tests.
func NewFakeClock() *FakeClock { return fault.NewFakeClock() }

// SetFaults installs (or, with nil, removes) a fault injector on the
// engine: the storage layer's page-read sites on every current and
// future table heap, and the executor's seek/morsel/batch sites on
// subsequent query executions. With no injector installed — the
// production state — every site reduces to a nil-pointer check.
//
// Concurrency: installation is atomic per layer, but queries already
// running may observe a mix of old and new injectors across layers;
// install before issuing the queries under test.
func (e *Engine) SetFaults(in *FaultInjector) {
	e.cat.SetFaults(in)
	e.execOpts.Faults = in
	if l := e.wlog.Load(); l != nil {
		l.SetFaults(in)
	}
}

// SetRetryPolicy replaces the transient-retry policy used by subsequent
// query executions. The zero policy disables retrying entirely;
// DefaultRetryPolicy() restores the default. The policy's clock can be
// overridden for tests via SetRetryClock.
func (e *Engine) SetRetryPolicy(p RetryPolicy) { e.execOpts.Retry = p }

// SetRetryClock replaces the clock driving retry backoff sleeps (nil
// restores the wall clock). Tests install a FakeClock so backoff
// schedules are asserted without real sleeping.
func (e *Engine) SetRetryClock(c Clock) { e.execOpts.Clock = c }
