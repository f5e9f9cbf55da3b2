package minequery

// The engine-level standing-query surface: Subscribe registers an
// ordinary SELECT (PREDICTION JOINs and mining predicates included) as
// a standing query; every committed write statement is then classified
// against the whole registered set — compiled into one shared
// structure, see internal/standing — and matches are delivered through
// a bounded queue read by Notifications. The evaluation hook runs on
// the statement write path (Exec) only: bulk Insert/InsertBatch loads
// and WAL replay bypass it, exactly as they bypass the WAL and retrain
// triggers.

import (
	"context"

	"minequery/internal/catalog"
	"minequery/internal/standing"
	"minequery/internal/value"
)

// Standing-query type re-exports.
type (
	// Notification is one delivered standing-query match.
	Notification = standing.Notification
	// StandingStats snapshots the standing-query engine's counters.
	StandingStats = standing.Stats
	// SubscriptionInfo describes one registered standing query.
	SubscriptionInfo = standing.SubscriptionInfo
)

// Subscribe registers sql as a standing query and returns its
// subscription id. The statement must be a SELECT over one table —
// PREDICTION JOINs and mining predicates welcome — without GROUP BY,
// aggregates, or LIMIT. From then on, every row committed by an Exec
// write statement is classified against the query (its guard first,
// the data predicates with envelope regions in place of the mining
// ones, and model calls only for rows the guard cannot reject) and
// matches are queued for Notifications.
func (e *Engine) Subscribe(sql string) (int64, error) {
	return e.standing.Subscribe(sql)
}

// Unsubscribe removes a standing query. Pending notifications already
// queued for it are still delivered.
func (e *Engine) Unsubscribe(id int64) error {
	return e.standing.Unsubscribe(id)
}

// Notifications returns up to max pending standing-query matches,
// long-polling until at least one arrives or ctx is done. On
// cancellation or deadline with nothing pending it returns ctx's error;
// max <= 0 means a default batch of 100.
//
// Delivery is at-most-once from a bounded queue: if matches outrun the
// consumer the overflow is dropped and counted (StandingStats.Dropped,
// per-subscription in Subscriptions) rather than ever blocking the
// write path.
//
// A Notification is 24 bytes: its Seq and two shared, read-only
// pointers, never nil. Every notification of a subscription points at
// one Source (subscription id, table, column names), and the
// notifications of one committed row under the same select list point
// at one Image (the projected Row and the Epoch it was evaluated at).
// Copy either before changing it.
func (e *Engine) Notifications(ctx context.Context, max int) ([]Notification, error) {
	return e.standing.Poll(ctx, max)
}

// StandingStats snapshots the standing-query engine's counters.
func (e *Engine) StandingStats() StandingStats { return e.standing.Stats() }

// Subscriptions lists the registered standing queries in registration
// order.
func (e *Engine) Subscriptions() []SubscriptionInfo { return e.standing.Subscriptions() }

// notifyStanding classifies one committed batch of new row images
// against the standing-query set. Caller holds writeMu; rows are the
// post-normalization images just applied to the heap. Replay is
// excluded: recovered writes were already (at best) notified in the
// crashed process, and a standing subscription registered after a
// restart must not see historical rows as fresh matches.
func (e *Engine) notifyStanding(t *catalog.Table, rows []value.Tuple) {
	if e.replaying || len(rows) == 0 || e.standing.Registered() == 0 {
		return
	}
	e.standing.EvalBatch(t.Name, rows, e.cat.Epoch())
}
