package core

import (
	"fmt"
	"strings"

	"minequery/internal/catalog"
	"minequery/internal/expr"
	"minequery/internal/qerr"
	"minequery/internal/sqlparse"
)

// CachedEnvelope is one memoized envelope derivation: the assembled
// predicate for a (shape, model, class-set) key plus the notes its
// construction emitted, so a cache hit explains itself exactly as the
// original derivation would have for the statement at hand.
type CachedEnvelope struct {
	Pred  expr.Expr
	Notes []Note
}

// EnvelopeCache memoizes envelope derivations across queries. Keys
// embed the model fingerprint (a content hash of the model and its
// envelopes), so entries for a retrained or re-registered model are
// simply never looked up again — staleness is impossible by
// construction and eviction is purely a space concern. Implementations
// must be safe for concurrent use.
type EnvelopeCache interface {
	Get(key string) (CachedEnvelope, bool)
	Put(key string, ce CachedEnvelope)
}

// Rewrite is the Section 4 optimization of a parsed query: every mining
// predicate f is replaced by f ∧ u_f, where u_f comes from the Section
// 4.1 rule table (atoms.go). DataPred is the part of the augmented
// predicate that references only base-table columns — the predicate the
// access-path selector sees.
type Rewrite struct {
	// FullPred is the augmented predicate (mining predicates retained,
	// envelopes ANDed in). It is evaluated after the prediction joins.
	FullPred expr.Expr
	// DataPred is the sound weakening of FullPred to base columns only;
	// it drives access-path selection before the prediction joins run.
	DataPred expr.Expr
	// ModelVersions pins the model versions whose envelopes were used,
	// for plan invalidation.
	ModelVersions map[string]int64
	// Notes describes each rewrite applied (for EXPLAIN-style output).
	Notes []string

	// cache, when set, memoizes class-set envelope assembly.
	cache EnvelopeCache
}

// validateColumns rejects references that name neither a base column of
// the query's table nor a predicted column, and returns the table. A
// predicate over an unknown name would otherwise evaluate to false on
// every row — a silently empty result instead of an error.
func validateColumns(q *sqlparse.Query, cat *catalog.Catalog, pc PredCols) (*catalog.Table, error) {
	t, ok := cat.Table(q.Table)
	if !ok {
		return nil, fmt.Errorf("core: %w %q", qerr.ErrUnknownTable, q.Table)
	}
	check := func(col string) error {
		if t.Schema.Ordinal(col) >= 0 {
			return nil
		}
		if _, ok := pc.Model(col); ok {
			return nil
		}
		return fmt.Errorf("core: unknown column %q (table %q)", col, q.Table)
	}
	for _, c := range q.Select {
		if err := check(c); err != nil {
			return nil, err
		}
	}
	// Aggregate select items and GROUP BY columns name inputs too;
	// q.Select holds only the plain (non-aggregate) items.
	for _, it := range q.Items {
		if it.Star || it.Col == "" {
			continue
		}
		if err := check(it.Col); err != nil {
			return nil, err
		}
	}
	for _, c := range q.GroupBy {
		if err := check(c); err != nil {
			return nil, err
		}
	}
	for _, c := range expr.Columns(q.Where) {
		if err := check(c); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// RewriteQueryCached applies the Section 4.2 optimization pipeline to
// a parsed query. maxDisjuncts caps normalization work (<=0: default
// 64). Class-set envelope assembly is memoized in cache under
// fingerprint-derived keys, so repeated queries against the same models
// skip re-derivation; a nil cache disables memoization.
func RewriteQueryCached(q *sqlparse.Query, cat *catalog.Catalog, maxDisjuncts int, cache EnvelopeCache) (*Rewrite, error) {
	return rewrite(q, cat, maxDisjuncts, cache, true)
}

// BaselineRewrite prepares a query for the unoptimized execution path:
// mining predicates are kept as black-box post-prediction filters and no
// envelopes are added, so DataPred carries only the query's own data
// predicates. This is the "extract and mine" evaluation the paper's
// technique improves on.
func BaselineRewrite(q *sqlparse.Query, cat *catalog.Catalog, maxDisjuncts int) (*Rewrite, error) {
	return rewrite(q, cat, maxDisjuncts, nil, false)
}

// rewrite resolves the prediction columns, rejects unknown references,
// pins the model versions and — with envelopes set — augments the
// predicate before weakening it to the data columns.
func rewrite(q *sqlparse.Query, cat *catalog.Catalog, maxDisjuncts int, cache EnvelopeCache, envelopes bool) (*Rewrite, error) {
	if maxDisjuncts <= 0 {
		maxDisjuncts = 64
	}
	pc, err := ResolvePredCols(q, cat)
	if err != nil {
		return nil, err
	}
	t, err := validateColumns(q, cat, pc)
	if err != nil {
		return nil, err
	}
	rw := &Rewrite{ModelVersions: map[string]int64{}, cache: cache}
	for _, j := range q.Joins {
		if me, ok := cat.Model(j.Model); ok {
			rw.ModelVersions[strings.ToLower(j.Model)] = me.Version
		}
	}
	rw.FullPred = q.Where
	if envelopes {
		// Step 2: augment each mining predicate with its upper envelope.
		rw.FullPred = rw.augment(q.Where, pc)
		// Step 3: normalization and transitivity. Simplification prunes
		// disjuncts made contradictory by the added envelopes (the
		// transitivity effect of Section 4.1's last example).
		if s, ok := expr.Simplify(rw.FullPred, maxDisjuncts); ok {
			rw.FullPred = s
		}
	}
	rw.DataPred = pc.Weaken(rw.FullPred, t.Schema, nil)
	if s, ok := expr.Simplify(rw.DataPred, maxDisjuncts); ok {
		rw.DataPred = s
	}
	return rw, nil
}

// augment walks the predicate tree, ANDing its envelope onto every
// mining atom the rule table has one for. An envelope's notes are
// stored free of column spelling and rendered against this statement's
// atom, so cached and uncached rewrites of the same query read alike
// whichever statement filled the entry.
func (rw *Rewrite) augment(e expr.Expr, pc PredCols) expr.Expr {
	switch x := e.(type) {
	case expr.And:
		return expr.NewAnd(rw.augmentAll(x.Kids, pc)...)
	case expr.Or:
		return expr.NewOr(rw.augmentAll(x.Kids, pc)...)
	case expr.Not:
		// Negation flips predicate polarity; envelopes added below a NOT
		// would be unsound, so leave the subtree unaugmented.
		return x
	}
	if env, ok := pc.Envelope(e); ok {
		ce := env.Cached(rw.cache)
		for _, n := range ce.Notes {
			rw.Notes = append(rw.Notes, env.Render(n))
		}
		return expr.NewAnd(e, ce.Pred)
	}
	return e
}

func (rw *Rewrite) augmentAll(es []expr.Expr, pc PredCols) []expr.Expr {
	out := make([]expr.Expr, len(es))
	for i, e := range es {
		out[i] = rw.augment(e, pc)
	}
	return out
}
