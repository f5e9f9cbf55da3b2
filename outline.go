package minequery

import (
	"fmt"
	"strings"

	"minequery/internal/agg"
	"minequery/internal/core"
	"minequery/internal/qerr"
	"minequery/internal/sqlparse"
)

// ModelRef identifies one model a query outline depends on.
type ModelRef struct {
	// Name is the model's catalog name, lowercased.
	Name string
	// Version is the registration generation (bumps on every retrain).
	Version int64
	// Fingerprint is the content hash of the model plus its envelope
	// set. Two nodes whose entries share a fingerprint derive identical
	// envelopes, so a plan built against one is sound against the other
	// — the invariant the cluster coordinator's shard pruning rests on.
	Fingerprint string
}

// PlanOutline is the distribution-facing residue of planning a query
// once: the parsed shape plus the envelope-rewritten data predicate,
// without a bound physical plan. A cluster coordinator uses it to prune
// shards (intersecting DataPred with each shard's key range) and to
// know which model fingerprints that pruning assumed; each shard then
// plans locally against its own catalog.
type PlanOutline struct {
	// Table is the base table name as written in the query.
	Table string
	// Norm is the normalized statement text (the prepared-statement
	// cache key shape).
	Norm string
	// DataPred is the sound data-columns-only weakening of the query's
	// predicate with upper envelopes ANDed in, simplified to the same
	// form the optimizer prunes partitions with. TrueExpr when the
	// query has no usable predicate.
	DataPred Expr
	// BaselinePred is the same weakening without envelope augmentation
	// — the query's own data predicate. Pruning justified by it alone
	// holds regardless of what models any node carries; pruning that
	// needs DataPred's extra envelope terms is sound only while the
	// remote's model fingerprints match Models.
	BaselinePred Expr
	// Limit is the query's LIMIT (-1 when absent).
	Limit int64
	// Agg is the resolved aggregation for GROUP BY / aggregate
	// statements (nil otherwise). A coordinator executes each shard in
	// partial-aggregate mode, rebuilds a merge table from this spec,
	// folds every shard's wire state in, finalizes once, and applies
	// Limit to the finalized canonical-order rows.
	Agg *AggSpec
	// Models lists the referenced models in join order (deduplicated).
	Models []ModelRef
	// Notes documents the envelope rewrites applied.
	Notes []string
	// Epoch is the catalog epoch the outline was derived at.
	Epoch int64
}

// Outline parses and envelope-rewrites a SELECT against this engine's
// catalog without building or running a physical plan. The engine acts
// as the planning catalog: it must hold the referenced table's schema
// and the referenced models, but needs no rows.
func (e *Engine) Outline(sql string) (*PlanOutline, error) {
	p, err := e.front(sql, nil, false)
	if err != nil {
		return nil, err
	}
	q, t, rw := p.query, p.table, p.rewrite
	var aggSpec *AggSpec
	if q.Grouped() {
		sch, err := core.PostPredictSchema(q, e.cat, t.Schema)
		if err != nil {
			return nil, err
		}
		if aggSpec, err = agg.Resolve(sch, q.GroupBy, aggItems(q)); err != nil {
			// validateAggregate already vetted the shape; a failure here
			// means the catalog moved between the two resolutions.
			return nil, fmt.Errorf("minequery: %w: %v", qerr.ErrUnsupportedQuery, err)
		}
	}
	baseRw, err := core.BaselineRewrite(q, e.cat, e.optCfg.MaxDisjuncts)
	if err != nil {
		return nil, err
	}

	models := make([]ModelRef, 0, len(q.Joins))
	seen := map[string]bool{}
	for _, j := range q.Joins {
		name := strings.ToLower(j.Model)
		if seen[name] {
			continue
		}
		seen[name] = true
		me, ok := e.cat.Model(name)
		if !ok {
			return nil, fmt.Errorf("minequery: %w %q", qerr.ErrUnknownModel, j.Model)
		}
		models = append(models, ModelRef{Name: name, Version: me.Version, Fingerprint: me.Fingerprint})
	}
	norm, err := sqlparse.Normalize(sql)
	if err != nil {
		return nil, err
	}
	return &PlanOutline{
		Table:        q.Table,
		Norm:         norm,
		DataPred:     rw.DataPred,
		BaselinePred: baseRw.DataPred,
		Limit:        q.Limit,
		Agg:          aggSpec,
		Models:       models,
		Notes:        rw.Notes,
		Epoch:        p.epoch,
	}, nil
}

// ModelSummary is the shard-info view of one registered model: enough
// for a coordinator to decide whether a remote node's model matches its
// own planning catalog, without shipping the model itself.
type ModelSummary struct {
	// Name is the model's catalog name, lowercased.
	Name string
	// Version and Fingerprint mirror the catalog entry (see ModelRef).
	Version     int64
	Fingerprint string
	// PredictColumn is the predicted output column.
	PredictColumn string
	// Classes enumerates the class labels: a TEXT label as it is, any
	// other as the SQL dialect prints it.
	Classes []string
}

// ModelSummaries lists the engine's registered models sorted by name.
func (e *Engine) ModelSummaries() []ModelSummary {
	entries := e.cat.Models()
	out := make([]ModelSummary, 0, len(entries))
	for _, me := range entries {
		classes := me.Model.Classes()
		cs := make([]string, len(classes))
		for i, c := range classes {
			if c.Kind() == KindString {
				cs[i] = c.AsString()
			} else {
				cs[i] = c.String()
			}
		}
		out = append(out, ModelSummary{
			Name:          strings.ToLower(me.Model.Name()),
			Version:       me.Version,
			Fingerprint:   me.Fingerprint,
			PredictColumn: me.Model.PredictColumn(),
			Classes:       cs,
		})
	}
	return out
}

// TableNames lists the engine's tables sorted by name.
func (e *Engine) TableNames() []string {
	tables := e.cat.Tables()
	out := make([]string, 0, len(tables))
	for _, t := range tables {
		out = append(out, t.Name)
	}
	return out
}

// TableSchema returns the named table's schema, or false if the table
// does not exist. Callers must treat the schema as read-only; the
// cluster coordinator uses it to shard INSERT rows without a round
// trip.
func (e *Engine) TableSchema(table string) (*Schema, bool) {
	t, ok := e.cat.Table(table)
	if !ok {
		return nil, false
	}
	return t.Schema, true
}
