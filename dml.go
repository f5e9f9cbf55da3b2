package minequery

// The engine's write path: INSERT/UPDATE/DELETE and CREATE MODEL
// through Exec, durable via the write-ahead log (wal.go) when enabled,
// with write-volume retrain triggers driving the catalog-epoch
// invalidation that prepared plans and envelope caches key on.
//
// Concurrency model: one writer at a time (writeMu serializes every
// mutating statement, including retrains and WAL replay), any number of
// concurrent readers. Readers never block on writeMu — the heap, btree,
// and catalog are individually safe for reads interleaved with writes,
// and a query sees a point-in-time snapshot of each page it scans.
//
// Durability protocol (log-then-apply): a statement's mutations are
// encoded and appended to the WAL, fsynced, and only then applied to
// the heap. Every acked statement is therefore durable, and the live
// state always equals the durable log's replay — a crash can lose at
// most the one statement that was never acked. Any WAL failure leaves
// the log sticky-broken and the statement unapplied, so live state and
// log never diverge.

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"time"

	"minequery/internal/catalog"
	"minequery/internal/core"
	"minequery/internal/exec"
	"minequery/internal/expr"
	"minequery/internal/mining"
	"minequery/internal/mining/cluster"
	"minequery/internal/mining/dtree"
	"minequery/internal/mining/nbayes"
	"minequery/internal/mining/rules"
	"minequery/internal/plan"
	"minequery/internal/qerr"
	"minequery/internal/sqlparse"
	"minequery/internal/storage"
	"minequery/internal/value"
	"minequery/internal/wal"
)

// RetrainPolicy configures automatic in-engine retraining.
type RetrainPolicy struct {
	// WriteThreshold retrains every model trained on a table (by CREATE
	// MODEL or a Train* call) once that many rows have been written to
	// it since the last retrain. 0 disables automatic retraining.
	WriteThreshold int64
}

// SetRetrainPolicy installs the write-volume retrain trigger. Each
// retrain re-runs the model's definition over current data and
// re-registers it, bumping the model version and catalog epoch —
// prepared statements go stale (ErrStalePlan) and envelope caches
// refresh, exactly as for an explicit retrain.
func (e *Engine) SetRetrainPolicy(p RetrainPolicy) {
	e.retrainThreshold.Store(p.WriteThreshold)
}

// ExecResult reports the outcome of one write statement.
type ExecResult struct {
	// Statement is "insert", "update", "delete", or "create model".
	Statement string
	// Table is the mutated (or trained-over) table.
	Table string
	// RowsAffected counts rows written: inserted, updated, or deleted.
	RowsAffected int64
	// Model is the trained model's summary (CREATE MODEL only).
	Model *ModelInfo
	// Retrained lists models retrained by the write-volume trigger as a
	// side effect of this statement.
	Retrained []string
	// Epoch is the catalog epoch after the statement — clients compare
	// it against prepared-statement epochs to anticipate ErrStalePlan.
	Epoch int64
}

// modelDef is how a model is made, by CREATE MODEL or a Train* call, and
// re-made on retrain: the relational view it trains on and its options.
type modelDef struct {
	name    string // original-case model name
	table   string
	family  string
	predict string   // the column the model predicts
	label   string   // the column training reads labels from; "" without one
	feats   []string // input columns; nil with star=true
	star    bool
	where   expr.Expr
	opts    any    // the family's options: dtree, nbayes, rules or cluster Options
	sql     string // CREATE MODEL text (WAL replay form); "" for a Go-API def
}

// classificationFamily reports whether the family trains with labels
// from the predicted column (as opposed to clustering, which invents
// the predicted column).
func classificationFamily(f string) bool {
	return f == "dtree" || f == "nbayes" || f == "rules"
}

// Exec runs one write statement: INSERT, UPDATE, DELETE, or CREATE
// MODEL. SELECT statements are rejected — reads go through Query, which
// carries options, instrumentation, and result schemas that a write
// path has no use for. Writes are serialized internally; Exec is safe
// to call from many goroutines and interleaves freely with queries.
func (e *Engine) Exec(ctx context.Context, sql string) (*ExecResult, error) {
	st, err := sqlparse.ParseStatement(sql)
	if err != nil {
		return nil, fmt.Errorf("minequery: %w", err)
	}
	switch st.Kind {
	case sqlparse.StmtSelect:
		return nil, fmt.Errorf("minequery: %w: SELECT statements run through Query, not Exec", qerr.ErrUnsupportedQuery)
	case sqlparse.StmtCreateModel:
		return e.execCreateModel(st.CreateModel, sql)
	}
	d, err := e.resolveDML(st)
	if err != nil {
		return nil, err
	}
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	switch st.Kind {
	case sqlparse.StmtInsert:
		return e.commitDML(&d, d.muts, nil, d.rows)
	case sqlparse.StmtUpdate:
		return e.execUpdate(ctx, &d)
	}
	return e.execDelete(ctx, &d)
}

// resolvedDML is an INSERT, UPDATE or DELETE resolved against its table.
// Exec runs it and EXPLAIN renders it, so EXPLAIN describes only a
// statement Exec accepts.
type resolvedDML struct {
	op      string // "insert", "update" or "delete"
	t       *catalog.Table
	rows    []value.Tuple         // INSERT: the normalized rows
	muts    []wal.Mutation        // INSERT: the rows' records, to log and store
	where   expr.Expr             // UPDATE and DELETE: nil matches every row
	sets    []sqlparse.Assignment // UPDATE
	setOrds []int                 // UPDATE: each SET column's ordinal
}

// resolveDML resolves a write statement: its table, its WHERE, its SET
// columns and its INSERT rows.
func (e *Engine) resolveDML(st *sqlparse.Statement) (resolvedDML, error) {
	var d resolvedDML
	var table string
	switch st.Kind {
	case sqlparse.StmtInsert:
		d.op, table = "insert", st.Insert.Table
	case sqlparse.StmtUpdate:
		d.op, table, d.where, d.sets = "update", st.Update.Table, st.Update.Where, st.Update.Sets
	case sqlparse.StmtDelete:
		d.op, table, d.where = "delete", st.Delete.Table, st.Delete.Where
	default:
		return d, fmt.Errorf("minequery: %w: unhandled statement kind", qerr.ErrUnsupportedQuery)
	}
	t, ok := e.cat.Table(table)
	if !ok {
		return d, fmt.Errorf("minequery: %w %q", qerr.ErrUnknownTable, table)
	}
	d.t = t
	var err error
	if d.op == "insert" {
		d.rows, d.muts, err = resolveInsertRows(t, st.Insert)
		return d, err
	}
	if err = validateWhere(t, d.where, "DML predicate"); err != nil {
		return d, err
	}
	cols := make([]string, len(d.sets))
	for i, a := range d.sets {
		cols[i] = a.Col
	}
	d.setOrds, err = columnOrdinals(t, cols, "UPDATE")
	return d, err
}

// resolveInsertRows maps a statement's value lists to full-arity,
// normalized tuples, and each to the insert its record is logged and
// stored as. With an explicit column list, unnamed columns are NULL;
// without one, each row must carry the full schema arity.
func resolveInsertRows(t *catalog.Table, st *sqlparse.InsertStmt) ([]value.Tuple, []wal.Mutation, error) {
	ords, err := columnOrdinals(t, st.Columns, "INSERT into")
	if err != nil {
		return nil, nil, err
	}
	out := make([]value.Tuple, len(st.Rows))
	muts := make([]wal.Mutation, len(st.Rows))
	for ri, vals := range st.Rows {
		var row value.Tuple
		if st.Columns == nil {
			row = value.Tuple(vals)
		} else {
			row = make(value.Tuple, t.Schema.Len())
			for i := range row {
				row[i] = value.Null()
			}
			for i, v := range vals {
				row[ords[i]] = v
			}
		}
		norm, rec, err := storedRecord(t, row)
		if err != nil {
			return nil, nil, fmt.Errorf("minequery: row %d: %w", ri, err)
		}
		out[ri], muts[ri] = norm, wal.Mutation{Op: wal.OpInsert, Rec: rec}
	}
	return out, muts, nil
}

// storedRecord normalizes row and encodes it into the record the log
// holds and the heap stores. It refuses a row no heap page holds: once
// logged, it would stop the apply, and every replay, halfway.
func storedRecord(t *catalog.Table, row value.Tuple) (value.Tuple, []byte, error) {
	norm, err := t.NormalizeRow(row)
	if err != nil {
		return nil, nil, err
	}
	rec := value.EncodeTuple(make([]byte, 0, value.EncodedLen(norm)), norm)
	if len(rec) > storage.MaxRecordSize {
		return nil, nil, fmt.Errorf("%w: a row of %s encodes to %d bytes, over the %d a page holds",
			qerr.ErrUnsupportedQuery, t.Name, len(rec), storage.MaxRecordSize)
	}
	return norm, rec, nil
}

// columnOrdinals maps the columns a statement names to their ordinals
// in t, refusing a column t lacks and a column named twice. stmt names
// the statement in the error: "INSERT into" or "UPDATE".
func columnOrdinals(t *catalog.Table, cols []string, stmt string) ([]int, error) {
	ords := make([]int, len(cols))
	for i, c := range cols {
		o := t.Schema.Ordinal(c)
		if o < 0 {
			return nil, fmt.Errorf("minequery: %w: unknown column %q in %s %s", qerr.ErrUnsupportedQuery, c, stmt, t.Name)
		}
		if slices.Contains(ords[:i], o) {
			return nil, fmt.Errorf("minequery: %w: column %q named twice in %s %s", qerr.ErrUnsupportedQuery, c, stmt, t.Name)
		}
		ords[i] = o
	}
	return ords, nil
}

// validateWhere checks that a write statement's predicate — a DML
// WHERE or a training view's — references only the table's data
// columns: mining predicates (predicted columns) have no meaning on the
// write side. what names the predicate in the error.
func validateWhere(t *catalog.Table, where expr.Expr, what string) error {
	for _, c := range expr.Columns(where) {
		if t.Schema.Ordinal(c) < 0 {
			return fmt.Errorf("minequery: %w: unknown column %q in %s on %s (predicates on the write path see data columns only)",
				qerr.ErrUnsupportedQuery, c, what, t.Name)
		}
	}
	return nil
}

// execUpdate reads an UPDATE's victims and commits their new images.
// Caller holds writeMu.
func (e *Engine) execUpdate(ctx context.Context, d *resolvedDML) (*ExecResult, error) {
	rids, rows, err := exec.CollectMatches(ctx, d.t, d.where, nil, e.execOpts)
	if err != nil {
		return nil, fmt.Errorf("minequery: update %s: %w", d.t.Name, err)
	}
	// Each victim's row is decoded afresh, so the SET is applied to it in
	// place. A table with indexes keeps a copy of it first, the pre-image
	// apply takes the old index keys from.
	var old []value.Tuple
	if len(d.t.Indexes()) > 0 {
		old = make([]value.Tuple, len(rows))
	}
	muts := make([]wal.Mutation, len(rids))
	for i, row := range rows {
		if old != nil {
			old[i] = row.Clone()
		}
		for j, a := range d.sets {
			row[d.setOrds[j]] = a.Val
		}
		norm, rec, err := storedRecord(d.t, row)
		if err != nil {
			return nil, fmt.Errorf("minequery: update %s at %s: %w", d.t.Name, rids[i], err)
		}
		muts[i] = wal.Mutation{Op: wal.OpUpdate, RID: rids[i], Rec: rec}
		rows[i] = norm
	}
	return e.commitDML(d, muts, old, rows)
}

// execDelete reads a DELETE's victims and commits their removal.
// Caller holds writeMu.
func (e *Engine) execDelete(ctx context.Context, d *resolvedDML) (*ExecResult, error) {
	// A DELETE reads no column of its victims, unless the table has
	// indexes: apply takes their old keys from each victim's pre-image,
	// read here, before the log holds the statement.
	need := []bool{}
	if len(d.t.Indexes()) > 0 {
		need = nil
	}
	rids, old, err := exec.CollectMatches(ctx, d.t, d.where, need, e.execOpts)
	if err != nil {
		return nil, fmt.Errorf("minequery: delete %s: %w", d.t.Name, err)
	}
	muts := make([]wal.Mutation, len(rids))
	for i, rid := range rids {
		muts[i] = wal.Mutation{Op: wal.OpDelete, RID: rid}
	}
	return e.commitDML(d, muts, old, nil)
}

// commitDML is the one commit of an INSERT, UPDATE or DELETE. Caller
// holds writeMu. It logs muts (if any), applies them with the victims'
// pre-images old, hands images (the rows an INSERT or UPDATE stored) to
// the standing queries and credits the rows to the retrain trigger.
// The rows are committed before the retrain, so a retrain's
// ErrRetrainFailed comes with the filled result, not instead of it.
func (e *Engine) commitDML(d *resolvedDML, muts []wal.Mutation, old, images []value.Tuple) (*ExecResult, error) {
	res := &ExecResult{Statement: d.op, Table: d.t.Name}
	var err error
	if len(muts) > 0 {
		if err = e.walAppend(wal.Record{Kind: wal.RecordDML, Table: d.t.Name, Muts: muts}); err != nil {
			return nil, err
		}
		if res.RowsAffected, err = e.applyDML(d.t, muts, old); err != nil {
			return nil, err
		}
	}
	e.metrics.Load().dml(d.op, res.RowsAffected)
	e.notifyStanding(d.t, images)
	res.Retrained, err = e.noteWrites(d.t.Name, res.RowsAffected)
	res.Epoch = e.cat.Epoch()
	return res, err
}

// applyDML applies logged mutations to live state. Caller holds
// writeMu. The same function re-applies records during WAL replay, so
// live apply and recovery take one code path — and because inserts (and
// update re-inserts) always append at the heap tail, RID assignment is
// a pure function of the mutation sequence, making replayed RIDs line
// up with the RIDs captured in later log records.
//
// A logged row is the stored row: the heap stores each mutation's Rec
// bytes as they are, and the row they are decoded into, to be checked,
// to route a partition and to key the indexes, is one scratch tuple for
// the whole record. old, when non-nil, holds the pre-image of each
// delete or update victim, by position in muts, which the live path read
// in its victim scan before the log append: apply then reads nothing
// from the heap, so no failed read can stop it halfway through a
// statement the log already holds. Replay passes nil, and a table with
// indexes fetches its pre-images.
func (e *Engine) applyDML(t *catalog.Table, muts []wal.Mutation, old []value.Tuple) (int64, error) {
	var n int64
	var row value.Tuple
	for i, m := range muts {
		var pre value.Tuple
		if old != nil {
			pre = old[i]
		}
		var err error
		switch m.Op {
		case wal.OpInsert:
			if _, row, err = t.InsertRecord(m.Rec, row); err != nil {
				return n, fmt.Errorf("minequery: apply insert to %s: %w", t.Name, err)
			}
			n++
		case wal.OpDelete:
			removed, err := t.DeleteRecord(m.RID, pre)
			if err != nil {
				return n, fmt.Errorf("minequery: apply delete to %s: %w", t.Name, err)
			}
			if removed {
				n++
			}
		case wal.OpUpdate:
			if _, row, err = t.UpdateRecord(m.RID, pre, m.Rec, row); err != nil {
				return n, fmt.Errorf("minequery: apply update to %s: %w", t.Name, err)
			}
			n++
		default:
			return n, fmt.Errorf("minequery: apply to %s: unknown mutation op %d", t.Name, m.Op)
		}
	}
	return n, nil
}

// noteWrites credits rows written against the retrain threshold and,
// when crossed, retrains every model defined on the table. Caller
// holds writeMu. Returns the names of retrained models.
func (e *Engine) noteWrites(table string, rows int64) ([]string, error) {
	if rows == 0 {
		return nil, nil
	}
	thr := e.retrainThreshold.Load()
	e.writesSince[table] += rows
	if thr <= 0 || e.writesSince[table] < thr {
		return nil, nil
	}
	// Reset the counter only if the retrain succeeds. Zeroing it first
	// would, on a transient training failure, silently defer the next
	// attempt by a full threshold of writes; restoring it means the very
	// next write re-crosses the threshold and retries.
	prev := e.writesSince[table]
	e.writesSince[table] = 0
	names, err := e.retrainTable(table)
	if err != nil {
		e.writesSince[table] = prev
		e.metrics.Load().retrainFailure()
	}
	return names, err
}

// retrainTable re-runs training for every model definition on table,
// in definition order. Caller holds writeMu. Each successful
// retrain re-registers the model: version++, catalog epoch bump,
// envelope caches and prepared plans invalidated.
func (e *Engine) retrainTable(table string) ([]string, error) {
	var names []string
	for _, key := range e.defOrder {
		d := e.modelDefs[key]
		if !strings.EqualFold(d.table, table) {
			continue
		}
		if _, err := e.createModelLocked(d, false); err != nil {
			return names, fmt.Errorf("minequery: %w: retrain %s after writes to %s: %w", qerr.ErrRetrainFailed, d.name, table, err)
		}
		names = append(names, d.name)
		e.metrics.Load().retrain(1)
	}
	return names, nil
}

// resolveDefFeatures expands a definition's training view to its
// feature columns, checking that they, the label and the view's WHERE
// columns are in t.
func resolveDefFeatures(t *catalog.Table, d *modelDef) ([]string, error) {
	if err := validateWhere(t, d.where, "training view predicate"); err != nil {
		return nil, err
	}
	if d.label != "" && t.Schema.Ordinal(d.label) < 0 {
		return nil, fmt.Errorf("minequery: %w: label column %q not in %s (required for family %s)",
			qerr.ErrUnsupportedQuery, d.label, t.Name, d.family)
	}
	if !d.star {
		for _, c := range d.feats {
			if t.Schema.Ordinal(c) < 0 {
				return nil, fmt.Errorf("minequery: %w: feature column %q not in %s", qerr.ErrUnsupportedQuery, c, t.Name)
			}
		}
		if len(d.feats) == 0 {
			return nil, fmt.Errorf("minequery: %w: training view has no feature columns", qerr.ErrUnsupportedQuery)
		}
		return d.feats, nil
	}
	// Star view: every column except the predicted one; clustering
	// families additionally keep only numeric columns, since their
	// inducers reject categorical attributes.
	var feats []string
	for i := 0; i < t.Schema.Len(); i++ {
		col := t.Schema.Col(i)
		if strings.EqualFold(col.Name, d.predict) {
			continue
		}
		if !classificationFamily(d.family) &&
			col.Kind != value.KindInt && col.Kind != value.KindFloat {
			continue
		}
		feats = append(feats, col.Name)
	}
	if len(feats) == 0 {
		return nil, fmt.Errorf("minequery: %w: no usable feature columns in %s for family %s",
			qerr.ErrUnsupportedQuery, t.Name, d.family)
	}
	return feats, nil
}

// trainModelFromDef runs one definition's training over current table
// data without registering the result — no catalog mutation, no epoch
// bump, no side effects on failure. Caller holds writeMu.
func (e *Engine) trainModelFromDef(d *modelDef) (mining.Model, time.Duration, error) {
	t, ok := e.cat.Table(d.table)
	if !ok {
		return nil, 0, fmt.Errorf("minequery: %w %q", qerr.ErrUnknownTable, d.table)
	}
	feats, err := resolveDefFeatures(t, d)
	if err != nil {
		return nil, 0, err
	}
	var (
		m     mining.Model
		start time.Time
	)
	if d.family == "nbayes" {
		// Naive Bayes counts while its view drains: the time is the scan's.
		start = time.Now()
		var s bayesSink
		if err := e.drainTrainView(d.table, feats, d.label, d.where, &s); err != nil {
			return nil, 0, err
		}
		m, err = s.counts.Model(d.name, d.predict, s.cols, d.opts.(nbayes.Options))
	} else {
		var cs *mining.Columns
		if cs, err = e.buildTrainColumns(d.table, feats, d.label, d.where); err != nil {
			return nil, 0, err
		}
		start = time.Now()
		m, err = trainFamily(d, cs)
	}
	if err != nil {
		return nil, 0, fmt.Errorf("minequery: train %s (%s): %w", d.name, d.family, err)
	}
	return m, time.Since(start), nil
}

// trainFamily fits d's model family, naive Bayes aside, over cs.
func trainFamily(d *modelDef, cs *mining.Columns) (mining.Model, error) {
	switch d.family {
	case "dtree":
		return dtree.TrainColumns(d.name, d.predict, cs, d.opts.(dtree.Options))
	case "rules":
		return rules.TrainColumns(d.name, d.predict, cs, d.opts.(rules.Options))
	case "kmeans":
		return cluster.TrainKMeansColumns(d.name, d.predict, cs, d.opts.(cluster.Options))
	case "gmm":
		return cluster.TrainGMMColumns(d.name, d.predict, cs, d.opts.(cluster.Options))
	}
	return nil, fmt.Errorf("%w: unknown model family %q", qerr.ErrUnsupportedQuery, d.family)
}

// createModelOptions are the options CREATE MODEL trains each family
// with: the inducer's defaults, and for clustering a small fixed K and
// a fixed seed, so retrains over identical data reproduce identical
// models (WAL replay depends on training being a deterministic function
// of the data).
var createModelOptions = map[string]any{
	"dtree": dtree.Options{}, "nbayes": nbayes.Options{}, "rules": rules.Options{},
	"kmeans": cluster.Options{K: 3, Seed: 1}, "gmm": cluster.Options{K: 3, Seed: 1},
}

// newModelDef records a parsed CREATE MODEL as its definition. A
// classification family's label is its PREDICT column, which the view
// may list; the PREDICT column is never a feature.
func newModelDef(st *sqlparse.CreateModelStmt, sql string) *modelDef {
	d := &modelDef{
		name:    st.Name,
		table:   st.Table,
		family:  st.Family,
		predict: st.Predict,
		star:    st.Star,
		where:   st.Where,
		opts:    createModelOptions[st.Family],
		sql:     sql,
	}
	if classificationFamily(st.Family) {
		d.label = st.Predict
	}
	for _, c := range st.Feats {
		if !strings.EqualFold(c, st.Predict) {
			d.feats = append(d.feats, c)
		}
	}
	return d
}

func (e *Engine) execCreateModel(st *sqlparse.CreateModelStmt, sql string) (*ExecResult, error) {
	d := newModelDef(st, sql)
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	// Train first (no side effects on failure), log the statement, then
	// register: a crash after the log entry replays the whole training
	// deterministically over the recovered data.
	info, err := e.createModelLocked(d, true)
	if err != nil {
		return nil, err
	}
	e.metrics.Load().dml("create_model", 0)
	return &ExecResult{
		Statement: "create model",
		Table:     d.table,
		Model:     info,
		Epoch:     e.cat.Epoch(),
	}, nil
}

// explainStatement renders a write statement's plan without executing
// it: what the statement resolves to, as Exec would run it.
func (e *Engine) explainStatement(st *sqlparse.Statement) (string, error) {
	if st.Kind != sqlparse.StmtCreateModel {
		d, err := e.resolveDML(st)
		if err != nil {
			return "", err
		}
		// An UPDATE or DELETE drives a full serial scan: the victim set
		// must be exact, so no mining-envelope rewrite applies.
		m := &plan.Mutation{Op: d.op, Table: d.t.Name, Rows: len(d.rows)}
		if d.op != "insert" {
			m.Child = scanPlan(d.t.Name, d.where)
		}
		return plan.Explain(m), nil
	}
	d := newModelDef(st.CreateModel, "")
	t, ok := e.cat.Table(d.table)
	if !ok {
		return "", fmt.Errorf("minequery: %w %q", qerr.ErrUnknownTable, d.table)
	}
	feats, err := resolveDefFeatures(t, d)
	if err != nil {
		return "", err
	}
	view, _, _, err := trainView(t, feats, d.label, d.where)
	if err != nil {
		return "", err
	}
	return plan.Explain(createModelNode{d: d, view: view}), nil
}

// createModelNode roots EXPLAIN CREATE MODEL: the model over the view
// its training drains.
type createModelNode struct {
	d    *modelDef
	view plan.Node
}

func (n createModelNode) Children() []plan.Node { return []plan.Node{n.view} }

func (n createModelNode) AppendDescribe(dst []byte) []byte {
	dst = append(dst, "CreateModel("...)
	dst = append(dst, n.d.name...)
	dst = append(dst, " family="...)
	dst = append(dst, n.d.family...)
	dst = append(dst, " predict="...)
	dst = append(dst, n.d.predict...)
	dst = append(dst, " over "...)
	dst = append(dst, n.d.table...)
	return append(dst, ')')
}

// scanPlan is a full scan of table, filtered by where when there is one.
func scanPlan(table string, where expr.Expr) plan.Node {
	var n plan.Node = &plan.SeqScan{Table: table}
	if where != nil {
		n = &plan.Filter{Child: n, Pred: where}
	}
	return n
}

// createModelLocked is the one way a model is made: it trains d,
// derives its envelopes, logs the statement when logged is set,
// registers the model and records d for the threshold retrain. Caller
// holds writeMu. Live CREATE MODEL and its WAL replay log; the Go-API
// Train* calls (refused once a log is attached) and the threshold
// retrain (which replay re-runs from the logged writes) do not.
//
// Ordering is log-then-apply, same as DML: training and envelope
// derivation run first (both are side-effect-free — a failure leaves
// engine and log untouched), then the statement is appended to the WAL,
// and only then is the model registered and the definition recorded.
// The post-log steps cannot fail, so a logged CREATE MODEL is always
// also a registered one and a failed append never leaves the engine
// serving a model absent from the durable log.
func (e *Engine) createModelLocked(d *modelDef, logged bool) (*ModelInfo, error) {
	m, elapsed, err := e.trainModelFromDef(d)
	if err != nil {
		return nil, err
	}
	der, err := core.UpperEnvelopes(m, core.Options{})
	if err != nil {
		return nil, err
	}
	if logged {
		if err := e.walAppend(wal.Record{Kind: wal.RecordDDL, DDL: d.sql}); err != nil {
			return nil, err
		}
	}
	info := e.registerDerived(m, der, elapsed)
	key := strings.ToLower(d.name)
	if _, exists := e.modelDefs[key]; !exists {
		e.defOrder = append(e.defOrder, key)
	}
	e.modelDefs[key] = d
	return info, nil
}

// forgetModelDef removes name's definition, so no retrain makes the
// model again. Caller holds writeMu.
func (e *Engine) forgetModelDef(name string) {
	key := strings.ToLower(name)
	delete(e.modelDefs, key)
	e.defOrder = slices.DeleteFunc(e.defOrder, func(k string) bool { return k == key })
}

// refuseUnlogged errors once a log is attached: recovery would lose
// call's unlogged change, and lost rows shift the RIDs later logged
// statements name. route says what to do instead. Caller holds writeMu.
func (e *Engine) refuseUnlogged(call, route string) error {
	if e.wlog.Load() == nil {
		return nil
	}
	return fmt.Errorf("minequery: %w: %s is not logged and a WAL is attached; %s", qerr.ErrUnsupportedQuery, call, route)
}
