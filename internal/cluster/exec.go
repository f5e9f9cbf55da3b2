package cluster

// The coordinator's write path. INSERT rows are routed to their owning
// shard by the shard map (the same walk that prunes reads), so the
// fleet-wide placement invariant — every row lives on the shard its key
// maps to — is maintained by construction. UPDATE, DELETE, and CREATE
// MODEL broadcast: predicates may match rows on any shard, and models
// train per shard over local data (the read path's fingerprint
// validation already tolerates per-shard model divergence by demoting
// prunes to queries).
//
// Writes are strict, never partial: any shard failure surfaces as an
// error. A failed broadcast may still have applied on some shards —
// the error names which, so operators can reconcile; there is no
// cross-shard transaction layer.

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"minequery/internal/qerr"
	"minequery/internal/sqlparse"
	"minequery/internal/value"
	"minequery/internal/wire"
)

// Exec runs one write statement across the fleet.
func (c *Coordinator) Exec(ctx context.Context, sql string) (*wire.StatementResult, error) {
	st, err := sqlparse.ParseStatement(sql)
	if err != nil {
		return nil, err
	}
	switch st.Kind {
	case sqlparse.StmtSelect:
		return nil, fmt.Errorf("%w: SELECT statements run through Execute, not Exec", qerr.ErrUnsupportedQuery)
	case sqlparse.StmtInsert:
		return c.execInsert(ctx, st.Insert)
	case sqlparse.StmtUpdate, sqlparse.StmtDelete, sqlparse.StmtCreateModel:
		return c.broadcast(ctx, sql, st)
	}
	return nil, fmt.Errorf("%w: unhandled statement kind", qerr.ErrUnsupportedQuery)
}

// execInsert routes each row to its owning shard and sends per-shard
// INSERT statements concurrently.
func (c *Coordinator) execInsert(ctx context.Context, st *sqlparse.InsertStmt) (*wire.StatementResult, error) {
	if !strings.EqualFold(st.Table, c.shards.Table) {
		return nil, fmt.Errorf("%w: cluster writes support only the sharded table %q", qerr.ErrUnsupportedQuery, c.shards.Table)
	}
	schema, ok := c.planner.TableSchema(st.Table)
	if !ok {
		return nil, fmt.Errorf("%w %q", qerr.ErrUnknownTable, st.Table)
	}
	keyPos, err := insertKeyPosition(schema.Len(), st, c.shards.Column, schema.Ordinal(c.shards.Column))
	if err != nil {
		return nil, err
	}
	byShard := map[int][][]value.Value{}
	for _, row := range st.Rows {
		key := value.Null()
		if keyPos >= 0 {
			key = row[keyPos]
		}
		sh := c.shards.ShardFor(key)
		byShard[sh] = append(byShard[sh], row)
	}

	res := &wire.StatementResult{Statement: "insert", Table: strings.ToLower(st.Table)}
	targets := make([]int, 0, len(byShard))
	for sh := range byShard {
		targets = append(targets, sh)
	}
	sort.Ints(targets)
	resps := make([]*wire.ExecResponse, len(targets))
	errs := make([]error, len(targets))
	var wg sync.WaitGroup
	for idx, sh := range targets {
		wg.Add(1)
		go func(idx, sh int) {
			defer wg.Done()
			sql := renderInsert(st.Table, st.Columns, byShard[sh])
			resps[idx], errs[idx] = c.execStatementOnShard(ctx, sh, sql)
		}(idx, sh)
	}
	wg.Wait()
	return c.mergeWrites(res, targets, resps, errs)
}

// insertKeyPosition locates the shard key's position within one VALUES
// row: the schema ordinal when no column list is given (rows must then
// be full-arity), the list position otherwise, -1 when the list omits
// the key (those rows carry NULL and route to the null shard).
func insertKeyPosition(arity int, st *sqlparse.InsertStmt, keyCol string, keyOrd int) (int, error) {
	if keyOrd < 0 {
		return 0, fmt.Errorf("%w: shard key column %q not in table schema", qerr.ErrUnsupportedQuery, keyCol)
	}
	if st.Columns == nil {
		for _, row := range st.Rows {
			if len(row) != arity {
				return 0, fmt.Errorf("%w: INSERT without a column list needs %d values per row, got %d",
					qerr.ErrUnsupportedQuery, arity, len(row))
			}
		}
		return keyOrd, nil
	}
	for i, col := range st.Columns {
		if strings.EqualFold(col, keyCol) {
			return i, nil
		}
	}
	return -1, nil
}

// broadcast sends the statement verbatim to every shard.
func (c *Coordinator) broadcast(ctx context.Context, sql string, st *sqlparse.Statement) (*wire.StatementResult, error) {
	res := &wire.StatementResult{}
	switch st.Kind {
	case sqlparse.StmtUpdate:
		// An UPDATE that assigns the shard key would mutate rows in place
		// on whatever shard they currently occupy, breaking the placement
		// invariant the read path's pruning relies on: a later query with
		// a key predicate would prune the shard that actually holds the
		// moved row. Re-keying has to be a delete plus a routed insert.
		if strings.EqualFold(st.Update.Table, c.shards.Table) {
			for _, a := range st.Update.Sets {
				if strings.EqualFold(a.Col, c.shards.Column) {
					return nil, fmt.Errorf("%w: UPDATE cannot assign shard key column %q; DELETE the rows and re-INSERT them with the new key",
						qerr.ErrUnsupportedQuery, c.shards.Column)
				}
			}
		}
		res.Statement, res.Table = "update", strings.ToLower(st.Update.Table)
	case sqlparse.StmtDelete:
		res.Statement, res.Table = "delete", strings.ToLower(st.Delete.Table)
	case sqlparse.StmtCreateModel:
		res.Statement, res.Table = "create model", strings.ToLower(st.CreateModel.Table)
	}
	n := c.shards.NumShards()
	targets := make([]int, n)
	resps := make([]*wire.ExecResponse, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		targets[i] = i
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i], errs[i] = c.execStatementOnShard(ctx, i, sql)
		}(i)
	}
	wg.Wait()
	return c.mergeWrites(res, targets, resps, errs)
}

// execStatementOnShard runs one write on shard i with the same breaker
// admission the read path uses.
func (c *Coordinator) execStatementOnShard(ctx context.Context, i int, sql string) (*wire.ExecResponse, error) {
	addr := c.shards.Shards[i].Addr
	shed, probe := c.breaker.Allow(addr)
	if shed {
		c.errorsN.Add(1)
		return nil, &ShardError{Shard: i, Addr: addr, Err: errors.New("circuit breaker open")}
	}
	sctx, cancel := context.WithTimeout(ctx, c.cfg.ShardTimeout)
	defer cancel()
	resp, err := c.client.ExecStatement(sctx, addr, sql, c.cfg.ShardTimeout.Milliseconds())
	if err == nil {
		c.breaker.Report(addr, probe, false)
		c.observeEpoch(i, resp.Epoch)
		return resp, nil
	}
	var re *RemoteError
	if errors.As(err, &re) {
		// The shard answered; the statement failed there — alive, not
		// an availability failure.
		c.breaker.Report(addr, probe, false)
		return nil, err
	}
	c.errorsN.Add(1)
	c.breaker.Report(addr, probe, true)
	return nil, &ShardError{Shard: i, Addr: addr, Err: err}
}

// mergeWrites folds per-shard write outcomes, failing on the first
// error but naming every shard that already applied the statement.
func (c *Coordinator) mergeWrites(res *wire.StatementResult, targets []int, resps []*wire.ExecResponse, errs []error) (*wire.StatementResult, error) {
	retrained := map[string]bool{}
	var applied []int
	var firstErr error
	for idx, sh := range targets {
		if errs[idx] != nil {
			if firstErr == nil {
				firstErr = errs[idx]
			}
			continue
		}
		applied = append(applied, sh)
		res.ShardsWritten++
		res.RowsAffected += resps[idx].RowsAffected
		for _, m := range resps[idx].Retrained {
			retrained[m] = true
		}
		if e := resps[idx].RetrainError; e != "" {
			res.RetrainErrors = append(res.RetrainErrors, wire.ShardRetrainError{Shard: sh, Error: e})
		}
		if m := resps[idx].Model; m != nil {
			res.Models = append(res.Models, wire.ShardModel{Shard: sh, ModelBody: *m})
		}
	}
	if firstErr != nil {
		if len(applied) > 0 {
			return nil, fmt.Errorf("cluster: write applied on shards %v but failed elsewhere: %w", applied, firstErr)
		}
		return nil, firstErr
	}
	for m := range retrained {
		res.Retrained = append(res.Retrained, m)
	}
	sort.Strings(res.Retrained)
	return res, nil
}

// renderInsert regenerates an INSERT statement for one shard's row
// slice, preserving the original column list.
func renderInsert(table string, cols []string, rows [][]value.Value) string {
	var b strings.Builder
	b.WriteString("INSERT INTO ")
	b.WriteString(table)
	if cols != nil {
		b.WriteString(" (")
		b.WriteString(strings.Join(cols, ", "))
		b.WriteString(")")
	}
	b.WriteString(" VALUES ")
	for i, row := range rows {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteByte('(')
		for j, v := range row {
			if j > 0 {
				b.WriteString(", ")
			}
			b.WriteString(renderLiteral(v))
		}
		b.WriteByte(')')
	}
	return b.String()
}

// renderLiteral renders one value as a SQL literal the statement
// grammar parses back to the identical value.
func renderLiteral(v value.Value) string {
	switch v.Kind() {
	case value.KindNull:
		return "NULL"
	case value.KindInt:
		return strconv.FormatInt(v.AsInt(), 10)
	case value.KindFloat:
		f := v.AsFloat()
		s := strconv.FormatFloat(f, 'g', -1, 64)
		// The grammar needs a decimal point or exponent to lex a float.
		if !strings.ContainsAny(s, ".eE") {
			s += ".0"
		}
		return s
	case value.KindBool:
		if v.AsBool() {
			return "TRUE"
		}
		return "FALSE"
	default:
		return "'" + strings.ReplaceAll(v.AsString(), "'", "''") + "'"
	}
}
