// Package wire is the single declaration of the HTTP/JSON protocol the
// daemon, the cluster coordinator and their in-repo clients
// (internal/cluster, cmd/mqshell) exchange: every request and response
// body two of our packages share, the {"error":{code,message}}
// envelope, the error codes with their HTTP statuses, and the one
// client-side call. Both ends build and decode the same struct, so a
// field added here reaches every reader — there is no mirror to forget.
//
// The package holds declarations, the one row encoder (AppendRow), the
// one row merge (ConcatRows) and the one catalog digest (ModelsDigest)
// (stdlib + internal/agg +
// internal/value + internal/recycle): handlers live in internal/server,
// fan-out in internal/cluster. Rows cross every hop as bytes: a RowSet
// is the encoded array and its row count, never decoded cells. Tags
// are the bytes on the wire — names, order and omitempty are pinned by
// the goldens in testdata/.
package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"strconv"

	"minequery/internal/agg"
	"minequery/internal/value"
)

// ---- statements: /v1/prepare, /v1/execute, /v1/shard-exec, /v1/explain-analyze ----

// PrepareRequest is the body of POST /v1/prepare.
type PrepareRequest struct {
	SQL       string `json:"sql"`
	SessionID string `json:"session_id,omitempty"`
}

// PrepareResponse is a node's /v1/prepare answer (a coordinator answers
// PreparedInfo).
type PrepareResponse struct {
	StatementID string `json:"statement_id"`
	Cached      bool   `json:"cached"`
	Plan        string `json:"plan"`
	AccessPath  string `json:"access_path"`
}

// ExecuteRequest is the body of POST /v1/execute on a node and on a
// coordinator: exactly one of SQL or StatementID. A node takes its
// parallelism and forced path from the session and rejects DOP; a
// coordinator has no sessions and rejects SessionID.
type ExecuteRequest struct {
	SQL         string `json:"sql,omitempty"`
	StatementID string `json:"statement_id,omitempty"`
	SessionID   string `json:"session_id,omitempty"`
	TimeoutMS   int64  `json:"timeout_ms,omitempty"`
	DOP         int    `json:"dop,omitempty"`
}

// ShardExecRequest is the body of POST /v1/shard-exec, the endpoint a
// coordinator drives: /v1/execute by text alone, minus sessions, plus an
// epoch guard and partial-aggregate mode.
type ShardExecRequest struct {
	// SQL is the statement's text, normalized by the coordinator.
	SQL string `json:"sql,omitempty"`
	// ExpectedEpoch, when non-nil, guards the execution: the shard
	// rejects with CodeEpochMismatch before running if its catalog epoch
	// differs, signalling the coordinator to resync this shard's model
	// fingerprints before trusting prune decisions involving it.
	ExpectedEpoch *int64 `json:"expected_epoch,omitempty"`
	// TimeoutMS is the per-shard execution deadline.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// DOP overrides the shard's scan parallelism for this call.
	DOP int `json:"dop,omitempty"`
	// AggPartial asks for the un-finalized per-group accumulator state
	// instead of finalized rows (aggregate statements only); the
	// coordinator merges the states — in any order — and finalizes once.
	AggPartial bool `json:"agg_partial,omitempty"`
}

// ExecStats is the measured execution cost of one statement.
type ExecStats struct {
	DurationUS    int64   `json:"duration_us"`
	SeqPageReads  int64   `json:"seq_page_reads"`
	RandPageReads int64   `json:"rand_page_reads"`
	TupleReads    int64   `json:"tuple_reads"`
	CostUnits     float64 `json:"cost_units"`
}

// ColumnMeta self-describes one output column: its name, value kind,
// and whether it is "projected" from the input or computed by an
// "aggregate", so clients never re-derive types from the query text.
type ColumnMeta struct {
	Name   string `json:"name"`
	Kind   string `json:"kind"`
	Source string `json:"source"`
}

// ExecuteResponse is a node's /v1/execute answer. Its rows stay the
// bytes the node wrote (RowSet), so a coordinator that merges them
// writes exactly what a single node would have.
type ExecuteResponse struct {
	StatementID       string       `json:"statement_id"`
	StatementCacheHit bool         `json:"statement_cache_hit"`
	Columns           []string     `json:"columns"`
	Schema            []ColumnMeta `json:"schema"`
	Rows              RowSet       `json:"rows"`
	RowCount          int          `json:"row_count"`
	Plan              string       `json:"plan"`
	AccessPath        string       `json:"access_path"`
	PlanChanged       bool         `json:"plan_changed"`
	EstSelectivity    float64      `json:"est_selectivity"`
	// Degraded: the table's circuit breaker shed this query to the
	// force-seqscan plan. Fallback: the engine itself re-ran the query
	// on the baseline scan after a transient index-path failure. Both
	// return exactly the rows the optimized plan would have.
	Degraded bool      `json:"degraded"`
	Fallback bool      `json:"fallback"`
	Retries  int64     `json:"retries"`
	Stats    ExecStats `json:"stats"`
}

// RowSet is the "rows" member of an answer, kept as the bytes it is on
// the wire: Encoded is the JSON array of rows as AppendRow built them, N
// how many rows it holds. A node builds the array row by row while each
// batch is still valid; a coordinator concatenates its shards' arrays
// (ConcatRows) and writes them on unread, so no hop between the node
// that encoded a row and the client decodes it. A reader that looks
// inside a row asks Cells. A nil Encoded is the member null.
type RowSet struct {
	Encoded []byte
	N       int
}

func (r RowSet) MarshalJSON() ([]byte, error) {
	if r.Encoded == nil {
		return []byte("null"), nil
	}
	return r.Encoded, nil
}

// UnmarshalJSON keeps b, one JSON value as encoding/json hands it, if it
// is null or an array whose every element is an array, and counts the
// rows. It copies b without the white space between tokens, since b
// belongs to the caller's buffer: ConcatRows can then cut at a row's
// closing bracket without looking for spaces.
func (r *RowSet) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		*r = RowSet{}
		return nil
	}
	if len(b) == 0 || b[0] != '[' {
		return errNotRows
	}
	enc := make([]byte, 0, len(b))
	n, depth := 0, 0
	inStr, esc := false, false
	for _, c := range b {
		switch {
		case inStr:
			switch {
			case esc:
				esc = false
			case c == '\\':
				esc = true
			case c == '"':
				inStr = false
			}
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			continue
		case depth == 1 && c != '[' && c != ',' && c != ']':
			return errNotRows // an element that is not a row
		case c == '"':
			inStr = true
		case c == '[' || c == '{':
			if depth == 1 {
				n++
			}
			depth++
		case c == ']' || c == '}':
			depth--
		}
		enc = append(enc, c)
	}
	r.Encoded, r.N = enc, n
	return nil
}

var errNotRows = errors.New("wire: rows must be null or an array of arrays")

// Cells decodes the rows for a reader that looks inside them: every
// number is a json.Number holding the sender's literal.
func (r RowSet) Cells() ([][]any, error) {
	if r.Encoded == nil {
		return nil, nil
	}
	dec := json.NewDecoder(bytes.NewReader(r.Encoded))
	dec.UseNumber()
	var cells [][]any
	if err := dec.Decode(&cells); err != nil {
		return nil, err
	}
	return cells, nil
}

// ConcatRows is the coordinator's row merge: the rows of parts in order,
// cut after the first limit (< 0: no limit), as one array sized up front.
// Range shards hold the single-node scan order shard by shard, so this
// concatenation is what one node over the union of the rows would have
// written, byte for byte. Each part must be an array AppendRow built or
// UnmarshalJSON kept; the cut walks row boundaries and decodes nothing.
func ConcatRows(parts []RowSet, limit int64) RowSet {
	size, total := 2, 0
	for _, p := range parts {
		size += len(p.Encoded)
		total += p.N
	}
	if limit >= 0 && int64(total) > limit {
		total = int(limit)
	}
	out := append(make([]byte, 0, size), '[')
	left := total
	for _, p := range parts {
		if left == 0 {
			break
		}
		if p.N == 0 {
			continue
		}
		if len(out) > 1 {
			out = append(out, ',')
		}
		out = append(out, rowsPrefix(p, left)...)
		left -= min(p.N, left)
	}
	return RowSet{Encoded: append(out, ']'), N: total}
}

// EncodeRows encodes rows as one array, as a node answers them.
func EncodeRows(rows []value.Tuple) (RowSet, error) {
	enc := []byte{'['}
	for i, row := range rows {
		if i > 0 {
			enc = append(enc, ',')
		}
		var err error
		if enc, err = AppendRow(enc, row); err != nil {
			return RowSet{}, err
		}
	}
	return RowSet{Encoded: append(enc, ']'), N: len(rows)}, nil
}

// rowsPrefix returns the first k rows of p (all of them when it holds no
// more), without the array's brackets. A row ends where its closing
// bracket brings the depth back to zero, outside any string.
func rowsPrefix(p RowSet, k int) []byte {
	rows := p.Encoded[1 : len(p.Encoded)-1]
	if p.N <= k {
		return rows
	}
	depth := 0
	inStr, esc := false, false
	for i, c := range rows {
		switch {
		case inStr:
			switch {
			case esc:
				esc = false
			case c == '\\':
				esc = true
			case c == '"':
				inStr = false
			}
		case c == '"':
			inStr = true
		case c == '[' || c == '{':
			depth++
		case c == ']' || c == '}':
			if depth--; depth == 0 {
				if k--; k == 0 {
					return rows[:i+1]
				}
			}
		}
	}
	return rows
}

// AppendRow appends row to dst as a JSON array of cells: the bytes
// encoding/json writes (HTML escaping on, as the server's encoder has
// it) for the same row as Go values — TestAppendRow and FuzzAppendRow
// hold the two equal. Integers, booleans, NULL, plain ASCII strings and
// floats in fixed notation are appended directly; any other cell is
// handed to encoding/json itself. A non-finite float is the one cell
// JSON cannot carry, and the error. It is the one row encoder: a node's
// answer, a coordinator's finalized aggregates and a notification's row
// are all appended here.
func AppendRow(dst []byte, row value.Tuple) ([]byte, error) {
	dst = append(dst, '[')
	for i, v := range row {
		if i > 0 {
			dst = append(dst, ',')
		}
		var other any // the cell, when it is encoding/json's to write
		switch v.Kind() {
		case value.KindNull:
			dst = append(dst, "null"...)
		case value.KindInt:
			dst = strconv.AppendInt(dst, v.AsInt(), 10)
		case value.KindFloat:
			f := v.AsFloat()
			if abs := math.Abs(f); abs == 0 || (abs >= 1e-6 && abs < 1e21) {
				dst = strconv.AppendFloat(dst, f, 'f', -1, 64)
			} else {
				other = f
			}
		case value.KindBool:
			dst = strconv.AppendBool(dst, v.AsBool())
		default:
			if s := v.AsString(); plainASCII(s) {
				dst = append(append(append(dst, '"'), s...), '"')
			} else {
				other = s
			}
		}
		if other != nil {
			cell, err := json.Marshal(other)
			if err != nil {
				return dst, fmt.Errorf("wire: row cell %d: %w", i, err)
			}
			dst = append(dst, cell...)
		}
	}
	return append(dst, ']'), nil
}

// plainASCII reports whether encoding/json writes s between quotes
// unchanged: printable ASCII with nothing it escapes.
func plainASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20, c >= 0x7f, c == '"', c == '\\', c == '<', c == '>', c == '&':
			return false
		}
	}
	return true
}

// ShardExecResponse is a node's /v1/shard-exec answer.
type ShardExecResponse struct {
	ExecuteResponse
	// Epoch is the node's catalog epoch observed at admission; the
	// coordinator folds it into its per-shard state.
	Epoch int64 `json:"epoch"`
	// AggPartial is the shard's partial aggregate state (requests with
	// AggPartial set; Rows is then empty and RowCount 0).
	AggPartial *agg.Wire `json:"agg_partial,omitempty"`
}

// ExplainAnalyzeRequest is the body of POST /v1/explain-analyze.
type ExplainAnalyzeRequest struct {
	SQL       string `json:"sql"`
	SessionID string `json:"session_id,omitempty"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
}

// ExplainAnalyzeResponse is a node's /v1/explain-analyze answer (a
// coordinator answers CoordExplainResponse).
type ExplainAnalyzeResponse struct {
	Plan           string    `json:"plan"`
	AccessPath     string    `json:"access_path"`
	RowCount       int       `json:"row_count"`
	EstSelectivity float64   `json:"est_selectivity"`
	RewriteNotes   []string  `json:"rewrite_notes"`
	Analyze        string    `json:"analyze"`
	Stats          ExecStats `json:"stats"`
}

// ---- writes: /v1/exec ----

// ExecRequest is the body of POST /v1/exec (INSERT/UPDATE/DELETE and
// CREATE MODEL).
type ExecRequest struct {
	SQL       string `json:"sql"`
	SessionID string `json:"session_id,omitempty"`
	TimeoutMS int64  `json:"timeout_ms"`
}

// ModelBody summarizes a model trained by CREATE MODEL.
type ModelBody struct {
	Name    string `json:"name"`
	Classes int    `json:"classes"`
	Version int64  `json:"version"`
}

// ExecResponse is a node's /v1/exec answer (a coordinator answers
// StatementResult).
type ExecResponse struct {
	Statement    string     `json:"statement"`
	Table        string     `json:"table"`
	RowsAffected int64      `json:"rows_affected"`
	Retrained    []string   `json:"retrained,omitempty"`
	Epoch        int64      `json:"epoch"`
	Model        *ModelBody `json:"model,omitempty"`
	// RetrainError reports a write-volume retrain that failed AFTER the
	// statement's rows committed durably. The statement succeeded —
	// RowsAffected is authoritative, the response is a 200 — and the
	// retrain retries on the next write. Clients must not re-issue the
	// statement.
	RetrainError string `json:"retrain_error,omitempty"`
}

// ---- catalog summary: /v1/shard-info ----

// ModelInfo describes one model registered on a node.
type ModelInfo struct {
	Name          string   `json:"name"`
	Version       int64    `json:"version"`
	Fingerprint   string   `json:"fingerprint"`
	PredictColumn string   `json:"predict_column"`
	Classes       []string `json:"classes"`
}

// ShardInfoResponse is a node's catalog summary: what a coordinator
// needs to prove its envelope-driven shard pruning still sound against
// the node's models, nothing more. Asked with ?epoch=N&models=D — the
// epoch the coordinator cached the models at and their ModelsDigest — a
// node still at N whose last full answer at N had digest D answers Epoch
// alone, Tables and Models nil. A node reads its epoch before its
// models, so a full answer pairs an epoch with models at least as new
// as it, never older.
type ShardInfoResponse struct {
	Epoch  int64       `json:"epoch"`
	Tables []string    `json:"tables"`
	Models []ModelInfo `json:"models"`
}

// ModelsDigest is FNV-64a over each model's name and fingerprint, in
// the order given, in hex. An epoch numbers one process's catalog
// changes, so a node restarted with other models can come back at an
// epoch a coordinator cached; the digest tells the two apart.
func ModelsDigest(models []ModelInfo) string {
	h := fnv.New64a()
	for _, m := range models {
		for _, s := range [2]string{m.Name, m.Fingerprint} {
			_, _ = io.WriteString(h, s) // a hash.Hash never fails a write
			_, _ = h.Write([]byte{0})   // ("ab","c") and ("a","bc") differ
		}
	}
	return strconv.FormatUint(h.Sum64(), 16)
}

// ---- coordinator answers ----

// ShardStats summarizes one query's fan-out.
type ShardStats struct {
	Planned  int `json:"planned"`
	Pruned   int `json:"pruned"`
	Queried  int `json:"queried"`
	Degraded int `json:"degraded"`
}

// String renders the EXPLAIN ANALYZE shards line.
func (s ShardStats) String() string {
	return fmt.Sprintf("shards: planned=%d pruned=%d queried=%d degraded=%d",
		s.Planned, s.Pruned, s.Queried, s.Degraded)
}

// CoordExecuteResponse is a coordinator's /v1/execute answer.
type CoordExecuteResponse struct {
	StatementID string       `json:"statement_id,omitempty"`
	Columns     []string     `json:"columns"`
	Schema      []ColumnMeta `json:"schema"`
	Rows        RowSet       `json:"rows"`
	RowCount    int          `json:"row_count"`
	Shards      ShardStats   `json:"shards"`
	// AggMerges counts per-shard partial aggregate states merged at the
	// coordinator (0 for non-aggregate statements).
	AggMerges int64 `json:"agg_partial_merges,omitempty"`
	// Degraded: AllowPartial accepted missing shards; the rows are a
	// sound subset and MissingShards + Notes say exactly what is absent.
	Degraded      bool     `json:"degraded"`
	MissingShards []int    `json:"missing_shards,omitempty"`
	Notes         []string `json:"notes,omitempty"`
	Retries       int64    `json:"retries"`
	Epoch         int64    `json:"epoch"`
}

// PreparedInfo describes a coordinator-prepared statement: the
// coordinator's /v1/prepare answer and the /v1/cluster listing.
type PreparedInfo struct {
	StatementID string `json:"statement_id"`
	Cached      bool   `json:"cached"`
	Norm        string `json:"norm"`
	// ShardsPrepared counts the shards that answered the /v1/prepare of
	// the statement's text; a shard that did not plans the text when it
	// is executed there.
	ShardsPrepared int `json:"shards_prepared"`
}

// CoordExplainResponse is a coordinator's /v1/explain-analyze answer.
type CoordExplainResponse struct {
	Analyze string `json:"analyze"`
}

// StatementResult is a coordinator's /v1/exec answer: the merged
// outcome of one fleet write.
type StatementResult struct {
	Statement    string `json:"statement"`
	Table        string `json:"table"`
	RowsAffected int64  `json:"rows_affected"`
	// ShardsWritten counts shards that applied the statement (routed
	// inserts touch only the owning shards; broadcasts touch all).
	ShardsWritten int `json:"shards_written"`
	// Retrained lists models retrained by shard write-volume triggers,
	// deduplicated across shards.
	Retrained []string `json:"retrained,omitempty"`
	// RetrainErrors lists the shards whose triggered retrain failed after
	// the statement committed there. The write itself succeeded —
	// RowsAffected is authoritative and must not be re-issued — but those
	// shards' models are stale until a later write retries the retrain.
	RetrainErrors []ShardRetrainError `json:"retrain_errors,omitempty"`
	// Models lists what CREATE MODEL trained, one entry per shard:
	// models train over each shard's local rows and may legitimately
	// differ, so there is no single fleet-wide summary.
	Models []ShardModel `json:"models,omitempty"`
}

// ShardRetrainError is one shard's failed write-volume retrain.
type ShardRetrainError struct {
	Shard int    `json:"shard"`
	Error string `json:"error"`
}

// ShardModel is the model one shard trained for a CREATE MODEL.
type ShardModel struct {
	Shard int `json:"shard"`
	ModelBody
}

// ShardStatus is the \shards / GET /v1/cluster view of one node.
type ShardStatus struct {
	ID        int    `json:"id"`
	Addr      string `json:"addr"`
	Breaker   string `json:"breaker"`
	LastEpoch int64  `json:"last_epoch"`
	Models    int    `json:"models"`
	Range     string `json:"range,omitempty"`
}

// ClusterResponse is a coordinator's GET /v1/cluster answer: the shard
// map, per-shard breaker state and last-observed epochs.
type ClusterResponse struct {
	Table    string         `json:"table"`
	Column   string         `json:"column"`
	Mode     string         `json:"mode"`
	Shards   []ShardStatus  `json:"shards"`
	Prepared []PreparedInfo `json:"prepared,omitempty"`
}
