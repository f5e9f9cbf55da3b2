package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"minequery/internal/agg"
	"minequery/internal/qerr"
)

// ---- wire types (the coordinator-facing subset of the daemon API) ----

// ExecRequest is the body of POST /v1/shard-exec.
type ExecRequest struct {
	// SQL and StatementID: exactly one must be set (same contract as
	// /v1/execute).
	SQL         string `json:"sql,omitempty"`
	StatementID string `json:"statement_id,omitempty"`
	// ExpectedEpoch, when non-nil, guards the execution: the shard
	// rejects with code "epoch_mismatch" if its catalog epoch differs,
	// signalling the coordinator to resync this shard's model
	// fingerprints before trusting prune decisions involving it.
	ExpectedEpoch *int64 `json:"expected_epoch,omitempty"`
	// TimeoutMS is the per-shard execution deadline.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// DOP overrides the shard's scan parallelism for this call.
	DOP int `json:"dop,omitempty"`
	// AggPartial asks the shard for its un-finalized partial aggregate
	// state instead of finalized rows (aggregate statements only); the
	// coordinator merges the states and finalizes once.
	AggPartial bool `json:"agg_partial,omitempty"`
}

// ColumnMeta is the wire form of one output column's self-description
// (the daemon's "schema" response field).
type ColumnMeta struct {
	Name   string `json:"name"`
	Kind   string `json:"kind"`
	Source string `json:"source"`
}

// ExecStats is the shard's measured execution cost.
type ExecStats struct {
	DurationUS    int64   `json:"duration_us"`
	SeqPageReads  int64   `json:"seq_page_reads"`
	RandPageReads int64   `json:"rand_page_reads"`
	TupleReads    int64   `json:"tuple_reads"`
	CostUnits     float64 `json:"cost_units"`
}

// ExecResponse is one shard's answer. Rows are decoded with
// json.Decoder.UseNumber, so every numeric cell is a json.Number
// holding the shard's literal bytes — re-encoding the merged rows
// reproduces exactly what a single node would have written.
type ExecResponse struct {
	StatementID string       `json:"statement_id"`
	Columns     []string     `json:"columns"`
	Schema      []ColumnMeta `json:"schema"`
	Rows        [][]any      `json:"rows"`
	RowCount    int          `json:"row_count"`
	AccessPath  string       `json:"access_path"`
	Degraded    bool         `json:"degraded"`
	Fallback    bool         `json:"fallback"`
	Retries     int64        `json:"retries"`
	// Epoch is the shard's catalog epoch at execution time.
	Epoch int64     `json:"epoch"`
	Stats ExecStats `json:"stats"`
	// AggPartial is the shard's partial aggregate state when the
	// request set AggPartial (rows is then empty).
	AggPartial *agg.Wire `json:"agg_partial"`
}

// ModelInfo describes one model on a shard (GET /v1/shard-info).
type ModelInfo struct {
	Name          string   `json:"name"`
	Version       int64    `json:"version"`
	Fingerprint   string   `json:"fingerprint"`
	PredictColumn string   `json:"predict_column"`
	Classes       []string `json:"classes"`
}

// Info is a shard's catalog summary: what the coordinator needs to
// decide prune eligibility, nothing more.
type Info struct {
	Epoch  int64       `json:"epoch"`
	Tables []string    `json:"tables"`
	Models []ModelInfo `json:"models"`
}

type prepareRequest struct {
	SQL string `json:"sql"`
}

// PrepareResponse mirrors the daemon's /v1/prepare answer.
type PrepareResponse struct {
	StatementID string `json:"statement_id"`
	Cached      bool   `json:"cached"`
	Plan        string `json:"plan"`
	AccessPath  string `json:"access_path"`
}

type explainRequest struct {
	SQL       string `json:"sql"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
}

type explainResponse struct {
	Plan       string `json:"plan"`
	AccessPath string `json:"access_path"`
	RowCount   int    `json:"row_count"`
	Analyze    string `json:"analyze"`
}

type errorEnvelope struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

// ---- client ----

// Client talks the daemon protocol to shard nodes. Transport failures
// and availability-class remote errors come back wrapped in
// qerr.ErrTransient so fault.Retry treats them as retryable; everything
// else surfaces as a *RemoteError carrying the shard's original code.
type Client struct {
	http *http.Client
}

// NewClient builds a shard client. hc nil takes a default client; the
// per-call context carries the deadline, so the client itself sets no
// timeout.
func NewClient(hc *http.Client) *Client {
	if hc == nil {
		hc = &http.Client{}
	}
	return &Client{http: hc}
}

// availabilityCode reports whether a remote error code means "the node
// could not serve this right now" (retryable, breaker-relevant) rather
// than "the query itself is wrong there".
func availabilityCode(code string) bool {
	switch code {
	case "transient", "shutting_down", "rejected", "internal", "timeout":
		return true
	}
	return false
}

// do posts (or gets, when in is nil and method is GET) one request and
// decodes the response with UseNumber.
func (c *Client) do(ctx context.Context, method, url string, in, out any) error {
	var body io.Reader
	if in != nil {
		raw, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("cluster: encode request: %w", err)
		}
		body = bytes.NewReader(raw)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return fmt.Errorf("cluster: build request: %w", err)
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		// Transport-level failure: connection refused, reset, DNS, or the
		// per-shard deadline. All retryable availability failures.
		return fmt.Errorf("%w: %v", qerr.ErrTransient, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%w: read response: %v", qerr.ErrTransient, err)
	}
	if resp.StatusCode != http.StatusOK {
		var env errorEnvelope
		if jerr := json.Unmarshal(raw, &env); jerr != nil || env.Error.Code == "" {
			return fmt.Errorf("%w: http %d: %s", qerr.ErrTransient, resp.StatusCode, truncate(raw))
		}
		if availabilityCode(env.Error.Code) {
			return fmt.Errorf("%w: remote %s: %s", qerr.ErrTransient, env.Error.Code, env.Error.Message)
		}
		return &RemoteError{Status: resp.StatusCode, Code: env.Error.Code, Message: env.Error.Message}
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	if err := dec.Decode(out); err != nil {
		return fmt.Errorf("%w: decode response: %v", qerr.ErrTransient, err)
	}
	return nil
}

// Exec runs one statement on a shard via /v1/shard-exec.
func (c *Client) Exec(ctx context.Context, addr string, req ExecRequest) (*ExecResponse, error) {
	var out ExecResponse
	if err := c.do(ctx, http.MethodPost, addr+"/v1/shard-exec", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// StatementResponse mirrors the daemon's /v1/exec answer (the write
// path: INSERT/UPDATE/DELETE and CREATE MODEL).
type StatementResponse struct {
	Statement    string   `json:"statement"`
	Table        string   `json:"table"`
	RowsAffected int64    `json:"rows_affected"`
	Retrained    []string `json:"retrained"`
	Epoch        int64    `json:"epoch"`
	// RetrainError is set when the statement committed on the shard but
	// the write-volume retrain it triggered failed (still a 200: the
	// rows are applied, and re-issuing would double-apply them).
	RetrainError string `json:"retrain_error"`
}

// ExecStatement runs one write statement on a shard via /v1/exec.
func (c *Client) ExecStatement(ctx context.Context, addr, sql string, timeoutMS int64) (*StatementResponse, error) {
	var out StatementResponse
	req := struct {
		SQL       string `json:"sql"`
		TimeoutMS int64  `json:"timeout_ms"`
	}{SQL: sql, TimeoutMS: timeoutMS}
	if err := c.do(ctx, http.MethodPost, addr+"/v1/exec", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Info fetches a shard's catalog summary via /v1/shard-info.
func (c *Client) Info(ctx context.Context, addr string) (*Info, error) {
	var out Info
	if err := c.do(ctx, http.MethodGet, addr+"/v1/shard-info", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Prepare registers a statement on a shard via /v1/prepare. The shard
// registry dedupes by normalized SQL, so re-preparing an already-known
// statement is a cache hit, not a new plan.
func (c *Client) Prepare(ctx context.Context, addr, sql string) (*PrepareResponse, error) {
	var out PrepareResponse
	if err := c.do(ctx, http.MethodPost, addr+"/v1/prepare", prepareRequest{SQL: sql}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// ExplainAnalyze runs the shard's one-shot profiled execution and
// returns the rendered per-operator report.
func (c *Client) ExplainAnalyze(ctx context.Context, addr, sql string, timeout time.Duration) (*explainResponse, error) {
	var out explainResponse
	req := explainRequest{SQL: sql, TimeoutMS: timeout.Milliseconds()}
	if err := c.do(ctx, http.MethodPost, addr+"/v1/explain-analyze", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

func truncate(b []byte) string {
	const max = 200
	if len(b) > max {
		return string(b[:max]) + "..."
	}
	return string(b)
}
