package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"minequery"
	"minequery/internal/cluster"
	"minequery/internal/fault"
	"minequery/internal/recycle"
	"minequery/internal/sqlparse"
	"minequery/internal/wire"
)

// Config tunes a Server. Zero values take the documented defaults.
type Config struct {
	// Workers bounds concurrently executing queries (default: NumCPU).
	Workers int
	// QueueDepth bounds queries waiting for a worker slot; arrivals
	// beyond workers+queue are rejected with code "rejected"
	// (default 32).
	QueueDepth int
	// DefaultTimeout is the per-query deadline when neither the session
	// nor the request sets one (default 30s).
	DefaultTimeout time.Duration
	// SlowQueryThreshold is the duration at or above which a completed
	// query is recorded in the slow-query log served at /v1/slowlog
	// (default 250ms; negative disables recording).
	SlowQueryThreshold time.Duration
	// SlowLogSize bounds the slow-query ring buffer (default 128
	// entries; oldest overwritten first).
	SlowLogSize int
	// BreakerThreshold is the consecutive index-path failure count that
	// trips a table's circuit breaker, shedding its queries to the
	// degraded force-seqscan plan (default 3; negative disables the
	// breaker). Degraded plans return identical rows — shedding trades
	// latency, never correctness.
	BreakerThreshold int
	// BreakerCooldown is how long a tripped circuit stays open before a
	// single probe query retries the optimized plan (default 5s).
	BreakerCooldown time.Duration
	// Faults, when non-nil, is consulted at the server's admission
	// injection site (chaos tests). Nil — the production state —
	// reduces the site to a pointer check.
	Faults *minequery.FaultInjector
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU()
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 32
	}
	if c.QueueDepth < 0 {
		c.QueueDepth = 0
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.SlowQueryThreshold == 0 {
		c.SlowQueryThreshold = 250 * time.Millisecond
	}
	if c.SlowLogSize <= 0 {
		c.SlowLogSize = 128
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerThreshold < 0 {
		c.BreakerThreshold = 0 // disabled
	}
	return c
}

// Server is the minequeryd core: session management, the
// prepared-statement registry, the shared envelope cache, and admission
// control in front of one embedded engine. Create with New, expose
// Handler over any net/http server, stop with Shutdown (which drains
// in-flight queries).
type Server struct {
	eng      *minequery.Engine
	cfg      Config
	mux      *http.ServeMux
	adm      *admission
	reg      *registry
	env      *envCache
	sessions *sessionStore
	slow     *slowLog
	breaker  *fault.BreakerSet // per-table circuits (breaker.go)
	metrics  *minequery.MetricsRegistry
	started  time.Time
	drain    // the guard New registers, Shutdown and /healthz (drain.go)

	queries       atomic.Int64
	timeouts      atomic.Int64
	cancelled     atomic.Int64
	invalidations atomic.Int64
	degraded      atomic.Int64 // queries served on the degraded plan

	// lastInfo is the last full shard-info answer's epoch and models
	// digest, which an epoch-only answer confirms (shard.go).
	lastInfo atomic.Pointer[infoDigest]

	// execHook, when set, runs after admission but before execution —
	// a test seam for holding a worker slot at a known point.
	execHook func()
}

// New wires a server around an engine. It installs the shared envelope
// cache on the engine and subscribes to catalog invalidation events;
// the engine should not be mutated concurrently with serving except
// through catalog operations (retrain, index DDL, analyze), which the
// cache layers are built to absorb.
func New(eng *minequery.Engine, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		eng:      eng,
		cfg:      cfg,
		mux:      http.NewServeMux(),
		adm:      newAdmission(cfg.Workers, cfg.QueueDepth),
		reg:      newRegistry(eng),
		env:      newEnvCache(),
		sessions: newSessionStore(),
		slow:     newSlowLog(cfg.SlowLogSize),
		breaker:  fault.NewBreakerSet(cfg.BreakerThreshold, cfg.BreakerCooldown),
		started:  time.Now(),
		drain:    drain{stop: make(chan struct{})},
	}
	s.metrics = s.buildMetrics()
	eng.SetEnvelopeCache(s.env)
	eng.OnInvalidate(func(ev minequery.InvalidationEvent) {
		s.invalidations.Add(1)
		// Statement plans re-validate lazily against the epoch; the
		// envelope cache is fingerprint-keyed so model churn only strands
		// dead entries — purge to reclaim the space.
		if ev.Model != "" {
			s.env.Purge()
		}
	})
	g := s.guard
	s.mux.HandleFunc("POST /v1/session", g(s.handleSessionCreate))
	s.mux.HandleFunc("DELETE /v1/session/{id}", g(s.handleSessionDelete))
	s.mux.HandleFunc("POST /v1/session/{id}/settings", g(s.handleSessionSettings))
	s.mux.HandleFunc("POST /v1/prepare", g(s.handlePrepare))
	s.mux.HandleFunc("POST /v1/execute", g(s.handleExecute))
	s.mux.HandleFunc("POST /v1/exec", g(s.handleExec))
	s.mux.HandleFunc("POST /v1/explain-analyze", g(s.handleExplainAnalyze))
	s.mux.HandleFunc("POST /v1/subscribe", g(s.handleSubscribe))
	s.mux.HandleFunc("DELETE /v1/subscribe/{id}", g(s.handleUnsubscribe))
	s.mux.HandleFunc("GET /v1/subscriptions", g(s.handleSubscriptions))
	s.mux.HandleFunc("GET /v1/notifications", g(s.handleNotifications))
	s.mux.HandleFunc("POST /v1/shard-exec", g(s.handleShardExec))
	s.mux.HandleFunc("GET /v1/shard-info", g(s.handleShardInfo))
	s.mux.HandleFunc("GET /v1/slowlog", s.handleSlowlog)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s
}

// Handler returns the HTTP entry point.
func (s *Server) Handler() http.Handler { return s.mux }

// ---- bodies only this package knows (everything a client of ours
// decodes is declared in internal/wire) ----

type sessionResponse struct {
	SessionID string `json:"session_id"`
}

type settingsRequest struct {
	DOP       *int    `json:"dop"`
	ForcePath *string `json:"force_path"`
	TimeoutMS *int64  `json:"timeout_ms"`
}

type slowlogResponse struct {
	ThresholdMS int64          `json:"threshold_ms"`
	Total       int64          `json:"total"`
	Entries     []slowLogEntry `json:"entries"`
}

type statsResponse struct {
	UptimeMS           int64          `json:"uptime_ms"`
	Sessions           int            `json:"sessions"`
	Queries            int64          `json:"queries"`
	Timeouts           int64          `json:"timeouts"`
	Cancelled          int64          `json:"cancelled"`
	CatalogEpoch       int64          `json:"catalog_epoch"`
	InvalidationEvents int64          `json:"invalidation_events"`
	Admission          admissionStats `json:"admission"`
	Prepared           registryStats  `json:"prepared"`
	EnvelopeCache      envCacheStats  `json:"envelope_cache"`
	Breaker            breakerStats   `json:"breaker"`
}

// bodies recycles response buffers, each with the json.Encoder built
// over it. A body is encoded whole before the status line is committed,
// so a value encoding/json refuses answers an error envelope and never a
// 200 with nothing after it.
var bodies recycle.Pool[responseBody]

// responseBody is a response buffer and the encoder that writes into it.
// A bytes.Buffer never fails a write, so the encoder never keeps an
// error: one a value refused leaves it as it was.
type responseBody struct {
	buf bytes.Buffer
	enc *json.Encoder
}

// jsonContentType is every JSON answer's Content-Type header value,
// shared so that setting it allocates nothing.
var jsonContentType = []string{"application/json"}

func writeJSON(w http.ResponseWriter, status int, v any) {
	b := bodies.Get()
	defer bodies.Put(b)
	if b.enc == nil {
		b.enc = json.NewEncoder(&b.buf)
	}
	b.buf.Reset()
	if err := b.enc.Encode(v); err != nil {
		// A non-finite float is the only value our bodies can hold that
		// JSON cannot; the envelope itself always encodes.
		writeEnvelope(w, errInternal("encode response: "+err.Error()))
		return
	}
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	_, _ = w.Write(b.buf.Bytes()) // a client that went away has no one to tell
}

// writeEnvelope answers err as the wire error envelope and returns the
// code it was classified as.
func writeEnvelope(w http.ResponseWriter, err error) string {
	code, status := classify(err)
	writeJSON(w, status, wire.ErrorEnvelope{Error: wire.ErrorBody{Code: code, Message: err.Error()}})
	return code
}

func (s *Server) writeError(w http.ResponseWriter, err error) {
	switch writeEnvelope(w, err) {
	case wire.CodeTimeout:
		s.timeouts.Add(1)
	case wire.CodeCancelled:
		s.cancelled.Add(1)
	}
}

// decodeBody decodes a request's first JSON value into v, refusing
// unknown fields; what follows the value is not read. The json.Decoder
// and its buffer come from a pool: each is built once over a bodySource
// that every request re-points at its own body. A decoder goes back only
// after a successful decode whose buffered remainder is white space, so
// the next request finds nothing of this one in front of its own bytes;
// after a failed decode (whose decoder keeps its error) or trailing
// bytes it is dropped.
func decodeBody(r *http.Request, v any) error {
	bd := bodyDecoders.Get()
	if bd.dec == nil {
		bd.dec = json.NewDecoder(&bd.src)
		bd.dec.DisallowUnknownFields()
	}
	bd.src.Reader = r.Body
	err := bd.dec.Decode(v)
	bd.src.Reader = nil
	if err != nil {
		return errBadRequest("decode request: " + err.Error())
	}
	if onlySpace(bd.dec) {
		bodyDecoders.Put(bd)
	}
	return nil
}

// bodyDecoder is a request decoder and the reader it was built over.
type bodyDecoder struct {
	src bodySource
	dec *json.Decoder
}

// bodySource is the reader a pooled decoder reads: the current request's
// body.
type bodySource struct{ io.Reader }

// onlySpace reports whether what dec has read past its last value is
// nothing but JSON white space.
func onlySpace(dec *json.Decoder) bool {
	rest := dec.Buffered()
	var b [64]byte
	for {
		n, err := rest.Read(b[:])
		for _, c := range b[:n] {
			if c != ' ' && c != '\t' && c != '\n' && c != '\r' {
				return false
			}
		}
		if err != nil {
			return true
		}
	}
}

// bodyDecoders recycles request decoders.
var bodyDecoders recycle.Pool[bodyDecoder]

func wireStats(st minequery.ExecStats) wire.ExecStats {
	return wire.ExecStats{
		DurationUS:    st.Duration.Microseconds(),
		SeqPageReads:  st.SeqPageReads,
		RandPageReads: st.RandPageReads,
		TupleReads:    st.TupleReads,
		CostUnits:     st.CostUnits,
	}
}

// ---- handlers ----

func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	sess := s.sessions.create()
	writeJSON(w, http.StatusOK, sessionResponse{SessionID: sess.id})
}

func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	if !s.sessions.drop(r.PathValue("id")) {
		s.writeError(w, errNotFound("no session "+r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"deleted": true})
}

func (s *Server) handleSessionSettings(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.sessions.get(r.PathValue("id"))
	if !ok {
		s.writeError(w, errNotFound("no session "+r.PathValue("id")))
		return
	}
	var req settingsRequest
	if err := decodeBody(r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	if req.ForcePath != nil && *req.ForcePath != "" && *req.ForcePath != "seqscan" {
		s.writeError(w, errBadRequest(`force_path must be "" or "seqscan"`))
		return
	}
	sess.mu.Lock()
	if req.DOP != nil {
		sess.settings.DOP = *req.DOP
	}
	if req.ForcePath != nil {
		sess.settings.ForcePath = *req.ForcePath
	}
	if req.TimeoutMS != nil {
		sess.settings.Timeout = time.Duration(*req.TimeoutMS) * time.Millisecond
	}
	cur := sess.settings
	sess.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"dop":        cur.DOP,
		"force_path": cur.ForcePath,
		"timeout_ms": cur.Timeout.Milliseconds(),
	})
}

// resolveSettings loads the session's settings, or defaults when no
// session is named.
func (s *Server) resolveSettings(sessionID string) (sessionSettings, error) {
	if sessionID == "" {
		return sessionSettings{}, nil
	}
	sess, ok := s.sessions.get(sessionID)
	if !ok {
		return sessionSettings{}, errNotFound("no session " + sessionID)
	}
	return sess.snapshot(), nil
}

func (s *Server) handlePrepare(w http.ResponseWriter, r *http.Request) {
	var req wire.PrepareRequest
	if err := decodeBody(r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	if err := requireSQL(req.SQL); err != nil {
		s.writeError(w, err)
		return
	}
	settings, err := s.resolveSettings(req.SessionID)
	if err != nil {
		s.writeError(w, err)
		return
	}
	ent, _, err := s.reg.lookup(req.SQL, settings.ForcePath == "seqscan")
	if err != nil {
		s.writeError(w, err)
		return
	}
	p, cached, err := s.reg.plan(ent)
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, wire.PrepareResponse{
		StatementID: ent.id,
		Cached:      cached,
		Plan:        p.Plan(),
		AccessPath:  p.AccessPath(),
	})
}

func requireSQL(sql string) error {
	if sql == "" {
		return errBadRequest("sql is required")
	}
	return nil
}

func exactlyOne(sql, statementID string) error {
	if (sql == "") == (statementID == "") {
		return errBadRequest("exactly one of sql or statement_id is required")
	}
	return nil
}

// serve is the one prologue of the statement endpoints (/v1/execute,
// /v1/shard-exec, /v1/exec, /v1/explain-analyze): decode into req, the
// endpoint's own check (which also names the session and the request's
// timeout_ms), the deadline — request over session over server default
// — an admission slot held until the answer is written, the test hook
// and the admission fault site. run's value is the 200 body.
func (s *Server) serve(w http.ResponseWriter, r *http.Request, req any,
	check func() (sessionID string, timeoutMS int64, err error),
	run func(context.Context, sessionSettings) (any, error)) {
	if err := decodeBody(r, req); err != nil {
		s.writeError(w, err)
		return
	}
	sessionID, timeoutMS, err := check()
	if err != nil {
		s.writeError(w, err)
		return
	}
	settings, err := s.resolveSettings(sessionID)
	if err != nil {
		s.writeError(w, err)
		return
	}
	timeout := s.cfg.DefaultTimeout
	if settings.Timeout > 0 {
		timeout = settings.Timeout
	}
	if timeoutMS > 0 {
		timeout = time.Duration(timeoutMS) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	// Admission: a worker slot or a bounded wait for one. The wait is
	// itself under the query deadline, so a queued query times out
	// rather than waiting forever. Writes take the same slots as reads —
	// a burst of inserts queues behind the pool rather than starving
	// readers.
	if err := s.adm.acquire(ctx); err != nil {
		s.writeError(w, err)
		return
	}
	defer s.adm.release()
	if s.execHook != nil {
		s.execHook()
	}
	if err := s.cfg.Faults.Hit(minequery.FaultSiteAdmission); err != nil {
		s.writeError(w, err)
		return
	}
	body, err := run(ctx, settings)
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.queries.Add(1)
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleExecute(w http.ResponseWriter, r *http.Request) {
	var req wire.ExecuteRequest
	rows := rowEncoders.Get()
	defer rowEncoders.Put(rows) // after serve has written the body that aliases it
	s.serve(w, r, &req, func() (string, int64, error) {
		if req.DOP != 0 {
			return "", 0, errBadRequest("dop is a session setting on a node, a request field only on a coordinator")
		}
		return req.SessionID, req.TimeoutMS, exactlyOne(req.SQL, req.StatementID)
	}, func(ctx context.Context, settings sessionSettings) (any, error) {
		resp, err := s.execute(ctx, req.SQL, req.StatementID, settings.ForcePath == "seqscan", nil, settingsExecOpts(settings), rows)
		if err != nil {
			return nil, err
		}
		return &resp.ExecuteResponse, nil
	})
}

// handleShardExec is the endpoint a cluster coordinator drives:
// /v1/execute by text alone, minus sessions, plus an optional catalog
// epoch guard and partial-aggregate mode.
func (s *Server) handleShardExec(w http.ResponseWriter, r *http.Request) {
	var req wire.ShardExecRequest
	rows := rowEncoders.Get()
	defer rowEncoders.Put(rows)
	s.serve(w, r, &req, func() (string, int64, error) {
		return "", req.TimeoutMS, requireSQL(req.SQL)
	}, func(ctx context.Context, _ sessionSettings) (any, error) {
		opts := settingsExecOpts(sessionSettings{DOP: req.DOP})
		if req.AggPartial {
			opts = append(opts, minequery.WithPartialAggs())
		}
		return s.execute(ctx, req.SQL, "", false, req.ExpectedEpoch, opts, rows)
	})
}

// rowEncoder is the RowSink of /v1/execute and /v1/shard-exec: it
// appends each batch's rows to the answer's "rows" array as JSON while
// the batch is valid, so a request holds one batch and the encoded
// array, never the result as tuples or cells. The array goes to a
// buffer and not to the ResponseWriter because an execution can still
// fail, time out or start over after rows were delivered: the body is
// written once, by serve, after the statement returned without error.
type rowEncoder struct {
	// buf is the rows so far, each preceded by one byte: a comma, which
	// rows turns into the opening bracket for the first.
	buf []byte
	n   int // rows in buf
}

var rowEncoders recycle.Pool[rowEncoder]

func (e *rowEncoder) Begin() { e.buf, e.n = e.buf[:0], 0 }

func (e *rowEncoder) Batch(rows []minequery.Tuple) error {
	for _, row := range rows {
		var err error
		if e.buf, err = wire.AppendRow(append(e.buf, ','), row); err != nil {
			return errInternal(err.Error())
		}
	}
	e.n += len(rows)
	return nil
}

// rows closes the encoded array and returns it with its row count. It
// aliases the encoder, which must not begin again or go back to its pool
// before the body is written.
func (e *rowEncoder) rows() wire.RowSet {
	if len(e.buf) == 0 {
		e.buf = append(e.buf, "[]"...)
	} else {
		e.buf[0] = '['
		e.buf = append(e.buf, ']')
	}
	return wire.RowSet{Encoded: e.buf, N: e.n}
}

// execute runs one read statement — by id, or by SQL through the
// statement cache — and builds its answer. /v1/execute and
// /v1/shard-exec differ only in what their request carries: session
// settings (forceSeq, opts) on the former; an epoch guard, a DOP and
// partial-aggregate mode on the latter. /v1/execute answers with the
// embedded ExecuteResponse, /v1/shard-exec with the whole value. The
// rows are in the answer as rows encoded them, and nowhere else.
func (s *Server) execute(ctx context.Context, sql, statementID string, forceSeq bool, expectedEpoch *int64, opts []minequery.QueryOption, rows *rowEncoder) (*wire.ShardExecResponse, error) {
	epoch := s.eng.CatalogEpoch()
	if expectedEpoch != nil && *expectedEpoch != epoch {
		return nil, &apiError{code: wire.CodeEpochMismatch, msg: "catalog epoch moved since the coordinator planned"}
	}
	var ent *stmtEntry
	if statementID != "" {
		var ok bool
		if ent, ok = s.reg.byStatementID(statementID); !ok {
			return nil, errNotFound("no statement " + statementID)
		}
	} else {
		var err error
		if ent, _, err = s.reg.lookup(sql, forceSeq); err != nil {
			return nil, err
		}
	}
	res, reused, degraded, err := s.executeGuarded(ctx, ent, rows, opts)
	if err != nil {
		return nil, err
	}
	if s.isSlow(res) {
		s.recordSlow(ent.norm, res)
	}
	return &wire.ShardExecResponse{
		ExecuteResponse: wire.ExecuteResponse{
			StatementID:       ent.id,
			StatementCacheHit: reused,
			Columns:           res.ColumnNames(),
			Schema:            cluster.WireSchema(res.Columns),
			Rows:              rows.rows(),
			RowCount:          res.RowCount,
			Plan:              res.Plan,
			AccessPath:        res.AccessPath,
			PlanChanged:       res.PlanChanged,
			EstSelectivity:    res.EstSelectivity,
			Degraded:          degraded,
			Fallback:          res.Fallback,
			Retries:           res.Retries,
			Stats:             wireStats(res.Stats),
		},
		Epoch:      epoch,
		AggPartial: res.PartialAgg,
	}, nil
}

// handleExec runs one write statement (INSERT/UPDATE/DELETE or CREATE
// MODEL) through the engine's durable write path, under the same
// admission control and error taxonomy as queries: clients see
// parse_error/unsupported_query for bad statements and transient for
// injected write-path failures.
func (s *Server) handleExec(w http.ResponseWriter, r *http.Request) {
	var req wire.ExecRequest
	s.serve(w, r, &req, func() (string, int64, error) {
		return req.SessionID, req.TimeoutMS, requireSQL(req.SQL)
	}, func(ctx context.Context, _ sessionSettings) (any, error) {
		res, err := s.eng.Exec(ctx, req.SQL)
		// A failed retrain after a durably committed write is partial
		// success, not statement failure: the rows are applied and logged,
		// so a 5xx here would invite the client to re-issue (and
		// double-apply) the statement. Report 200 with the populated
		// result and the retrain error alongside.
		if err != nil && (res == nil || !errors.Is(err, minequery.ErrRetrainFailed)) {
			return nil, err
		}
		body := wire.ExecResponse{
			Statement:    res.Statement,
			Table:        res.Table,
			RowsAffected: res.RowsAffected,
			Retrained:    res.Retrained,
			Epoch:        res.Epoch,
		}
		if err != nil {
			body.RetrainError = err.Error()
		}
		if res.Model != nil {
			body.Model = &wire.ModelBody{
				Name:    res.Model.Name,
				Classes: len(res.Model.Classes),
				Version: res.Model.Version,
			}
		}
		return body, nil
	})
}

// executeGuarded runs the entry's plan behind the per-table circuit
// breaker. When the table's circuit is open, the query is shed to the
// degraded force-seqscan statement variant (identical rows, no index
// exposure); when half-open, one probe runs the optimized plan and its
// outcome closes or re-opens the circuit. Outcomes feeding the breaker:
// an engine-level fallback or a surfaced transient error counts as an
// index-path failure; clean completions count as success; anything else
// (timeouts, parse errors) carries no signal about the index path.
// The rows go to sink, which every attempt begins anew.
func (s *Server) executeGuarded(ctx context.Context, ent *stmtEntry, sink minequery.RowSink, opts []minequery.QueryOption) (res *minequery.Result, planReused, degraded bool, err error) {
	table := ent.tableName()
	probe := false
	if !ent.force {
		degraded, probe = s.breaker.Allow(table)
	}
	if degraded {
		dent, _, derr := s.reg.lookup(ent.sql, true)
		if derr == nil {
			res, planReused, err = s.reg.execute(ctx, dent, sink, opts)
			if err == nil {
				s.degraded.Add(1)
				return res, planReused, true, nil
			}
			return nil, false, true, err
		}
		degraded = false // degraded lookup failed; run the optimized plan
	}
	res, planReused, err = s.reg.execute(ctx, ent, sink, opts)
	if table == "" {
		// First execution of this entry prepared the plan just now; the
		// breaker can attribute the outcome from here on.
		table = ent.tableName()
	}
	if !ent.force {
		failed := (err != nil && errors.Is(err, minequery.ErrTransient) && ctx.Err() == nil) ||
			(err == nil && res.Fallback)
		switch {
		case failed:
			s.breaker.Report(table, probe, true)
		case err == nil:
			s.breaker.Report(table, probe, false)
		case probe:
			s.breaker.ProbeInconclusive(table)
		}
	}
	return res, planReused, false, err
}

// settingsExecOpts translates session settings into per-execution
// query options (plan-shaping settings are applied at prepare time).
func settingsExecOpts(settings sessionSettings) []minequery.QueryOption {
	var opts []minequery.QueryOption
	if settings.DOP > 0 {
		opts = append(opts, minequery.WithDOP(settings.DOP))
	}
	return opts
}

// isSlow reports whether the completed query met the slow-query
// threshold.
func (s *Server) isSlow(res *minequery.Result) bool {
	return s.cfg.SlowQueryThreshold >= 0 && res.Stats.Duration >= s.cfg.SlowQueryThreshold
}

// recordSlow logs a query that met the slow-query threshold, with its
// report — the one read of a served query's report outside EXPLAIN
// ANALYZE. normSQL is the normalized statement text.
func (s *Server) recordSlow(normSQL string, res *minequery.Result) {
	e := slowLogEntry{
		Time:       time.Now(),
		SQL:        normSQL,
		AccessPath: res.AccessPath,
		Rows:       res.RowCount,
		ExecStats:  wireStats(res.Stats),
		Plan:       res.Plan,
		Analyze:    res.Report().Render(false),
	}
	s.slow.record(e)
}

// handleExplainAnalyze runs the statement once with per-operator
// instrumentation and envelope attribution, returning the rendered
// report instead of the result rows, which are counted and dropped as
// they leave the plan. It is a one-shot diagnostic: the
// statement registry is bypassed so the profiled run never perturbs
// cached plans, but session settings (DOP, force_path) and admission
// control still apply — the query really executes.
func (s *Server) handleExplainAnalyze(w http.ResponseWriter, r *http.Request) {
	var req wire.ExplainAnalyzeRequest
	s.serve(w, r, &req, func() (string, int64, error) {
		return req.SessionID, req.TimeoutMS, requireSQL(req.SQL)
	}, func(ctx context.Context, settings sessionSettings) (any, error) {
		opts := append(settingsExecOpts(settings), minequery.WithAnalyze())
		if settings.ForcePath != "" {
			opts = append(opts, minequery.WithForcedPath(settings.ForcePath))
		}
		p, err := s.eng.Prepare(req.SQL, opts...)
		if err != nil {
			return nil, err
		}
		res, err := p.ExecuteInto(ctx, minequery.DiscardRows, opts...)
		if err != nil {
			return nil, err
		}
		if s.isSlow(res) {
			// Normalized only when an entry will be recorded.
			if norm, nerr := sqlparse.Normalize(req.SQL); nerr == nil {
				s.recordSlow(norm, res)
			}
		}
		return wire.ExplainAnalyzeResponse{
			Plan:           res.Plan,
			AccessPath:     res.AccessPath,
			RowCount:       res.RowCount,
			EstSelectivity: res.EstSelectivity,
			RewriteNotes:   res.RewriteNotes,
			Analyze:        res.Report().Render(false),
			Stats:          wireStats(res.Stats),
		}, nil
	})
}

// handleSlowlog serves the slow-query ring buffer, newest first.
func (s *Server) handleSlowlog(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, slowlogResponse{
		ThresholdMS: s.cfg.SlowQueryThreshold.Milliseconds(),
		Total:       s.slow.total.Load(),
		Entries:     s.slow.entries(),
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, statsResponse{
		UptimeMS:           time.Since(s.started).Milliseconds(),
		Sessions:           s.sessions.count(),
		Queries:            s.queries.Load(),
		Timeouts:           s.timeouts.Load(),
		Cancelled:          s.cancelled.Load(),
		CatalogEpoch:       s.eng.CatalogEpoch(),
		InvalidationEvents: s.invalidations.Load(),
		Admission:          s.adm.stats(),
		Prepared:           s.reg.stats(),
		EnvelopeCache:      s.env.stats(),
		Breaker:            s.breakerStatus(),
	})
}
