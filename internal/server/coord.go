package server

import (
	"context"
	"net/http"
	"time"

	"minequery"
	"minequery/internal/cluster"
	"minequery/internal/wire"
)

// CoordServer is minequeryd's coordinator mode: the same HTTP/JSON
// dialect as the single-node server (execute, prepare,
// explain-analyze, stats, metrics, healthz) served by a
// cluster.Coordinator fanning out over a shard map, plus GET
// /v1/cluster exposing the map, per-shard breaker state, and
// last-observed epochs.
type CoordServer struct {
	coord   *cluster.Coordinator
	mux     *http.ServeMux
	metrics *minequery.MetricsRegistry
	timeout time.Duration
	started time.Time
	drain   // the guard NewCoord registers, Shutdown and /healthz (drain.go)
}

// NewCoord wires the coordinator HTTP surface. defaultTimeout bounds a
// whole fan-out when the request does not set timeout_ms (<=0: 30s).
func NewCoord(coord *cluster.Coordinator, defaultTimeout time.Duration) *CoordServer {
	if defaultTimeout <= 0 {
		defaultTimeout = 30 * time.Second
	}
	cs := &CoordServer{
		coord:   coord,
		mux:     http.NewServeMux(),
		timeout: defaultTimeout,
		started: time.Now(),
		drain:   drain{stop: make(chan struct{})},
	}
	cs.metrics = cs.buildMetrics()
	g := cs.guard
	cs.mux.HandleFunc("POST /v1/execute", g(cs.handleExecute))
	cs.mux.HandleFunc("POST /v1/exec", g(cs.handleExec))
	cs.mux.HandleFunc("POST /v1/prepare", g(cs.handlePrepare))
	cs.mux.HandleFunc("POST /v1/explain-analyze", g(cs.handleExplainAnalyze))
	cs.mux.HandleFunc("GET /v1/cluster", cs.handleCluster)
	cs.mux.HandleFunc("GET /v1/stats", cs.handleStats)
	cs.mux.HandleFunc("GET /metrics", cs.handleMetrics)
	cs.mux.HandleFunc("GET /healthz", cs.handleHealthz)
	return cs
}

// Handler returns the HTTP entry point.
func (cs *CoordServer) Handler() http.Handler { return cs.mux }

// coordStatsResponse is GET /v1/stats in coordinator mode; no in-repo
// client decodes it, so it stays beside its only producer.
type coordStatsResponse struct {
	UptimeMS    int64            `json:"uptime_ms"`
	Counters    cluster.Counters `json:"counters"`
	BreakerOpen int              `json:"breaker_open"`
	Trips       int64            `json:"breaker_trips"`
}

// ---- handlers ----

// serve is the coordinator's request prologue: decode into req, the
// endpoint's own check (which also names the session and the
// request's timeout_ms), the no-sessions rule, and the deadline
// bounding the whole fan-out. run's value is the 200 body.
func (cs *CoordServer) serve(w http.ResponseWriter, r *http.Request, req any,
	check func() (sessionID string, timeoutMS int64, err error),
	run func(context.Context) (any, error)) {
	if err := decodeBody(r, req); err != nil {
		writeEnvelope(w, err)
		return
	}
	sessionID, timeoutMS, err := check()
	if err == nil && sessionID != "" {
		// The request bodies are the single-node ones, but sessions (and
		// the dop/force_path/timeout_ms settings they carry) live on a
		// node; silently ignoring one would run the statement with
		// settings the client did not ask for.
		err = errBadRequest("coordinator mode has no sessions")
	}
	if err != nil {
		writeEnvelope(w, err)
		return
	}
	timeout := cs.timeout
	if timeoutMS > 0 {
		timeout = time.Duration(timeoutMS) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	body, err := run(ctx)
	if err != nil {
		writeEnvelope(w, err)
		return
	}
	writeJSON(w, http.StatusOK, body)
}

func (cs *CoordServer) handleExecute(w http.ResponseWriter, r *http.Request) {
	var req wire.ExecuteRequest
	cs.serve(w, r, &req, func() (string, int64, error) {
		return req.SessionID, req.TimeoutMS, exactlyOne(req.SQL, req.StatementID)
	}, func(ctx context.Context) (any, error) {
		res, err := cs.coord.Execute(ctx, cluster.Request{
			SQL:         req.SQL,
			StatementID: req.StatementID,
			DOP:         req.DOP,
		})
		if err != nil {
			return nil, err
		}
		return wire.CoordExecuteResponse{
			StatementID:   res.StatementID,
			Columns:       res.Columns,
			Schema:        res.Schema,
			Rows:          res.Rows,
			RowCount:      res.Rows.N,
			AggMerges:     res.AggMerges,
			Shards:        res.ShardStats,
			Degraded:      res.Degraded,
			MissingShards: res.MissingShards,
			Notes:         res.Notes,
			Retries:       res.Retries,
			Epoch:         res.Epoch,
		}, nil
	})
}

// handleExec routes one write statement across the fleet: INSERT rows
// to their owning shards by the shard map, UPDATE/DELETE/CREATE MODEL
// broadcast to every shard.
func (cs *CoordServer) handleExec(w http.ResponseWriter, r *http.Request) {
	var req wire.ExecRequest
	cs.serve(w, r, &req, func() (string, int64, error) {
		return req.SessionID, req.TimeoutMS, requireSQL(req.SQL)
	}, func(ctx context.Context) (any, error) {
		return cs.coord.Exec(ctx, req.SQL)
	})
}

func (cs *CoordServer) handlePrepare(w http.ResponseWriter, r *http.Request) {
	var req wire.PrepareRequest
	cs.serve(w, r, &req, func() (string, int64, error) {
		return req.SessionID, 0, requireSQL(req.SQL)
	}, func(ctx context.Context) (any, error) {
		return cs.coord.Prepare(ctx, req.SQL)
	})
}

func (cs *CoordServer) handleExplainAnalyze(w http.ResponseWriter, r *http.Request) {
	var req wire.ExplainAnalyzeRequest
	cs.serve(w, r, &req, func() (string, int64, error) {
		return req.SessionID, req.TimeoutMS, requireSQL(req.SQL)
	}, func(ctx context.Context) (any, error) {
		report, err := cs.coord.ExplainAnalyze(ctx, req.SQL)
		return wire.CoordExplainResponse{Analyze: report}, err
	})
}

func (cs *CoordServer) handleCluster(w http.ResponseWriter, r *http.Request) {
	m := cs.coord.Map()
	writeJSON(w, http.StatusOK, wire.ClusterResponse{
		Table:    m.Table,
		Column:   m.Column,
		Mode:     string(m.Mode),
		Shards:   cs.coord.ShardStatuses(),
		Prepared: cs.coord.Statements(),
	})
}

func (cs *CoordServer) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, coordStatsResponse{
		UptimeMS:    time.Since(cs.started).Milliseconds(),
		Counters:    cs.coord.Counters(),
		BreakerOpen: cs.coord.BreakerOpen(),
		Trips:       cs.coord.BreakerTrips(),
	})
}

// handleMetrics serves the minequery_shard_* series; like the
// single-node scrape endpoint it skips the drain guard.
func (cs *CoordServer) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = cs.metrics.WritePrometheus(w)
}

// buildMetrics bridges the coordinator's counters into frozen
// minequery_shard_* series (checked by cmd/metricslint against the
// cluster required-series list).
func (cs *CoordServer) buildMetrics() *minequery.MetricsRegistry {
	reg := minequery.NewMetricsRegistry()
	c := func(f func(cluster.Counters) int64) func() float64 {
		return func() float64 { return float64(f(cs.coord.Counters())) }
	}
	reg.CounterFunc("minequery_coord_queries_total",
		"Queries executed by the coordinator (fan-outs, not per-shard requests).",
		c(func(x cluster.Counters) int64 { return x.Queries }))
	reg.CounterFunc("minequery_shard_planned_total",
		"Shard slots considered across all coordinator queries (queries x shards).",
		c(func(x cluster.Counters) int64 { return x.Planned }))
	reg.CounterFunc("minequery_shard_pruned_total",
		"Shard round-trips skipped because the shard's key range is provably disjoint from the (envelope-rewritten) predicate.",
		c(func(x cluster.Counters) int64 { return x.Pruned }))
	reg.CounterFunc("minequery_shard_queried_total",
		"Shard round-trips actually performed.",
		c(func(x cluster.Counters) int64 { return x.Queried }))
	reg.CounterFunc("minequery_shard_degraded_total",
		"Shard slots answered as missing in an AllowPartial degraded result.",
		c(func(x cluster.Counters) int64 { return x.Degraded }))
	reg.CounterFunc("minequery_shard_errors_total",
		"Per-shard availability failures (connect, deadline, exhausted retries, open breaker).",
		c(func(x cluster.Counters) int64 { return x.Errors }))
	reg.CounterFunc("minequery_shard_retries_total",
		"Per-shard transient retries performed by the coordinator.",
		c(func(x cluster.Counters) int64 { return x.Retries }))
	reg.CounterFunc("minequery_shard_replans_total",
		"Epoch-mismatch / stale-plan recovery rounds (fleet-level plan invalidation).",
		c(func(x cluster.Counters) int64 { return x.Replans }))
	reg.GaugeFunc("minequery_shard_breaker_open",
		"Remote shards whose circuit breaker is currently open or half-open.",
		func() float64 { return float64(cs.coord.BreakerOpen()) })
	reg.CounterFunc("minequery_shard_breaker_trips_total",
		"Remote circuit-breaker trips.",
		func() float64 { return float64(cs.coord.BreakerTrips()) })
	return reg
}
