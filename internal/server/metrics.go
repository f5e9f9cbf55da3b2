package server

import (
	"net/http"

	"minequery"
)

// buildMetrics assembles the server's metrics registry: the engine-wide
// series (minequery_*) plus the minequeryd_* server series, all bridged
// from the counters the server already keeps — no second accounting
// path. The series names here are frozen: cmd/metricslint checks every
// one of them against a live /metrics scrape in CI, so renaming or
// dropping a series is a deliberate, lint-visible act.
func (s *Server) buildMetrics() *minequery.MetricsRegistry {
	reg := minequery.NewMetricsRegistry()
	s.eng.RegisterMetrics(reg)

	counter := func(v int64) float64 { return float64(v) }

	reg.CounterFunc("minequeryd_queries_total",
		"Queries executed successfully by the server.",
		func() float64 { return counter(s.queries.Load()) })
	reg.CounterFunc("minequeryd_timeouts_total",
		"Queries that exceeded their deadline.",
		func() float64 { return counter(s.timeouts.Load()) })
	reg.CounterFunc("minequeryd_cancelled_total",
		"Queries whose client went away mid-execution.",
		func() float64 { return counter(s.cancelled.Load()) })
	reg.CounterFunc("minequeryd_invalidations_total",
		"Catalog invalidation events observed (retrain, DDL, analyze).",
		func() float64 { return counter(s.invalidations.Load()) })
	reg.GaugeFunc("minequeryd_sessions",
		"Live client sessions.",
		func() float64 { return float64(s.sessions.count()) })

	reg.CounterFunc("minequeryd_admission_admitted_total",
		"Requests granted a worker slot.",
		func() float64 { return counter(s.adm.stats().Admitted) })
	reg.CounterFunc("minequeryd_admission_rejected_total",
		"Requests rejected because the wait queue was full.",
		func() float64 { return counter(s.adm.stats().Rejected) })
	reg.GaugeFunc("minequeryd_admission_in_flight",
		"Queries currently holding a worker slot.",
		func() float64 { return float64(s.adm.stats().InFlight) })
	reg.GaugeFunc("minequeryd_admission_waiting",
		"Queries queued for a worker slot.",
		func() float64 { return float64(s.adm.stats().Waiting) })

	reg.CounterFunc("minequeryd_prepared_hits_total",
		"Statement-cache lookups served from a cached valid plan.",
		func() float64 { return counter(s.reg.stats().Hits) })
	reg.CounterFunc("minequeryd_prepared_misses_total",
		"Statement-cache lookups that prepared a plan from scratch.",
		func() float64 { return counter(s.reg.stats().Misses) })
	reg.CounterFunc("minequeryd_prepared_reprepares_total",
		"Stale plans rebuilt in place after catalog changes.",
		func() float64 { return counter(s.reg.stats().Reprepares) })
	reg.CounterFunc("minequeryd_prepared_evictions_total",
		"Statements evicted from the registry (FIFO capacity).",
		func() float64 { return counter(s.reg.stats().Evictions) })
	reg.GaugeFunc("minequeryd_prepared_size",
		"Statements currently registered.",
		func() float64 { return float64(s.reg.stats().Size) })

	reg.CounterFunc("minequeryd_envelope_cache_hits_total",
		"Envelope-cache hits (rewrites served without re-derivation).",
		func() float64 { return counter(s.env.stats().Hits) })
	reg.CounterFunc("minequeryd_envelope_cache_misses_total",
		"Envelope-cache misses (envelopes derived from the model).",
		func() float64 { return counter(s.env.stats().Misses) })
	reg.GaugeFunc("minequeryd_envelope_cache_size",
		"Envelope-cache entries currently held.",
		func() float64 { return float64(s.env.stats().Size) })

	reg.GaugeFunc("minequeryd_breaker_open",
		"Tables whose circuit breaker is currently open or half-open.",
		func() float64 { return float64(s.breaker.OpenCount()) })
	reg.CounterFunc("minequeryd_breaker_trips_total",
		"Circuit-breaker trips (closed->open, and failed probes re-opening).",
		func() float64 { return counter(s.breaker.Trips()) })
	reg.CounterFunc("minequeryd_degraded_queries_total",
		"Queries shed to the degraded force-seqscan plan by an open breaker.",
		func() float64 { return counter(s.degraded.Load()) })

	reg.CounterFunc("minequeryd_slowlog_entries_total",
		"Queries recorded in the slow-query log since start.",
		func() float64 { return counter(s.slow.total.Load()) })
	reg.GaugeFunc("minequeryd_slowlog_size",
		"Entries currently held in the slow-query ring buffer.",
		func() float64 { return float64(s.slow.size()) })

	return reg
}

// handleMetrics serves the registry in Prometheus text exposition
// format. New registers it without the drain guard: scrapes should
// keep working while the server drains, and they never touch the engine.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.metrics.WritePrometheus(w)
}
