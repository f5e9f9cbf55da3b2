package server

// The server's per-table circuit breaker is a fault.BreakerSet keyed by
// table name, plus the server's policy for what "degraded" means. A
// table's circuit trips open after BreakerThreshold consecutive
// index-path failures (transient errors surfacing from an optimized
// plan, or engine-level fallbacks); while open, the server sheds that
// table's queries to the degraded force-seqscan plan — which returns
// identical rows, so shedding is a latency trade, never a correctness
// one. After cooldown the circuit goes half-open: a single probe runs the
// optimized plan, and its outcome closes or re-opens the circuit
// (executeGuarded).

// breakerStats is the /v1/stats view of the circuit breaker.
type breakerStats struct {
	Enabled    bool              `json:"enabled"`
	OpenTables int               `json:"open_tables"`
	Trips      int64             `json:"trips"`
	Degraded   int64             `json:"degraded_queries"`
	States     map[string]string `json:"states,omitempty"`
}

// breakerStatus reports the breaker for /v1/stats: the zero view when it
// is disabled.
func (s *Server) breakerStatus() breakerStats {
	if !s.breaker.Enabled() {
		return breakerStats{}
	}
	states := s.breaker.States()
	return breakerStats{
		Enabled:    true,
		OpenTables: len(states),
		Trips:      s.breaker.Trips(),
		Degraded:   s.degraded.Load(),
		States:     states,
	}
}
