package server

import (
	"sync"
	"sync/atomic"
	"time"

	"minequery/internal/wire"
)

// slowLogEntry is one recorded slow query. SQL is the normalized form
// (never the raw request text, which may differ in literals' spelling
// only), and Analyze carries the per-operator actuals rendered from the
// query's AnalyzeReport.
type slowLogEntry struct {
	Time       time.Time `json:"time"`
	SQL        string    `json:"sql"`
	AccessPath string    `json:"access_path"`
	Rows       int       `json:"rows"`
	wire.ExecStats
	Plan    string `json:"plan"`
	Analyze string `json:"analyze,omitempty"`
}

// slowLog is a fixed-size ring of the most recent slow queries. Writes
// overwrite the oldest entry once full; total counts every record ever
// made (the monotonic series behind minequeryd_slowlog_entries_total).
type slowLog struct {
	mu   sync.Mutex
	buf  []slowLogEntry
	next int // next write position
	n    int // entries currently held

	total atomic.Int64
}

func newSlowLog(size int) *slowLog {
	if size <= 0 {
		size = 128
	}
	return &slowLog{buf: make([]slowLogEntry, size)}
}

func (l *slowLog) record(e slowLogEntry) {
	l.total.Add(1)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf[l.next] = e
	l.next = (l.next + 1) % len(l.buf)
	if l.n < len(l.buf) {
		l.n++
	}
}

// entries returns the held entries newest-first.
func (l *slowLog) entries() []slowLogEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]slowLogEntry, 0, l.n)
	for i := 1; i <= l.n; i++ {
		out = append(out, l.buf[(l.next-i+len(l.buf))%len(l.buf)])
	}
	return out
}

func (l *slowLog) size() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}
