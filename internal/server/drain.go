package server

import (
	"context"
	"fmt"
	"net/http"
	"sync"
)

// drain is the shutdown state a node and a coordinator share. Each wraps
// the endpoints that take work with guard when it registers them, so
// which endpoints refuse during a drain is the registration list: the
// scrape and status endpoints (/v1/stats, /v1/slowlog, /metrics,
// /healthz, /v1/cluster) are registered bare and keep answering.
type drain struct {
	mu      sync.Mutex
	closing bool
	wg      sync.WaitGroup
	// stop is closed when Shutdown begins: a guarded handler that waits
	// for the client rather than for work, a long poll, ends its wait.
	stop chan struct{}
}

// guard admits a request into the drain group, or answers
// shutting_down once Shutdown has begun.
func (d *drain) guard(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		d.mu.Lock()
		if d.closing {
			d.mu.Unlock()
			writeEnvelope(w, errShuttingDown)
			return
		}
		d.wg.Add(1)
		d.mu.Unlock()
		defer d.wg.Done()
		h(w, r)
	}
}

// Shutdown stops admitting new requests and waits for in-flight ones
// to drain, or for ctx to expire. Safe to call more than once.
func (d *drain) Shutdown(ctx context.Context) error {
	d.mu.Lock()
	if !d.closing {
		d.closing = true
		close(d.stop)
	}
	d.mu.Unlock()
	done := make(chan struct{})
	go func() {
		d.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server: shutdown drain: %w", ctx.Err())
	}
}

// handleHealthz answers ok, or 503 draining once Shutdown has begun.
func (d *drain) handleHealthz(w http.ResponseWriter, r *http.Request) {
	d.mu.Lock()
	closing := d.closing
	d.mu.Unlock()
	if closing {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
