package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"minequery/internal/qerr"
	"minequery/internal/wire"
)

// Client talks the daemon protocol (internal/wire) to shard nodes.
// Transport failures and availability-class remote errors come back
// wrapped in qerr.ErrTransient so fault.Retry treats them as retryable;
// everything else surfaces as a *RemoteError carrying the shard's
// original code.
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
	case wire.CodeTransient, wire.CodeShuttingDown, wire.CodeRejected, wire.CodeInternal, wire.CodeTimeout:
		return true
	}
	return false
}

// do runs one round trip, decoding a 200 answer into a fresh T, and
// sorts a failure into the two classes the coordinator acts on.
func do[T any](ctx context.Context, c *Client, method, url string, in any) (*T, error) {
	out := new(T)
	err := wire.Call(ctx, c.http, method, url, in, out)
	var we *wire.Error
	if errors.As(err, &we) && we.Code != "" && !availabilityCode(we.Code) {
		return nil, &RemoteError{Status: we.Status, Code: we.Code, Message: we.Message}
	}
	if err != nil {
		// Connection refused or reset, DNS, the per-shard deadline, a
		// non-envelope answer, an availability code: all retryable.
		return nil, fmt.Errorf("%w: %v", qerr.ErrTransient, err)
	}
	return out, nil
}

// Exec runs one statement on a shard via /v1/shard-exec.
func (c *Client) Exec(ctx context.Context, addr string, req wire.ShardExecRequest) (*wire.ShardExecResponse, error) {
	return do[wire.ShardExecResponse](ctx, c, http.MethodPost, addr+"/v1/shard-exec", req)
}

// ExecStatement runs one write statement on a shard via /v1/exec.
func (c *Client) ExecStatement(ctx context.Context, addr, sql string, timeoutMS int64) (*wire.ExecResponse, error) {
	return do[wire.ExecResponse](ctx, c, http.MethodPost, addr+"/v1/exec", wire.ExecRequest{SQL: sql, TimeoutMS: timeoutMS})
}

// Info fetches a shard's catalog summary via /v1/shard-info. With
// epoch >= 0 — the epoch the caller cached the shard's models at, and
// digest their wire.ModelsDigest — a shard still at that epoch with
// those models answers the epoch alone.
func (c *Client) Info(ctx context.Context, addr string, epoch int64, digest string) (*wire.ShardInfoResponse, error) {
	url := addr + "/v1/shard-info"
	if epoch >= 0 {
		url += "?epoch=" + strconv.FormatInt(epoch, 10) + "&models=" + digest
	}
	return do[wire.ShardInfoResponse](ctx, c, http.MethodGet, url, nil)
}

// Prepare registers a statement on a shard via /v1/prepare. The shard
// registry dedupes by normalized SQL, so re-preparing an already-known
// statement is a cache hit, not a new plan.
func (c *Client) Prepare(ctx context.Context, addr, sql string) (*wire.PrepareResponse, error) {
	return do[wire.PrepareResponse](ctx, c, http.MethodPost, addr+"/v1/prepare", wire.PrepareRequest{SQL: sql})
}

// ExplainAnalyze runs the shard's one-shot profiled execution and
// returns the rendered per-operator report.
func (c *Client) ExplainAnalyze(ctx context.Context, addr, sql string, timeout time.Duration) (*wire.ExplainAnalyzeResponse, error) {
	return do[wire.ExplainAnalyzeResponse](ctx, c, http.MethodPost, addr+"/v1/explain-analyze",
		wire.ExplainAnalyzeRequest{SQL: sql, TimeoutMS: timeout.Milliseconds()})
}
