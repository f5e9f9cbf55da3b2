package server

import (
	"context"
	"encoding/json"
	"errors"

	"minequery"
	"minequery/internal/cluster"
	"minequery/internal/wire"
)

// apiError is a typed server error carrying its wire code.
type apiError struct {
	code string
	msg  string
}

func (e *apiError) Error() string { return e.msg }

func errBadRequest(msg string) error { return &apiError{code: wire.CodeBadRequest, msg: msg} }
func errNotFound(msg string) error   { return &apiError{code: wire.CodeNotFound, msg: msg} }
func errInternal(msg string) error   { return &apiError{code: wire.CodeInternal, msg: msg} }

// errRejected is returned by the admission controller when the wait
// queue is at capacity.
var errRejected = &apiError{code: wire.CodeRejected, msg: "server busy: admission queue full"}

// errShuttingDown is returned once Shutdown has begun.
var errShuttingDown = &apiError{code: wire.CodeShuttingDown, msg: "server is shutting down"}

// classify maps an error to its wire code and HTTP status. Context
// errors from query execution become timeout/cancelled; apiErrors keep
// their code; typed engine and cluster errors map by sentinel; anything
// else is a bad request.
func classify(err error) (string, int) {
	var re *cluster.RemoteError
	var ae *apiError
	code := wire.CodeBadRequest
	switch {
	// A RemoteError is a shard's own typed answer relayed by the
	// coordinator: pass the original code and status through so cluster
	// clients see exactly what a single node would have returned.
	case errors.As(err, &re):
		return re.Code, re.Status
	case errors.As(err, &ae):
		code = ae.code
	// Shard availability must outrank the transient check: a ShardError
	// usually wraps ErrTransient (that is what made it retryable), but
	// "a named shard is down" is the actionable fact — 502 with the
	// shard id beats a generic 503.
	case errors.Is(err, cluster.ErrShardUnavailable):
		code = wire.CodeShardUnavailable
	case errors.Is(err, cluster.ErrEpochMismatch):
		code = wire.CodeEpochMismatch
	// A value JSON cannot carry — a non-finite aggregate a coordinator
	// finalized — is the server's failure, not the request's.
	case errors.As(err, new(*json.UnsupportedValueError)):
		code = wire.CodeInternal
	case errors.Is(err, context.DeadlineExceeded):
		code = wire.CodeTimeout
	case errors.Is(err, context.Canceled):
		code = wire.CodeCancelled
	case errors.Is(err, minequery.ErrStalePlan):
		code = wire.CodeStalePlan
	case errors.Is(err, minequery.ErrParse):
		code = wire.CodeParse
	case errors.Is(err, minequery.ErrUnsupportedQuery):
		code = wire.CodeUnsupportedQuery
	case errors.Is(err, minequery.ErrUnknownTable):
		code = wire.CodeUnknownTable
	case errors.Is(err, minequery.ErrUnknownModel):
		code = wire.CodeUnknownModel
	case errors.Is(err, minequery.ErrUnknownSubscription):
		code = wire.CodeNotFound
	case errors.Is(err, minequery.ErrTransient):
		code = wire.CodeTransient
	}
	return code, wire.Status(code)
}
