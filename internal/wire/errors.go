package wire

import (
	"fmt"
	"net/http"
)

// Error codes carried in the envelope. Each maps to one HTTP status
// (Status); clients branch on the code, not on message text.
const (
	CodeBadRequest   = "bad_request"   // malformed request
	CodeNotFound     = "not_found"     // unknown session/statement/subscription
	CodeRejected     = "rejected"      // admission queue full
	CodeShuttingDown = "shutting_down" // server is draining
	CodeInternal     = "internal"      // unexpected failure
	CodeTimeout      = "timeout"       // per-query deadline exceeded
	CodeCancelled    = "cancelled"     // client went away mid-query
	CodeStalePlan    = "stale_plan"    // catalog churned faster than re-prepare retries
	CodeParse        = "parse_error"   // SQL failed to lex or parse
	CodeUnknownTable = "unknown_table" // query names a table the catalog lacks
	CodeUnknownModel = "unknown_model" // query names a model the catalog lacks
	CodeTransient    = "transient"     // transient failure survived retries and fallback; safe to retry

	// CodeUnsupportedQuery: the SQL parsed but the engine cannot execute
	// its shape (e.g. a rejected aggregate form).
	CodeUnsupportedQuery = "unsupported_query"

	// Cluster codes (coordinator mode and the shard-exec endpoint).
	CodeEpochMismatch    = "epoch_mismatch"    // shard catalog epoch differs from the coordinator's expectation
	CodeShardUnavailable = "shard_unavailable" // a shard could not be reached and the query cannot be answered soundly
)

// statusClientClosedRequest is nginx's non-standard 499: the client
// disconnected before the response was produced.
const statusClientClosedRequest = 499

var statuses = map[string]int{
	CodeBadRequest:       http.StatusBadRequest,
	CodeNotFound:         http.StatusNotFound,
	CodeRejected:         http.StatusTooManyRequests,
	CodeShuttingDown:     http.StatusServiceUnavailable,
	CodeInternal:         http.StatusInternalServerError,
	CodeTimeout:          http.StatusGatewayTimeout,
	CodeCancelled:        statusClientClosedRequest,
	CodeStalePlan:        http.StatusConflict,
	CodeParse:            http.StatusBadRequest,
	CodeUnknownTable:     http.StatusNotFound,
	CodeUnknownModel:     http.StatusNotFound,
	CodeTransient:        http.StatusServiceUnavailable,
	CodeUnsupportedQuery: http.StatusBadRequest,
	CodeEpochMismatch:    http.StatusConflict,
	CodeShardUnavailable: http.StatusBadGateway,
}

// Status returns the HTTP status a code is served with (500 for a
// code the table does not know).
func Status(code string) int {
	if st, ok := statuses[code]; ok {
		return st
	}
	return http.StatusInternalServerError
}

// ErrorBody is the inside of the error envelope.
type ErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// ErrorEnvelope is the body of every non-200 answer.
type ErrorEnvelope struct {
	Error ErrorBody `json:"error"`
}

// Error is a non-200 answer as Call's caller sees it. Code is empty
// when the body was not an envelope (a proxy's error page, a crashed
// node); Message is then the start of the raw body.
type Error struct {
	Status  int
	Code    string
	Message string
}

func (e *Error) Error() string {
	if e.Code == "" {
		return fmt.Sprintf("http %d: %s", e.Status, e.Message)
	}
	return fmt.Sprintf("remote %s: %s", e.Code, e.Message)
}
