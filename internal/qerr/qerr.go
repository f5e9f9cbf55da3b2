// Package qerr defines the sentinel errors shared by the query
// pipeline's layers (sqlparse, core, the public engine, the server).
// Each layer wraps these with %w and its own context, so callers can
// branch with errors.Is without depending on message text, and the
// server can map them to stable HTTP error codes.
package qerr

import "errors"

var (
	// ErrParse marks a SQL lexing or parsing failure.
	ErrParse = errors.New("parse error")
	// ErrUnknownTable marks a reference to a table the catalog does not
	// hold.
	ErrUnknownTable = errors.New("unknown table")
	// ErrUnknownModel marks a reference to a mining model the catalog
	// does not hold.
	ErrUnknownModel = errors.New("unknown model")
	// ErrUnsupportedQuery marks a query the dialect parses but the
	// engine cannot execute: an aggregate shape outside the supported
	// forms (SELECT * with GROUP BY, a plain select-list column not in
	// GROUP BY, SUM/AVG over a non-numeric column). It is a permanent
	// client error, never retried.
	ErrUnsupportedQuery = errors.New("unsupported query")
	// ErrRetrainFailed marks a write statement whose rows committed
	// durably but whose write-volume retrain trigger failed afterwards.
	// It is a partial-success signal, not a statement failure: callers
	// receive the statement result (rows affected, epoch) alongside an
	// error wrapping this sentinel, and the retrain is retried on the
	// next write to the table. Treating it as a wholesale failure — and
	// e.g. re-issuing the statement — double-applies the write.
	ErrRetrainFailed = errors.New("retrain failed after committed write")
	// ErrPlanInvalidated marks an execution refused because a model the
	// plan pins by version has since been retrained or replaced. The
	// executor raises it when building the plan's operators; the engine
	// reports it to callers as a stale plan, to be re-prepared.
	ErrPlanInvalidated = errors.New("plan invalidated")
	// ErrTransient marks a failure that may succeed on retry: a flaky
	// page read, a stalled I/O completing late. The executor retries
	// these with bounded backoff, and — when retries are exhausted on an
	// index access path — the engine falls back to the baseline
	// sequential scan, which is always semantically equivalent (the
	// envelope rewrite is an optimization the engine may abandon without
	// changing answers). Layers wrap it with %w so errors.Is matches
	// through retry and fallback wrapping.
	ErrTransient = errors.New("transient failure")
)
