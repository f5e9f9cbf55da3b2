package server

import "minequery/internal/wire"

// The tests in this package predate internal/wire and name the
// protocol by what this package used to declare. They are kept
// byte-unmodified across the move — they are what proves it changed no
// behaviour — so the old names live on here, for tests only.
type (
	executeRequest         = wire.ExecuteRequest
	prepareRequest         = wire.PrepareRequest
	prepareResponse        = wire.PrepareResponse
	explainAnalyzeRequest  = wire.ExplainAnalyzeRequest
	explainAnalyzeResponse = wire.ExplainAnalyzeResponse
	errorBody              = wire.ErrorBody
)

const (
	CodeBadRequest       = wire.CodeBadRequest
	CodeNotFound         = wire.CodeNotFound
	CodeRejected         = wire.CodeRejected
	CodeShuttingDown     = wire.CodeShuttingDown
	CodeTimeout          = wire.CodeTimeout
	CodeParse            = wire.CodeParse
	CodeUnknownTable     = wire.CodeUnknownTable
	CodeTransient        = wire.CodeTransient
	CodeUnsupportedQuery = wire.CodeUnsupportedQuery
)
