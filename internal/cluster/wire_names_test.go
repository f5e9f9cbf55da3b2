package cluster

import "minequery/internal/wire"

// The cluster_test suite predates internal/wire and names these bodies
// as cluster's own. It is kept byte-unmodified across the move — it is
// what proves the move changed no behaviour — so the old names live on
// here, for tests only.
type (
	PreparedInfo    = wire.PreparedInfo
	ShardStatus     = wire.ShardStatus
	StatementResult = wire.StatementResult
)
