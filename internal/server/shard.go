package server

import (
	"net/http"

	"minequery/internal/wire"
)

// handleShardInfo summarizes the catalog (epoch, tables, model
// fingerprints) so a coordinator can prove its envelope-driven shard
// pruning still sound against this node's models.
func (s *Server) handleShardInfo(w http.ResponseWriter, r *http.Request) {
	done, err := s.beginRequest()
	if err != nil {
		s.writeError(w, err)
		return
	}
	defer done()
	summaries := s.eng.ModelSummaries()
	models := make([]wire.ModelInfo, len(summaries))
	for i, m := range summaries {
		models[i] = wire.ModelInfo{
			Name:          m.Name,
			Version:       m.Version,
			Fingerprint:   m.Fingerprint,
			PredictColumn: m.PredictColumn,
			Classes:       m.Classes,
		}
	}
	writeJSON(w, http.StatusOK, wire.ShardInfoResponse{
		Epoch:  s.eng.CatalogEpoch(),
		Tables: s.eng.TableNames(),
		Models: models,
	})
}
