package server

import (
	"net/http"
	"strconv"
	"strings"

	"minequery/internal/wire"
)

// handleShardInfo summarizes the catalog (epoch, tables, model
// fingerprints) so a coordinator can prove its envelope-driven shard
// pruning still sound against this node's models. Asked with
// ?epoch=N&models=D — the epoch the coordinator cached the models at and
// their wire.ModelsDigest — a catalog still at N, whose last full answer
// at N had digest D, answers the epoch alone. The digest is what a
// restarted process, whose epochs count from zero again, is told apart
// by.
//
// The epoch is read before the models. A catalog change bumps the epoch
// only after its model map has changed, so models read after the epoch
// are at least as new as it: an answer can pair an epoch with newer
// models, whose own bump makes the next probe at that epoch miss and
// refetch, but never with older ones, which a probe at the newer epoch
// would confirm until the next change.
func (s *Server) handleShardInfo(w http.ResponseWriter, r *http.Request) {
	epoch := s.eng.CatalogEpoch()
	if q, ok := queryParam(r.URL.RawQuery, "epoch"); ok {
		cached, err := strconv.ParseInt(q, 10, 64)
		if err != nil {
			s.writeError(w, errBadRequest("shard-info: epoch must be an integer, got "+strconv.Quote(q)))
			return
		}
		digest, _ := queryParam(r.URL.RawQuery, "models")
		if last := s.lastInfo.Load(); cached == epoch && last != nil && last.epoch == epoch && last.digest == digest {
			writeJSON(w, http.StatusOK, wire.ShardInfoResponse{Epoch: epoch})
			return
		}
	}
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
	s.lastInfo.Store(&infoDigest{epoch: epoch, digest: wire.ModelsDigest(models)})
	writeJSON(w, http.StatusOK, wire.ShardInfoResponse{
		Epoch:  epoch,
		Tables: s.eng.TableNames(),
		Models: models,
	})
}

// infoDigest is a full shard-info answer as a probe compares it: its
// epoch and the digest of its models.
type infoDigest struct {
	epoch  int64
	digest string
}

// queryParam returns the raw value of the first name=value pair in a
// URL's query, without building the map URL.Query would.
func queryParam(rawQuery, name string) (string, bool) {
	for rawQuery != "" {
		var pair string
		pair, rawQuery, _ = strings.Cut(rawQuery, "&")
		if k, v, _ := strings.Cut(pair, "="); k == name {
			return v, true
		}
	}
	return "", false
}
