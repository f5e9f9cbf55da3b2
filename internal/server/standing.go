package server

// The standing-query surface: POST /v1/subscribe registers a SELECT as
// a standing query, DELETE /v1/subscribe/{id} removes it, GET
// /v1/notifications long-polls the engine's bounded delivery queue, and
// GET /v1/subscriptions lists the registered set with per-subscription
// match/drop counters.
//
// Notifications deliberately bypass admission control: a long-poll
// parked on an empty queue holds no engine resources, and letting it
// occupy a worker slot would let idle subscribers starve real queries.
// The poll is still bounded by the request timeout and registered with
// the shutdown drain group.

import (
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"time"

	"minequery"
	"minequery/internal/standing"
	"minequery/internal/wire"
)

type subscribeRequest struct {
	SQL string `json:"sql"`
}

type subscribeResponse struct {
	SubscriptionID int64  `json:"subscription_id"`
	Table          string `json:"table"`
}

// notificationBody is the wire form of one standing-query match. Row is
// the matched row as AppendRow encodes a query result's rows.
type notificationBody struct {
	Seq            int64           `json:"seq"`
	SubscriptionID int64           `json:"subscription_id"`
	Table          string          `json:"table"`
	Columns        []string        `json:"columns"`
	Row            json.RawMessage `json:"row"`
	Epoch          int64           `json:"epoch"`
}

type notificationsResponse struct {
	Notifications []notificationBody `json:"notifications"`
	Count         int                `json:"count"`
}

type standingStatsBody struct {
	Registered int   `json:"registered"`
	Matches    int64 `json:"matches"`
	Evals      int64 `json:"evals"`
	ModelCalls int64 `json:"model_calls"`
	Dropped    int64 `json:"dropped"`
	Recompiles int64 `json:"recompiles"`
}

type subscriptionsResponse struct {
	Subscriptions []minequery.SubscriptionInfo `json:"subscriptions"`
	Stats         standingStatsBody            `json:"stats"`
}

func (s *Server) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	var req subscribeRequest
	if err := decodeBody(r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	if req.SQL == "" {
		s.writeError(w, errBadRequest("sql is required"))
		return
	}
	id, err := s.eng.Subscribe(req.SQL)
	if err != nil {
		s.writeError(w, err)
		return
	}
	table := ""
	for _, info := range s.eng.Subscriptions() {
		if info.ID == id {
			table = info.Table
			break
		}
	}
	writeJSON(w, http.StatusOK, subscribeResponse{SubscriptionID: id, Table: table})
}

func (s *Server) handleUnsubscribe(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		s.writeError(w, errBadRequest("subscription id must be an integer"))
		return
	}
	if err := s.eng.Unsubscribe(id); err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"unsubscribed": true})
}

func (s *Server) handleSubscriptions(w http.ResponseWriter, r *http.Request) {
	st := s.eng.StandingStats()
	subs := s.eng.Subscriptions()
	if subs == nil {
		subs = []minequery.SubscriptionInfo{}
	}
	writeJSON(w, http.StatusOK, subscriptionsResponse{
		Subscriptions: subs,
		Stats: standingStatsBody{
			Registered: st.Registered,
			Matches:    st.Matches,
			Evals:      st.Evals,
			ModelCalls: st.ModelCalls,
			Dropped:    st.Dropped,
			Recompiles: st.Recompiles,
		},
	})
}

// handleNotifications long-polls the delivery queue: it waits up to
// timeout_ms (default 10s, capped at 60s) for at least one notification
// and returns up to max (default 100) in one batch. An empty batch with
// a 200 means the wait timed out or a drain began — poll again; it is
// not an error.
func (s *Server) handleNotifications(w http.ResponseWriter, r *http.Request) {
	wait, err := pollWait(r.URL.Query().Get("timeout_ms"))
	if err != nil {
		s.writeError(w, err)
		return
	}
	max := 0
	if v := r.URL.Query().Get("max"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			s.writeError(w, errBadRequest("max must be a positive integer"))
			return
		}
		max = n
	}
	ctx, cancel := context.WithTimeout(r.Context(), wait)
	defer cancel()
	go func() {
		select {
		case <-s.stop:
			cancel()
		case <-ctx.Done():
		}
	}()
	ns, err := s.eng.Notifications(ctx, max)
	if err != nil {
		// The poll deadline lapsing, or a drain beginning, with nothing
		// queued is the normal idle outcome of a long poll, not a query
		// timeout: answer 200 with an empty batch so clients just re-poll.
		// A client disconnect still surfaces as cancelled.
		if ctx.Err() != nil && r.Context().Err() == nil {
			writeJSON(w, http.StatusOK, notificationsResponse{Notifications: []notificationBody{}})
			return
		}
		s.writeError(w, err)
		return
	}
	body, err := notificationsBody(ns)
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, body)
}

// pollWait parses a long poll's timeout_ms: 10s when absent, at most a
// minute. The milliseconds are capped before they become a Duration, so
// a huge value cannot overflow into a negative wait that answers at
// once.
func pollWait(v string) (time.Duration, error) {
	if v == "" {
		return 10 * time.Second, nil
	}
	ms, err := strconv.ParseInt(v, 10, 64)
	if err != nil || ms < 0 {
		return 0, errBadRequest("timeout_ms must be a non-negative integer")
	}
	return time.Duration(min(ms, time.Minute.Milliseconds())) * time.Millisecond, nil
}

// recentImages is how many of the latest Images notificationsBody keeps
// the encoding of. EvalBatch queues all of one row's matches together, so
// an Image recurs only among the notifications right after its first: as
// many select lists as a row matches under, few in practice.
const recentImages = 8

// notificationsBody encodes delivered matches; a row JSON cannot carry
// is an internal error. The notifications of one row under one select
// list share an Image, and an Image among the recentImages latest is
// encoded once: they share its bytes too. A body of distinct Images
// costs what encoding each row costs.
func notificationsBody(ns []minequery.Notification) (notificationsResponse, error) {
	body := notificationsResponse{Notifications: make([]notificationBody, len(ns)), Count: len(ns)}
	var recent [recentImages]struct {
		img *standing.Image
		row json.RawMessage
	}
	next := 0
	for i, n := range ns {
		var row json.RawMessage
		for j := range recent {
			if recent[j].img == n.Image {
				row = recent[j].row
				break
			}
		}
		if row == nil {
			var err error
			if row, err = wire.AppendRow(nil, n.Row); err != nil {
				return notificationsResponse{}, errInternal(err.Error())
			}
			recent[next].img, recent[next].row = n.Image, row
			next = (next + 1) % recentImages
		}
		body.Notifications[i] = notificationBody{
			Seq:            n.Seq,
			SubscriptionID: n.SubID,
			Table:          n.Table,
			Columns:        n.Columns,
			Row:            row,
			Epoch:          n.Epoch,
		}
	}
	return body, nil
}
