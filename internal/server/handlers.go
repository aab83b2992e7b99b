package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"slices"
	"strconv"

	"sapla/internal/core"
	"sapla/internal/dist"
	"sapla/internal/index"
	"sapla/internal/par"
	"sapla/internal/ts"
	"sapla/internal/tsio"
	"sapla/internal/wal"
)

// errorResponse is every non-2xx body.
type errorResponse struct {
	Error string `json:"error"`
}

// writeJSON writes v with status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v) //sapla:errok status line already sent; a failed write means the client went away
}

// writeErr writes a JSON error body.
func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// checkSeries validates values against n, the index's fixed series length as
// seriesLen read it for this request. A zero n (nothing ingested yet) admits
// any valid series.
func checkSeries(values ts.Series, n int) error {
	if err := tsio.ValidateSeries(values); err != nil {
		return err
	}
	if n != 0 && len(values) != n {
		return fmt.Errorf("series length %d does not match index series length %d", len(values), n)
	}
	return nil
}

// ingestRequest is the POST /v1/ingest body.
type ingestRequest struct {
	// ID is optional; omitted IDs are assigned by the server.
	ID     *int      `json:"id"`
	Values ts.Series `json:"values"`
}

// ingestResponse reports the stored entry; Representation is set only under
// ?include_rep=1.
type ingestResponse struct {
	ID             int             `json:"id"`
	IndexSize      int             `json:"index_size"`
	Epoch          uint64          `json:"epoch"`
	Representation json.RawMessage `json:"representation,omitempty"`
}

// rejection is a refused batch: the status code, the item of the request at
// fault (-1 when no single item is) and the reason.
type rejection struct {
	code, item int
	err        error
}

// write answers the rejection, naming the series of the batch at fault.
func (rej *rejection) write(w http.ResponseWriter) {
	if rej.item < 0 {
		writeErr(w, rej.code, "%v", rej.err)
		return
	}
	writeErr(w, rej.code, "series %d: %v", rej.item, rej.err)
}

// ingest is the one write commit: it validates and claims every item, checks
// the explicit IDs against the committed series, then commits them shard by
// shard — one WAL group append of the bare values (one fsync at
// SyncEvery=1), one exclusive index lock acquisition and one epoch advance
// per touched shard — and releases its claims once every shard has finished.
// Nothing is reduced: the flat tier filters on the raw values' chunk
// envelope. It is atomic over acknowledgement: any invalid series, duplicate
// ID, append or insert failure rejects all of items with nothing applied. A
// single ingest is a batch of one.
func (s *Server) ingest(ctx context.Context, items []ingestRequest) ([]int, *rejection) {
	// Validate everything before taking a lock. The validation loop is the
	// taint barrier — values and reqIDs hold only items that passed it, and
	// every phase below works from these extracts, never from the raw request
	// again; FuzzHandlers is the check that it holds.
	n := s.seriesLen()
	values := make([]ts.Series, len(items))
	reqIDs := make([]*int, len(items))
	for i, item := range items {
		if err := checkSeries(item.Values, n); err != nil {
			return nil, &rejection{http.StatusBadRequest, i, err}
		}
		if item.ID != nil && *item.ID == math.MaxInt { // nextID would wrap
			return nil, &rejection{http.StatusBadRequest, i, fmt.Errorf(
				"id %d is reserved: explicit IDs must be below it", *item.ID)}
		}
		values[i] = item.Values
		reqIDs[i] = item.ID
		if len(values[i]) != len(values[0]) {
			return nil, &rejection{http.StatusBadRequest, -1, fmt.Errorf(
				"series %d length %d does not match series 0 length %d", i, len(values[i]), len(values[0]))}
		}
	}

	// The series length and the claims are cross-shard, so every ID resolves
	// and claims under one bookMu hold: racing ingests cannot claim one ID or
	// disagree on the length, and the same explicit ID conflicts while the
	// first ingest of it is still in flight.
	s.bookMu.Lock()
	if s.n != 0 && len(values[0]) != s.n {
		n := s.n
		s.bookMu.Unlock()
		return nil, &rejection{http.StatusBadRequest, -1, fmt.Errorf(
			"series length %d does not match index series length %d", len(values[0]), n)}
	}
	// Every explicit ID must be free of in-flight claims and of the request
	// itself before anything claims, so a conflict rejects with nothing to
	// release.
	ids := make([]int, len(values))
	inBatch := make(map[int]bool, len(values))
	for _, rid := range reqIDs {
		if rid == nil {
			continue
		}
		id := *rid
		if s.claimed[id] || inBatch[id] {
			s.bookMu.Unlock()
			return nil, &rejection{http.StatusConflict, -1, fmt.Errorf("id %d already exists", id)}
		}
		inBatch[id] = true
	}
	for i, rid := range reqIDs {
		if rid != nil {
			ids[i] = *rid
			if ids[i] >= s.nextID {
				s.nextID = ids[i] + 1
			}
		} else {
			for inBatch[s.nextID] { // an explicit ID later in this request
				s.nextID++
			}
			ids[i] = s.nextID
			s.nextID++
		}
		s.claimed[ids[i]] = true
	}
	// The length pins at claim time, not commit time, so two racing first
	// ingests of different lengths cannot both pass the check above.
	s.n = len(values[0])
	s.bookMu.Unlock()
	// The claims go only once every touched shard's commit or unwind has
	// finished: a committed ID is then its shard's to refuse, a rejected one
	// is free again.
	defer func() {
		s.bookMu.Lock()
		for _, id := range ids {
			delete(s.claimed, id)
		}
		s.bookMu.Unlock()
	}()

	// Split by owning shard, preserving request order within each group so
	// each shard's flat tier is a deterministic function of the request.
	nshards := len(s.shards)
	groups := make([][]int, nshards) // positions in items per shard
	var touched []int                // shards with a non-empty group
	for i, id := range ids {
		si := index.ShardOf(id, nshards)
		if groups[si] == nil {
			touched = append(touched, si)
		}
		groups[si] = append(groups[si], i)
	}
	// A claimed explicit ID may still be committed: its shard's flat tier
	// answers. The claim keeps any other ingest from committing it between
	// this check and the commit below. Auto IDs never are (see nextID), so a
	// request without explicit IDs takes no shard lock here.
	if len(inBatch) > 0 {
		for _, si := range touched {
			sh := s.shards[si]
			sh.mu.Lock()
			dup := slices.IndexFunc(groups[si], func(pos int) bool {
				_, ok := sh.flat.Lookup(ids[pos])
				return ok
			})
			sh.mu.Unlock()
			if dup >= 0 {
				return nil, &rejection{http.StatusConflict, -1, fmt.Errorf("id %d already exists", ids[groups[si][dup]])}
			}
		}
	}
	// The groups commit concurrently, each under its shard's mu with the WAL
	// append strictly before its inserts become visible. One touched shard —
	// every single ingest — commits on this goroutine. Once IDs are claimed
	// the commit runs to its end whatever happens to the request, so the
	// fan-out is detached from ctx's cancellation.
	type shardCommit struct {
		logged bool // the group's records reached the shard's log, or it has none
		err    error
	}
	commits := make([]shardCommit, len(touched))
	par.Do(context.WithoutCancel(ctx), len(touched), len(touched), func(ti int) {
		si, c := touched[ti], &commits[ti]
		sh := s.shards[si]
		sh.mu.Lock()
		defer sh.mu.Unlock()
		if sh.store != nil {
			batch := make([]wal.Series, len(groups[si]))
			for gi, pos := range groups[si] {
				batch[gi] = wal.Series{ID: int64(ids[pos]), Values: values[pos]}
			}
			if c.err = sh.store.AppendIngestBatch(batch); c.err != nil {
				return
			}
		}
		c.logged = true
		// The flat tier reads the raw values only: the entries carry no
		// representation.
		entries := make([]*index.Entry, len(groups[si]))
		for gi, pos := range groups[si] {
			entries[gi] = &index.Entry{ID: ids[pos], Raw: values[pos]}
		}
		c.err = s.idx.Shard(si).InsertBatch(entries)
	})
	if failed := slices.IndexFunc(commits, func(c shardCommit) bool { return c.err != nil }); failed >= 0 {
		// Reject wholesale: undo every shard whose records reached its log —
		// a compensating delete record per ID, all of a shard's in one
		// append, then the index removals, so replay converges to the served
		// state. That includes a shard whose
		// InsertBatch failed: the flat tier has already rolled that batch
		// back, so its index delete is a no-op and its delete records replay
		// onto absent IDs, which wal replay tolerates. During the unwind
		// another shard's entries are transiently visible to searches —
		// multi-shard atomicity is over acknowledgement (all-or-nothing at the
		// API), not over in-flight reads.
		for ti, c := range commits {
			if !c.logged {
				continue
			}
			si := touched[ti]
			sh := s.shards[si]
			undo := make([]int64, len(groups[si]))
			for gi, pos := range groups[si] {
				undo[gi] = int64(ids[pos])
			}
			sh.mu.Lock()
			if sh.store != nil {
				_ = sh.store.AppendDelete(undo...) // compensating append while rejecting the whole request: the ingests it undoes are never acknowledged, and a broken store refuses every later append anyway
			}
			for _, pos := range groups[si] {
				s.idx.Shard(si).Delete(ids[pos])
			}
			sh.mu.Unlock()
		}
		if c := commits[failed]; c.logged {
			return nil, &rejection{http.StatusInternalServerError, -1, fmt.Errorf("insert: %w", c.err)}
		}
		return nil, &rejection{http.StatusServiceUnavailable, -1, fmt.Errorf("wal append: %w", commits[failed].err)}
	}
	s.metrics.ingested.Add(int64(len(ids)))
	return ids, nil
}

// handleIngest inserts one raw series into the index. With ?include_rep=1 it
// first reduces the series under SAPLA at Config.M for the response alone —
// nothing of it is logged or stored — and a series that cannot be reduced is
// refused with 400 before anything is claimed.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	var req ingestRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	var rep json.RawMessage
	if r.URL.Query().Get("include_rep") == "1" {
		var method core.SAPLA // the paper's defaults, reduced on core's pooled Reducers
		lin, err := method.Reduce(req.Values, s.cfg.M)
		if err == nil {
			rep, err = tsio.MarshalRepresentation(lin)
		}
		if err != nil {
			writeErr(w, http.StatusBadRequest, "reduce: %v", err)
			return
		}
	}
	ids, rej := s.ingest(r.Context(), []ingestRequest{req})
	if rej != nil {
		writeErr(w, rej.code, "%v", rej.err)
		return
	}
	writeJSON(w, http.StatusCreated, ingestResponse{
		ID: ids[0], IndexSize: s.idx.Len(), Epoch: s.idx.Epoch(), Representation: rep,
	})
}

// ingestBatchRequest is the POST /v1/ingest/batch body. Items reuse the
// single-ingest shape, so per-item IDs stay optional.
type ingestBatchRequest struct {
	Series []ingestRequest `json:"series"`
}

// ingestBatchResponse reports the stored entries; IDs[i] answers Series[i].
type ingestBatchResponse struct {
	IDs       []int  `json:"ids"`
	IndexSize int    `json:"index_size"`
	Epoch     uint64 `json:"epoch"`
}

// handleIngestBatch inserts many raw series as one atomic batch (see
// ingest).
func (s *Server) handleIngestBatch(w http.ResponseWriter, r *http.Request) {
	var req ingestBatchRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if len(req.Series) == 0 {
		writeErr(w, http.StatusBadRequest, "batch needs at least one series")
		return
	}
	if len(req.Series) > s.cfg.MaxBatch {
		writeErr(w, http.StatusBadRequest,
			"batch of %d exceeds limit %d", len(req.Series), s.cfg.MaxBatch)
		return
	}
	ids, rej := s.ingest(r.Context(), req.Series)
	if rej != nil {
		rej.write(w)
		return
	}
	writeJSON(w, http.StatusCreated, ingestBatchResponse{
		IDs: ids, IndexSize: s.idx.Len(), Epoch: s.idx.Epoch(),
	})
}

// resultJSON is one k-NN / range answer.
type resultJSON struct {
	ID   int     `json:"id"`
	Dist float64 `json:"dist"`
}

// statsJSON mirrors index.SearchStats.
type statsJSON struct {
	Measured     int `json:"measured"`
	Filtered     int `json:"filtered"`
	NodesVisited int `json:"nodes_visited"`
}

func toResults(res []index.Result) []resultJSON {
	out := make([]resultJSON, len(res))
	for i, r := range res {
		out[i] = resultJSON{ID: r.Entry.ID, Dist: r.Dist}
	}
	return out
}

func toStats(st index.SearchStats) statsJSON {
	return statsJSON{Measured: st.Measured, Filtered: st.Filtered, NodesVisited: st.NodesVisited}
}

// knnRequest is the POST /v1/knn body.
type knnRequest struct {
	Values ts.Series `json:"values"`
	K      int       `json:"k"`
}

// knnResponse answers one query.
type knnResponse struct {
	Epoch   uint64       `json:"epoch"`
	Results []resultJSON `json:"results"`
	Stats   statsJSON    `json:"stats"`
}

// prepareQuery validates one query series. The flat tier filters on the raw
// values' chunk envelope, so a query is not reduced.
func (s *Server) prepareQuery(values ts.Series) (dist.Query, error) {
	if err := checkSeries(values, s.seriesLen()); err != nil {
		return dist.Query{}, err
	}
	return dist.Query{Raw: values}, nil
}

// knnStatus maps a batch search error to a status code: a cancellation
// (client gone, or the request timeout fired — the TimeoutHandler then owns
// the response anyway) is the client's doing, everything else is ours.
func knnStatus(err error) int {
	if errors.Is(err, index.ErrBatchCanceled) {
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

// checkK bounds k.
func (s *Server) checkK(k int) error {
	if k <= 0 || k > s.cfg.MaxK {
		return fmt.Errorf("k must be in [1, %d], got %d", s.cfg.MaxK, k)
	}
	return nil
}

// handleKNN answers one k-NN query as a batch of one, so single queries and
// batches share one code path (index.BatchKNNContext on par.Do, one workspace
// pool). A query is one task, so at any shard count the search runs on this
// goroutine, shard after shard under one running bound.
func (s *Server) handleKNN(w http.ResponseWriter, r *http.Request) {
	var req knnRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if err := s.checkK(req.K); err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	q, err := s.prepareQuery(req.Values)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	size := s.idx.Len()
	out, stats, err := index.BatchKNNContext(r.Context(), s.idx, []dist.Query{q}, req.K, s.cfg.Workers)
	if err != nil {
		writeErr(w, knnStatus(err), "knn: %v", err)
		return
	}
	s.metrics.addSearch(1, stats[0], size)
	writeJSON(w, http.StatusOK, knnResponse{
		Epoch:   s.idx.Epoch(),
		Results: toResults(out[0]),
		Stats:   toStats(stats[0]),
	})
}

// batchRequest is the POST /v1/knn/batch body.
type batchRequest struct {
	K       int          `json:"k"`
	Queries []batchQuery `json:"queries"`
}

// batchQuery is one query of a batch. An alias, so the struct stays unnamed
// and encoding/json's type errors keep naming the field ".queries.values".
type batchQuery = struct {
	Values ts.Series `json:"values"`
}

// batchResponse answers a batch; Answers[i] corresponds to Queries[i].
type batchResponse struct {
	Epoch   uint64      `json:"epoch"`
	Answers []knnAnswer `json:"answers"`
	Totals  statsJSON   `json:"totals"`
}

// knnAnswer is one query's slot in a batch response.
type knnAnswer struct {
	Results []resultJSON `json:"results"`
	Stats   statsJSON    `json:"stats"`
}

// handleKNNBatch answers many k-NN queries concurrently (par.Do over the
// queries; each visits its shards in order); each shard search sees one
// consistent state of its shard.
func (s *Server) handleKNNBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if err := s.checkK(req.K); err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	if len(req.Queries) == 0 {
		writeErr(w, http.StatusBadRequest, "batch needs at least one query")
		return
	}
	if len(req.Queries) > s.cfg.MaxBatch {
		writeErr(w, http.StatusBadRequest,
			"batch of %d exceeds limit %d", len(req.Queries), s.cfg.MaxBatch)
		return
	}
	n := s.seriesLen()
	queries := make([]dist.Query, len(req.Queries))
	for i, rq := range req.Queries {
		if err := checkSeries(rq.Values, n); err != nil {
			writeErr(w, http.StatusBadRequest, "query %d: %v", i, err)
			return
		}
		queries[i] = dist.Query{Raw: rq.Values}
	}
	size := s.idx.Len()
	out, stats, err := index.BatchKNNContext(r.Context(), s.idx, queries, req.K, s.cfg.Workers)
	if err != nil {
		writeErr(w, knnStatus(err), "batch knn: %v", err)
		return
	}
	resp := batchResponse{Epoch: s.idx.Epoch(), Answers: make([]knnAnswer, len(out))}
	var total index.SearchStats
	for i := range out {
		total.Add(stats[i])
		resp.Answers[i] = knnAnswer{Results: toResults(out[i]), Stats: toStats(stats[i])}
	}
	resp.Totals = toStats(total)
	s.metrics.addSearch(len(queries), total, size)
	writeJSON(w, http.StatusOK, resp)
}

// rangeRequest is the POST /v1/range body.
type rangeRequest struct {
	Values ts.Series `json:"values"`
	Radius float64   `json:"radius"`
}

// handleRange answers one ε-range query.
func (s *Server) handleRange(w http.ResponseWriter, r *http.Request) {
	var req rangeRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if req.Radius < 0 {
		writeErr(w, http.StatusBadRequest, "radius must be >= 0, got %g", req.Radius)
		return
	}
	q, err := s.prepareQuery(req.Values)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	size := s.idx.Len()
	res, stats, err := s.idx.Range(q, req.Radius)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "range: %v", err)
		return
	}
	s.metrics.addSearch(1, stats, size)
	writeJSON(w, http.StatusOK, knnResponse{
		Epoch:   s.idx.Epoch(),
		Results: toResults(res),
		Stats:   toStats(stats),
	})
}

// deleteResponse reports a removal.
type deleteResponse struct {
	ID        int    `json:"id"`
	Deleted   bool   `json:"deleted"`
	IndexSize int    `json:"index_size"`
	Epoch     uint64 `json:"epoch"`
}

// handleDelete removes one series by ID.
func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad id %q", r.PathValue("id"))
		return
	}
	// The whole removal runs on the owning shard: presence check, WAL
	// append (same WAL-before-acknowledge discipline as ingest) and index
	// removal under one shard mu hold.
	sh := s.shardFor(id)
	sh.mu.Lock()
	_, present := sh.flat.Lookup(id)
	if present {
		if sh.store != nil {
			if err := sh.store.AppendDelete(int64(id)); err != nil {
				sh.mu.Unlock()
				writeErr(w, http.StatusServiceUnavailable, "wal append: %v", err)
				return
			}
		}
		s.idx.Delete(id)
	}
	sh.mu.Unlock()
	if !present {
		writeErr(w, http.StatusNotFound, "id %d not found", id)
		return
	}
	s.metrics.deleted.Add(1)
	writeJSON(w, http.StatusOK, deleteResponse{
		ID: id, Deleted: true, IndexSize: s.idx.Len(), Epoch: s.idx.Epoch(),
	})
}

// handleHealthz is the liveness probe.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":     "ok",
		"index_size": s.idx.Len(),
		"epoch":      s.idx.Epoch(),
	})
}
