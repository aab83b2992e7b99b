// Package taintflow exercises the taintflow analyzer: request-derived values
// must pass ValidateSeries or an ID/shape check before reaching the index,
// the WAL, or an allocation size.
package taintflow

import (
	"context"
	"errors"
	"net/http"
	"strconv"
)

// Store models the WAL store; Append* methods on it are taint sinks.
type Store struct{}

func (s *Store) AppendIngest(id int64, vals []float64) error { return nil }

// ConcurrentIndex models the index; Insert* methods are taint sinks.
type ConcurrentIndex struct{}

func (ix *ConcurrentIndex) Insert(id uint64, vals []float64) {}

// ValidateSeries models tsio.ValidateSeries: the recognized sanitizer.
func ValidateSeries(vals []float64, n int) error { return nil }

var errBad = errors.New("bad request")

type ingestReq struct {
	ID     uint64
	Values []float64
}

// decode models the request-body decode helper: it fills dst from r, so the
// caller's struct is request-derived afterwards.
func decode(r *http.Request, dst *ingestReq) error {
	if r.ContentLength == 0 {
		return errBad
	}
	return nil
}

// handleRaw ships the decoded body straight into the WAL: nothing ever
// checked the payload.
func handleRaw(w http.ResponseWriter, r *http.Request, s *Store) {
	var req ingestReq
	if err := decode(r, &req); err != nil {
		return
	}
	_ = s.AppendIngest(1, req.Values) // want "unvalidated request data .* reaches AppendIngest"
}

// handleValidated is clean: ValidateSeries admits the decoded request.
func handleValidated(w http.ResponseWriter, r *http.Request, s *Store) {
	var req ingestReq
	if err := decode(r, &req); err != nil {
		return
	}
	if err := ValidateSeries(req.Values, 8); err != nil {
		return
	}
	_ = s.AppendIngest(1, req.Values)
}

// storeVals sinks its parameter without validating it: callers inherit the
// sink through the SinkParams summary bit.
func storeVals(s *Store, vals []float64) {
	_ = s.AppendIngest(2, vals)
}

// handleTransitive reaches the WAL through the helper.
func handleTransitive(w http.ResponseWriter, r *http.Request, s *Store) {
	var req ingestReq
	if err := decode(r, &req); err != nil {
		return
	}
	storeVals(s, req.Values) // want "unvalidated request data .* reaches storeVals"
}

// checkedStore validates before sinking: a barrier, not a conduit — the
// sink bit is masked by the validation bit.
func checkedStore(s *Store, vals []float64) error {
	if err := ValidateSeries(vals, 8); err != nil {
		return err
	}
	_ = s.AppendIngest(3, vals)
	return nil
}

// handleBarrier is clean twice over: the helper masks its own sink, and its
// validation sanitizes the caller's argument for the rest of the function.
func handleBarrier(w http.ResponseWriter, r *http.Request, s *Store) {
	var req ingestReq
	if err := decode(r, &req); err != nil {
		return
	}
	if err := checkedStore(s, req.Values); err != nil {
		return
	}
	_ = s.AppendIngest(4, req.Values)
}

// parseCount derives a count from the request; the result is still
// request-shaped data.
func parseCount(r *http.Request) int {
	return int(r.ContentLength)
}

// handleAlloc sizes an allocation from the request: a hostile count
// allocates arbitrarily more than the client sent. The bound-checked copy
// below is clean — the comparison is the shape check.
func handleAlloc(w http.ResponseWriter, r *http.Request) {
	n := parseCount(r)
	buf := make([]float64, n) // want "allocation sized by unvalidated request data"
	_ = buf
	m := parseCount(r)
	if m > 4096 {
		return
	}
	out := make([]float64, m)
	_ = out
}

// handleDelete is clean: a strconv parse is a shape-checked scalar.
func handleDelete(w http.ResponseWriter, r *http.Request, ix *ConcurrentIndex) {
	id, err := strconv.Atoi(r.URL.Query().Get("id"))
	if err != nil {
		return
	}
	ix.Insert(uint64(id), nil)
}

type series struct {
	Values []float64
}

type batchReq struct {
	Items []series
}

func decodeBatch(r *http.Request, dst *batchReq) error {
	if r.ContentLength == 0 {
		return errBad
	}
	return nil
}

// handleBatch ranges over the decoded batch: every element of untrusted
// data is untrusted.
func handleBatch(w http.ResponseWriter, r *http.Request, s *Store) {
	var req batchReq
	if err := decodeBatch(r, &req); err != nil {
		return
	}
	for _, item := range req.Items {
		_ = s.AppendIngest(4, item.Values) // want "unvalidated request data .* reaches AppendIngest"
	}
}

// handleAsync builds a commit closure over the tainted request: the literal
// is walked inline, so the sink inside it is still seen.
func handleAsync(w http.ResponseWriter, r *http.Request, s *Store) {
	var req ingestReq
	if err := decode(r, &req); err != nil {
		return
	}
	commit := func() {
		_ = s.AppendIngest(6, req.Values) // want "unvalidated request data .* reaches AppendIngest"
	}
	commit()
}

// summarize models a cancellable helper over validated data.
func summarize(ctx context.Context, vals []float64) []float64 {
	if ctx.Err() != nil {
		return nil
	}
	return vals
}

// handleCancellable is clean: the request's context is not payload, so the
// helper's result is as trusted as the validated values it was given.
func handleCancellable(w http.ResponseWriter, r *http.Request, s *Store) {
	var req ingestReq
	if err := decode(r, &req); err != nil {
		return
	}
	if err := ValidateSeries(req.Values, 8); err != nil {
		return
	}
	_ = s.AppendIngest(9, summarize(r.Context(), req.Values))
}

// handleReplay documents a deliberate exception.
func handleReplay(w http.ResponseWriter, r *http.Request, s *Store) {
	var req ingestReq
	if err := decode(r, &req); err != nil {
		return
	}
	_ = s.AppendIngest(7, req.Values) //sapla:untainted fixture model of a trusted internal replay path
}

// registerHandlers pins the closure scan: a handler registered as a literal
// is a taint source of its own even though the enclosing function never
// sees a request.
func registerHandlers(mux *http.ServeMux, s *Store) {
	mux.HandleFunc("/raw", func(w http.ResponseWriter, r *http.Request) {
		var req ingestReq
		if err := decode(r, &req); err != nil {
			return
		}
		_ = s.AppendIngest(8, req.Values) // want "unvalidated request data .* reaches AppendIngest"
	})
}
