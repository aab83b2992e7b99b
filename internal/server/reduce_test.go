package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"sapla/internal/ts"
)

// TestReduceAllConcurrent: eight callers share one server's reducer pool at
// once; every call must return what a serial reduction returns. Meant for
// -race -count=10: a pooled Reducer handed to two workers shows up there.
func TestReduceAllConcurrent(t *testing.T) {
	s, err := New(Config{M: 12})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	values := make([]ts.Series, 24)
	for i := range values {
		values[i] = randWalk(rng, 64)
	}
	want, _, err := s.reduceAll(context.Background(), values, 1)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(workers int) {
			defer wg.Done()
			got, _, err := s.reduceAll(context.Background(), values, workers)
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Errorf("workers=%d: err %v, representations differ from the serial ones: %v", workers, err, !reflect.DeepEqual(got, want))
			}
		}(g%4 + 1)
	}
	wg.Wait()
}

// TestReduceAllErrorOrder: with two irreducible items the lower index is
// reported at every worker count, as the serial loop it replaced would.
func TestReduceAllErrorOrder(t *testing.T) {
	s, err := New(Config{M: 12})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(22))
	values := make([]ts.Series, 10)
	for i := range values {
		values[i] = randWalk(rng, 64)
	}
	values[3], values[7] = ts.Series{1}, ts.Series{2} // too short for 4 segments
	for _, workers := range []int{1, 2, 8} {
		reps, bad, err := s.reduceAll(context.Background(), values, workers)
		if err == nil || bad != 3 || reps != nil {
			t.Errorf("workers=%d: failed item %d (err %v), want item 3", workers, bad, err)
		}
	}

	// Through the handlers, an ingest batch names the first series that
	// cannot be reduced. A k-NN batch is not reduced: the same values are
	// answered, by an empty index (nothing has fixed the series length).
	_, hs := newTestServer(t, Config{M: 12, Workers: 2})
	items := make([]map[string]any, len(values))
	for i, v := range values {
		items[i] = map[string]any{"values": v}
	}
	var errResp errorResponse
	if code := doJSON(t, hs.Client(), "POST", hs.URL+"/v1/ingest/batch",
		map[string]any{"series": []map[string]any{items[3], items[7]}}, &errResp); code != http.StatusBadRequest ||
		!strings.HasPrefix(errResp.Error, "series 0: reduce: ") {
		t.Errorf("ingest batch: %d %q, want 400 naming series 0", code, errResp.Error)
	}
	var batch batchResponse
	if code := doJSON(t, hs.Client(), "POST", hs.URL+"/v1/knn/batch",
		map[string]any{"k": 1, "queries": items}, &batch); code != http.StatusOK || len(batch.Answers) != len(values) {
		t.Errorf("knn batch: %d with %d answers, want 200 with %d", code, len(batch.Answers), len(values))
	}
}

// cancelAfter is a context that reports cancellation from its limit-th Err
// call on.
type cancelAfter struct {
	context.Context
	calls atomic.Int64
	limit int64
}

func (c *cancelAfter) Err() error {
	if c.calls.Add(1) >= c.limit {
		return context.Canceled
	}
	return nil
}

// TestReduceAllCancel: workers re-check ctx before every claim, so once it is
// cancelled each worker finishes at most the item it holds.
func TestReduceAllCancel(t *testing.T) {
	s, err := New(Config{M: 12})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	values := make([]ts.Series, 64)
	for i := range values {
		values[i] = randWalk(rng, 64)
	}
	for _, workers := range []int{1, 2, 4} {
		ctx := &cancelAfter{Context: context.Background(), limit: 5}
		reps, bad, err := s.reduceAll(ctx, values, workers)
		if err != context.Canceled || bad != -1 || reps != nil {
			t.Errorf("workers=%d: (%v, %d, %v), want a cancelled batch", workers, reps != nil, bad, err)
		}
		// Err answered nil four times, so four items were claimed; every
		// later check saw the cancellation: one per worker, one at the end.
		if got := ctx.calls.Load(); got > int64(4+workers+1) {
			t.Errorf("workers=%d: ctx checked %d times, want at most %d", workers, got, 4+workers+1)
		}
	}

	// Already cancelled: nothing is reduced at all.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, bad, err := s.reduceAll(ctx, values, 2); err != context.Canceled || bad != -1 {
		t.Errorf("pre-cancelled: (%d, %v)", bad, err)
	}
}

// TestBatchWorkersByteIdentical: how many workers reduce a batch must not
// show in the answers — the same requests against Workers 1, 2 and 8 servers
// return the same bytes.
func TestBatchWorkersByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	bodies := wireBodies(rng, 64, wireSeries)
	bulk, batch := bodies[3], bodies[4]
	more := bytes.ReplaceAll(wireBodies(rng, 64, wireSeries)[3], []byte(`"id":`), []byte(`"id":10`))

	var want []string
	for _, workers := range []int{1, 2, 8} {
		_, hs := newTestServer(t, Config{M: 12, Workers: workers, Shards: 2})
		var got []string
		for _, req := range []struct {
			path string
			body []byte
		}{
			{"/v1/ingest/batch", bulk},
			{"/v1/ingest/batch", more},
			{"/v1/knn/batch", batch},
			{"/v1/ingest/batch", bulk}, // duplicate IDs: 409, byte-identical too
		} {
			resp, err := hs.Client().Post(hs.URL+req.path, "application/json", bytes.NewReader(req.body))
			if err != nil {
				t.Fatal(err)
			}
			raw, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, fmt.Sprintf("%d %s", resp.StatusCode, raw))
		}
		if want == nil {
			want = got
			if !strings.HasPrefix(got[0], "201 ") || !strings.HasPrefix(got[2], "200 ") || !strings.HasPrefix(got[3], "409 ") {
				t.Fatalf("reference answers: %q", got)
			}
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d answers\n%q\nworkers=1 answers\n%q", workers, got, want)
		}
	}
}
