package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"time"
)

// request is one pre-encoded HTTP request. Bodies are encoded before any
// clock starts, so the generator's own JSON work never lands in a sample.
type request struct {
	method string
	path   string
	body   []byte
	want   int // expected status code
}

// conn is one keep-alive HTTP/1.1 connection: a transport of its own capped
// at a single connection, used by one goroutine at a time (closed loop).
type conn struct {
	client *http.Client
	buf    bytes.Buffer
}

func newConn() *conn {
	return &conn{client: &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}}
}

func (c *conn) close() { c.client.CloseIdleConnections() }

// do sends r to base and returns the service time (send → last body byte),
// the status and the body. The body slice is valid until the next call.
func (c *conn) do(base string, r *request) (time.Duration, int, []byte, error) {
	req, err := http.NewRequest(r.method, base+r.path, bytes.NewReader(r.body))
	if err != nil {
		return 0, 0, nil, err
	}
	if r.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	c.buf.Reset()
	start := time.Now()
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, 0, nil, err
	}
	_, err = c.buf.ReadFrom(resp.Body)
	elapsed := time.Since(start)
	_ = resp.Body.Close() // the body was only read
	if err != nil {
		return elapsed, resp.StatusCode, nil, fmt.Errorf("read %s body: %w", r.path, err)
	}
	return elapsed, resp.StatusCode, c.buf.Bytes(), nil
}

// get fetches a small JSON document outside any timed section.
func get(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return body, nil
}
