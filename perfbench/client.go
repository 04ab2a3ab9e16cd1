package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"time"
)

// clients is how many requests the benchmark keeps in flight at most:
// one per CPU, so the load generator never outnumbers the cores the
// daemons under test run on.
var clients = max(1, runtime.NumCPU())

// newClient returns the benchmark's one HTTP client. It keeps at most
// clients connections per daemon and never compresses, so every byte of a
// reply is the server's.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: clients,
		MaxConnsPerHost:     clients,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}}
}

// statusError is a non-2xx reply.
type statusError struct {
	Code int
	Body string
}

func (e *statusError) Error() string {
	return fmt.Sprintf("HTTP %d: %s", e.Code, e.Body)
}

// do sends one request with a deadline and returns the reply body; a
// non-2xx status, a transport error and a timeout are all errors.
func do(c *http.Client, method, url string, body []byte, timeout time.Duration) ([]byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: read reply: %w", method, url, err)
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		if len(raw) > 200 {
			raw = raw[:200]
		}
		return nil, &statusError{Code: resp.StatusCode, Body: string(bytes.TrimSpace(raw))}
	}
	return raw, nil
}

// postJSON marshals v and POSTs it.
func postJSON(c *http.Client, url string, v any, timeout time.Duration) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return do(c, http.MethodPost, url, b, timeout)
}

// diameterReply is the part of a /v1/diameter reply the benchmark checks.
type diameterReply struct {
	Estimate         float64 `json:"estimate"`
	QuotientDiameter float64 `json:"quotientDiameter"`
	Radius           float64 `json:"radius"`
	QuotientNodes    int     `json:"quotientNodes"`
	QuotientEdges    int     `json:"quotientEdges"`
	NumClusters      int     `json:"numClusters"`
	Stages           int     `json:"stages"`
	Metrics          struct {
		Rounds   int64 `json:"rounds"`
		Messages int64 `json:"messages"`
		Updates  int64 `json:"updates"`
	} `json:"metrics"`
	Cached bool `json:"cached"`
}

// appendReply is the part of an append reply the benchmark checks.
type appendReply struct {
	PrevSHA string `json:"prevSha"`
	HeadSHA string `json:"headSha"`
	Applied bool   `json:"applied"`
}

// queryBody is a /v1/diameter or /v1/decompose request.
type queryBody struct {
	Graph string `json:"graph"`
	Tau   int    `json:"tau,omitempty"`
	Seed  uint64 `json:"seed"`
}

// sendAppend sends one delta to a dataset through base and checks the
// reply: 200, applied, and a head that moved.
func sendAppend(c *http.Client, base, name string, delta []byte) (appendReply, error) {
	raw, err := do(c, http.MethodPost, base+"/v2/datasets/"+name+"/append", delta, 60*time.Second)
	if err != nil {
		return appendReply{}, err
	}
	var r appendReply
	if err := json.Unmarshal(raw, &r); err != nil {
		return appendReply{}, fmt.Errorf("append reply: %w", err)
	}
	if !r.Applied || r.HeadSHA == r.PrevSHA {
		return r, fmt.Errorf("append to %s did not move the head (%s)", name, r.HeadSHA)
	}
	return r, nil
}

// ingest uploads DIMACS bytes as dataset name and faults it in, the two
// calls a client makes before it can query a new dataset.
func ingest(c *http.Client, base, name string, dimacs []byte) (string, error) {
	raw, err := do(c, http.MethodPost, base+"/v2/datasets?name="+name+"&format=dimacs", dimacs, 120*time.Second)
	if err != nil {
		return "", fmt.Errorf("ingest %s: %w", name, err)
	}
	var info struct {
		SHA256 string `json:"sha256"`
	}
	if err := json.Unmarshal(raw, &info); err != nil {
		return "", fmt.Errorf("ingest %s reply: %w", name, err)
	}
	if _, err := do(c, http.MethodPost, base+"/v2/datasets/"+name+"/load", nil, 120*time.Second); err != nil {
		return "", fmt.Errorf("load %s: %w", name, err)
	}
	return info.SHA256, nil
}
